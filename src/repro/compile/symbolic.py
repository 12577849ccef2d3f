"""Symbolic codegen: IR blocks -> specialized term-building plans.

The symbolic twin of :mod:`repro.compile.concrete`.  Each rule is
lowered into a *plan*: a nested tuple tree of tagged statements whose
expression slots are generated Python functions

    def _s0(E, S, FT, FI, L, D): ...

(``E`` engine, ``S`` state, ``FT`` per-decode field *terms*, ``FI`` raw
decoded field ints, ``L`` locals dict, ``D`` decoded) returning a
:class:`repro.smt.terms.Term`.  The generated body is the engine's
recursive ``Engine._eval`` unrolled for one specific expression tree:

* isinstance dispatch is gone — each node became a line of code,
* widths, masks and extension amounts are literals,
* register-index fields are pre-resolved (``FT['rs1'].value`` instead
  of eval + ``_concrete_index``),
* guard tuples for expression-``ite`` arms are threaded exactly as the
  engine threads them, and solver-visible callbacks (``_load``,
  ``_store``, ``_check_div``, ``_fork_branches``,
  ``_concrete_index``) go back through the engine itself.

The plan driver (:func:`exec_block` / ``_run`` / ``_fork``) mirrors
``Engine._run_frames`` / ``Engine._fork_if`` statement for statement —
same solver-query order, same ``assume`` order, same fork order (the
feasibility probes, forks and frame seeding are the engine's own
``Engine._fork_branches``) — because the equivalence contract is *bit-for-bit
identical exploration fingerprints* (tree/leaves/defects), not just
equal final values.  Term construction happens at run time, never at
generation time: the term pool is swappable (``terms.set_pool``), so a
digest-keyed cross-engine cache must not bake ``Term`` objects in.

No constant folding happens here beyond what ``Engine._eval`` itself
does (const-condition ``ite`` laziness, const register indices): the
engine's term *structure* feeds solver queries and fingerprints, so the
compiled path must build exactly the same terms.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..ir import nodes as N
from ..smt import terms as T
from .errors import CompileError

__all__ = ["compile_symbolic", "exec_block",
           "S_LOCAL", "S_LOCAL_IN", "S_REG", "S_REG_IN", "S_PC",
           "S_STORE", "S_OUT", "S_HALT", "S_TRAP", "S_IF"]

# Plan statement tags (first tuple element).
S_LOCAL = 0      # (tag, name, fn)
S_LOCAL_IN = 1   # (tag, name)
S_REG = 2        # (tag, regfile, index_spec, fn)
S_REG_IN = 3     # (tag, regfile, index_spec)
S_PC = 4         # (tag, fn)
S_STORE = 5      # (tag, addr_fn, value_fn, size)
S_OUT = 6        # (tag, fn)
S_HALT = 7       # (tag, fn)
S_TRAP = 8       # (tag, fn)
S_IF = 9         # (tag, cond_fn, then_plan, else_plan)

# index_spec forms for S_REG / S_REG_IN:
#   None               single register (regfile is a plain register)
#   ("f", field_name)  index comes from an encoding field: FT[name].value
#   ("c", value)       constant index, resolved at generation time
#   ("e", fn)          general expression: eval + engine._concrete_index

_BUILDERS = {
    "add": "add", "sub": "sub", "mul": "mul",
    "udiv": "udiv", "urem": "urem", "sdiv": "sdiv", "srem": "srem",
    "and": "and_", "or": "or_", "xor": "xor",
    "shl": "shl", "lshr": "lshr", "ashr": "ashr",
    "eq": "eq", "ne": "ne", "ult": "ult", "ule": "ule",
    "ugt": "ugt", "uge": "uge", "slt": "slt", "sle": "sle",
    "sgt": "sgt", "sge": "sge",
}

_DIV_OPS = frozenset({"udiv", "urem", "sdiv", "srem"})


def _emits_statements(expr: N.Expr) -> bool:
    """Whether rendering ``expr`` emits statement lines (not pure inline).

    Used for operand ordering: when a *right* operand emits statements,
    the left operand must be materialized into a temp first, or the
    right operand's effects (solver checks, loads) would run before the
    left operand evaluates — diverging from ``Engine._eval``'s strict
    left-to-right order.
    """
    if isinstance(expr, N.IteExpr):
        return True
    if isinstance(expr, N.BinOp):
        return (expr.op in _DIV_OPS or _emits_statements(expr.left)
                or _emits_statements(expr.right))
    if isinstance(expr, N.ReadReg):
        if expr.index is None or isinstance(expr.index, (N.Field, N.Const)):
            return False
        return True
    if isinstance(expr, (N.UnOp, N.Ext, N.ExtractBits)):
        return _emits_statements(expr.operand)
    if isinstance(expr, N.ConcatBits):
        return (_emits_statements(expr.hi_part)
                or _emits_statements(expr.lo_part))
    if isinstance(expr, N.Load):
        return _emits_statements(expr.addr)
    return False


class _SymEmitter:
    """Emits one generated term-building function's source."""

    def __init__(self, name: str):
        self.name = name
        self.lines: List[str] = ["def %s(E, S, FT, FI, L, D):" % name]
        self.indent = 1
        self._temp = 0
        self._guard = 0

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def temp(self) -> str:
        self._temp += 1
        return "_t%d" % self._temp

    def guard_name(self) -> str:
        self._guard += 1
        return "_g%d" % self._guard

    # ``guards`` below is a *source-level* expression string for the
    # current guard tuple — "()" at statement level, growing inside
    # symbolic ite arms exactly like Engine._eval's ``guards`` argument.

    def expr(self, expr: N.Expr, guards: str) -> str:
        if isinstance(expr, N.Const):
            return "T.bv(%d, %d)" % (expr.value, expr.width)
        if isinstance(expr, N.Field):
            return "FT[%r]" % expr.name
        if isinstance(expr, N.Local):
            return "L[%r]" % expr.name
        if isinstance(expr, N.Pc):
            return "T.bv(S.pc, %d)" % expr.width
        if isinstance(expr, N.InputByte):
            raise CompileError(
                "in() may only be the entire right-hand side of an "
                "assignment (input discipline, repro.adl.translate)")
        if isinstance(expr, N.ReadReg):
            return "S.read_reg(%r, %s)" % (
                expr.regfile, self._index(expr.index, guards))
        if isinstance(expr, N.Load):
            addr = self.expr(expr.addr, guards)
            return "E._load(S, %s, %d, %s, D)" % (addr, expr.size, guards)
        if isinstance(expr, N.BinOp):
            if expr.op in _DIV_OPS:
                # Both operands materialize in order, then the div-zero
                # check runs *before* the op term is built — engine
                # order.
                left_t = self.temp()
                self.emit("%s = %s" % (left_t, self.expr(expr.left,
                                                         guards)))
                right_t = self.temp()
                self.emit("%s = %s" % (right_t, self.expr(expr.right,
                                                          guards)))
                self.emit("if E.config.check_div_zero:")
                self.emit("    E._check_div(S, %s, %s, D)"
                          % (right_t, guards))
                return "T.%s(%s, %s)" % (_BUILDERS[expr.op], left_t,
                                         right_t)
            left = self.expr(expr.left, guards)
            if _emits_statements(expr.right):
                left_t = self.temp()
                self.emit("%s = %s" % (left_t, left))
                left = left_t
            right = self.expr(expr.right, guards)
            return "T.%s(%s, %s)" % (_BUILDERS[expr.op], left, right)
        if isinstance(expr, N.UnOp):
            operand = self.expr(expr.operand, guards)
            if expr.op in ("not", "boolnot"):
                return "T.not_(%s)" % operand
            if expr.op == "neg":
                return "T.neg(%s)" % operand
            raise CompileError("unknown unary op %r" % expr.op)
        if isinstance(expr, N.Ext):
            operand = self.expr(expr.operand, guards)
            extra = expr.width - expr.operand.width
            kind = "zext" if expr.kind == "zext" else "sext"
            return "T.%s(%s, %d)" % (kind, operand, extra)
        if isinstance(expr, N.ExtractBits):
            return "T.extract(%s, %d, %d)" % (
                self.expr(expr.operand, guards), expr.hi, expr.lo)
        if isinstance(expr, N.ConcatBits):
            hi = self.expr(expr.hi_part, guards)
            if _emits_statements(expr.lo_part):
                hi_t = self.temp()
                self.emit("%s = %s" % (hi_t, hi))
                hi = hi_t
            lo = self.expr(expr.lo_part, guards)
            return "T.concat(%s, %s)" % (hi, lo)
        if isinstance(expr, N.IteExpr):
            return self._ite(expr, guards)
        raise CompileError("unknown IR expression %r" % (expr,))

    def _index(self, index: Optional[N.Expr], guards: str) -> str:
        if index is None:
            return "None"
        if isinstance(index, N.Field):
            # fields[name] is a const term; _concrete_index returns its
            # value.  FT[name].value is that same masked int.
            return "FT[%r].value" % index.name
        if isinstance(index, N.Const):
            return str(index.value)
        term = self.temp()
        self.emit("%s = %s" % (term, self.expr(index, guards)))
        return "E._concrete_index(S, %s, D)" % term

    def _ite(self, expr: N.IteExpr, guards: str) -> str:
        cond = self.temp()
        self.emit("%s = %s" % (cond, self.expr(expr.cond, guards)))
        result = self.temp()
        self.emit("if %s.is_const():" % cond)
        self.indent += 1
        # Const condition: engine evaluates only the chosen arm, under
        # the *unchanged* guards.
        self.emit("if %s.value == 1:" % cond)
        self.indent += 1
        self.emit("%s = %s" % (result, self.expr(expr.then, guards)))
        self.indent -= 1
        self.emit("else:")
        self.indent += 1
        self.emit("%s = %s" % (result, self.expr(expr.other, guards)))
        self.indent -= 2
        self.emit("else:")
        self.indent += 1
        then_guards = self.guard_name()
        self.emit("%s = %s + (%s,)" % (then_guards, guards, cond))
        then = self.temp()
        self.emit("%s = %s" % (then, self.expr(expr.then, then_guards)))
        else_guards = self.guard_name()
        self.emit("%s = %s + (T.not_(%s),)" % (else_guards, guards, cond))
        other = self.temp()
        self.emit("%s = %s" % (other, self.expr(expr.other, else_guards)))
        self.emit("%s = T.ite(%s, %s, %s)" % (result, cond, then, other))
        self.indent -= 1
        return result

    def source(self, result: str) -> str:
        return "\n".join(self.lines + ["    return %s" % result])


class _PlanBuilder:
    """Lowers one rule into (plan literal, generated functions)."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.functions: List[str] = []
        self._count = 0

    def fn(self, expr: N.Expr) -> str:
        name = "%s_%d" % (self.prefix, self._count)
        self._count += 1
        emitter = _SymEmitter(name)
        result = emitter.expr(expr, "()")
        self.functions.append(emitter.source(result))
        return name

    def index_spec(self, index: Optional[N.Expr]) -> str:
        if index is None:
            return "None"
        if isinstance(index, N.Field):
            return "('f', %r)" % index.name
        if isinstance(index, N.Const):
            return "('c', %d)" % index.value
        return "('e', %s)" % self.fn(index)

    def plan(self, stmts) -> str:
        rows = []
        for stmt in stmts:
            if isinstance(stmt, N.SetLocal):
                if isinstance(stmt.value, N.InputByte):
                    rows.append("(%d, %r)" % (S_LOCAL_IN, stmt.name))
                else:
                    rows.append("(%d, %r, %s)" % (
                        S_LOCAL, stmt.name, self.fn(stmt.value)))
            elif isinstance(stmt, N.SetReg):
                spec = self.index_spec(stmt.index)
                if isinstance(stmt.value, N.InputByte):
                    rows.append("(%d, %r, %s)" % (
                        S_REG_IN, stmt.regfile, spec))
                else:
                    rows.append("(%d, %r, %s, %s)" % (
                        S_REG, stmt.regfile, spec, self.fn(stmt.value)))
            elif isinstance(stmt, N.SetPc):
                rows.append("(%d, %s)" % (S_PC, self.fn(stmt.value)))
            elif isinstance(stmt, N.Store):
                rows.append("(%d, %s, %s, %d)" % (
                    S_STORE, self.fn(stmt.addr), self.fn(stmt.value),
                    stmt.size))
            elif isinstance(stmt, N.Output):
                rows.append("(%d, %s)" % (S_OUT, self.fn(stmt.value)))
            elif isinstance(stmt, N.Halt):
                rows.append("(%d, %s)" % (S_HALT, self.fn(stmt.code)))
            elif isinstance(stmt, N.Trap):
                rows.append("(%d, %s)" % (S_TRAP, self.fn(stmt.code)))
            elif isinstance(stmt, N.IfStmt):
                rows.append("(%d, %s, %s, %s)" % (
                    S_IF, self.fn(stmt.cond), self.plan(stmt.then_body),
                    self.plan(stmt.else_body)))
            else:
                raise CompileError("unknown IR statement %r" % (stmt,))
        if not rows:
            return "()"
        return "(%s,)" % ", ".join(rows)


def compile_symbolic(model) -> Tuple[Dict[str, tuple], str]:
    """Compile every rule of ``model``; returns ``(plans, source)``.

    ``plans`` maps instruction name -> plan tuple for
    :func:`exec_block`; ``source`` is the generated module text.
    """
    chunks = ["# generated by repro.compile — symbolic plans for %r"
              % model.name]
    table_rows = []
    namespace: Dict[str, object] = {"T": T}
    for position, instr in enumerate(model.instructions):
        builder = _PlanBuilder("_s%d" % position)
        try:
            plan = builder.plan(instr.semantics)
        except CompileError as error:
            raise CompileError("%s: rule %r: %s"
                               % (model.name, instr.name, error))
        chunks.append("# rule %r" % instr.name)
        chunks.extend(builder.functions)
        table_rows.append("    %r: %s," % (instr.name, plan))
    chunks.append("PLANS = {\n%s\n}" % "\n".join(table_rows))
    source = "\n\n".join(chunks) + "\n"
    exec(compile(source, "<repro.compile:%s:symbolic>" % model.name,
                 "exec"), namespace)
    return namespace["PLANS"], source


# -- plan driver --------------------------------------------------------------
#
# Mirrors Engine._exec_block / _run_frames / _exec_* / _fork_if.
# Any change to the engine's fork/assume/query order must be replicated
# here (the differential harness in tests/compile will catch drift).

def exec_block(engine, state, decoded, plan):
    """Compiled replacement for ``Engine._exec_block``."""
    from ..core.executor import _Outcome
    FT = engine._field_terms(decoded)
    return _run(engine, state, [(plan, 0)], {}, _Outcome(), FT,
                decoded.fields, decoded)


def _resolve_index(E, state, spec, FT, FI, L, D):
    if spec is None:
        return None
    kind = spec[0]
    if kind == "f":
        return FT[spec[1]].value
    if kind == "c":
        return spec[1]
    term = spec[1](E, state, FT, FI, L, D)
    return E._concrete_index(state, term, D)


def _run(E, state, frames, L, outcome, FT, FI, D):
    while frames:
        stmts, index = frames[-1]
        if index >= len(stmts):
            frames.pop()
            continue
        frames[-1] = (stmts, index + 1)
        st = stmts[index]
        tag = st[0]
        if tag == S_IF:
            cond = st[1](E, state, FT, FI, L, D)
            if cond.is_const():
                body = st[2] if cond.value == 1 else st[3]
                if body:
                    frames.append((body, 0))
                continue
            return _fork(E, state, st, cond, frames, L, outcome, FT, FI, D)
        if tag == S_REG:
            value = st[3](E, state, FT, FI, L, D)
            state.write_reg(st[1],
                            _resolve_index(E, state, st[2], FT, FI, L, D),
                            value)
        elif tag == S_LOCAL:
            L[st[1]] = st[2](E, state, FT, FI, L, D)
        elif tag == S_LOCAL_IN:
            L[st[1]] = state.next_input()
        elif tag == S_REG_IN:
            value = state.next_input()
            state.write_reg(st[1],
                            _resolve_index(E, state, st[2], FT, FI, L, D),
                            value)
        elif tag == S_PC:
            outcome.next_pc = st[1](E, state, FT, FI, L, D)
        elif tag == S_STORE:
            addr = st[1](E, state, FT, FI, L, D)
            value = st[2](E, state, FT, FI, L, D)
            E._store(state, addr, value, st[3], D)
        elif tag == S_OUT:
            state.output.append(st[1](E, state, FT, FI, L, D))
        elif tag == S_HALT:
            outcome.halted = True
            outcome.exit_code = st[1](E, state, FT, FI, L, D)
            return [(state, outcome)]
        elif tag == S_TRAP:
            outcome.trapped = True
            outcome.trap_code = st[1](E, state, FT, FI, L, D)
            return [(state, outcome)]
        else:  # pragma: no cover - plans are generated, tags are total
            raise CompileError("unknown plan tag %r" % (tag,))
    return [(state, outcome)]


def _fork(E, state, st, cond, frames, L, outcome, FT, FI, D):
    from ..core.executor import _Outcome, _PathEnd
    results = []
    for branch_state, body in E._fork_branches(state, cond, st[2], st[3]):
        branch_frames = [(stmts, idx) for stmts, idx in frames]
        if body:
            branch_frames.append((body, 0))
        branch_outcome = _Outcome()
        for slot in _Outcome.__slots__:
            setattr(branch_outcome, slot, getattr(outcome, slot))
        branch_locals = dict(L)
        try:
            results.extend(_run(E, branch_state, branch_frames,
                                branch_locals, branch_outcome, FT, FI, D))
        except _PathEnd as dead:
            E._dead_end(branch_state, dead.reason)
            continue
    return results
