"""Pass framework: registry, lint context, and the pass base class.

A lint pass is a small object with an ``id``, a human ``title``, a
``family`` (``structural`` passes walk the AST/IR; ``smt`` passes pose
solver queries), and a :meth:`LintPass.run` method that yields
:class:`~repro.lint.findings.Finding` objects.  Passes register
themselves with :func:`register`, and the runner
(:mod:`repro.lint.runner`) times every enabled pass as one layer of the
cost ledger so ``repro lint`` reports per-pass wall time like any other
subsystem layer.

The :class:`LintContext` hands passes a *tolerantly* analyzed spec:
encoding layout and decode patterns are always present, but individual
instructions whose semantics failed translation carry ``None`` IR (the
failure itself is reported by the ``translation`` pass), so every other
pass can keep checking the rest of the spec.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..adl import ast as A
from ..adl.analyze import syntax_placeholders
from ..ir import nodes as N
from .findings import Finding

__all__ = ["LintPass", "LintContext", "register", "all_passes",
           "pass_by_id", "STRUCTURAL", "SMT", "TRANSVAL", "FAMILIES"]

STRUCTURAL = "structural"
SMT = "smt"
TRANSVAL = "transval"

#: Every pass family, in execution-group order: structural AST/IR
#: walks, SMT proof passes over the encoding space, translation
#: validation of the compiled transfer functions.
FAMILIES = (STRUCTURAL, SMT, TRANSVAL)

_REGISTRY: Dict[str, "LintPass"] = {}

#: Every LintContext gets a distinct SMT-variable namespace: the term
#: pool is process-global and binds a variable name to one width, so
#: ``rd`` being 5 bits in rv32 and 4 bits in armlite must not share a
#: variable name across lint runs.
_CONTEXT_IDS = itertools.count()


class LintContext:
    """Everything a pass may inspect for one spec."""

    def __init__(self, spec: A.ArchSpec, path: str,
                 ir_blocks: Dict[str, Optional[Tuple[N.Stmt, ...]]],
                 translate_errors: Dict[str, Tuple[str, int]],
                 solver_factory: Optional[Callable] = None):
        self.spec = spec
        self.path = path
        #: instruction name -> translated IR block (None if translation
        #: failed; the ``translation`` pass owns reporting that).
        self.ir_blocks = ir_blocks
        #: instruction name -> (message, line) for failed translations.
        self.translate_errors = translate_errors
        self._solver_factory = solver_factory
        #: Distinct SMT-variable namespace for this lint run.
        self.uid = next(_CONTEXT_IDS)
        # Filled by the runner: cumulative solver time/checks attributed
        # to the currently executing pass.
        self.solver_seconds = 0.0
        self.solver_checks = 0

    # -- solver access -------------------------------------------------------

    def new_solver(self):
        """A fresh SMT solver for a proof pass (time is accounted to the
        pass via :meth:`checked`)."""
        if self._solver_factory is not None:
            return self._solver_factory()
        from ..smt.solver import Solver
        return Solver()

    def mkvar(self, name: str, width: int):
        """A bitvector variable scoped to this lint run.

        The term pool binds a name to a single width process-wide, so
        proof passes must not name variables after bare instruction or
        field names (``rd`` is 5 bits in rv32, 4 in armlite)."""
        from ..smt import terms as T
        return T.var("lint%d_%s" % (self.uid, name), width)

    def check(self, solver, extra=()) -> str:
        """``solver.check(extra)`` with the wall time and query count
        attributed to the currently executing pass (the runner snapshots
        and resets these between passes)."""
        import time
        start = time.perf_counter()
        try:
            return solver.check(extra)
        finally:
            self.solver_seconds += time.perf_counter() - start
            self.solver_checks += 1

    # -- spec helpers --------------------------------------------------------

    def instructions(self) -> List[A.InstrDecl]:
        return list(self.spec.instructions)

    def encoding_of(self, instr: A.InstrDecl) -> A.EncodingDecl:
        return self.spec.encodings[instr.encoding]

    def free_fields(self, instr: A.InstrDecl) -> List[A.EncodingField]:
        """Encoding fields not fixed by the instruction's ``match``."""
        enc = self.encoding_of(instr)
        return [f for f in enc.fields if f.name not in instr.match]

    def reg_field_limits(self, instr: A.InstrDecl) -> Dict[str, int]:
        """Register-typed syntax fields and their valid index bound.

        Mirrors :class:`repro.isa.model.Instruction.reg_field_limits`
        without requiring a successfully built model: a decoded word
        whose register field reaches past the regfile is not a valid
        instance of the instruction.
        """
        limits: Dict[str, int] = {}
        for name, kind in syntax_placeholders(instr.syntax):
            if kind is None:
                continue
            regfile = self.spec.regfiles.get(kind)
            if regfile is not None:
                limits[name] = regfile.count
        return limits

    def flag_registers(self) -> List[str]:
        """Width-1 single registers — the spec's condition-flag set."""
        return sorted(name for name, decl in self.spec.registers.items()
                      if decl.width == 1)


class LintPass:
    """Base class for lint passes; subclasses set the class attributes
    and implement :meth:`run`."""

    #: Unique pass identifier (kebab-case; the ``--enable``/``--disable``
    #: and baseline key).
    id: str = ""
    #: One-line description (shown by ``repro lint --list-passes`` and
    #: exported as the SARIF rule description).
    title: str = ""
    #: ``structural``, ``smt``, or ``transval``.
    family: str = STRUCTURAL
    #: Default severity of this pass's findings (individual findings may
    #: override).
    default_severity: str = "error"

    def run(self, ctx: LintContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, ctx: LintContext, message: str, line: int = 0,
                instruction: Optional[str] = None,
                severity: Optional[str] = None,
                witness: Optional[int] = None,
                details: Optional[dict] = None) -> Finding:
        return Finding(self.id, severity or self.default_severity, message,
                       path=ctx.path, line=line, instruction=instruction,
                       witness=witness, details=details)

    def __repr__(self):
        return "<LintPass %s (%s)>" % (self.id, self.family)


def register(pass_cls):
    """Class decorator: instantiate and register a pass by its id."""
    instance = pass_cls()
    if not instance.id:
        raise ValueError("lint pass %r has no id" % pass_cls.__name__)
    if instance.id in _REGISTRY:
        raise ValueError("duplicate lint pass id %r" % instance.id)
    _REGISTRY[instance.id] = instance
    return pass_cls


def all_passes() -> List[LintPass]:
    """Registered passes grouped by family (:data:`FAMILIES` order:
    structural, smt, transval), each group in registration order."""
    ordered = list(_REGISTRY.values())
    rank = {family: position for position, family in enumerate(FAMILIES)}
    groups: List[List[LintPass]] = [[] for _ in FAMILIES]
    tail: List[LintPass] = []
    for lint_pass in ordered:
        position = rank.get(lint_pass.family)
        if position is None:
            tail.append(lint_pass)
        else:
            groups[position].append(lint_pass)
    return [p for group in groups for p in group] + tail


def pass_by_id(pass_id: str) -> LintPass:
    try:
        return _REGISTRY[pass_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError("unknown lint pass %r (have: %s)" % (pass_id, known))


def iter_stmts(block: Iterable[N.Stmt]) -> Iterator[N.Stmt]:
    """Every statement in a block, descending into ``if`` bodies."""
    for stmt in block:
        yield stmt
        if isinstance(stmt, N.IfStmt):
            for inner in iter_stmts(stmt.then_body):
                yield inner
            for inner in iter_stmts(stmt.else_body):
                yield inner


def iter_exprs(block: Iterable[N.Stmt]) -> Iterator[N.Expr]:
    """Every expression (recursively) in a block."""
    stack: List[N.Expr] = []
    for stmt in iter_stmts(block):
        if isinstance(stmt, (N.SetLocal, N.SetPc, N.Output)):
            stack.append(stmt.value)
        elif isinstance(stmt, N.SetReg):
            if stmt.index is not None:
                stack.append(stmt.index)
            stack.append(stmt.value)
        elif isinstance(stmt, N.Store):
            stack.extend((stmt.addr, stmt.value))
        elif isinstance(stmt, (N.Halt, N.Trap)):
            stack.append(stmt.code)
        elif isinstance(stmt, N.IfStmt):
            stack.append(stmt.cond)
    while stack:
        expr = stack.pop()
        yield expr
        stack.extend(expr.children())
