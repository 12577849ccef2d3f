"""Bit-blasting of bitvector terms to CNF.

Each :class:`~repro.smt.terms.Term` is translated into a list of SAT
literals, least-significant bit first.  The translation is cached per term
id, and gate outputs are cached structurally, so repeated sub-terms (the
common case with hash-consed path conditions) cost nothing the second time.

The blaster owns a :class:`~repro.smt.sat.SatSolver` and is *persistent*: the
SMT solver layer blasts every asserted term into the same CNF and solves
under assumptions, which lets learned clauses survive across path-feasibility
queries.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from . import terms as T
from .sat import SatSolver

__all__ = ["BitBlaster"]


class BitBlaster:
    """Translates terms to CNF inside a persistent SAT solver."""

    def __init__(self, solver: SatSolver = None):
        self.sat = solver if solver is not None else SatSolver()
        # Variable 1 is the constant TRUE.
        self._true = self.sat.new_var()
        self.sat.add_clause([self._true])
        self._term_bits: Dict[int, List[int]] = {}
        self._gate_cache: Dict[Tuple, int] = {}
        self._var_bits: Dict[str, Tuple[T.Term, List[int]]] = {}

    # -- gates ---------------------------------------------------------------

    @property
    def true_lit(self) -> int:
        return self._true

    @property
    def false_lit(self) -> int:
        return -self._true

    def _fresh(self) -> int:
        return self.sat.new_var()

    def _and(self, a: int, b: int) -> int:
        if a == self.false_lit or b == self.false_lit or a == -b:
            return self.false_lit
        if a == self.true_lit:
            return b
        if b == self.true_lit or a == b:
            return a
        key = ("and", a, b) if a < b else ("and", b, a)
        out = self._gate_cache.get(key)
        if out is not None:
            return out
        out = self._fresh()
        self.sat.add_clause([-out, a])
        self.sat.add_clause([-out, b])
        self.sat.add_clause([out, -a, -b])
        self._gate_cache[key] = out
        return out

    def _or(self, a: int, b: int) -> int:
        return -self._and(-a, -b)

    def _xor(self, a: int, b: int) -> int:
        if a == self.false_lit:
            return b
        if b == self.false_lit:
            return a
        if a == self.true_lit:
            return -b
        if b == self.true_lit:
            return -a
        if a == b:
            return self.false_lit
        if a == -b:
            return self.true_lit
        key = ("xor", a, b) if a < b else ("xor", b, a)
        out = self._gate_cache.get(key)
        if out is not None:
            return out
        out = self._fresh()
        self.sat.add_clause([-out, a, b])
        self.sat.add_clause([-out, -a, -b])
        self.sat.add_clause([out, -a, b])
        self.sat.add_clause([out, a, -b])
        self._gate_cache[key] = out
        return out

    def _mux(self, sel: int, then: int, other: int) -> int:
        """out = sel ? then : other."""
        if sel == self.true_lit:
            return then
        if sel == self.false_lit:
            return other
        if then == other:
            return then
        key = ("mux", sel, then, other)
        out = self._gate_cache.get(key)
        if out is not None:
            return out
        out = self._fresh()
        self.sat.add_clause([-sel, -then, out])
        self.sat.add_clause([-sel, then, -out])
        self.sat.add_clause([sel, -other, out])
        self.sat.add_clause([sel, other, -out])
        self._gate_cache[key] = out
        return out

    def _iff(self, a: int, b: int) -> int:
        return -self._xor(a, b)

    def _and_many(self, lits) -> int:
        out = self.true_lit
        for lit in lits:
            out = self._and(out, lit)
        return out

    def _or_many(self, lits) -> int:
        out = self.false_lit
        for lit in lits:
            out = self._or(out, lit)
        return out

    def _full_adder(self, a: int, b: int, cin: int) -> Tuple[int, int]:
        s = self._xor(self._xor(a, b), cin)
        cout = self._or(self._and(a, b), self._and(cin, self._xor(a, b)))
        return s, cout

    # -- word-level circuits ---------------------------------------------------

    def _adder(self, xs: List[int], ys: List[int], cin: int) -> List[int]:
        out = []
        carry = cin
        for a, b in zip(xs, ys):
            s, carry = self._full_adder(a, b, carry)
            out.append(s)
        return out

    def _negate(self, xs: List[int]) -> List[int]:
        return self._adder([-x for x in xs],
                           [self.false_lit] * len(xs), self.true_lit)

    def _multiplier(self, xs: List[int], ys: List[int]) -> List[int]:
        """Shift-and-add multiplier, truncated to len(xs) bits."""
        width = len(xs)
        acc = [self.false_lit] * width
        for i, y in enumerate(ys):
            if y == self.false_lit:
                continue
            partial = ([self.false_lit] * i
                       + [self._and(x, y) for x in xs[:width - i]])
            acc = self._adder(acc, partial, self.false_lit)
        return acc

    def _ult(self, xs: List[int], ys: List[int]) -> int:
        """Unsigned x < y, via the borrow-out of x - y."""
        borrow = self.false_lit
        for a, b in zip(xs, ys):
            diff = self._xor(a, b)
            borrow = self._or(self._and(-a, b), self._and(-diff, borrow))
        return borrow

    def _equal(self, xs: List[int], ys: List[int]) -> int:
        return self._and_many(self._iff(a, b) for a, b in zip(xs, ys))

    def _shifter(self, xs: List[int], amount: List[int], kind: str) -> List[int]:
        """Barrel shifter; over-shifts give 0 (or sign fill for 'ashr')."""
        width = len(xs)
        fill = xs[-1] if kind == "ashr" else self.false_lit
        stages = 0
        while (1 << stages) < width:
            stages += 1
        cur = list(xs)
        for stage in range(stages):
            sel = amount[stage]
            step = 1 << stage
            nxt = []
            for i in range(width):
                if kind == "shl":
                    shifted = cur[i - step] if i - step >= 0 else self.false_lit
                else:
                    shifted = cur[i + step] if i + step < width else fill
                nxt.append(self._mux(sel, shifted, cur[i]))
            cur = nxt
        # Any set bit of the amount beyond the stage bits means over-shift.
        over = self._or_many(amount[stages:])
        if over != self.false_lit:
            cur = [self._mux(over, fill, bit) for bit in cur]
        return cur

    def _divider(self, xs: List[int], ys: List[int]) -> Tuple[List[int], List[int]]:
        """Unsigned (quotient, remainder) with SMT-LIB division-by-zero.

        Uses the constraint formulation: fresh q/r with
        ``y != 0 -> (q*y + r == x  &&  r < y  &&  no overflow)``, and the
        by-zero results selected by mux.
        """
        width = len(xs)
        q = [self._fresh() for _ in range(width)]
        r = [self._fresh() for _ in range(width)]
        nz = self._or_many(ys)
        # Compute q*y + r at double width to rule out overflow.
        q2 = q + [self.false_lit] * width
        y2 = ys + [self.false_lit] * width
        r2 = r + [self.false_lit] * width
        prod = self._multiplier(q2, y2)
        total = self._adder(prod, r2, self.false_lit)
        # nz -> total == x (lower half) and total upper half == 0.
        for i in range(width):
            self._imply_iff(nz, total[i], xs[i])
        for i in range(width, 2 * width):
            self._imply_lit(nz, -total[i])
        # nz -> r < y.
        self._imply_lit(nz, self._ult(r, ys))
        q_out = [self._mux(nz, qi, self.true_lit) for qi in q]
        r_out = [self._mux(nz, ri, xi) for ri, xi in zip(r, xs)]
        return q_out, r_out

    def _imply_lit(self, cond: int, lit: int) -> None:
        self.sat.add_clause([-cond, lit])

    def _imply_iff(self, cond: int, a: int, b: int) -> None:
        self.sat.add_clause([-cond, -a, b])
        self.sat.add_clause([-cond, a, -b])

    # -- term translation ------------------------------------------------------

    def blast(self, term: T.Term) -> List[int]:
        """Literals of ``term``, LSB first (cached)."""
        cached = self._term_bits.get(term.tid)
        if cached is not None:
            return cached
        # Iterative post-order to avoid recursion limits on deep terms.
        stack = [(term, False)]
        while stack:
            node, ready = stack.pop()
            if node.tid in self._term_bits:
                continue
            if not ready:
                stack.append((node, True))
                for arg in node.args:
                    stack.append((arg, False))
                continue
            self._term_bits[node.tid] = self._blast_node(node)
        return self._term_bits[term.tid]

    def _blast_node(self, node: T.Term) -> List[int]:
        op = node.op
        if op == T.CONST:
            return [self.true_lit if (node.value >> i) & 1 else self.false_lit
                    for i in range(node.width)]
        if op == T.VAR:
            known = self._var_bits.get(node.name)
            if known is not None:
                return list(known[1])
            bits = [self._fresh() for _ in range(node.width)]
            self._var_bits[node.name] = (node, bits)
            return bits
        argv = [self._term_bits[a.tid] for a in node.args]
        if op == T.ADD:
            return self._adder(argv[0], argv[1], self.false_lit)
        if op == T.SUB:
            return self._adder(argv[0], [-b for b in argv[1]], self.true_lit)
        if op == T.MUL:
            return self._multiplier(argv[0], argv[1])
        if op == T.UDIV:
            return self._divider(argv[0], argv[1])[0]
        if op == T.UREM:
            return self._divider(argv[0], argv[1])[1]
        if op == T.SDIV or op == T.SREM:
            return self._signed_div(node, argv[0], argv[1])
        if op == T.AND:
            return [self._and(a, b) for a, b in zip(argv[0], argv[1])]
        if op == T.OR:
            return [self._or(a, b) for a, b in zip(argv[0], argv[1])]
        if op == T.XOR:
            return [self._xor(a, b) for a, b in zip(argv[0], argv[1])]
        if op == T.NOT:
            return [-a for a in argv[0]]
        if op == T.SHL:
            return self._shifter(argv[0], argv[1], "shl")
        if op == T.LSHR:
            return self._shifter(argv[0], argv[1], "lshr")
        if op == T.ASHR:
            return self._shifter(argv[0], argv[1], "ashr")
        if op == T.CONCAT:
            return argv[1] + argv[0]
        if op == T.EXTRACT:
            hi, lo = node.params
            return argv[0][lo:hi + 1]
        if op == T.ZEXT:
            return argv[0] + [self.false_lit] * node.params[0]
        if op == T.SEXT:
            return argv[0] + [argv[0][-1]] * node.params[0]
        if op == T.ITE:
            sel = argv[0][0]
            return [self._mux(sel, t, e) for t, e in zip(argv[1], argv[2])]
        if op == T.EQ:
            return [self._equal(argv[0], argv[1])]
        if op == T.ULT:
            return [self._ult(argv[0], argv[1])]
        if op == T.ULE:
            return [-self._ult(argv[1], argv[0])]
        raise T.SmtError("cannot bit-blast operator %r" % op)

    def _signed_div(self, node: T.Term, xs: List[int], ys: List[int]) -> List[int]:
        sign_x, sign_y = xs[-1], ys[-1]
        abs_x = [self._mux(sign_x, n, x) for n, x in zip(self._negate(xs), xs)]
        abs_y = [self._mux(sign_y, n, y) for n, y in zip(self._negate(ys), ys)]
        q_u, r_u = self._divider(abs_x, abs_y)
        if node.op == T.SDIV:
            flip = self._xor(sign_x, sign_y)
            return [self._mux(flip, n, q)
                    for n, q in zip(self._negate(q_u), q_u)]
        return [self._mux(sign_x, n, r) for n, r in zip(self._negate(r_u), r_u)]

    # -- query helpers ----------------------------------------------------------

    def literal_for(self, term: T.Term) -> int:
        """The single literal of a width-1 (boolean) term."""
        if term.width != 1:
            raise T.WidthError("expected a boolean term, got width %d" % term.width)
        return self.blast(term)[0]

    def to_dimacs(self, assumptions=()) -> str:
        """Export the current CNF (plus unit assumptions) in DIMACS format.

        Debugging/interop aid: the instance can be fed to any external SAT
        solver to cross-check answers.
        """
        clauses = list(self.sat._clauses) + [[lit] for lit in assumptions]
        lines = ["c repro bit-blaster export",
                 "p cnf %d %d" % (self.sat.num_vars, len(clauses))]
        for clause in clauses:
            lines.append(" ".join(str(lit) for lit in clause) + " 0")
        return "\n".join(lines) + "\n"

    def extract_model(self, sat_model: Optional[Dict[int, int]] = None
                      ) -> Dict[str, int]:
        """Read variable values out of a SAT model (missing bits are 0).

        ``None`` reads the bits straight from this blaster's own solver's
        assignment after a SAT answer, without building a model over
        every CDCL variable (:meth:`SatSolver.model`)."""
        assign = self.sat.assignment if sat_model is None else None
        model: Dict[str, int] = {}
        for name, (term, bits) in self._var_bits.items():
            value = 0
            for i, lit in enumerate(bits):
                var = abs(lit)
                if assign is not None:
                    bit = assign[var]
                    if bit < 0:           # unassigned reads as 0
                        bit = 0
                else:
                    bit = sat_model.get(var, 0)
                if bit == (1 if lit > 0 else 0):
                    value |= 1 << i
            model[name] = value & T.mask(term.width)
        return model
