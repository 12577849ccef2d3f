"""Property-based tests (hypothesis) for the solver substrate.

These pin the invariants everything else relies on: construction-time
simplification preserves semantics, the bit-blaster agrees with the
evaluator, interval analysis is sound, and SAT answers are models.
"""

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import SAT, UNSAT, Solver
from repro.smt import terms as T
from repro.smt.interval import interval, refute_conjunction

WIDTH = 8

_BINOPS = {
    "add": T.add, "sub": T.sub, "mul": T.mul, "udiv": T.udiv,
    "urem": T.urem, "sdiv": T.sdiv, "srem": T.srem, "and": T.and_,
    "or": T.or_, "xor": T.xor, "shl": T.shl, "lshr": T.lshr,
    "ashr": T.ashr,
}

_PREDICATES = {
    "eq": T.eq, "ult": T.ult, "ule": T.ule, "slt": T.slt, "sle": T.sle,
}


@st.composite
def term_trees(draw, depth=3):
    """Random 8-bit term over variables pa/pb/pc."""
    if depth == 0 or draw(st.booleans()):
        if draw(st.booleans()):
            return T.bv(draw(st.integers(0, 255)), WIDTH)
        return T.var(draw(st.sampled_from(["pa", "pb", "pc"])), WIDTH)
    kind = draw(st.sampled_from(sorted(_BINOPS) + ["not", "ite", "extzext"]))
    if kind == "not":
        return T.not_(draw(term_trees(depth=depth - 1)))
    if kind == "ite":
        cond_op = draw(st.sampled_from(sorted(_PREDICATES)))
        cond = _PREDICATES[cond_op](draw(term_trees(depth=depth - 1)),
                                    draw(term_trees(depth=depth - 1)))
        return T.ite(cond, draw(term_trees(depth=depth - 1)),
                     draw(term_trees(depth=depth - 1)))
    if kind == "extzext":
        inner = draw(term_trees(depth=depth - 1))
        wide = (T.zext if draw(st.booleans()) else T.sext)(inner, 4)
        hi = draw(st.integers(0, wide.width - 1))
        lo = draw(st.integers(0, hi))
        sliced = T.extract(wide, hi, lo)
        return T.zext(sliced, WIDTH - sliced.width) if sliced.width < WIDTH \
            else T.extract(sliced, WIDTH - 1, 0)
    left = draw(term_trees(depth=depth - 1))
    right = draw(term_trees(depth=depth - 1))
    return _BINOPS[kind](left, right)


assignments = st.fixed_dictionaries({
    "pa": st.integers(0, 255),
    "pb": st.integers(0, 255),
    "pc": st.integers(0, 255),
})


class TestSimplificationSoundness:
    @given(term_trees(), assignments)
    @settings(max_examples=300, deadline=None)
    def test_simplified_equals_unsimplified(self, term, env):
        # Rebuild the same structural term with simplification disabled.
        plain_pool = T.TermPool(hash_consing=True, simplify=False)
        previous = T.set_pool(plain_pool)
        try:
            rebuilt = _rebuild(term)
            plain_value = T.evaluate(rebuilt, env)
        finally:
            T.set_pool(previous)
        assert T.evaluate(term, env) == plain_value


def _rebuild(term):
    """Clone a term into the *active* pool, node by node."""
    if term.op == T.CONST:
        return T.bv(term.value, term.width)
    if term.op == T.VAR:
        return T.var(term.name, term.width)
    args = [_rebuild(a) for a in term.args]
    factory = {
        T.ADD: T.add, T.SUB: T.sub, T.MUL: T.mul, T.UDIV: T.udiv,
        T.UREM: T.urem, T.SDIV: T.sdiv, T.SREM: T.srem, T.AND: T.and_,
        T.OR: T.or_, T.XOR: T.xor, T.SHL: T.shl, T.LSHR: T.lshr,
        T.ASHR: T.ashr, T.EQ: T.eq, T.ULT: T.ult, T.ULE: T.ule,
        T.CONCAT: T.concat, T.ITE: T.ite,
    }
    if term.op == T.NOT:
        return T.not_(args[0])
    if term.op == T.EXTRACT:
        return T.extract(args[0], *term.params)
    if term.op == T.ZEXT:
        return T.zext(args[0], term.params[0])
    if term.op == T.SEXT:
        return T.sext(args[0], term.params[0])
    return factory[term.op](*args)


class TestEvaluatorReferenceSemantics:
    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=200, deadline=None)
    def test_add_sub_mul_match_python(self, a, b):
        ta, tb = T.bv(a, WIDTH), T.bv(b, WIDTH)
        assert T.add(ta, tb).value == (a + b) & 0xff
        assert T.sub(ta, tb).value == (a - b) & 0xff
        assert T.mul(ta, tb).value == (a * b) & 0xff

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=200, deadline=None)
    def test_division_family_consistency(self, a, b):
        """a == udiv(a,b)*b + urem(a,b) whenever b != 0."""
        if b == 0:
            assert T.udiv(T.bv(a, 8), T.bv(0, 8)).value == 0xff
            assert T.urem(T.bv(a, 8), T.bv(0, 8)).value == a
            return
        quotient = T.udiv(T.bv(a, 8), T.bv(b, 8)).value
        remainder = T.urem(T.bv(a, 8), T.bv(b, 8)).value
        assert quotient * b + remainder == a
        assert remainder < b

    @given(st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=200, deadline=None)
    def test_signed_division_identity(self, a, b):
        """sdiv/srem satisfy a == q*b + r with |r| < |b| and truncation."""
        if b == 0:
            return
        sa, sb = T.to_signed(a, 8), T.to_signed(b, 8)
        q = T.to_signed(T.sdiv(T.bv(a, 8), T.bv(b, 8)).value, 8)
        r = T.to_signed(T.srem(T.bv(a, 8), T.bv(b, 8)).value, 8)
        if sa == -128 and sb == -1:
            return  # overflow case: q wraps to -128 by definition
        assert q * sb + r == sa
        assert abs(r) < abs(sb)


class TestIntervalSoundness:
    @given(term_trees(), assignments)
    @settings(max_examples=300, deadline=None)
    def test_interval_contains_value(self, term, env):
        lo, hi = interval(term)
        value = T.evaluate(term, env)
        assert lo <= value <= hi

    @given(term_trees(depth=2), term_trees(depth=2), assignments)
    @settings(max_examples=150, deadline=None)
    def test_refute_never_rejects_satisfiable(self, left, right, env):
        cond = T.eq(left, right)
        if T.evaluate(cond, env) == 1:
            assert not refute_conjunction([cond])


@st.composite
def conjuncts(draw):
    """A boolean 8-bit conjunct: a predicate over two random terms, or a
    ``var <op> const`` atom (possibly negated) that refines bounds."""
    if draw(st.booleans()):
        atom = _PREDICATES[draw(st.sampled_from(["eq", "ult", "ule"]))]
        var = T.var(draw(st.sampled_from(["pa", "pb", "pc"])), WIDTH)
        const = T.bv(draw(st.integers(0, 255)), WIDTH)
        cond = atom(var, const) if draw(st.booleans()) else atom(const, var)
    else:
        cond = _PREDICATES[draw(st.sampled_from(sorted(_PREDICATES)))](
            draw(term_trees(depth=2)), draw(term_trees(depth=2)))
    return T.not_(cond) if draw(st.booleans()) else cond


class TestIntervalMemo:
    @given(st.lists(conjuncts(), min_size=1, max_size=8),
           st.lists(st.lists(st.integers(0, 7), max_size=6), min_size=1,
                    max_size=12))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_shared_memo_never_changes_the_answer(self, pool, picks):
        """A stream of conjunctions over one pool of conjuncts (each a
        random selection, so prefixes and repeats recur), all refuted
        through one shared memo, answers like fresh caches."""
        memo = {}
        for pick in picks:
            conds = [pool[index % len(pool)] for index in pick]
            assert refute_conjunction(conds, memo) == \
                refute_conjunction(conds)


class TestSolverSoundness:
    @given(term_trees(depth=2), term_trees(depth=2))
    @settings(max_examples=60, deadline=None)
    def test_sat_models_satisfy(self, left, right):
        solver = Solver()
        cond = T.eq(left, right)
        solver.add(cond)
        if solver.check() == SAT:
            assert T.evaluate(cond, solver.model()) == 1

    @given(term_trees(depth=2), assignments)
    @settings(max_examples=60, deadline=None)
    def test_witnessed_constraints_are_sat(self, term, env):
        """A constraint with a known witness must come back SAT, and the
        model must satisfy it."""
        witness_value = T.evaluate(term, env)
        cond = T.eq(term, T.bv(witness_value, WIDTH))
        solver = Solver()
        solver.add(cond)
        assert solver.check() == SAT
        assert T.evaluate(cond, solver.model()) == 1

    @given(term_trees(depth=2))
    @settings(max_examples=40, deadline=None)
    def test_term_equals_itself_plus_one_unsat(self, term):
        solver = Solver()
        solver.add(T.eq(term, T.add(term, T.bv(1, WIDTH))))
        assert solver.check() == UNSAT
