"""End-to-end tests of the SMT solver (bit-blasting + CDCL + filters)."""

import pytest

from repro.smt import SAT, UNSAT, Solver
from repro.smt import terms as T


def bv8(value):
    return T.bv(value, 8)


class TestCheckBasics:
    def test_empty_is_sat(self):
        assert Solver().check() == SAT

    def test_true_assertion(self):
        s = Solver()
        s.add(T.TRUE)
        assert s.check() == SAT

    def test_false_assertion(self):
        s = Solver()
        s.add(T.FALSE)
        assert s.check() == UNSAT

    def test_non_boolean_assertion_rejected(self):
        with pytest.raises(T.WidthError):
            Solver().add(T.bv(1, 8))

    def test_model_before_check_rejected(self):
        with pytest.raises(T.SmtError):
            Solver().model()

    def test_simple_equality(self):
        s = Solver()
        x = T.var("sv_a", 8)
        s.add(T.eq(x, bv8(42)))
        assert s.check() == SAT
        assert s.model()["sv_a"] == 42

    def test_extra_constraints_not_persisted(self):
        s = Solver()
        x = T.var("sv_b", 8)
        s.add(T.ult(x, bv8(10)))
        assert s.check(extra=[T.eq(x, bv8(200))]) == UNSAT
        assert s.check() == SAT


class TestArithmeticSemantics:
    """Each operator: the solver's model must agree with Python semantics."""

    def _solve_one(self, builder, result_name="out"):
        s = Solver()
        a, b = T.var("ar_a", 8), T.var("ar_b", 8)
        out = T.var(result_name + "_ar", 8)
        s.add(T.eq(out, builder(a, b)))
        s.add(T.ne(b, bv8(0)))
        s.add(T.ugt(a, bv8(1)))
        assert s.check() == SAT
        m = s.model()
        got = T.evaluate(builder(a, b), m)
        assert m.get(result_name + "_ar", 0) == got
        return m

    def test_add(self):
        self._solve_one(T.add)

    def test_sub(self):
        self._solve_one(T.sub)

    def test_mul(self):
        self._solve_one(T.mul)

    def test_udiv(self):
        self._solve_one(T.udiv)

    def test_urem(self):
        self._solve_one(T.urem)

    def test_sdiv(self):
        self._solve_one(T.sdiv)

    def test_srem(self):
        self._solve_one(T.srem)

    def test_udiv_exact(self):
        s = Solver()
        a, b = T.var("dx_a", 8), T.var("dx_b", 8)
        s.add(T.eq(T.udiv(a, b), bv8(7)))
        s.add(T.ne(b, bv8(0)))
        assert s.check() == SAT
        m = s.model()
        assert m["dx_a"] // m["dx_b"] == 7

    def test_udiv_by_zero_smtlib(self):
        s = Solver()
        a = T.var("dz_a", 8)
        s.add(T.eq(T.udiv(a, bv8(0)), bv8(0xff)))
        assert s.check() == SAT  # holds for every a

    def test_urem_by_zero_smtlib(self):
        s = Solver()
        a = T.var("dz_b", 8)
        s.add(T.ne(T.urem(a, bv8(0)), a))
        assert s.check() == UNSAT  # urem by 0 is always the dividend

    def test_mul_truncates(self):
        s = Solver()
        a = T.var("mt_a", 8)
        s.add(T.eq(a, bv8(16)))
        s.add(T.ne(T.mul(a, a), bv8(0)))
        assert s.check() == UNSAT


class TestShifts:
    def test_shl_symbolic_amount(self):
        s = Solver()
        amt = T.var("sh_amt", 8)
        s.add(T.eq(T.shl(bv8(1), amt), bv8(32)))
        assert s.check() == SAT
        assert s.model()["sh_amt"] == 5

    def test_overshift_zero(self):
        s = Solver()
        amt = T.var("sh_over", 8)
        s.add(T.uge(amt, bv8(8)))
        s.add(T.ne(T.shl(bv8(0xff), amt), bv8(0)))
        assert s.check() == UNSAT

    def test_ashr_sign_fill(self):
        s = Solver()
        x = T.var("sh_x", 8)
        s.add(T.uge(x, bv8(0x80)))          # negative
        s.add(T.ne(T.ashr(x, bv8(7)), bv8(0xff)))
        assert s.check() == UNSAT

    def test_lshr_inverse_of_shl(self):
        s = Solver()
        x = T.var("sh_y", 8)
        s.add(T.ult(x, bv8(16)))
        s.add(T.ne(T.lshr(T.shl(x, bv8(4)), bv8(4)), x))
        assert s.check() == UNSAT


class TestStructureOps:
    def test_concat_extract_roundtrip(self):
        s = Solver()
        a, b = T.var("ce_a", 8), T.var("ce_b", 8)
        cat = T.concat(a, b)
        s.add(T.ne(T.extract(cat, 15, 8), a))
        assert s.check() == UNSAT

    def test_sext_preserves_signed_order(self):
        s = Solver()
        x = T.var("se_x", 8)
        s.add(T.slt(x, bv8(0)))
        s.add(T.sge(T.sext(x, 8), T.bv(0, 16)))
        assert s.check() == UNSAT

    def test_ite_selects(self):
        s = Solver()
        c = T.var("it_c", 1)
        out = T.ite(c, bv8(10), bv8(20))
        s.add(T.eq(out, bv8(20)))
        assert s.check() == SAT
        # Models are partial: unmentioned variables default to 0.
        assert s.model().get("it_c", 0) == 0


class TestPushPop:
    def test_push_pop_scopes(self):
        s = Solver()
        x = T.var("pp_x", 8)
        s.add(T.ult(x, bv8(10)))
        s.push()
        s.add(T.ugt(x, bv8(20)))
        assert s.check() == UNSAT
        s.pop()
        assert s.check() == SAT

    def test_pop_outermost_rejected(self):
        with pytest.raises(T.SmtError):
            Solver().pop()

    def test_nested_scopes(self):
        s = Solver()
        x = T.var("pp_y", 8)
        s.push()
        s.add(T.eq(x, bv8(1)))
        s.push()
        s.add(T.eq(x, bv8(2)))
        assert s.check() == UNSAT
        s.pop()
        assert s.check() == SAT
        assert s.model()["pp_y"] == 1
        s.pop()
        assert s.check() == SAT


class TestFilterLayers:
    def test_model_cache_hits(self):
        s = Solver()
        x = T.var("fc_x", 8)
        s.add(T.ult(x, bv8(200)))
        assert s.check() == SAT
        before = s.stats.sat_calls
        # Same question again: answered from the model cache.
        assert s.check() == SAT
        assert s.stats.sat_calls == before
        assert s.stats.cache_sat >= 1

    def test_interval_filter_avoids_sat(self):
        s = Solver(use_model_cache=False)
        x = T.var("fi_x", 8)
        s.add(T.ult(x, bv8(5)))
        s.add(T.ugt(x, bv8(250)))
        assert s.check() == UNSAT
        assert s.stats.interval_unsat == 1
        assert s.stats.sat_calls == 0

    def test_filters_disabled_still_correct(self):
        s = Solver(use_intervals=False, use_model_cache=False)
        x = T.var("fd_x", 8)
        s.add(T.ult(x, bv8(5)))
        s.add(T.ugt(x, bv8(250)))
        assert s.check() == UNSAT
        s2 = Solver(use_intervals=False, use_model_cache=False)
        s2.add(T.ult(x, bv8(5)))
        assert s2.check() == SAT
        assert s2.stats.sat_calls == 1

    def test_stats_dict(self):
        s = Solver()
        s.check()
        stats = s.stats.as_dict()
        assert stats["checks"] == 1


class TestModelCheck:
    """Every SAT model is checked against the query, with the query cache
    on (through the memo of the witness the model would become) and off
    (a fresh memo); a model that fails is neither cached nor pooled."""

    @pytest.mark.parametrize("use_query_cache", [True, False],
                             ids=["cache", "no-cache"])
    def test_wrong_model_raises_and_is_not_kept(self, use_query_cache):
        s = Solver(use_query_cache=use_query_cache)
        x = T.var("mc_x", 8)
        query = [T.eq(x, bv8(3))]
        # A first, honest answer so the pool holds a witness.
        assert s.check([T.eq(x, bv8(7))]) == SAT
        bad = {"mc_x": 4}
        s._blaster.extract_model = lambda sat_model: dict(bad)
        with pytest.raises(T.SmtError):
            s.check(query)
        cache = s.query_cache
        if cache is None:
            return
        assert all(w.model != bad for w in cache.witnesses())
        assert cache.lookup(T.query_key(query)) is None
        assert all(entry.model != bad
                   for entry in cache._entries.values())

    def test_model_check_fills_the_pooled_witness_memo(self):
        s = Solver()
        x = T.var("mc_y", 8)
        cond = T.eq(T.add(x, bv8(1)), bv8(10))
        assert s.check([cond]) == SAT
        witness = s.witness()
        assert witness.model == {"mc_y": 9}
        assert witness in list(s.query_cache.witnesses())
        assert witness.memo[cond.tid] == 1


class TestWiderWidths:
    def test_32bit_arithmetic(self):
        s = Solver()
        x = T.var("w32_x", 32)
        s.add(T.eq(T.mul(x, T.bv(3, 32)), T.bv(0x99, 32)))
        assert s.check() == SAT
        assert (s.model()["w32_x"] * 3) & 0xffffffff == 0x99

    def test_16bit_overflow_detection(self):
        s = Solver()
        x = T.var("w16_x", 16)
        wide = T.mul(T.zext(x, 16), T.zext(x, 16))
        s.add(T.ugt(wide, T.bv(0xffff, 32)))   # x*x overflows 16 bits
        s.add(T.ult(x, T.bv(0x200, 16)))
        assert s.check() == SAT
        m = s.model()["w16_x"]
        assert m * m > 0xffff and m < 0x200
