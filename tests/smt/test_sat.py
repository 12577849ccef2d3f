"""Unit tests for the CDCL SAT core."""

import itertools
import random
from collections import Counter

import pytest

from repro.smt.sat import _UNASSIGNED, SAT, UNSAT, SatSolver, luby


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


class TestBasics:
    def test_empty_formula_is_sat(self):
        assert SatSolver().solve() == SAT

    def test_unit_clause(self):
        s = SatSolver()
        s.add_clause([1])
        assert s.solve() == SAT
        assert s.model()[1] == 1

    def test_contradicting_units(self):
        s = SatSolver()
        s.add_clause([1])
        s.add_clause([-1])
        assert s.solve() == UNSAT

    def test_empty_clause_is_unsat(self):
        s = SatSolver()
        s.add_clause([])
        assert s.solve() == UNSAT

    def test_zero_literal_rejected(self):
        with pytest.raises(ValueError):
            SatSolver().add_clause([0])

    def test_tautology_ignored(self):
        s = SatSolver()
        s.add_clause([1, -1])
        assert s.solve() == SAT

    def test_duplicate_literals_deduped(self):
        s = SatSolver()
        s.add_clause([1, 1, 1])
        assert s.solve() == SAT
        assert s.model()[1] == 1

    def test_simple_implication_chain(self):
        s = SatSolver()
        s.add_clause([1])
        s.add_clause([-1, 2])
        s.add_clause([-2, 3])
        assert s.solve() == SAT
        model = s.model()
        assert model[1] == model[2] == model[3] == 1

    def test_model_satisfies_clauses(self):
        s = SatSolver()
        clauses = [[1, 2], [-1, 3], [-2, -3], [1, -3]]
        for c in clauses:
            s.add_clause(c)
        assert s.solve() == SAT
        model = s.model()
        for c in clauses:
            assert any((lit > 0) == (model[abs(lit)] == 1) for lit in c)


class TestPigeonhole:
    def _pigeonhole(self, holes):
        """n+1 pigeons into n holes: classic small UNSAT family."""
        pigeons = holes + 1
        s = SatSolver()

        def v(p, h):
            return p * holes + h + 1

        for p in range(pigeons):
            s.add_clause([v(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([-v(p1, h), -v(p2, h)])
        return s

    def test_php3_unsat(self):
        assert self._pigeonhole(3).solve() == UNSAT

    def test_php4_unsat(self):
        assert self._pigeonhole(4).solve() == UNSAT

    def test_learning_happens(self):
        s = self._pigeonhole(4)
        s.solve()
        assert s.stats["conflicts"] > 0


class TestAssumptions:
    def test_sat_under_assumptions(self):
        s = SatSolver()
        s.add_clause([1, 2])
        assert s.solve(assumptions=[-1]) == SAT
        assert s.model()[2] == 1

    def test_unsat_under_assumptions_then_sat(self):
        s = SatSolver()
        s.add_clause([1, 2])
        assert s.solve(assumptions=[-1, -2]) == UNSAT
        assert s.solve(assumptions=[-1]) == SAT
        assert s.solve() == SAT

    def test_assumption_conflicts_with_unit(self):
        s = SatSolver()
        s.add_clause([5])
        assert s.solve(assumptions=[-5]) == UNSAT
        assert s.solve(assumptions=[5]) == SAT

    def test_incremental_reuse(self):
        s = SatSolver()
        # (a | b) & (!a | c)
        s.add_clause([1, 2])
        s.add_clause([-1, 3])
        for _ in range(3):
            assert s.solve(assumptions=[1]) == SAT
            assert s.model()[3] == 1
            assert s.solve(assumptions=[-3, 1]) == UNSAT


class TestRandom3Sat:
    def _brute_force(self, num_vars, clauses):
        for bits in itertools.product([0, 1], repeat=num_vars):
            if all(any((lit > 0) == (bits[abs(lit) - 1] == 1) for lit in c)
                   for c in clauses):
                return True
        return False

    def test_agrees_with_brute_force(self):
        rng = random.Random(1234)
        for round_no in range(40):
            num_vars = rng.randint(3, 8)
            num_clauses = rng.randint(2, 30)
            clauses = []
            for _ in range(num_clauses):
                size = rng.randint(1, 3)
                clause = [rng.choice([-1, 1]) * rng.randint(1, num_vars)
                          for _ in range(size)]
                clauses.append(clause)
            s = SatSolver()
            for c in clauses:
                s.add_clause(c)
            got = s.solve()
            expected = SAT if self._brute_force(num_vars, clauses) else UNSAT
            assert got == expected, (round_no, clauses)
            if got == SAT:
                model = s.model()
                for c in clauses:
                    assert any((lit > 0) == (model[abs(lit)] == 1)
                               for lit in c), (clauses, model)


class TestClausesAddedAfterSolve:
    """A clause added between calls may have literals that are already
    false at decision level 0.  Those are never propagated again, so the
    clause must not watch them."""

    def _solved(self, *clauses):
        s = SatSolver()
        for clause in clauses:
            s.add_clause(clause)
        assert s.solve() == SAT
        return s

    def test_both_watches_false_at_root_then_unit(self):
        s = self._solved([1], [4], [5, 6])
        s.add_clause([-1, -4, 5])
        s.add_clause([-5])
        assert s.solve() == UNSAT

    def test_both_watches_false_at_root_under_assumption(self):
        s = self._solved([1], [4])
        s.add_clause([-1, -4, 5])
        assert s.solve([-5]) == UNSAT
        assert s.solve() == SAT
        assert s.model()[5] == 1

    def test_all_literals_false_at_root(self):
        s = self._solved([1], [2])
        s.add_clause([-1, -2])
        assert s.solve() == UNSAT
        assert s.solve([3]) == UNSAT

    def test_one_watch_false_at_root(self):
        s = self._solved([1])
        s.add_clause([-1, 2, 3])
        s.add_clause([-2])
        assert s.solve() == SAT
        assert s.model()[3] == 1

    def test_order_kept_without_root_false_watch(self):
        s = self._solved([1])
        s.add_clause([2, 3, -1])
        assert s._clauses[-1] == [2, 3, -1]

    def test_random_incremental_models_satisfy_every_clause(self):
        brute_force = TestRandom3Sat()._brute_force
        rng = random.Random(77)
        for _ in range(30):
            num_vars = rng.randint(4, 10)
            s = SatSolver()
            clauses = []
            for _ in range(6):
                for _ in range(rng.randint(1, 5)):
                    clause = [rng.choice([-1, 1]) * rng.randint(1, num_vars)
                              for _ in range(rng.randint(1, 3))]
                    clauses.append(clause)
                    s.add_clause(clause)
                got = s.solve()
                expected = SAT if brute_force(num_vars, clauses) else UNSAT
                assert got == expected, clauses
                if got == SAT:
                    model = s.model()
                    for c in clauses:
                        assert any((lit > 0) == (model[abs(lit)] == 1)
                                   for lit in c), (clauses, model)


class _CheckedSolver(SatSolver):
    """Checks every decision against a linear scan over all variables,
    and the heap's entries against the ``_in_heap`` flags."""

    def __init__(self):
        super().__init__()
        self.picks = 0
        self.kept = 0   # unassigned vars whose current entry was kept

    def _backtrack(self, level):
        if len(self._trail_lim) > level:
            self.kept += sum(self._in_heap[abs(lit)] for lit in
                             self._trail[self._trail_lim[level]:])
        super()._backtrack(level)

    def _pick_branch(self):
        entries = Counter(self._heap)
        best_var, best_act = 0, -1.0
        for var in range(1, self.num_vars + 1):
            # Heap invariant: at most one entry with the current activity
            # (exactly one when unassigned), and _in_heap says which.
            current = entries[(-self._activity[var], var)]
            assert current <= 1, var
            assert self._in_heap[var] == (current == 1), var
            if self._assign[var] == _UNASSIGNED:
                assert current == 1, var
                if self._activity[var] > best_act:
                    best_var, best_act = var, self._activity[var]
        assert len(self._heap) <= 4 * self.num_vars
        got = super()._pick_branch()
        if best_var == 0:
            assert got == 0
        else:
            assert got == (best_var if self._phase[best_var] else -best_var)
        self.picks += 1
        return got


class TestDecisionHeap:
    def _run(self, seed, var_inc=None):
        rng = random.Random(seed)
        num_vars = rng.randint(20, 60)
        s = _CheckedSolver()
        if var_inc is not None:
            s._var_inc = var_inc
        for _ in range(int(num_vars * 4)):
            s.add_clause([rng.choice([-1, 1]) * v for v in
                          rng.sample(range(1, num_vars + 1), 3)])
        for _ in range(6):
            assumptions = [rng.choice([-1, 1]) * rng.randint(1, num_vars)
                           for _ in range(rng.randint(0, 3))]
            s.solve(assumptions)
            num_vars += rng.randint(0, 3)
            for _ in range(rng.randint(0, 4)):
                s.add_clause([rng.choice([-1, 1]) * v for v in
                              rng.sample(range(1, num_vars + 1), 3)])
        return s

    def test_heap_picks_what_the_scan_picks(self):
        picks = sum(self._run(seed).picks for seed in range(12))
        assert picks > 500

    def test_backtracking_skips_vars_with_a_current_entry(self):
        # Variables assigned by propagation before their entry reached
        # the top keep that entry through a backtrack; the scan check
        # above asserts no second one was pushed.
        assert sum(self._run(seed).kept for seed in range(12)) > 100

    def test_rescale_rebuilds_the_heap(self):
        for seed in range(4):
            s = self._run(seed, var_inc=4e99)
            assert s.stats["conflicts"] > 0
            assert s._var_inc < 1e90  # the 1e100 rescale ran
