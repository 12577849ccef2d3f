"""Unit tests for the solver query cache (repro.smt.cache) and the
canonical query digests (terms.digest / terms.query_key), plus the
regression pinning the witness-pool LRU (bounded OrderedDict with
O(1) eviction replacing the old ``list.pop(0)`` FIFO)."""

from repro.smt import SAT, UNSAT, Solver
from repro.smt import terms as T
from repro.smt.cache import QueryCache


def pred(name, value, width=8):
    return T.ult(T.var(name, width), T.bv(value, width))


class TestDigest:
    def test_digest_is_structural_and_memoized(self):
        a = T.add(T.var("qa", 8), T.bv(1, 8))
        b = T.add(T.var("qa", 8), T.bv(1, 8))
        assert T.digest(a) == T.digest(b)
        # Memoized on the term (second call is the cached bytes).
        assert T.digest(a) is T.digest(a)

    def test_digest_distinguishes_structure(self):
        assert T.digest(T.var("qa", 8)) != T.digest(T.var("qb", 8))
        assert T.digest(T.bv(1, 8)) != T.digest(T.bv(1, 16))
        assert T.digest(T.add(T.var("qa", 8), T.bv(1, 8))) \
            != T.digest(T.sub(T.var("qa", 8), T.bv(1, 8)))

    def test_digest_stable_across_pools(self):
        """Digests depend on structure only, never on pool identity —
        the property that keeps cache keys valid across ablation pools."""
        term = T.xor(T.var("qa", 8), T.bv(0x5a, 8))
        reference = T.digest(term)
        pool = T.TermPool(hash_consing=False, simplify=False)
        previous = T.set_pool(pool)
        try:
            rebuilt = T.xor(T.var("qa", 8), T.bv(0x5a, 8))
            assert T.digest(rebuilt) == reference
        finally:
            T.set_pool(previous)

    def test_query_key_order_and_duplication_independent(self):
        a, b = pred("qa", 9), pred("qb", 17)
        assert T.query_key([a, b]) == T.query_key([b, a])
        assert T.query_key([a, b, a]) == T.query_key([a, b])
        assert T.query_key([a]) != T.query_key([a, b])


class TestQueryCache:
    def test_exact_hit_returns_entry_and_model(self):
        cache = QueryCache()
        key = T.query_key([pred("qa", 5)])
        cache.store(key, SAT, {"qa": 1})
        entry = cache.lookup(key)
        assert entry is not None
        assert entry.verdict == SAT
        assert entry.model == {"qa": 1}
        assert cache.lookup(T.query_key([pred("qa", 6)])) is None

    def test_lru_bound_and_eviction_order(self):
        cache = QueryCache(max_entries=3)
        keys = [T.query_key([pred("qa", value)]) for value in range(4)]
        for key in keys[:3]:
            cache.store(key, SAT, {})
        # Refresh keys[0] so keys[1] is the least recently used.
        assert cache.lookup(keys[0]) is not None
        cache.store(keys[3], SAT, {})
        assert len(cache) == 3
        assert cache.evictions == 1
        assert cache.lookup(keys[1]) is None          # evicted (LRU)
        assert cache.lookup(keys[0]) is not None      # survived (refreshed)

    def test_unsat_subsumption_on_supersets_only(self):
        cache = QueryCache()
        a, b, c = pred("qa", 5), pred("qb", 9), pred("qc", 13)
        unsat_key = T.query_key([a, b])
        cache.store(unsat_key, UNSAT)
        assert cache.subsumes_unsat(T.query_key([a, b, c]))   # superset
        assert cache.subsumes_unsat(unsat_key)                # itself
        assert not cache.subsumes_unsat(T.query_key([a]))     # subset
        assert not cache.subsumes_unsat(T.query_key([a, c]))  # overlap

    def test_unsat_sets_dedup_supersets(self):
        """Storing a *smaller* unsat set drops stored supersets of it."""
        cache = QueryCache()
        a, b = pred("qa", 5), pred("qb", 9)
        cache.store(T.query_key([a, b]), UNSAT)
        cache.store(T.query_key([a]), UNSAT)
        assert cache.stats()["unsat_sets"] == 1
        # Subsumption still covers the superset via the smaller set.
        assert cache.subsumes_unsat(T.query_key([a, b]))

    def test_unsat_set_bound(self):
        cache = QueryCache(max_unsat_sets=2)
        keys = [T.query_key([pred("qa", v), pred("qb", v)])
                for v in range(3)]
        for key in keys:
            cache.store(key, UNSAT)
        assert cache.stats()["unsat_sets"] == 2
        assert not cache.subsumes_unsat(keys[0])  # oldest dropped

    def test_recent_models_zero_first_newest_next(self):
        cache = QueryCache(model_probe=2)
        key = T.query_key([pred("qa", 200)])
        cache.store(key, SAT, {"qa": 1})
        cache.store(T.query_key([pred("qb", 200)]), SAT, {"qb": 2})
        candidates = [witness.model for witness in cache.witnesses()]
        assert candidates[0] == {}          # the all-zero assignment
        assert candidates[1] == {"qb": 2}   # newest stored model
        assert candidates[2] == {"qa": 1}
        # Bounded by model_probe (+ the implicit zero model).
        cache.store(T.query_key([pred("qc", 200)]), SAT, {"qc": 3})
        assert len(list(cache.witnesses())) == 3

    def test_model_memo_persists_across_replays(self):
        cache = QueryCache()
        cond = pred("qa", 200)
        stored = cache.store(T.query_key([cond]), SAT, {"qa": 7})
        _zero, witness = list(cache.witnesses())
        assert witness is stored
        assert T.all_true([cond], witness.model, witness.memo)
        assert witness.memo[cond._id] == 1   # memoized under the model
        # The same memo object is served again (persistent).
        again = list(cache.witnesses())[1].memo
        assert again is witness.memo
        # Looking the model up by value shares the pooled memo.
        assert cache.witness({"qa": 7}).memo is witness.memo

    def test_clear_resets_everything(self):
        cache = QueryCache()
        cache.store(T.query_key([pred("qa", 5)]), SAT, {"qa": 1})
        cache.store(T.query_key([pred("qb", 0, width=8),
                                 T.not_(pred("qb", 0))]), UNSAT)
        cache.clear()
        stats = cache.stats()
        assert stats["entries"] == 0
        assert stats["unsat_sets"] == 0
        assert stats["models"] == 0


class TestSolverQueryCacheLayer:
    def test_exact_repeat_replays_verdict_and_model(self):
        solver = Solver()
        cond = pred("qa", 5)
        assert solver.check(extra=[cond]) == SAT
        first_model = solver.model()
        misses = solver.stats.cache_misses
        assert solver.check(extra=[cond]) == SAT
        assert solver.stats.cache_hit_sat == 1
        assert solver.stats.cache_misses == misses
        assert solver.model() == first_model

    def test_superset_of_unsat_answers_without_solving(self):
        solver = Solver(use_intervals=False)
        x = T.var("qa", 8)
        contradiction = [T.ult(x, T.bv(5, 8)), T.ult(T.bv(250, 8), x)]
        assert solver.check(extra=contradiction) == UNSAT
        sat_calls = solver.stats.sat_calls
        extended = contradiction + [pred("qb", 9)]
        assert solver.check(extra=extended) == UNSAT
        assert solver.stats.cache_subsumed_unsat == 1
        assert solver.stats.sat_calls == sat_calls
        # The subsumed key was promoted: repeating it is an exact hit.
        assert solver.check(extra=extended) == UNSAT
        assert solver.stats.cache_hit_unsat == 1

    def test_model_reuse_proves_superset_sat(self):
        solver = Solver()
        x = T.var("qa", 8)
        assert solver.check(extra=[T.eq(x, T.bv(99, 8))]) == SAT
        sat_calls = solver.stats.sat_calls
        # The cached model {qa: 99} satisfies the weaker superset query.
        assert solver.check(extra=[T.eq(x, T.bv(99, 8)),
                                   T.ult(T.bv(50, 8), x)]) == SAT
        assert solver.stats.cache_model_reuse >= 1
        assert solver.stats.sat_calls == sat_calls

    def test_disabled_cache_has_no_cache_traffic(self):
        solver = Solver(use_query_cache=False)
        cond = pred("qa", 5)
        assert solver.check(extra=[cond]) == SAT
        assert solver.check(extra=[cond]) == SAT
        stats = solver.stats
        assert solver.query_cache is None
        assert stats.cache_hit_sat == stats.cache_misses == 0
        assert stats.cache_model_reuse == stats.cache_subsumed_unsat == 0

    def test_push_pop_keeps_cache_keys_scoped(self):
        solver = Solver()
        x = T.var("qa", 8)
        solver.add(T.ult(x, T.bv(5, 8)))
        assert solver.check() == SAT
        solver.push()
        solver.add(T.ult(T.bv(250, 8), x))
        assert solver.check() == UNSAT
        solver.pop()
        assert solver.check() == SAT  # exact hit on the outer frame key
        assert solver.stats.cache_hit_sat == 1


class TestModelCacheLRURegression:
    """The witness pool is a bounded LRU (``QueryCache._models``).

    An earlier model cache kept a list and evicted with ``pop(0)`` —
    FIFO order and an O(n) shift per eviction.  These tests pin the
    contract on the one pool left: the bound holds exactly, eviction is
    least-recently-*used* (a replayed model survives), and remembering
    a model twice keeps one entry.
    """

    @staticmethod
    def _solver():
        # A two-witness pool; intervals off so only replay or CDCL answer.
        solver = Solver(use_intervals=False)
        solver.query_cache = QueryCache(model_probe=2)
        return solver

    @staticmethod
    def _pooled_values(solver):
        return [witness.model["qa"]
                for witness in solver.query_cache._models.values()]

    def test_bound_is_exact(self):
        solver = self._solver()
        for value in (3, 7, 11, 13, 17):
            assert solver.check(
                extra=[T.eq(T.var("qa", 8), T.bv(value, 8))]) == SAT
        assert len(solver.query_cache._models) == 2

    def test_eviction_is_lru_not_fifo(self):
        solver = self._solver()
        x = T.var("qa", 8)
        assert solver.check(extra=[T.eq(x, T.bv(3, 8))]) == SAT   # A
        assert solver.check(extra=[T.eq(x, T.bv(7, 8))]) == SAT   # B
        # Replay A on a new query (the replay refreshes its recency).
        sat_calls = solver.stats.sat_calls
        assert solver.check(extra=[T.eq(x, T.bv(3, 8)),
                                   T.ult(x, T.bv(50, 8))]) == SAT
        assert solver.stats.sat_calls == sat_calls  # served from the pool
        assert solver.stats.cache_model_reuse == 1
        # Inserting C must now evict B (LRU), not A (FIFO head).
        assert solver.check(extra=[T.eq(x, T.bv(11, 8))]) == SAT  # C
        cached_values = self._pooled_values(solver)
        assert 3 in cached_values, "LRU evicted the recently-used model"
        assert 7 not in cached_values, "expected the stale model evicted"

    def test_remember_is_idempotent(self):
        cache = QueryCache(model_probe=2)
        first = cache.store(T.query_key([pred("qa", 200)]), SAT, {"qa": 1})
        again = cache.store(T.query_key([pred("qb", 200)]), SAT, {"qa": 1})
        assert again is first
        assert len(cache._models) == 1
