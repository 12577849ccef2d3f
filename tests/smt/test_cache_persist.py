"""QueryCache persistence: save_state/load_state round trip.

Cache keys are frozensets of structural term digests — process-portable
by construction — so a persisted cache must warm a fresh solver to the
same verdicts without re-solving.
"""

import json

import pytest

from repro.smt import SAT, UNSAT, Solver
from repro.smt import terms as T
from repro.smt.cache import QueryCache


def queries():
    x = T.var("px", 8)
    sat_q = [T.eq(x, T.bv(7, 8))]
    unsat_q = [T.eq(x, T.bv(1, 8)), T.eq(x, T.bv(2, 8))]
    return sat_q, unsat_q


def solved_solver():
    solver = Solver()
    sat_q, unsat_q = queries()
    assert solver.check(sat_q) == SAT
    assert solver.check(unsat_q) == UNSAT
    return solver, sat_q, unsat_q


class TestRoundTrip:
    def test_snapshot_is_json_serializable(self):
        solver, _, _ = solved_solver()
        payload = solver.query_cache.save_state()
        clone = json.loads(json.dumps(payload))
        assert clone["version"] == 1
        assert len(clone["entries"]) == 2

    def test_loaded_cache_answers_without_solving(self):
        solver, sat_q, unsat_q = solved_solver()
        payload = json.loads(json.dumps(
            solver.query_cache.save_state()))

        fresh = Solver()
        loaded = fresh.query_cache.load_state(payload)
        assert loaded == 2
        assert fresh.check(sat_q) == SAT
        assert fresh.check(unsat_q) == UNSAT
        assert fresh.stats.cache_misses == 0
        assert fresh.stats.sat_calls == 0

    def test_sat_entries_keep_their_model(self):
        solver, sat_q, _ = solved_solver()
        payload = solver.query_cache.save_state()
        fresh = QueryCache()
        fresh.load_state(payload)
        entry = fresh.lookup(T.query_key(sat_q))
        assert entry is not None and entry.verdict == SAT
        assert entry.model is not None

    def test_unsat_subsumption_survives(self):
        solver, _, unsat_q = solved_solver()
        fresh = QueryCache()
        fresh.load_state(solver.query_cache.save_state())
        superset = unsat_q + [T.eq(T.var("px", 8), T.bv(3, 8))]
        assert fresh.subsumes_unsat(T.query_key(superset))


class TestTolerance:
    @pytest.mark.parametrize("payload", [
        None, 17, "garbage", {}, {"entries": "nope"},
        {"version": 1, "entries": [{"bad": True}]},
        {"version": 1, "entries": [{"key": ["zz-not-hex"],
                                    "verdict": "sat"}]},
        {"version": 1, "entries": [{"key": ["aa"],
                                    "verdict": "maybe"}]},
    ])
    def test_corrupt_payload_degrades_to_cold(self, payload):
        cache = QueryCache()
        assert cache.load_state(payload) == 0
        assert len(cache) == 0

    def test_partial_payload_loads_good_entries(self):
        solver, _, _ = solved_solver()
        payload = solver.query_cache.save_state()
        payload["entries"].append({"key": ["not-hex!"],
                                   "verdict": "sat"})
        payload["unsat_sets"].append(["also-bad"])
        payload["models"].append("not-a-dict")
        fresh = QueryCache()
        assert fresh.load_state(payload) == 2

    @staticmethod
    def _sat_payload(model):
        """One SAT entry for ``9 <u wx`` carrying ``model``."""
        cond = T.ult(T.bv(9, 8), T.var("wx", 8))
        key = sorted(digest.hex() for digest in T.query_key([cond]))
        return cond, {"version": 1,
                      "entries": [{"key": key, "verdict": "sat",
                                   "model": model}]}

    @pytest.mark.parametrize("model", [
        None, "junk", 17, [["wx", 10]], {"wx": "abc"}, {"wx": -1},
        {"wx": 10.5}, {"wx": True}, {3: 10},
    ])
    def test_sat_entry_without_usable_model_is_dropped(self, model):
        cond, payload = self._sat_payload(model)
        solver = Solver()
        assert solver.query_cache.load_state(payload) == 0
        # The query is solved afresh and still yields a real model.
        assert solver.check(extra=[cond]) == SAT
        assert solver.model()["wx"] > 9
        assert solver.stats.cache_hit_sat == 0

    def test_sat_entry_with_model_replays_it(self):
        cond, payload = self._sat_payload({"wx": 200})
        solver = Solver()
        assert solver.query_cache.load_state(payload) == 1
        assert solver.check(extra=[cond]) == SAT
        assert solver.model() == {"wx": 200}
        assert solver.stats.cache_hit_sat == 1

    @pytest.mark.parametrize("row", [
        None, "junk", [["wx", 10]], {"wx": "abc"}, {"wx": -3}, {"wx": 1.5},
    ])
    def test_malformed_models_row_is_dropped(self, row):
        cache = QueryCache()
        cache.load_state({"version": 1, "models": [row, {"wx": 12}]})
        assert [witness.model for witness in cache.witnesses()] \
            == [{}, {"wx": 12}]
