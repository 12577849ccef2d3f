"""Cost ledger, layer view: nesting, self-time, decorator, disabled no-op."""

import time

from repro.obs.ledger import Ledger


def spin(seconds):
    """Busy-wait so perf_counter time is attributable to this scope."""
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def layer(ledger, name):
    """One row of the ledger's layer view (zeros when never entered)."""
    return ledger.snapshot().get(
        name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})


class TestScopes:
    def test_single_phase_counts_calls_and_time(self):
        ledger = Ledger(enabled=True)
        for _ in range(3):
            with ledger.scope("solver"):
                spin(0.002)
        stats = layer(ledger, "solver")
        assert stats["calls"] == 3
        assert stats["total_s"] >= 0.006
        assert abs(stats["total_s"] - stats["self_s"]) < 1e-9

    def test_nesting_attributes_self_time(self):
        ledger = Ledger(enabled=True)
        with ledger.scope("eval"):
            spin(0.002)
            with ledger.scope("memory"):
                spin(0.002)
                with ledger.scope("solver"):
                    spin(0.002)
        eval_stats = layer(ledger, "eval")
        memory_stats = layer(ledger, "memory")
        solver_stats = layer(ledger, "solver")
        # Inclusive totals nest.
        assert eval_stats["total_s"] >= memory_stats["total_s"] \
            >= solver_stats["total_s"]
        # Self time excludes children.
        assert eval_stats["self_s"] < eval_stats["total_s"]
        assert memory_stats["self_s"] < memory_stats["total_s"]
        assert abs(solver_stats["self_s"] - solver_stats["total_s"]) < 1e-9
        # The parent's self time is roughly total minus the child.
        assert (abs((eval_stats["total_s"] - memory_stats["total_s"])
                    - eval_stats["self_s"]) < 0.002)

    def test_sibling_scopes_both_charged_to_parent(self):
        ledger = Ledger(enabled=True)
        with ledger.scope("eval"):
            with ledger.scope("solver"):
                spin(0.001)
            with ledger.scope("solver"):
                spin(0.001)
        assert layer(ledger, "solver")["calls"] == 2
        assert layer(ledger, "eval")["self_s"] \
            < layer(ledger, "eval")["total_s"]

    def test_recursive_same_phase(self):
        ledger = Ledger(enabled=True)
        with ledger.scope("eval"):
            with ledger.scope("eval"):
                spin(0.001)
        stats = layer(ledger, "eval")
        assert stats["calls"] == 2
        # Self time never exceeds inclusive total across the pair.
        assert stats["self_s"] <= stats["total_s"] + 1e-9


class TestDecorator:
    def test_wrap_times_every_call(self):
        ledger = Ledger(enabled=True)

        @ledger.wrap("decode")
        def decode():
            spin(0.001)
            return 42

        assert decode() == 42
        assert decode() == 42
        assert layer(ledger, "decode")["calls"] == 2


class TestDisabled:
    def test_disabled_profiler_records_nothing(self):
        ledger = Ledger(enabled=False)
        with ledger.scope("solver"):
            pass
        assert ledger.snapshot() == {}
        assert layer(ledger, "solver")["calls"] == 0

    def test_disabled_phase_is_shared_noop(self):
        ledger = Ledger(enabled=False)
        assert ledger.scope("a") is ledger.scope("b")


class TestReporting:
    def test_snapshot_and_report(self):
        ledger = Ledger(enabled=True)
        with ledger.scope("decode"):
            spin(0.001)
        snap = ledger.snapshot()
        assert snap["decode"]["calls"] == 1
        assert snap["decode"]["total_s"] > 0
        text = ledger.report()
        assert "decode" in text
        assert "calls" in text

    def test_mark_starts_an_empty_window(self):
        ledger = Ledger(enabled=True)
        with ledger.scope("decode"):
            pass
        mark = ledger.mark()
        assert ledger.snapshot(mark) == {}
        with ledger.scope("decode"):
            pass
        assert ledger.snapshot(mark)["decode"]["calls"] == 1
        assert ledger.snapshot()["decode"]["calls"] == 2


class TestSolverCacheAccounting:
    """Query-cache answers must not inflate measured solver work.

    The accounting contract (SolverStats docstring): ``checks`` counts
    every ``Solver.check`` call, but a call answered by the cache layer
    adds nothing to the ledger's ``solver`` layer, the
    ``solver.check_ms`` histogram, ``solve_time`` or the
    ``solver_check`` event count — it is counted under ``cache_*`` and
    emits one ``solver_cache`` event instead.
    """

    @staticmethod
    def _solver_with_obs():
        from repro.obs import Obs, RingBufferSink
        from repro.smt import Solver

        obs = Obs(metrics=True, profile=True)
        ring = RingBufferSink(capacity=1000)
        obs.add_sink(ring)
        solver = Solver()
        solver.attach_obs(obs)
        return solver, obs, ring

    @staticmethod
    def _by_kind(ring):
        counts = {}
        for event in ring.events():
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def test_cached_hit_skips_phase_histogram_and_event(self):
        from repro.smt import SAT
        from repro.smt import terms as T

        solver, obs, ring = self._solver_with_obs()
        cond = T.ult(T.var("acc_a", 8), T.bv(9, 8))
        assert solver.check(extra=[cond]) == SAT

        phase_calls = layer(obs.ledger, "solver")["calls"]
        hist_count = obs.metrics.histogram("solver.check_ms").count
        solve_time = solver.stats.solve_time
        checks = solver.stats.checks
        events = self._by_kind(ring)

        assert solver.check(extra=[cond]) == SAT  # exact cache hit

        assert solver.stats.checks == checks + 1
        assert solver.stats.cache_hit_sat == 1
        # None of the solver-work meters moved.
        assert layer(obs.ledger, "solver")["calls"] == phase_calls
        assert obs.metrics.histogram("solver.check_ms").count == hist_count
        assert solver.stats.solve_time == solve_time
        after = self._by_kind(ring)
        assert after.get("solver_check", 0) == events.get("solver_check", 0)
        assert after.get("solver_cache", 0) \
            == events.get("solver_cache", 0) + 1
        assert obs.metrics.counter("solver.cache_hit").value == 1

    def test_solved_query_is_fully_metered(self):
        from repro.smt import SAT
        from repro.smt import terms as T

        solver, obs, ring = self._solver_with_obs()
        # x > 9: the zero-model fast path cannot answer this one, so it
        # must reach the solving layers and be fully metered.
        cond = T.ult(T.bv(9, 8), T.var("acc_b", 8))
        assert solver.check(extra=[cond]) == SAT
        assert layer(obs.ledger, "solver")["calls"] == 1
        assert obs.metrics.histogram("solver.check_ms").count == 1
        assert self._by_kind(ring).get("solver_check", 0) == 1
        assert obs.metrics.counter("solver.cache_miss").value == 1

    def test_frame_reuse_counts_without_solver_work(self):
        from repro.smt import Solver

        solver, obs, ring = self._solver_with_obs()
        solver.note_frame_reuse()
        assert solver.stats.frame_reuse == 1
        assert solver.stats.checks == 0
        assert layer(obs.ledger, "solver")["calls"] == 0
        assert obs.metrics.counter("solver.frame_reuse").value == 1
        events = self._by_kind(ring)
        assert events.get("solver_cache", 0) == 1
        assert events.get("solver_check", 0) == 0

    def test_delta_since_covers_cache_fields(self):
        from repro.smt import SAT, Solver
        from repro.smt import terms as T

        solver = Solver()
        cond = T.ult(T.var("acc_c", 8), T.bv(9, 8))
        assert solver.check(extra=[cond]) == SAT
        before = solver.stats.as_dict()
        assert solver.check(extra=[cond]) == SAT
        solver.note_frame_reuse()
        delta = solver.stats.delta_since(before)
        assert delta["checks"] == 1
        assert delta["cache_hit_sat"] == 1
        assert delta["frame_reuse"] == 1
        assert delta["sat_calls"] == 0
        assert delta["solve_time"] == 0.0


class TestScopeUnwinding:
    """Scopes must unwind correctly when client code raises."""

    def test_exception_still_charges_scope(self):
        ledger = Ledger(enabled=True)
        try:
            with ledger.scope("eval"):
                spin(0.001)
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        stats = layer(ledger, "eval")
        assert stats["calls"] == 1
        assert stats["total_s"] >= 0.001
        # The stack is fully unwound: a fresh root scope is charged as a
        # root, not as a child of the failed one.
        with ledger.scope("decode"):
            pass
        assert layer(ledger, "decode")["calls"] == 1
        assert abs(layer(ledger, "decode")["total_s"]
                   - layer(ledger, "decode")["self_s"]) < 1e-9

    def test_exception_in_nested_scope_unwinds_to_parent(self):
        ledger = Ledger(enabled=True)
        with ledger.scope("eval"):
            try:
                with ledger.scope("solver"):
                    raise ValueError("inner")
            except ValueError:
                pass
            spin(0.001)
        eval_stats = layer(ledger, "eval")
        solver_stats = layer(ledger, "solver")
        assert eval_stats["calls"] == 1
        assert solver_stats["calls"] == 1
        # The parent kept timing after the child blew up.
        assert eval_stats["total_s"] >= solver_stats["total_s"] + 0.001
        # And the child's elapsed time was still handed to the parent.
        assert eval_stats["self_s"] < eval_stats["total_s"]

    def test_deep_nesting_unwinds_completely(self):
        ledger = Ledger(enabled=True)
        depth = 200

        def recurse(level):
            if level == 0:
                raise RuntimeError("bottom")
            with ledger.scope("eval"):
                recurse(level - 1)

        try:
            recurse(depth)
        except RuntimeError:
            pass
        assert layer(ledger, "eval")["calls"] == depth
        # Every frame exited: a new root scope has no leaked parent, so
        # its self time equals its total.
        with ledger.scope("memory"):
            spin(0.001)
        memory = layer(ledger, "memory")
        assert abs(memory["total_s"] - memory["self_s"]) < 1e-9

    def test_deep_nesting_totals_are_coherent(self):
        ledger = Ledger(enabled=True)

        def recurse(level):
            with ledger.scope("eval"):
                if level:
                    recurse(level - 1)
                else:
                    spin(0.001)

        recurse(50)
        stats = layer(ledger, "eval")
        assert stats["calls"] == 51
        # Self time across a recursive chain never exceeds the sum of
        # inclusive totals.
        assert stats["self_s"] <= stats["total_s"] + 1e-9


class TestWrapMetadata:
    def test_wrap_preserves_function_identity(self):
        ledger = Ledger(enabled=True)

        @ledger.wrap("decode")
        def decode_instruction(word):
            """Decode one instruction word."""
            return word + 1

        assert decode_instruction.__name__ == "decode_instruction"
        assert decode_instruction.__doc__ == "Decode one instruction word."
        assert decode_instruction.__wrapped__(1) == 2
        assert decode_instruction(1) == 2
