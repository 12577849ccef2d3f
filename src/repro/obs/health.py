"""Live exploration health monitor: periodic sampler + stall/pressure
watchdog.

The telemetry stack (metrics / events / cost ledger / flight recorder)
explains a run *after* it finishes; this module gives the engine a
heartbeat **while exploration is running**.  A retargetable engine
pointed at an unfamiliar ADL spec is exactly the workload that goes
wrong mid-flight — frontier explosion, solver-dominated stalls,
term-pool blowup — and the monitor exists to see, bound and compare
those costs live.

Two cooperating pieces, both driven from the executor main loop:

:class:`HealthMonitor` (sampler)
    A low-overhead periodic sampler — every ``sample_every_steps``
    engine steps and (optionally) at least ``min_interval_s`` apart —
    that snapshots frontier size, steps/sec, solver time share and
    cache hit rates, term-pool growth (:meth:`TermPool.growth_since
    <repro.smt.terms.TermPool.growth_since>`), coverage/path/defect
    progress and a top-k heaviest-states view built from
    :meth:`SymState.footprint <repro.core.state.SymState.footprint>`.
    Samples are schema-versioned dicts (``"v"`` key,
    :data:`HEALTH_SCHEMA`), kept in a bounded in-memory history,
    mirrored into gauges (``health.*``) and emitted as ``health``
    events into the run's tracer (then flushed, so a live ``repro
    top`` tail sees them mid-run).

watchdog (inside the monitor)
    Evaluated at each sample: detects **no-new-coverage windows**
    (``stall_window`` consecutive samples without new coverage, paths
    or defects), **solver-dominated intervals** (solved-query time
    share of wall time above ``solver_share_threshold``), **frontier
    growth** beyond ``frontier_budget`` and **term-pool growth**
    beyond ``pool_budget``.  Each firing produces a structured
    diagnosis (recorded, counted, emitted as a ``watchdog`` event).
    Diagnoses are *observe-only by default*; per-diagnosis graceful
    degradation is opt-in via ``HealthConfig(actions={...})`` — the
    engine then forces a merge pass (``"merge"``), switches strategy
    (``"switch"``) or stops with a clean ``pressure`` stop reason
    (``"stop"``).

Determinism: sampling is read-only — with the default
``min_interval_s=0`` the cadence is a pure function of the step count,
so a run with the monitor attached explores exactly the same tree as a
run without it (pinned by ``tests/obs/test_health.py``).  Only opt-in
actions may change exploration, and only when explicitly configured.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, List, Optional

from .events import HEALTH, WATCHDOG

__all__ = ["HealthConfig", "HealthMonitor", "health_summary_line",
           "HEALTH_SCHEMA", "DIAGNOSES", "ACTIONS",
           "STALL", "SOLVER_DOMINATED", "FRONTIER_PRESSURE",
           "POOL_PRESSURE",
           "ACTION_NONE", "ACTION_MERGE", "ACTION_SWITCH", "ACTION_STOP"]

#: Version of the ``health`` event payload / summary dict layout.
HEALTH_SCHEMA = 1

# -- diagnosis kinds ---------------------------------------------------------

STALL = "no-new-coverage"
SOLVER_DOMINATED = "solver-dominated"
FRONTIER_PRESSURE = "frontier-pressure"
POOL_PRESSURE = "term-pool-pressure"

DIAGNOSES = (STALL, SOLVER_DOMINATED, FRONTIER_PRESSURE, POOL_PRESSURE)

# -- degradation actions -----------------------------------------------------

ACTION_NONE = "none"        # observe only (the default for everything)
ACTION_MERGE = "merge"      # force a merge pass over the frontier
ACTION_SWITCH = "switch"    # switch the exploration strategy
ACTION_STOP = "stop"        # stop with stop_reason = "pressure"

ACTIONS = (ACTION_NONE, ACTION_MERGE, ACTION_SWITCH, ACTION_STOP)


class HealthConfig:
    """Tunables for the sampler and the watchdog.

    The defaults are deliberately lenient: on a healthy run (e.g. the
    CI exerciser kernel) the watchdog must produce **zero** diagnoses.
    Tighten the budgets to make it speak.
    """

    def __init__(self,
                 sample_every_steps: int = 256,
                 min_interval_s: float = 0.0,
                 top_k: int = 5,
                 max_scan: int = 4096,
                 history: int = 512,
                 stall_window: Optional[int] = 16,
                 solver_share_threshold: Optional[float] = 0.9,
                 solver_min_window_s: float = 0.05,
                 frontier_budget: Optional[int] = None,
                 pool_budget: Optional[int] = None,
                 actions: Optional[Dict[str, str]] = None,
                 switch_strategy: str = "bfs"):
        if sample_every_steps < 1:
            raise ValueError("sample_every_steps must be >= 1")
        # -- sampler cadence.  With min_interval_s == 0 (the default)
        # the cadence is a pure function of the step count, so the
        # monitor is bit-for-bit deterministic across runs.
        self.sample_every_steps = sample_every_steps
        self.min_interval_s = min_interval_s
        # -- heaviest-states view: scan at most max_scan frontier
        # states, report the top_k by footprint.
        self.top_k = top_k
        self.max_scan = max_scan
        # -- bounded in-memory sample history (the JSONL sink keeps
        # everything; this is for programmatic access and `report()`).
        self.history = history
        # -- watchdog thresholds (None disables the diagnosis).
        self.stall_window = stall_window
        self.solver_share_threshold = solver_share_threshold
        self.solver_min_window_s = solver_min_window_s
        self.frontier_budget = frontier_budget
        self.pool_budget = pool_budget
        # -- opt-in degradation: {diagnosis kind: action}.  Anything
        # not listed is observe-only.
        self.actions = dict(actions) if actions else {}
        for kind, action in self.actions.items():
            if kind not in DIAGNOSES:
                raise ValueError("unknown diagnosis %r (have: %s)"
                                 % (kind, ", ".join(DIAGNOSES)))
            if action not in ACTIONS:
                raise ValueError("unknown action %r (have: %s)"
                                 % (action, ", ".join(ACTIONS)))
        self.switch_strategy = switch_strategy


class HealthMonitor:
    """Periodic sampler + watchdog, driven by ``Engine.explore``.

    Lifecycle::

        monitor = HealthMonitor(HealthConfig(...), obs)
        monitor.begin(engine, result)       # per-exploration reset
        ... per popped state:
        diagnoses = monitor.tick()          # cheap guard; maybe sample
        ... at the end:
        telemetry["health"] = monitor.finish()

    ``tick()`` is the hot-path entry: one integer increment and one
    compare until a sample is due.  All sampling is read-only against
    the engine; see the module docstring for the determinism contract.
    """

    def __init__(self, config: Optional[HealthConfig] = None, obs=None):
        self.config = config if config is not None else HealthConfig()
        self._obs = obs
        self.samples: deque = deque(maxlen=self.config.history)
        self.diagnoses: List[Dict[str, object]] = []
        self.total_samples = 0
        self._engine = None
        self._result = None
        # Instruments (re-bound in begin() once obs is known).
        self._bind_obs(obs)
        self._reset_window()

    def _bind_obs(self, obs) -> None:
        if obs is None:
            from .metrics import NULL_COUNTER, NULL_GAUGE
            self._c_samples = NULL_COUNTER
            self._c_diagnoses = NULL_COUNTER
            self._g_frontier = NULL_GAUGE
            self._g_sps = NULL_GAUGE
            self._g_coverage = NULL_GAUGE
            self._g_pool = NULL_GAUGE
            self._tracer = None
        else:
            metrics = obs.metrics
            self._c_samples = metrics.counter("health.samples")
            self._c_diagnoses = metrics.counter("health.diagnoses")
            self._g_frontier = metrics.gauge("health.frontier")
            self._g_sps = metrics.gauge("health.steps_per_sec")
            self._g_coverage = metrics.gauge("health.coverage")
            self._g_pool = metrics.gauge("health.pool_interned")
            self._tracer = obs.tracer

    def _reset_window(self) -> None:
        self._ticks = 0
        self._next_tick = self.config.sample_every_steps
        self._last_ticks = 0
        self._last_time = 0.0
        self._solver_last: Dict[str, float] = {}
        self._pool_begin: Dict[str, int] = {}
        self._last_progress = None
        self._stall_streak = 0
        self._peak_frontier = 0
        self._start_time = 0.0

    # -- lifecycle ----------------------------------------------------------

    def begin(self, engine, result) -> None:
        """Arm the monitor for one exploration (resets all baselines)."""
        from ..smt import terms as T
        self._engine = engine
        self._result = result
        if engine is not None and self._obs is not engine.obs:
            self._obs = engine.obs
            self._bind_obs(engine.obs)
        self.samples.clear()
        self.diagnoses = []
        self.total_samples = 0
        self._reset_window()
        now = time.perf_counter()
        self._start_time = now
        self._last_time = now
        if engine is not None:
            self._solver_last = engine.solver.stats.as_dict()
        self._pool_begin = T.get_pool().stats()

    def tick(self) -> Optional[List[Dict[str, object]]]:
        """One engine step.  Returns new diagnoses when a sample fired
        and the watchdog spoke, else ``None`` (the overwhelmingly
        common case: one increment + one compare)."""
        self._ticks += 1
        if self._ticks < self._next_tick:
            return None
        now = time.perf_counter()
        if (self.config.min_interval_s > 0.0
                and now - self._last_time < self.config.min_interval_s):
            # Too soon in wall time; re-arm a full step window out.
            self._next_tick = self._ticks + self.config.sample_every_steps
            return None
        self._next_tick = self._ticks + self.config.sample_every_steps
        return self._sample(now)

    def sample_now(self) -> Dict[str, object]:
        """Force an immediate sample (tests / examples / final flush)."""
        self._sample(time.perf_counter())
        return self.samples[-1]

    def finish(self) -> Dict[str, object]:
        """Seal the run and return the summary dict (stored by the
        engine under ``result.telemetry["health"]``)."""
        return self.summary()

    # -- sampling -----------------------------------------------------------

    def _sample(self, now: float) -> Optional[List[Dict[str, object]]]:
        from ..smt import terms as T
        from ..smt.solver import cache_hits
        engine, result = self._engine, self._result
        if engine is None or result is None:
            return None
        elapsed = now - self._last_time
        steps_delta = self._ticks - self._last_ticks
        steps_per_sec = steps_delta / elapsed if elapsed > 0 else 0.0
        frontier = len(engine.strategy)
        if frontier > self._peak_frontier:
            self._peak_frontier = frontier
        solver_delta = engine.solver.stats.delta_since(self._solver_last)
        solve_time = float(solver_delta.get("solve_time", 0.0))
        solver_share = solve_time / elapsed if elapsed > 0 else 0.0
        checks = int(solver_delta.get("checks", 0))
        cached = int(cache_hits(solver_delta))
        hit_ratio = cached / checks if checks else 0.0
        pool_now = T.get_pool().stats()
        pool_grown = pool_now["interned"] - self._pool_begin.get(
            "interned", 0)
        coverage = len(result.visited_pcs)
        sample: Dict[str, object] = {
            "v": HEALTH_SCHEMA,
            "seq": self.total_samples,
            "t": now - self._start_time,
            "steps": self._ticks,
            "steps_per_sec": steps_per_sec,
            "instructions": result.instructions_executed,
            "frontier": frontier,
            "coverage": coverage,
            "paths": len(result.paths),
            "defects": len(result.defects),
            "solver": {
                "checks": checks,
                "solve_time": solve_time,
                "share": solver_share,
                "hit_ratio": hit_ratio,
            },
            "pool": {
                "interned": pool_now["interned"],
                "grown": pool_grown,
            },
            "top_states": self._top_states(engine),
        }
        self.samples.append(sample)
        self.total_samples += 1
        self._c_samples.inc()
        self._g_frontier.set(frontier)
        self._g_sps.set(int(steps_per_sec))
        self._g_coverage.set(coverage)
        self._g_pool.set(pool_now["interned"])
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(HEALTH, state_id=-1, pc=0, sample=sample)
            tracer.flush()   # live tails (`repro top`) see it mid-run
        fired = self._watchdog(sample, solver_share, elapsed)
        self._last_time = now
        self._last_ticks = self._ticks
        self._solver_last = engine.solver.stats.as_dict()
        return fired if fired else None

    def _top_states(self, engine) -> List[Dict[str, int]]:
        """Footprints of the top-k heaviest frontier states."""
        config = self.config
        if config.top_k <= 0:
            return []
        scanned = []
        for index, state in enumerate(engine.strategy.states()):
            if index >= config.max_scan:
                break
            scanned.append(state.footprint())
        scanned.sort(key=lambda f: (f["path_terms"] + f["pages"],
                                    f["state"]),
                     reverse=True)
        return scanned[:config.top_k]

    # -- watchdog -----------------------------------------------------------

    def _watchdog(self, sample, solver_share: float,
                  elapsed: float) -> List[Dict[str, object]]:
        config = self.config
        fired: List[Dict[str, object]] = []
        # Stall: no new coverage, paths or defects for a window of
        # consecutive samples (the run is burning steps, finding
        # nothing).
        progress = (sample["coverage"], sample["paths"],
                    sample["defects"])
        if progress == self._last_progress:
            self._stall_streak += 1
        else:
            self._stall_streak = 0
            self._last_progress = progress
        if (config.stall_window is not None
                and self._stall_streak >= config.stall_window):
            fired.append(self._diagnose(
                STALL, sample,
                "no new coverage/paths/defects for %d samples (~%d steps)"
                % (self._stall_streak,
                   self._stall_streak * config.sample_every_steps),
                streak=self._stall_streak))
        # Solver-dominated interval: solved-query wall time eats the
        # sampling window (cache hits deliberately do not count; they
        # are free by the accounting contract).
        if (config.solver_share_threshold is not None
                and elapsed >= config.solver_min_window_s
                and solver_share >= config.solver_share_threshold):
            fired.append(self._diagnose(
                SOLVER_DOMINATED, sample,
                "solver took %.0f%% of the last %.2fs window"
                % (100.0 * solver_share, elapsed)))
        # Frontier pressure: pending-state count beyond the budget.
        if (config.frontier_budget is not None
                and sample["frontier"] > config.frontier_budget):
            fired.append(self._diagnose(
                FRONTIER_PRESSURE, sample,
                "frontier %d > budget %d"
                % (sample["frontier"], config.frontier_budget)))
        # Term-pool pressure: net pool growth beyond the budget.
        if (config.pool_budget is not None
                and sample["pool"]["grown"] > config.pool_budget):
            fired.append(self._diagnose(
                POOL_PRESSURE, sample,
                "term pool grew by %d terms > budget %d"
                % (sample["pool"]["grown"], config.pool_budget)))
        return fired

    def _diagnose(self, kind: str, sample, detail: str,
                  streak: int = 0) -> Dict[str, object]:
        action = self.config.actions.get(kind, ACTION_NONE)
        diagnosis: Dict[str, object] = {
            "v": HEALTH_SCHEMA,
            "diagnosis": kind,
            "detail": detail,
            "seq": sample["seq"],
            "t": sample["t"],
            "action": action,
        }
        if streak:
            diagnosis["streak"] = streak
        self.diagnoses.append(diagnosis)
        self._c_diagnoses.inc()
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(WATCHDOG, state_id=-1, pc=0, **diagnosis)
            tracer.flush()
        return diagnosis

    # -- reporting ----------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """JSON-able digest (lands in ``result.telemetry["health"]``)."""
        return {
            "v": HEALTH_SCHEMA,
            "samples": self.total_samples,
            "every": self.config.sample_every_steps,
            "peak_frontier": self._peak_frontier,
            "last": dict(self.samples[-1]) if self.samples else None,
            "diagnoses": list(self.diagnoses),
        }

    def report(self) -> str:
        """Human-readable monitor + watchdog report."""
        lines = ["== health monitor =="]
        lines.append("samples: %d (every %d steps)"
                     % (self.total_samples,
                        self.config.sample_every_steps))
        if self.samples:
            last = self.samples[-1]
            solver = last["solver"]
            pool = last["pool"]
            lines.append(
                "last: steps/s=%.0f frontier=%d coverage=%d paths=%d "
                "defects=%d" % (last["steps_per_sec"], last["frontier"],
                                last["coverage"], last["paths"],
                                last["defects"]))
            lines.append("solver: share=%.2f hit_ratio=%.2f checks=%d"
                         % (solver["share"], solver["hit_ratio"],
                            solver["checks"]))
            lines.append("pool: interned=%d (grown %+d)"
                         % (pool["interned"], pool["grown"]))
            if last["top_states"]:
                lines.append("heaviest states:")
                for foot in last["top_states"]:
                    lines.append(
                        "  #%-5d pc=%#x path_terms=%d pages=%d steps=%d"
                        % (foot["state"], foot["pc"],
                           foot["path_terms"], foot["pages"],
                           foot["steps"]))
        if self.diagnoses:
            lines.append("watchdog: %d %s"
                         % (len(self.diagnoses),
                            "diagnosis" if len(self.diagnoses) == 1
                            else "diagnoses"))
            for diagnosis in self.diagnoses:
                lines.append("  [%s] %s action=%s"
                             % (diagnosis["diagnosis"],
                                diagnosis["detail"],
                                diagnosis["action"]))
        else:
            lines.append("watchdog: healthy (0 diagnoses)")
        return "\n".join(lines)


def health_summary_line(health) -> Optional[str]:
    """One-line digest of a ``telemetry["health"]`` summary dict, or
    ``None`` when the monitor never ran.  Shared by
    :meth:`ExplorationResult.health_line
    <repro.core.reporting.ExplorationResult.health_line>` and
    ``repro stats``."""
    if not isinstance(health, dict) or not health.get("samples"):
        return None
    last = health.get("last") or {}
    solver = last.get("solver") or {}
    return ("health: samples=%d steps/s=%.0f frontier_peak=%d "
            "solver_share=%.2f diagnoses=%d"
            % (health.get("samples", 0),
               last.get("steps_per_sec", 0.0),
               health.get("peak_frontier", 0),
               solver.get("share", 0.0),
               len(health.get("diagnoses") or ())))
