"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload explode --seed 1 --trace 0 \\
        --out-dir .perfbench

``run.py`` starts one worker per pass: the hash-consed term pool, the
model and decode caches and the compiled-semantics cache are all
process-global, so a fresh process is the only way to make every pass
start cold.  The worker prints one JSON record as its last line.

Timed segments: each set-up (cold model build per ISA, assembly,
``Engine`` construction), then the workload's lint run and each
exploration.  While they run the worker samples the host's speed
(:class:`SpeedLog`); each segment is reported both in seconds and in
reference seconds, scaled by the speed sampled around it.  The oracle
and the shape check run after the last segment.  With ``--trace 1`` the
tracing wrappers are installed for the last set-up and the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import repro.adl  # noqa: E402
import repro.core.reporting  # noqa: E402
import repro.isa  # noqa: E402
import repro.lint  # noqa: E402
from repro.core import Engine, EngineConfig  # noqa: E402
from repro.obs import Obs  # noqa: E402
from repro.programs.suite import CODE_BASE  # noqa: E402
from repro.smt.terms import pool_stats  # noqa: E402

SETUPS = 5
SPEED_REPS = 3
SPEED_INTERVAL_S = 0.25
# Time of reference_loop on the reference host (2-core 2.1 GHz x86-64,
# unloaded): a reference second is a second at that speed.
REFERENCE_LOOP_S = 0.008
SPEED_SPAN = "perfbench.speed"


def reference_loop() -> int:
    """A fixed slice of interpreter work (dict, tuple, integer and call
    traffic, like the engine's own).  Its time tracks the host's speed."""
    table = {}
    total = 0
    for index in range(36000):
        key = (index * 7919) & 1023
        total += table.get(key, 0) ^ index
        table[key] = (total & 0xffff, key)[0]
    return total


class SpeedLog:
    """Samples of the host's speed, taken while a pass runs.

    On a shared host the speed drifts by tens of percent within a minute.
    Samples are taken between segments of work and, through an engine
    checker, during explorations, at most once per ``SPEED_INTERVAL_S``.
    :meth:`measure` leaves the samples out of a segment's time and scales
    each piece of it by ``REFERENCE_LOOP_S`` over the loop times sampled
    on either side, so the drift cancels and the program's own changes
    remain.
    """

    def __init__(self, recorder: Optional[tracing.Recorder] = None):
        self.samples: List[tuple] = []    # (begin, end, loop seconds)
        # Traced, a sample is its own span, so no layer is charged for it.
        self._time_loop = (recorder.wrap(SPEED_SPAN, _time_loop)
                           if recorder is not None else _time_loop)
        self.sample()

    def sample(self) -> None:
        begin = perf_counter()
        loop = self._time_loop()
        self.samples.append((begin, perf_counter(), loop))

    def checkpoint(self) -> None:
        """Sample unless the last sample is recent."""
        if perf_counter() - self.samples[-1][1] >= SPEED_INTERVAL_S:
            self.sample()

    def checker(self, _engine, _state, _decoded) -> None:
        """``Engine.add_checker`` hook: sample during long explorations."""
        self.checkpoint()

    def measure(self, start: float, end: float) -> Tuple[float, float]:
        """``(seconds, reference seconds)`` of the work in ``[start,
        end]``, less the samples taken inside it."""
        seconds = reference = 0.0
        cursor = start
        loop_before = None
        for begin, finish, loop in self.samples:
            if finish <= start:
                loop_before = loop
                continue
            piece = (begin if begin < end else end) - cursor
            seconds += piece
            reference += piece * REFERENCE_LOOP_S * 2.0 / (loop_before + loop)
            if begin >= end:
                return seconds, reference
            cursor, loop_before = finish, loop
        raise ValueError("no speed sample after %r" % end)

    def loop_s(self) -> float:
        return stats.median([loop for _begin, _end, loop in self.samples])


def _time_loop() -> float:
    """Median time of :func:`reference_loop` right now."""
    times = []
    for _ in range(SPEED_REPS):
        start = perf_counter()
        reference_loop()
        times.append(perf_counter() - start)
    return stats.median(times)


class _DefectClock:
    """Stamps the time each defect is filed (for ``first_defect_s``)."""

    def __init__(self):
        self.stamps: List[float] = []
        self._original = repro.core.reporting.Defect
        clock = self

        class StampedDefect(self._original):
            def __init__(self, *args, **kwargs):
                clock.stamps.append(perf_counter())
                super().__init__(*args, **kwargs)

        repro.core.reporting.Defect = StampedDefect

    def first_since(self, start: float) -> Optional[float]:
        later = [stamp for stamp in self.stamps if stamp >= start]
        return min(later) if later else None

    def close(self) -> None:
        repro.core.reporting.Defect = self._original


def _lint_records(reports) -> List[Dict[str, object]]:
    records = []
    for report in reports:
        transval = {}
        for finding in report.findings:
            details = finding.details
            if finding.pass_id.startswith("transval-") and "rules" in details:
                transval[details["mode"]] = {
                    "rules": details["rules"], "proved": details["proved"],
                    "cached": bool(details.get("cached"))}
        records.append({"spec": report.spec_name,
                        "errors": report.by_severity()[repro.lint.ERROR],
                        "transval": transval})
    return records


def set_up(workload: workloads.Workload, speed: SpeedLog, recorder=None):
    """Cold models for the workload's ISAs, then one assembled image and
    one ``Engine`` per job.  Returns ``(models, [[job, image, engine]])``."""
    models = {isa: repro.isa.build(isa, fresh=True)
              for isa in workload.isas}
    prepared = []
    for job in workload.jobs:
        model = models[job.isa]
        image = repro.isa.assemble(model, job.source, base=CODE_BASE)
        engine = Engine(model, config=EngineConfig(**dict(job.config)),
                        strategy=job.strategy)
        engine.load_image(image)
        for start, size, track_uninit in job.regions:
            engine.add_region(start, size, name="scratch",
                              track_uninit=track_uninit)
        engine.add_checker(speed.checker)
        if recorder is not None:
            engine.strategy = tracing.TracedStrategy(engine.strategy,
                                                     recorder)
        prepared.append([job, image, engine])
    return models, prepared


def pass_times(segments, measure) -> Tuple[Dict[str, object], ...]:
    """``(seconds, reference seconds)`` totals of one pass from its timed
    segments ``(kind, start, end, first defect time or None)``;
    ``measure(start, end)`` gives both times of an interval."""
    totals = []
    for view in (0, 1):
        by_kind: Dict[str, List[float]] = {"setup": [], "lint": [],
                                           "explore": []}
        firsts = []
        for kind, start, end, stamp in segments:
            by_kind[kind].append(measure(start, end)[view])
            if stamp is not None:
                firsts.append(measure(start, stamp)[view])
        work = sum(by_kind["lint"]) + sum(by_kind["explore"])
        totals.append({"setup_s": stats.median(by_kind["setup"]),
                       "wall_s": work,
                       "explore_s": sum(by_kind["explore"]),
                       "lint_s": sum(by_kind["lint"]),
                       "first_defect_s": sum(firsts) if firsts else None,
                       "region_s": by_kind["setup"][-1] + work})
    return tuple(totals)


def run_pass(name: str, seed: int, trace: bool, out_dir: str) -> dict:
    workload = workloads.make(name, seed)
    recorder = tracing.Recorder() if trace else None
    speed = SpeedLog(recorder)
    segments = []
    # Set-up is short, so it is timed SETUPS times and reported as the
    # median; the last set-up's engines run the workload.
    for _ in range(SETUPS - 1):
        start = perf_counter()
        set_up(workload, speed)
        segments.append(("setup", start, perf_counter(), None))
        speed.checkpoint()
    clock = _DefectClock()
    patches = tracing.install(recorder) if trace else None
    try:
        region_start = perf_counter()
        models, prepared = set_up(workload, speed, recorder)
        segments.append(("setup", region_start, perf_counter(), None))
        speed.checkpoint()
        lint_records = []
        verify_solver_s = 0.0
        if workload.lint:
            # run_lint_all's own loop, one segment per spec, so the host's
            # speed is sampled between specs and not only around the run.
            config, obs = repro.lint.LintConfig(), Obs.default()
            reports = []
            for spec in repro.adl.builtin_spec_names():
                start = perf_counter()
                reports.append(repro.lint.run_lint(spec, config, obs))
                segments.append(("lint", start, perf_counter(), None))
                speed.sample()
            lint_records = _lint_records(reports)
            verify_solver_s = sum(
                timing.solver_seconds for report in reports
                for timing in report.timings
                if timing.pass_id.startswith("transval-"))
            del reports
            speed.checkpoint()
        explored = []
        for entry in prepared:
            job, image, engine = entry
            start = perf_counter()
            result = engine.explore()
            segments.append(("explore", start, perf_counter(),
                             clock.first_since(start)))
            explored.append({
                "job": job, "image": image,
                "instructions": result.instructions_executed,
                "paths": len(result.paths),
                "defects": [(defect.kind, defect.input_bytes)
                            for defect in result.defects],
                "checks": result.solver_stats.get("checks", 0),
                "sat_calls": result.solver_stats.get("sat_calls", 0),
            })
            entry[2] = None       # free the engine before the next job
            del engine, result
            speed.checkpoint()
    finally:
        if patches is not None:
            patches.restore()
        clock.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed.sample()   # every segment now has a speed sample after it
    raw, ref = pass_times(segments, speed.measure)

    # -- correctness, outside the timed segments ----------------------
    verdicts = oracle.lint_verdicts(lint_records) if workload.lint else []
    for record in explored:
        job = record["job"]
        model = models[job.isa]
        image = record["image"]

        def replay_traps(data, model=model, image=image):
            return repro.isa.run_image(model, image, data).trapped

        verdicts.extend(oracle.job_verdicts(job, record["defects"],
                                            replay_traps))
    observed = [(record["job"].label.split("#")[0],
                 [record["instructions"], record["paths"],
                  len(record["defects"])]) for record in explored]
    try:
        with open(os.path.join(HERE, "shapes.json")) as handle:
            expected = json.load(handle).get(name, {})
    except FileNotFoundError:
        expected = {}

    out = {
        "workload": name, "seed": seed, "trace": trace,
        "inputs": dict(workload.inputs),
        "raw": raw, "ref": ref,
        "loop_s": speed.loop_s(), "reference_loop_s": REFERENCE_LOOP_S,
        "instructions": sum(r["instructions"] for r in explored),
        "paths": sum(r["paths"] for r in explored),
        "defects": sum(len(r["defects"]) for r in explored),
        "rules": sum(summary["rules"] for record in lint_records
                     for summary in record["transval"].values()),
        "peak_rss_mb": peak_rss_mb,
        "verdicts": [list(verdict) for verdict in verdicts],
        "shapes": dict(observed),
        "shape_problems": oracle.shape_mismatches(observed, expected),
        "jobs": {r["job"].label: {"checks": r["checks"],
                                  "sat_calls": r["sat_calls"]}
                 for r in explored},
    }
    if trace:
        out["layers"], out["table"] = layer_metrics(
            recorder, raw["region_s"], out["instructions"], verify_solver_s)
        tracing.write_spans(
            os.path.join(out_dir, "spans-%s-seed%d.jsonl.gz" % (name, seed)),
            recorder.spans, region_start)
    return out


# Every per-layer metric: name -> (unit, better).  BENCHMARK.json lists
# most of them with the same unit and direction; the rest are printed
# and recorded in baseline.json only.
LAYER_METRICS: Dict[str, Tuple[str, str]] = {
    "smt.sat.calls": ("count", "lower"),
    "smt.sat.self_s": ("s", "lower"),
    "smt.sat.p50_ms": ("ms", "lower"),
    "smt.sat.tail_q": ("pct", "higher"),
    "smt.sat.tail_ms": ("ms", "lower"),
    "smt.sat.calls_per_check": ("ratio", "lower"),
    "smt.sat.vars": ("count", "lower"),
    "smt.sat.clauses": ("count", "lower"),
    "smt.bitblast.calls": ("count", "lower"),
    "smt.bitblast.self_s": ("s", "lower"),
    "smt.solver.checks": ("count", "lower"),
    "smt.solver.self_s": ("s", "lower"),
    "smt.solver.tail_q": ("pct", "higher"),
    "smt.solver.tail_ms": ("ms", "lower"),
    "smt.cache.probes": ("count", "lower"),
    "smt.cache.self_s": ("s", "lower"),
    "smt.cache.hit_ratio": ("ratio", "higher"),
    "smt.replay.evals": ("count", "lower"),
    "smt.replay.self_s": ("s", "lower"),
    "smt.replay.hit_ratio": ("ratio", "higher"),
    "smt.interval.calls": ("count", "lower"),
    "smt.interval.self_s": ("s", "lower"),
    "smt.interval.unsat_ratio": ("ratio", "higher"),
    "core.engine.steps": ("count", "lower"),
    "core.engine.self_s": ("s", "lower"),
    "core.engine.self_us_per_step": ("us", "lower"),
    "isa.decode.calls": ("count", "lower"),
    "isa.decode.self_s": ("s", "lower"),
    "core.state.forks": ("count", "lower"),
    "core.state.fork_s": ("s", "lower"),
    "core.memory.reads": ("count", "lower"),
    "core.memory.writes": ("count", "lower"),
    "core.memory.self_s": ("s", "lower"),
    "core.strategy.ops": ("count", "lower"),
    "core.strategy.self_s": ("s", "lower"),
    "core.strategy.frontier_peak": ("count", "lower"),
    "core.merge.attempts": ("count", "lower"),
    "core.merge.merges": ("count", "higher"),
    "smt.terms.pool_size": ("count", "lower"),
    "adl.build_s": ("s", "lower"),
    "isa.assemble_s": ("s", "lower"),
    "compile.codegen_s": ("s", "lower"),
    "lint.structural_s": ("s", "lower"),
    "lint.smt_s": ("s", "lower"),
    "lint.transval_s": ("s", "lower"),
    "verify.rules": ("count", "higher"),
    "verify.proved": ("count", "higher"),
    "verify.solver_s": ("s", "lower"),
    "trace.residual_share": ("ratio", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    # Computed by run.py from the untraced and traced passes together.
    "trace.overhead": ("ratio", "lower"),
}


def layer_metrics(recorder: tracing.Recorder, region_s: float,
                  steps: int, verify_solver_s: float):
    """The per-layer metrics of one traced pass, and the full self-time
    table (every span name: calls, self seconds)."""
    table = tracing.by_name(recorder.spans)
    # Speed samples are the benchmark's own, left out of every segment's
    # time and so out of the traced wall.
    table.pop(SPEED_SPAN, None)
    counts = recorder.counts
    empty = {"calls": 0, "self_s": 0.0, "durations": []}

    def row(name):
        return table.get(name, empty)

    def calls(*names):
        return sum(row(name)["calls"] for name in names)

    def self_s(*names):
        return sum(row(name)["self_s"] for name in names)

    def pct_ms(name, q):
        durations = row(name)["durations"]
        return stats.percentile(durations, q) * 1000.0 if durations else 0.0

    def tail_q(name):
        # The stats.py rule: the highest percentile with MIN_BEYOND calls
        # beyond it, or the median when there are too few calls for any.
        return stats.supported_tail(len(row(name)["durations"])) or 50.0

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    self_total = sum(row["self_s"] for row in table.values())
    metrics = {
        "smt.sat.calls": calls("smt.sat"),
        "smt.sat.self_s": self_s("smt.sat"),
        "smt.sat.p50_ms": pct_ms("smt.sat", 50),
        "smt.sat.tail_q": tail_q("smt.sat"),
        "smt.sat.tail_ms": pct_ms("smt.sat", tail_q("smt.sat")),
        "smt.sat.calls_per_check": ratio(calls("smt.sat"),
                                         calls("smt.solver")),
        "smt.sat.vars": recorder.peaks.get("smt.sat.vars", 0),
        "smt.sat.clauses": recorder.peaks.get("smt.sat.clauses", 0),
        "smt.bitblast.calls": calls("smt.bitblast"),
        "smt.bitblast.self_s": self_s("smt.bitblast"),
        "smt.solver.checks": calls("smt.solver"),
        "smt.solver.self_s": self_s("smt.solver"),
        "smt.solver.tail_q": tail_q("smt.solver"),
        "smt.solver.tail_ms": pct_ms("smt.solver", tail_q("smt.solver")),
        "smt.cache.probes": counts.get("smt.cache.probes", 0),
        "smt.cache.self_s": self_s("smt.cache"),
        "smt.cache.hit_ratio": ratio(counts.get("smt.cache.hits", 0),
                                     counts.get("smt.cache.probes", 0)),
        "smt.replay.evals": calls("smt.replay"),
        "smt.replay.self_s": self_s("smt.replay"),
        "smt.replay.hit_ratio": ratio(counts.get("smt.replay.hits", 0),
                                      calls("smt.replay")),
        "smt.interval.calls": calls("smt.interval"),
        "smt.interval.self_s": self_s("smt.interval"),
        "smt.interval.unsat_ratio": ratio(
            counts.get("smt.interval.unsat", 0), calls("smt.interval")),
        "core.engine.steps": steps,
        "core.engine.self_s": self_s("core.engine"),
        "core.engine.self_us_per_step": ratio(
            self_s("core.engine") * 1e6, steps),
        "isa.decode.calls": calls("isa.decode"),
        "isa.decode.self_s": self_s("isa.decode"),
        "core.state.forks": calls("core.state.fork"),
        "core.state.fork_s": self_s("core.state.fork"),
        "core.memory.reads": calls("core.memory.read"),
        "core.memory.writes": calls("core.memory.write"),
        "core.memory.self_s": self_s("core.memory.read",
                                     "core.memory.write"),
        "core.strategy.ops": calls("core.strategy"),
        "core.strategy.self_s": self_s("core.strategy"),
        "core.strategy.frontier_peak": recorder.peaks.get(
            "core.strategy.frontier_peak", 0),
        "core.merge.attempts": calls("core.merge"),
        "core.merge.merges": counts.get("core.merge.merges", 0),
        "smt.terms.pool_size": pool_stats()["interned"],
        "adl.build_s": sum(row("adl.build")["durations"]),
        "isa.assemble_s": self_s("isa.assemble"),
        "compile.codegen_s": self_s("compile.codegen"),
        "lint.structural_s": self_s("lint.structural"),
        "lint.smt_s": self_s("lint.smt"),
        "lint.transval_s": self_s("lint.transval"),
        "verify.rules": counts.get("verify.rules", 0),
        "verify.proved": counts.get("verify.proved", 0),
        "verify.solver_s": verify_solver_s,
        "trace.residual_share": ratio(region_s - self_total, region_s),
        "trace.traced_wall_s": region_s,
    }
    rows = sorted(([name, row["calls"], row["self_s"]]
                   for name, row in table.items()),
                  key=lambda item: -item[2])
    return metrics, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    # Lint certificates go to a fresh, empty store: the lint run is cold.
    store = tempfile.mkdtemp(prefix="store-", dir=args.out_dir)
    os.environ["REPRO_STORE"] = store
    try:
        record = run_pass(args.workload, args.seed, bool(args.trace),
                          args.out_dir)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
