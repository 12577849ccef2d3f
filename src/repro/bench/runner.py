"""Benchmark runner + machine-readable result schema.

One ``repro bench run`` produces a **report**::

    {
      "schema": "repro-bench/1",
      "generated_unix": ...,
      "suite": "quick",
      "env": { ...environment_snapshot()... },
      "wall_s": 12.3,
      "results": [
        {
          "id": "solver_cache.repeated_speedup",
          "title": "...", "suite": "quick", "isas": ["rv32"],
          "workload": "...", "unit": "x", "direction": "higher",
          "reps": 3, "warmup": 1,
          "samples": [{"value": 1.91, "wall_s": ...,
                       "solver_time_s": ..., "steps_per_sec": ...}, ...],
          "median": 1.89, "mad": 0.02, "wall_s": 4.1,
          "expectations": [{"kind": "min", "threshold": 1.2,
                            "observed": 1.89, "passed": true}]
        }, ...
      ]
    }

The report is printed, or written to the file ``repro bench run
--out`` names.  Its only verdicts are the declarative expectations
(:func:`evaluate_expectations`) on each benchmark's median; judging
regressions between revisions is perfbench's job (``perfbench/``,
``BENCHMARK.json``), not this package's.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence

from ..runstore.provenance import environment_snapshot
from .registry import Benchmark, Sample

__all__ = ["REPORT_SCHEMA", "run_benchmarks", "write_report",
           "evaluate_expectations", "render_report"]

REPORT_SCHEMA = "repro-bench/1"


def evaluate_expectations(bench: Benchmark, observed: float
                          ) -> List[Dict[str, object]]:
    """Declarative absolute expectations on the median (the migrated
    CI speedup guards).  Empty when the benchmark declares none."""
    rows: List[Dict[str, object]] = []
    if bench.expect_min is not None:
        rows.append({"kind": "min", "threshold": bench.expect_min,
                     "observed": observed,
                     "passed": observed >= bench.expect_min})
    if bench.expect_max is not None:
        rows.append({"kind": "max", "threshold": bench.expect_max,
                     "observed": observed,
                     "passed": observed <= bench.expect_max})
    return rows


def run_benchmarks(benches: Sequence[Benchmark], suite: str = "full",
                   reps: Optional[int] = None,
                   warmup: Optional[int] = None,
                   progress: Optional[Callable[[str], None]] = None
                   ) -> Dict[str, object]:
    """Run ``benches`` and build the report dict.

    ``reps`` / ``warmup`` override every benchmark's declared defaults
    (CI uses this to trade accuracy for time).  Per benchmark: warmup
    repetitions are executed and discarded, then ``reps`` timed
    repetitions each produce one :class:`Sample`; the headline number
    is the sample **median**, with the MAD recorded beside it.
    """
    say = progress or (lambda _line: None)
    started = time.perf_counter()
    results: List[Dict[str, object]] = []
    for bench in benches:
        bench_reps = reps if reps is not None else bench.reps
        bench_warm = warmup if warmup is not None else bench.warmup
        say("%s (%d warmup, %d reps)..."
            % (bench.id, bench_warm, bench_reps))
        bench_start = time.perf_counter()
        for _ in range(bench_warm):
            bench.fn()
        samples: List[Sample] = []
        for _ in range(max(1, bench_reps)):
            samples.append(Sample.of(bench.fn()))
        values = [sample.value for sample in samples]
        med = statistics.median(values)
        row = bench.metadata()
        row.update({
            "reps": len(samples),
            "warmup": bench_warm,
            "samples": [sample.to_dict() for sample in samples],
            "median": round(med, 9),
            "mad": round(statistics.median(
                [abs(value - med) for value in values]), 9),
            "wall_s": round(time.perf_counter() - bench_start, 4),
            "expectations": evaluate_expectations(bench, med),
        })
        results.append(row)
        say("  %s = %.6g %s" % (bench.id, med, bench.unit))
    return {
        "schema": REPORT_SCHEMA,
        "generated_unix": round(time.time(), 3),
        "suite": suite,
        "env": environment_snapshot(),
        "wall_s": round(time.perf_counter() - started, 4),
        "results": results,
    }


def write_report(report: Dict[str, object], path: str) -> str:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# -- rendering ----------------------------------------------------------------

def _fmt(value: Optional[float]) -> str:
    return "%.6g" % value if isinstance(value, (int, float)) else "-"


def render_report(report: Dict[str, object]) -> str:
    """Human-readable run table (stdout of ``repro bench run``)."""
    lines = ["bench report (%s suite, %d benchmark%s, %.1fs)"
             % (report.get("suite", "?"),
                len(report.get("results") or []),
                "s" if len(report.get("results") or []) != 1 else "",
                report.get("wall_s") or 0.0),
             "",
             "  %-34s %12s %10s %6s %-9s %s"
             % ("benchmark", "median", "mad", "reps", "unit",
                "expectations"),
             "  " + "-" * 88]
    for result in report.get("results") or []:
        checks = []
        for exp in result.get("expectations") or []:
            checks.append("%s %s %.4g"
                          % ("PASS" if exp.get("passed") else "FAIL",
                             ">=" if exp.get("kind") == "min" else "<=",
                             exp.get("threshold", 0.0)))
        lines.append("  %-34s %12s %10s %6s %-9s %s"
                     % (result.get("id"), _fmt(result.get("median")),
                        _fmt(result.get("mad")), result.get("reps"),
                        result.get("unit"), "  ".join(checks)))
    failed = sum(1 for result in report.get("results") or []
                 for exp in result.get("expectations") or []
                 if not exp.get("passed"))
    lines.append("")
    lines.append("  expectations failed: %d" % failed)
    return "\n".join(lines)
