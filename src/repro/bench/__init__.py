"""Declarative benchmark gates: registry, runner and ``BENCH`` report.

The ``benchmarks/bench_*.py`` modules register what they measure here
instead of each hand-rolling a timing loop, a table printer and a CI
guard:

* :mod:`repro.bench.registry` — declarative :class:`Benchmark`
  metadata (suite, ISA targets, workload, unit, higher/lower-is-better
  direction, absolute ``expect_min`` / ``expect_max`` gates) +
  discovery of the bench modules;
* :mod:`repro.bench.runner` — warmup, median-of-k repetitions with the
  MAD beside it, per-rep wall/solver-time/steps-per-sec from the
  telemetry summaries, environment provenance, the schema-versioned
  report and the expectation verdicts.

CLI: ``repro bench list | run [--check]`` — see ``docs/OBSERVABILITY.md``
("Performance observatory").  Regression judging between revisions
and performance trajectories belong to perfbench (``perfbench/``,
``BENCHMARK.json``) and its committed ``BENCH_<PR>.json`` snapshots.
"""

from .registry import (  # noqa: F401
    SUITES,
    BenchError,
    Benchmark,
    Sample,
    all_benchmarks,
    benchmark,
    benchmarks_dir,
    clear_registry,
    discover,
    get,
    register,
    suite_benchmarks,
)
from .runner import (  # noqa: F401
    REPORT_SCHEMA,
    evaluate_expectations,
    render_report,
    run_benchmarks,
    write_report,
)

__all__ = [
    "Benchmark", "Sample", "BenchError", "SUITES", "benchmark",
    "register", "get", "all_benchmarks", "suite_benchmarks",
    "clear_registry", "discover", "benchmarks_dir",
    "REPORT_SCHEMA", "run_benchmarks", "write_report",
    "evaluate_expectations", "render_report",
]
