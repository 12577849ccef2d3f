"""The declarative gates: every bound in ``benchmarks/`` and its CI step.

Folding or editing CI must not drop a gate silently: this pins the
exact set of gated benchmark ids with their bounds, and requires the
``gates`` job's ``repro bench run --check`` steps to name each of them.
"""

import os

from repro.bench import all_benchmarks, discover

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

GATES = {
    "solver_cache.repeated_speedup": ("min", 1.20),
    "store.hit_speedup": ("min", 5.0),
    "compile.concrete_speedup": ("min", 2.0),
    "lint.transval_cold_vs_cached": ("min", 5.0),
    "obs.counters_overhead": ("max", 0.15),
    "obs.health_overhead": ("max", 0.15),
    "obs.attr_overhead": ("max", 0.20),
}


def _gated():
    discover(os.path.join(REPO, "benchmarks"))
    gated = {}
    for bench in all_benchmarks():
        if bench.expect_min is not None:
            gated[bench.id] = ("min", bench.expect_min)
        if bench.expect_max is not None:
            assert bench.id not in gated, bench.id
            gated[bench.id] = ("max", bench.expect_max)
    return gated


def test_gated_ids_and_bounds_are_pinned():
    assert _gated() == GATES


def test_ci_gates_step_names_every_gate():
    with open(os.path.join(REPO, ".github", "workflows", "ci.yml")) as fh:
        text = fh.read()
    job = text[text.index("\n  gates:"):]
    job = job[:job.index("\n  end-to-end:")]
    assert "repro bench run" in job and "--check" in job
    for bench_id in GATES:
        assert "--bench %s" % bench_id in job, bench_id
