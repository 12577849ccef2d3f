"""Table 5 — Ablations of the design choices DESIGN.md calls out.

Four switches, measured on the maze and checksum kernels:

* **hash-consing off** — every term construction allocates; structural
  sharing (and the interning fast path for equality) is lost.
* **simplification off** — no construction-time rewriting; terms reaching
  the bit-blaster are much larger.
* **copy-on-write off** — forking a path deep-copies all touched memory
  pages instead of sharing them.
* **solver cache off** — no query-result cache, no unsat subsumption,
  no model-reuse fast path (witness replay, the engine's per-state
  frame replay included); every feasibility check reaches the interval
  filter and CDCL (``EngineConfig(use_solver_cache=False)``, the
  ``--no-solver-cache`` baseline; ``benchmarks/bench_solver_cache.py``
  measures this one in depth).

Paper-shape expectation: each switch costs a measurable constant factor;
simplification matters most on solver-bound workloads, COW on fork-heavy
ones, and the solver cache on branch-heavy ones with long shared
path-condition prefixes.
"""

import pytest

from repro.bench import Sample, benchmark
from repro.core import Engine, EngineConfig
from repro.programs import build_kernel
from repro.smt import terms as T

from _util import print_table, timed

WORKLOADS = [
    ("maze", {"depth": 8, "solution": 0b10110010}),
    ("checksum", {"length": 4, "magic": 0x2d2d}),
]

CONFIGS = [
    ("baseline", {"hash_consing": True, "simplify": True, "cow": True,
                  "solver_cache": True}),
    ("no hash-consing", {"hash_consing": False, "simplify": True,
                         "cow": True, "solver_cache": True}),
    ("no simplify", {"hash_consing": True, "simplify": False, "cow": True,
                     "solver_cache": True}),
    ("no COW memory", {"hash_consing": True, "simplify": True,
                       "cow": False, "solver_cache": True}),
    ("no solver cache", {"hash_consing": True, "simplify": True,
                         "cow": True, "solver_cache": False}),
]


def run_config(kernel, params, hash_consing, simplify, cow,
               solver_cache=True):
    previous = T.set_pool(T.TermPool(hash_consing=hash_consing,
                                     simplify=simplify))
    try:
        model, image = build_kernel(kernel, "rv32", **params)
        config = EngineConfig(collect_path_inputs=False, cow_memory=cow,
                              use_solver_cache=solver_cache)
        engine = Engine(model, config=config)
        engine.load_image(image)
        result, wall = timed(engine.explore)
        pool_stats = T.pool_stats()
        return result, wall, pool_stats
    finally:
        T.set_pool(previous)


@benchmark("table5.baseline_maze_wall",
           title="ablation baseline: maze with every optimization on",
           suite="full", isas=("rv32",), unit="s", direction="lower",
           reps=3, warmup=1,
           workload="maze(depth 8), hash-consing + simplify + COW + "
                    "solver cache all enabled")
def _observatory_sample():
    result, wall, _pool_stats = run_config(
        "maze", {"depth": 8, "solution": 0b10110010},
        hash_consing=True, simplify=True, cow=True)
    return Sample.from_result(wall, result, wall)


def table_rows():
    rows = []
    for kernel, params in WORKLOADS:
        base_time = None
        for label, switches in CONFIGS:
            result, wall, pool_stats = run_config(kernel, params,
                                                  **switches)
            if base_time is None:
                base_time = wall
            rows.append([
                kernel, label,
                result.instructions_executed,
                len(result.paths) + len(result.defects),
                pool_stats["misses"],
                "%.3fs" % wall,
                "%.2fx" % (wall / base_time),
            ])
    return rows


def print_report():
    print_table(
        "Table 5: design-choice ablations (rv32)",
        ["kernel", "configuration", "instrs", "paths", "terms built",
         "time", "vs baseline"],
        table_rows())


@pytest.mark.parametrize("label,switches", CONFIGS,
                         ids=[c[0].replace(" ", "-") for c in CONFIGS])
def test_ablation_time(benchmark, label, switches):
    def run():
        result, _, _ = run_config("maze", {"depth": 6}, **switches)
        return result

    result = benchmark(run)
    assert result.instructions_executed > 0


def test_print_table5():
    print_report()


if __name__ == "__main__":
    print_report()
