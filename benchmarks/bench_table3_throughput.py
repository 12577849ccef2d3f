"""Table 3 — Engine throughput per ISA.

Instructions/second and paths/second of the generated engine on the
kernel workloads, with the solver's share of wall time.  The paper-shape
expectation: throughput within the same order of magnitude across ISAs
(the engine is shared; per-ISA cost is decode + IR size).
"""

import pytest

from repro.bench import Sample, benchmark
from repro.core import Engine, EngineConfig
from repro.obs import Obs
from repro.programs import build_kernel

from _util import ALL_TARGETS, print_table, timed, write_telemetry_sidecar

WORKLOADS = [
    ("maze", {"depth": 7, "solution": 0b1011001}),
    ("checksum", {"length": 4, "magic": 0x2d2d}),
    ("bsearch", {}),
]


def run_workload(target, kernel, params, profile=False):
    model, image = build_kernel(kernel, target, **params)
    config = EngineConfig(collect_path_inputs=False,
                          obs=Obs(metrics=True, profile=profile))
    engine = Engine(model, config=config)
    engine.load_image(image)
    result, wall = timed(engine.explore)
    return result, wall


@benchmark("table3.rv32_maze_throughput",
           title="engine throughput: rv32 maze instructions/sec",
           suite="quick", isas=("rv32",), unit="instr/s",
           direction="higher", reps=3, warmup=1,
           workload="maze(depth 7) full exploration on the generated "
                    "rv32 engine")
def _observatory_sample():
    result, wall = run_workload("rv32", "maze",
                                {"depth": 7, "solution": 0b1011001})
    return Sample.from_result(result.instructions_executed / wall,
                              result, wall)


def table_rows(profile=False, telemetry_runs=None):
    rows = []
    for target in ALL_TARGETS:
        for kernel, params in WORKLOADS:
            result, wall = run_workload(target, kernel, params, profile)
            solver_share = (result.solver_stats.get("solve_time", 0.0)
                            / wall if wall else 0.0)
            rows.append([
                target, kernel,
                result.instructions_executed,
                len(result.paths) + len(result.defects),
                "%.0f" % (result.instructions_executed / wall),
                "%.1f" % ((len(result.paths) + len(result.defects)) / wall),
                "%.0f%%" % (100 * solver_share),
                "%.3fs" % wall,
            ])
            if telemetry_runs is not None:
                telemetry_runs.append({
                    "label": "%s/%s" % (target, kernel),
                    "isa": target,
                    "kernel": kernel,
                    "telemetry": result.telemetry,
                })
    return rows


def print_report(write_sidecar=False):
    # Sidecar runs enable the cost ledger so the JSON carries a
    # decode/eval/solver/memory breakdown; the plain report keeps the
    # engine default (counters only) so the table is the honest number.
    runs = [] if write_sidecar else None
    rows = table_rows(profile=write_sidecar, telemetry_runs=runs)
    print_table(
        "Table 3: generated-engine throughput per ISA",
        ["ISA", "kernel", "instrs", "paths", "instr/s", "paths/s",
         "solver share", "time"],
        rows)
    if write_sidecar:
        path = write_telemetry_sidecar(__file__, runs,
                                       workloads=[k for k, _ in WORKLOADS])
        print("\ntelemetry sidecar: %s" % path)


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_maze_throughput(benchmark, target):
    model, image = build_kernel("maze", target, depth=6)

    def explore():
        engine = Engine(model,
                        config=EngineConfig(collect_path_inputs=False))
        engine.load_image(image)
        return engine.explore()

    result = benchmark(explore)
    assert result.instructions_executed > 0


def test_print_table3():
    print_report()


if __name__ == "__main__":
    print_report(write_sidecar=True)
