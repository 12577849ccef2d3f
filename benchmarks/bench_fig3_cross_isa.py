"""Figure 3 — Cross-ISA consistency of solver-found inputs.

For every suite defect, the triggering input found on each ISA is
replayed (concretely, with checkers, via single-run concolic execution)
on every other ISA.  The figure reports the reproduction matrix; the
paper-shape expectation is 100% — the defects are input-level properties
of the portable program, so the generated engines must agree.
"""

import pytest

from repro.bench import Sample, benchmark
from repro.core import Engine, EngineConfig
from repro.core.concolic import ConcolicExplorer
from repro.isa import assemble, build
from repro.obs import Obs
from repro.programs import suite
from repro.programs.portable import lower

from _util import (ALL_TARGETS, merge_phase_snapshots, print_table, timed,
                   write_telemetry_sidecar)

CASES = ["div_by_zero", "oob_write", "oob_read", "underflow_wrap",
         "off_by_one", "magic_trap", "tainted_jump"]


def find_input(case, target):
    detected, result, _ = suite.run_case(case, target, "bad")
    assert detected
    return result.first_defect(case.defect_kind).input_bytes


def replay(case, target, input_bytes, obs=None):
    model = build(target)
    image = assemble(model, lower(case.build("bad"), target),
                     base=suite.CODE_BASE)
    config = EngineConfig()
    if obs is not None:
        config.obs = obs
    if case.needs_uninit_check:
        config.check_uninit = True
    if case.needs_taint_check:
        config.check_tainted_control = True
    engine = Engine(model, config=config)
    engine.load_image(image)
    for start, size, track in case.extra_regions:
        engine.add_region(start, size, track_uninit=track)
    explorer = ConcolicExplorer(engine)
    result = explorer.explore(seed=input_bytes, max_runs=1)
    return any(d.kind == case.defect_kind for d in result.defects)


@benchmark("fig3.cross_isa_replay_wall",
           title="cross-ISA replay: magic_trap input on every ISA",
           suite="full", isas=tuple(ALL_TARGETS), unit="s",
           direction="lower", reps=3, warmup=1,
           workload="solver-found magic_trap input from rv32, replayed "
                    "concolically on all %d ISAs" % len(ALL_TARGETS))
def _observatory_sample():
    case = suite.case_by_name("magic_trap")
    input_bytes = find_input(case, "rv32")

    def replay_all():
        hits = sum(int(replay(case, target, input_bytes))
                   for target in ALL_TARGETS)
        assert hits == len(ALL_TARGETS), "replay must reproduce everywhere"
    _, wall = timed(replay_all)
    return Sample(wall, wall_s=wall)


def figure_rows(telemetry=None):
    """Build the matrix; optionally accumulate per-destination-ISA phase
    breakdowns into ``telemetry`` (dict keyed by ISA name)."""
    rows = []
    total = 0
    reproduced = 0
    for case_name in CASES:
        case = suite.case_by_name(case_name)
        for source in ALL_TARGETS:
            input_bytes = find_input(case, source)
            hits = []
            for destination in ALL_TARGETS:
                obs = (Obs(metrics=True, profile=True)
                       if telemetry is not None else None)
                ok = replay(case, destination, input_bytes, obs=obs)
                if obs is not None:
                    merge_phase_snapshots(telemetry.setdefault(destination, {}),
                                          obs.ledger.snapshot())
                total += 1
                reproduced += int(ok)
                hits.append("y" if ok else "N")
            rows.append([case_name, source, repr(input_bytes),
                         " ".join(hits)])
    return rows, total, reproduced


def print_report(write_sidecar=False):
    telemetry = {} if write_sidecar else None
    rows, total, reproduced = figure_rows(telemetry=telemetry)
    print_table(
        "Figure 3 (matrix): inputs found on <source ISA> replayed on "
        "rv32/mips32/armlite/vlx",
        ["case", "source ISA", "input", "reproduces on"],
        rows)
    print("\nreproduction rate: %d/%d (%.0f%%)"
          % (reproduced, total, 100.0 * reproduced / total))
    if write_sidecar:
        runs = [{"label": isa, "isa": isa, "phases": telemetry[isa]}
                for isa in sorted(telemetry)]
        path = write_telemetry_sidecar(
            __file__, runs, cases=CASES,
            reproduction_rate="%d/%d" % (reproduced, total))
        print("telemetry sidecar: %s" % path)


def test_cross_isa_replay_time(benchmark):
    case = suite.case_by_name("magic_trap")
    input_bytes = find_input(case, "rv32")

    def replay_all():
        return sum(int(replay(case, target, input_bytes))
                   for target in ALL_TARGETS)

    hits = benchmark(replay_all)
    assert hits == len(ALL_TARGETS)


def test_print_fig3():
    print_report()


if __name__ == "__main__":
    print_report(write_sidecar=True)
