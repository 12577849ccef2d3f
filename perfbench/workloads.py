"""The four benchmark workloads, generated from a seed.

A workload is a list of :class:`Job` records (one exploration each) plus,
for ``retarget``, one cold lint run over every built-in spec.  Jobs are
plain data: the assembly text is lowered here, before any timing starts,
so the program under test receives only generated inputs.

The seed picks the maze solutions, from a range whose ``li`` lowering has
the same instruction count on every ISA, so the exact shape counts in
``shapes.json`` (instructions, paths, defects per job) hold for every
seed.  The checksum magic value is the kernel's default and does not
follow the seed: the CDCL time of one checksum query ranges over more
than 10x between magic values, so a seeded magic would make ``deep``'s
cost depend on the seed rather than on the program.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Tuple

ALL_ISAS = ("rv32", "mips32", "armlite", "vlx", "pred32")

# Sizes for a two-core machine; see perfbench/README.md for the timings.
EXPLODE_DEPTH = 8
EXPLODE_DIAMONDS = 8
DEEP_DIAMONDS = {"rv32": 20, "armlite": 18}
DEEP_CHECKSUM_LENGTH = 16
BUGHUNT_SUITE_ROUNDS = 3
RETARGET_MAZE_DEPTH = 6

# Oracle kinds (see oracle.py).
ONE_TRAP = "one_trap"        # exactly one reachable-trap defect, replays
DETECTS = "detects"          # a defect of each expected kind is reported
CLEAN = "clean"              # no defect at all


class Job(NamedTuple):
    label: str
    isa: str
    source: str                       # assembly text for ``isa``
    strategy: str = "dfs"
    config: Tuple[Tuple[str, object], ...] = ()   # EngineConfig kwargs
    regions: Tuple[Tuple[int, int, bool], ...] = ()
    oracle: str = ONE_TRAP
    kinds: Tuple[str, ...] = ()       # expected kinds for DETECTS


class Workload(NamedTuple):
    name: str
    isas: Tuple[str, ...]             # models built cold during set-up
    jobs: List[Job]
    lint: bool = False                # cold run_lint_all before exploring
    inputs: Tuple[Tuple[str, int], ...] = ()   # the seed-derived values


WHY = {
    "explode": "path explosion: thousands of small incremental branch "
               "queries, so per-query overhead and engine self time "
               "dominate",
    "deep": "few large queries from BFS with state merging, so CDCL and "
            "bit-blasting dominate and per-query overhead is small",
    "bughunt": "realistic bug hunting: symbolic-index memory, every "
               "checker, many short explorations with known verdicts",
    "retarget": "cold ADL front end, lint and translation validation on "
                "all 5 specs, then a first exploration on each new target",
}

NAMES = tuple(WHY)


def _rng(workload: str, seed: int) -> random.Random:
    # String seeding hashes with SHA-512, independent of PYTHONHASHSEED.
    return random.Random("%s:%d" % (workload, seed))


def _lowered(program, isa: str) -> str:
    from repro.programs.portable import lower
    return lower(program, isa)


def _maze_solution(rng: random.Random, depth: int) -> int:
    return rng.getrandbits(depth)


def explode(seed: int) -> Workload:
    from repro.programs.kernels import diamonds, maze
    rng = _rng("explode", seed)
    jobs, inputs = [], []
    for isa in ("rv32", "armlite", "vlx"):
        solution = _maze_solution(rng, EXPLODE_DEPTH)
        inputs.append(("maze_solution@" + isa, solution))
        jobs.append(Job("maze%d@%s" % (EXPLODE_DEPTH, isa), isa,
                        _lowered(maze(EXPLODE_DEPTH, solution), isa)))
        jobs.append(Job("diamonds%d@%s" % (EXPLODE_DIAMONDS, isa), isa,
                        _lowered(diamonds(EXPLODE_DIAMONDS), isa)))
    return Workload("explode", ("rv32", "armlite", "vlx"),
                    jobs, inputs=tuple(inputs))


def deep(seed: int) -> Workload:
    from repro.programs.kernels import checksum, diamonds
    # Fixed programs: the seed changes nothing here (see above).
    merged = (("merge_states", True),)
    jobs = []
    for isa, count in sorted(DEEP_DIAMONDS.items()):
        jobs.append(Job("diamonds%d-merge@%s" % (count, isa), isa,
                        _lowered(diamonds(count), isa), "bfs", merged))
    for isa in sorted(DEEP_DIAMONDS):
        jobs.append(Job("checksum%d-merge@%s" % (DEEP_CHECKSUM_LENGTH, isa),
                        isa, _lowered(checksum(DEEP_CHECKSUM_LENGTH), isa),
                        "bfs", merged))
    return Workload("deep", tuple(sorted(DEEP_DIAMONDS)), jobs)


def bughunt(seed: int) -> Workload:
    # Fixed programs with known verdicts: the seed changes nothing here.
    from repro.core import OOB_ACCESS, DIV_BY_ZERO
    from repro.programs.parser_demo import protocol_parser
    from repro.programs.suite import all_cases
    jobs = [
        Job("parser-bad@vlx", "vlx", _lowered(protocol_parser(True), "vlx"),
            config=(("max_states", 4096),), oracle=DETECTS,
            kinds=(OOB_ACCESS, DIV_BY_ZERO)),
        Job("parser-fixed@vlx", "vlx",
            _lowered(protocol_parser(False), "vlx"),
            config=(("max_states", 4096),), oracle=CLEAN),
    ]
    for round_index in range(BUGHUNT_SUITE_ROUNDS):
        for isa in ALL_ISAS:
            for case in all_cases():
                config = [("max_steps_per_path", 4096)]
                if case.needs_uninit_check:
                    config.append(("check_uninit", True))
                if case.needs_taint_check:
                    config.append(("check_tainted_control", True))
                for variant in ("bad", "good"):
                    jobs.append(Job(
                        "%s-%s@%s#%d" % (case.name, variant, isa,
                                         round_index),
                        isa, _lowered(case.build(variant), isa),
                        config=tuple(config),
                        regions=tuple(case.extra_regions),
                        oracle=DETECTS if variant == "bad" else CLEAN,
                        kinds=(case.defect_kind,) if variant == "bad"
                        else ()))
    return Workload("bughunt", ALL_ISAS, jobs)


def retarget(seed: int) -> Workload:
    from repro.programs.kernels import exerciser, maze
    rng = _rng("retarget", seed)
    jobs, inputs = [], []
    for isa in ALL_ISAS:
        jobs.append(Job("exerciser@%s" % isa, isa,
                        _lowered(exerciser(), isa)))
        solution = _maze_solution(rng, RETARGET_MAZE_DEPTH)
        inputs.append(("maze_solution@" + isa, solution))
        jobs.append(Job("maze%d@%s" % (RETARGET_MAZE_DEPTH, isa), isa,
                        _lowered(maze(RETARGET_MAZE_DEPTH, solution), isa)))
    return Workload("retarget", ALL_ISAS, jobs, lint=True,
                    inputs=tuple(inputs))


_BUILDERS = {"explode": explode, "deep": deep, "bughunt": bughunt,
             "retarget": retarget}


def make(name: str, seed: int) -> Workload:
    """The named workload's jobs for ``seed``."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError("unknown workload %r (have: %s)"
                         % (name, ", ".join(NAMES))) from None
    return builder(seed)
