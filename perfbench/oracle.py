"""Known answers for every verdict a workload produces.

Verdicts are checked against facts that do not come from the engine
under test:

* maze, diamonds, checksum and the exerciser each have exactly one
  reachable trap, and the input the engine reports for it must trap when
  replayed on the concrete :class:`repro.isa.Simulator`;
* each defect-suite ``bad`` variant reports its CWE's defect kind and each
  ``good`` variant reports nothing;
* the bad protocol parser reports its overflow and its division by zero,
  and the fixed one reports nothing;
* a cold lint run proves every rule of every spec in both translation
  validation modes (214 rules each) with no ERROR finding.

``error_rate`` is wrong verdicts divided by verdicts attempted.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple

from workloads import CLEAN, DETECTS, ONE_TRAP, Job

TRAP = "reachable-trap"
TRANSVAL_MODES = ("concrete", "symbolic")
RULES_PER_MODE = 214


class Verdict(NamedTuple):
    subject: str
    ok: bool
    detail: str


def job_verdicts(job: Job, defects: Sequence[Tuple[str, bytes]],
                 replay_traps: Callable[[bytes], bool]) -> List[Verdict]:
    """Verdicts of one exploration.  ``defects`` is ``(kind, input)`` per
    reported defect; ``replay_traps(input)`` runs the input concretely."""
    kinds = [kind for kind, _input in defects]
    if job.oracle == ONE_TRAP:
        single = kinds == [TRAP]
        replayed = single and replay_traps(defects[0][1])
        return [Verdict(job.label, single,
                        "exactly one reachable trap (got %s)" % kinds),
                Verdict(job.label, replayed,
                        "reported trap input traps on the simulator")]
    if job.oracle == DETECTS:
        return [Verdict(job.label, kind in kinds,
                        "reports %s (got %s)" % (kind, kinds))
                for kind in job.kinds]
    if job.oracle == CLEAN:
        return [Verdict(job.label, not kinds,
                        "reports nothing (got %s)" % kinds)]
    raise ValueError("unknown oracle %r for %s" % (job.oracle, job.label))


def lint_verdicts(specs: Iterable[Dict[str, object]]) -> List[Verdict]:
    """Verdicts of one cold lint run.  Each spec record carries
    ``spec``, ``errors`` and ``transval``: mode -> {rules, proved,
    cached}."""
    verdicts = []
    totals = {mode: 0 for mode in TRANSVAL_MODES}
    for record in specs:
        name = record["spec"]
        verdicts.append(Verdict("lint@%s" % name, record["errors"] == 0,
                                "no ERROR finding (got %d)"
                                % record["errors"]))
        for mode in TRANSVAL_MODES:
            summary = record["transval"].get(mode)
            proved = (summary is not None and not summary["cached"]
                      and summary["proved"] == summary["rules"])
            verdicts.append(Verdict(
                "transval-%s@%s" % (mode, name), proved,
                "every rule proved, cold (got %s)" % (summary,)))
            if summary is not None:
                totals[mode] += summary["rules"]
    for mode in TRANSVAL_MODES:
        verdicts.append(Verdict(
            "transval-%s" % mode, totals[mode] == RULES_PER_MODE,
            "%d rules in all (got %d)" % (RULES_PER_MODE, totals[mode])))
    return verdicts


def error_rate(verdicts: Sequence[Verdict]) -> Tuple[int, int, float]:
    """``(attempted, failed, failed / attempted)``."""
    attempted = len(verdicts)
    failed = sum(1 for verdict in verdicts if not verdict.ok)
    return attempted, failed, (failed / attempted if attempted else 0.0)


def shape_mismatches(observed: Sequence[Tuple[str, Sequence[int]]],
                     expected: Dict[str, Sequence[int]]) -> List[str]:
    """Explorations whose ``[instructions, paths, defects]`` differ from
    the recorded shape, and recorded jobs that did not run."""
    problems = []
    for label, shape in observed:
        want = expected.get(label)
        if want is None or list(shape) != list(want):
            problems.append("%s: [instructions, paths, defects] = %s, "
                            "recorded %s" % (label, list(shape), want))
    for label in sorted(set(expected) - {label for label, _ in observed}):
        problems.append("%s: recorded but not run" % label)
    return problems
