"""The oracle: known answers, and wrong verdicts raising error_rate."""

import oracle
import workloads
from workloads import CLEAN, DETECTS, ONE_TRAP, Job

TRAP = oracle.TRAP


def _job(kind, kinds=()):
    return Job("job@rv32", "rv32", "", oracle=kind, kinds=kinds)


def always(value):
    return lambda _data: value


def test_one_trap_right_and_wrong():
    job = _job(ONE_TRAP)
    right = oracle.job_verdicts(job, [(TRAP, b"\x01")], always(True))
    assert [v.ok for v in right] == [True, True]
    # The reported input does not trap when replayed concretely.
    no_replay = oracle.job_verdicts(job, [(TRAP, b"\x01")], always(False))
    assert [v.ok for v in no_replay] == [True, False]
    # Two traps, or none, where exactly one is reachable.
    twice = oracle.job_verdicts(job, [(TRAP, b""), (TRAP, b"")],
                                always(True))
    assert [v.ok for v in twice] == [False, False]
    assert [v.ok for v in oracle.job_verdicts(job, [], always(True))] == \
        [False, False]


def test_detects_and_clean():
    job = _job(DETECTS, ("out-of-bounds-access", "division-by-zero"))
    found = oracle.job_verdicts(
        job, [("division-by-zero", b""), ("out-of-bounds-access", b"")],
        always(True))
    assert all(v.ok for v in found)
    missed = oracle.job_verdicts(job, [("division-by-zero", b"")],
                                 always(True))
    assert [v.ok for v in missed] == [False, True]
    clean = _job(CLEAN)
    assert oracle.job_verdicts(clean, [], always(True))[0].ok
    assert not oracle.job_verdicts(clean, [(TRAP, b"")],
                                   always(True))[0].ok


def _lint(errors=0, proved=None, cached=False):
    rules = {"armlite": 53, "mips32": 49, "pred32": 28, "rv32": 48,
             "vlx": 36}
    return [{"spec": spec, "errors": errors,
             "transval": {mode: {"rules": count,
                                 "proved": count if proved is None
                                 else proved,
                                 "cached": cached}
                          for mode in oracle.TRANSVAL_MODES}}
            for spec, count in sorted(rules.items())]


def test_lint_verdicts():
    assert all(v.ok for v in oracle.lint_verdicts(_lint()))
    assert sum(not v.ok for v in oracle.lint_verdicts(_lint(errors=1))) == 5
    # A cached certificate is not a cold proof.
    assert not all(v.ok for v in oracle.lint_verdicts(_lint(cached=True)))
    assert not all(v.ok for v in oracle.lint_verdicts(_lint(proved=0)))
    missing = _lint()[1:]
    wrong = [v for v in oracle.lint_verdicts(missing) if not v.ok]
    assert [v.subject for v in wrong] == ["transval-concrete",
                                          "transval-symbolic"]


def test_injected_wrong_verdict_raises_error_rate():
    job = _job(ONE_TRAP)
    verdicts = oracle.job_verdicts(job, [(TRAP, b"\x01")], always(True))
    verdicts += oracle.lint_verdicts(_lint())
    attempted, failed, rate = oracle.error_rate(verdicts)
    assert failed == 0 and rate == 0.0
    # Inject one wrong verdict: a good variant that reports a defect.
    verdicts += oracle.job_verdicts(_job(CLEAN), [(TRAP, b"")],
                                    always(True))
    attempted2, failed2, rate2 = oracle.error_rate(verdicts)
    assert attempted2 == attempted + 1 and failed2 == 1
    assert rate2 == 1 / attempted2 > rate


def test_run_reports_error_rate_from_verdicts():
    import run
    record = {"verdicts": [["a", True, ""], ["b", False, ""]]}
    assert oracle.error_rate(run.verdicts([record, record])) == (4, 2, 0.5)
    rows = run.end_to_end([dict(record, setup_s=1.0, wall_s=1.0,
                                instructions=1, paths=1, defects=0,
                                explore_s=1.0, first_defect_s=None,
                                rules=0, lint_s=0.0, peak_rss_mb=1.0)])
    assert rows["error_rate"]["median"] == 0.5


def test_shape_mismatches():
    expected = {"a@rv32": [10, 2, 1], "b@rv32": [5, 1, 0]}
    assert oracle.shape_mismatches(
        [("a@rv32", [10, 2, 1]), ("a@rv32", [10, 2, 1]),
         ("b@rv32", [5, 1, 0])], expected) == []
    problems = oracle.shape_mismatches([("a@rv32", [10, 3, 1])], expected)
    assert len(problems) == 2
    assert problems[0].startswith("a@rv32") and "b@rv32" in problems[1]


def test_seed_picks_inputs_deterministically():
    one = workloads.make("explode", 7)
    again = workloads.make("explode", 7)
    other = workloads.make("explode", 8)
    assert one.inputs == again.inputs
    assert [job.source for job in one.jobs] == \
        [job.source for job in again.jobs]
    assert one.inputs != other.inputs
    solutions = dict(workloads.make("retarget", 3).inputs)
    assert len(solutions) == 5
    assert all(0 <= value < 1 << workloads.RETARGET_MAZE_DEPTH
               for value in solutions.values())
    assert workloads.make("deep", 1) == workloads.make("deep", 2)
