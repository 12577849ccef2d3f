"""Reference seconds: work scaled by the host speed sampled around it."""

import pytest

import worker

REF = worker.REFERENCE_LOOP_S


def _log(samples):
    log = worker.SpeedLog.__new__(worker.SpeedLog)
    log.samples = list(samples)
    return log


def test_measure_between_samples():
    log = _log([(0.0, 1.0, REF), (5.0, 6.0, 2 * REF)])
    seconds, reference = log.measure(2.0, 4.0)
    assert seconds == 2.0
    # Mean loop time 1.5 x reference: the host ran at 2/3 speed.
    assert reference == pytest.approx(2.0 / 1.5)
    # A host at reference speed leaves seconds unchanged.
    assert _log([(0.0, 1.0, REF), (3.0, 4.0, REF)]).measure(1.0, 3.0) == \
        (2.0, 2.0)


def test_measure_leaves_out_samples_inside_the_work():
    # Work from 1 to 10 with a sample from 4 to 5 inside it.
    log = _log([(0.0, 1.0, REF), (4.0, 5.0, 2 * REF),
                (10.0, 11.0, 4 * REF)])
    seconds, reference = log.measure(1.0, 10.0)
    assert seconds == 8.0
    # 3 s between loops of 1x and 2x, then 5 s between 2x and 4x.
    assert reference == pytest.approx(3.0 / 1.5 + 5.0 / 3.0)
    assert log.loop_s() == 2 * REF


def test_measure_needs_a_sample_after_the_work():
    with pytest.raises(ValueError):
        _log([(0.0, 1.0, REF)]).measure(1.0, 2.0)


def test_pass_times_from_segments():
    segments = [("setup", 0.0, 1.0, None), ("setup", 1.0, 3.0, None),
                ("setup", 3.0, 4.0, None), ("lint", 4.0, 6.0, None),
                ("explore", 6.0, 7.0, 6.5), ("explore", 7.0, 10.0, None)]

    def measure(start, end):
        return end - start, (end - start) / 2.0

    plain, reference = worker.pass_times(segments, measure)
    assert plain == {"setup_s": 1.0, "wall_s": 6.0, "explore_s": 4.0,
                     "lint_s": 2.0, "first_defect_s": 0.5,
                     "region_s": 7.0}
    assert reference["wall_s"] == 3.0
    assert reference["first_defect_s"] == 0.25
    plain, _ = worker.pass_times(segments[:3], measure)
    assert plain["first_defect_s"] is None and plain["wall_s"] == 0.0


def test_reference_loop_is_deterministic():
    assert worker.reference_loop() == worker.reference_loop()
