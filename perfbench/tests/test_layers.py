"""The per-layer metric table: one source of units, and the tail rule."""

import json
import os

import stats
import tracing
import worker

from conftest import BENCH


def _recorder(sat_ms):
    recorder = tracing.Recorder()
    for index, ms in enumerate(sat_ms):
        start = float(index)
        recorder.spans.append(["smt.sat", start, start + ms / 1000.0,
                               -1, len(recorder.spans)])
    return recorder


def _metrics(sat_ms):
    metrics, _rows = worker.layer_metrics(_recorder(sat_ms), 1e6, 1, 0.0)
    return metrics


def test_every_layer_metric_has_a_unit():
    names = set(_metrics([1.0]))
    assert names | {"trace.overhead"} == set(worker.LAYER_METRICS)


def test_benchmark_json_agrees_with_the_table():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as f:
        contract = json.load(f)
    for entry in contract["per_layer"]:
        assert (entry["unit"], entry["better"]) == \
            worker.LAYER_METRICS[entry["name"]], entry["name"]


def test_tail_follows_the_stats_rule():
    # 420 calls, as on `deep`: p99 has 4 beyond it, p95 has 21.
    durations = [float(ms) for ms in range(1, 421)]
    metrics = _metrics(durations)
    assert metrics["smt.sat.tail_q"] == 95.0
    assert stats.beyond(420, 95.0) >= stats.MIN_BEYOND
    assert abs(metrics["smt.sat.tail_ms"] - 399.0) < 1e-6
    # Too few calls for any tail: the median stands in.
    few = _metrics([1.0, 2.0, 3.0])
    assert few["smt.sat.tail_q"] == 50.0
    assert abs(few["smt.sat.tail_ms"] - 2.0) < 1e-6
