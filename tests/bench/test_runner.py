"""Registry, runner report schema and declarative expectations."""

import json

import pytest

from repro.bench import (REPORT_SCHEMA, BenchError, Benchmark, Sample,
                         all_benchmarks, benchmark, evaluate_expectations,
                         get, render_report, run_benchmarks,
                         suite_benchmarks, write_report)


def _register(value=2.0, expect_min=None, expect_max=None,
              bench_id="syn.a", direction="higher"):
    return Benchmark(bench_id, lambda: value, suite="quick", unit="x",
                     direction=direction, reps=3, warmup=0,
                     expect_min=expect_min, expect_max=expect_max)


class TestRegistry:
    def test_decorator_registers_and_get(self):
        @benchmark("syn.deco", suite="quick", unit="s",
                   direction="lower", reps=1, warmup=0)
        def _fn():
            return 1.0
        assert get("syn.deco").unit == "s"
        assert [b.id for b in suite_benchmarks("quick")] == ["syn.deco"]

    def test_unknown_bench_raises(self):
        with pytest.raises(BenchError):
            get("no.such.bench")

    def test_bad_metadata_rejected(self):
        with pytest.raises(BenchError):
            Benchmark("x", lambda: 1, suite="weekly")
        with pytest.raises(BenchError):
            Benchmark("x", lambda: 1, direction="sideways")
        with pytest.raises(BenchError):
            Benchmark("x", lambda: 1, reps=0)

    def test_sample_normalization(self):
        assert Sample.of(1.5).value == 1.5
        assert Sample.of(Sample(2.0, wall_s=0.1)).wall_s == 0.1
        rich = Sample.of({"value": 3.0, "wall_s": 0.2, "paths": 7})
        assert rich.wall_s == 0.2 and rich.extra == {"paths": 7}
        with pytest.raises(BenchError):
            Sample.of("fast")
        with pytest.raises(BenchError):
            Sample.of({"wall_s": 0.2})


class TestRunReport:
    def test_report_shape(self):
        from repro.bench import register
        register(_register(expect_min=1.0))
        report = run_benchmarks(all_benchmarks(), suite="quick")
        assert report["schema"] == REPORT_SCHEMA
        assert report["suite"] == "quick"
        assert report["env"]["python"]
        (result,) = report["results"]
        assert result["id"] == "syn.a"
        assert result["reps"] == 3
        assert result["median"] == 2.0 and result["mad"] == 0.0
        assert [s["value"] for s in result["samples"]] == [2.0] * 3
        (exp,) = result["expectations"]
        assert exp == {"kind": "min", "threshold": 1.0,
                       "observed": 2.0, "passed": True}

    def test_median_and_mad_of_uneven_samples(self):
        from repro.bench import register
        series = [1.0, 2.0, 10.0]
        register(Benchmark("syn.uneven", lambda: series.pop(0), reps=3,
                           warmup=0))
        (result,) = run_benchmarks(all_benchmarks())["results"]
        assert result["median"] == 2.0 and result["mad"] == 1.0

    def test_failed_expectation_recorded(self):
        from repro.bench import register
        register(_register(value=1.0, expect_min=5.0))
        report = run_benchmarks(all_benchmarks())
        (exp,) = report["results"][0]["expectations"]
        assert exp["passed"] is False
        assert "FAIL" in render_report(report)

    def test_reps_override(self):
        from repro.bench import register
        calls = []
        register(Benchmark("syn.count", lambda: calls.append(1) or 1.0,
                           reps=5, warmup=2))
        run_benchmarks(all_benchmarks(), reps=1, warmup=0)
        assert len(calls) == 1

    def test_evaluate_expectations_both_bounds(self):
        bench = _register(expect_min=1.0, expect_max=3.0)
        rows = evaluate_expectations(bench, 2.0)
        assert [r["passed"] for r in rows] == [True, True]
        rows = evaluate_expectations(bench, 4.0)
        assert [r["passed"] for r in rows] == [True, False]

    def test_write_load_round_trip(self, tmp_path):
        from repro.bench import register
        register(_register())
        report = run_benchmarks(all_benchmarks())
        path = str(tmp_path / "BENCH_test.json")
        write_report(report, path)
        with open(path) as handle:
            assert json.load(handle)["results"][0]["median"] == 2.0
