"""CLI surface of the declarative benchmark gates: ``repro bench
list/run`` plus ``repro diffstats --json``.

All CLI runs use a synthetic benchmarks directory (one fast,
deterministic module) so the tests are hermetic and timing-free.
"""

import json
import os

import pytest

from repro.cli import main

SYNTHETIC_MODULE = '''
from repro.bench import Sample, benchmark


@benchmark("syn.speedup", title="synthetic speedup", suite="quick",
           isas=("rv32",), unit="x", direction="higher",
           expect_min=1.5, reps=3, warmup=0,
           workload="deterministic synthetic samples")
def _speedup():
    return Sample(2.0, wall_s=0.001)


@benchmark("syn.wall", title="synthetic wall", suite="full",
           unit="s", direction="lower", reps=2, warmup=0,
           workload="more synthetic samples")
def _wall():
    return 0.25
'''

FAILING_MODULE = '''
from repro.bench import benchmark


@benchmark("syn.failing", suite="quick", unit="x", direction="higher",
           expect_min=100.0, reps=2, warmup=0)
def _failing():
    return 2.0
'''


@pytest.fixture
def bench_dir(tmp_path):
    directory = tmp_path / "benchmarks"
    directory.mkdir()
    (directory / "bench_synthetic.py").write_text(SYNTHETIC_MODULE)
    return str(directory)


def _run(bench_dir, out, extra=()):
    return main(["bench", "run", "--suite", "quick", "--dir", bench_dir,
                 "--out", out, "--quiet"] + list(extra))


class TestBenchList:
    def test_list_shows_registrations(self, bench_dir, capsys):
        assert main(["bench", "list", "--dir", bench_dir]) == 0
        out = capsys.readouterr().out
        assert "syn.speedup" in out and "syn.wall" in out
        assert ">= 1.5" in out

    def test_list_quick_filters(self, bench_dir, capsys):
        assert main(["bench", "list", "--dir", bench_dir,
                     "--suite", "quick"]) == 0
        out = capsys.readouterr().out
        assert "syn.speedup" in out and "syn.wall" not in out

    def test_list_json(self, bench_dir, capsys):
        assert main(["bench", "list", "--dir", bench_dir,
                     "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert {row["id"] for row in rows} == {"syn.speedup", "syn.wall"}

    def test_missing_dir_is_error_not_traceback(self, tmp_path, capsys):
        assert main(["bench", "list", "--dir",
                     str(tmp_path / "absent")]) == 1
        assert "error:" in capsys.readouterr().err


class TestBenchRun:
    def test_run_writes_report(self, bench_dir, tmp_path, capsys):
        out = str(tmp_path / "BENCH_A.json")
        assert _run(bench_dir, out) == 0
        report = json.load(open(out))
        assert report["schema"] == "repro-bench/1"
        (result,) = report["results"]
        assert result["id"] == "syn.speedup"
        assert result["median"] == 2.0
        assert result["samples"][0]["wall_s"] == 0.001
        assert "report: %s" % out in capsys.readouterr().out

    def test_run_without_out_writes_no_file(self, bench_dir, tmp_path,
                                            monkeypatch, capsys):
        # Neither a report next to the benchmarks directory nor any
        # history under the run store: without --out the report only
        # goes to stdout.
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        assert main(["bench", "run", "--dir", bench_dir,
                     "--quiet"]) == 0
        assert "syn.speedup" in capsys.readouterr().out
        assert os.listdir(str(tmp_path)) == ["benchmarks"]

    def test_run_check_passes_met_expectations(self, bench_dir,
                                               tmp_path):
        out = str(tmp_path / "BENCH_A.json")
        assert _run(bench_dir, out, ["--check"]) == 0

    def test_run_check_fails_unmet_expectation(self, tmp_path, capsys):
        directory = tmp_path / "benchmarks"
        directory.mkdir()
        (directory / "bench_failing.py").write_text(FAILING_MODULE)
        out = str(tmp_path / "BENCH_A.json")
        assert main(["bench", "run", "--suite", "quick",
                     "--dir", str(directory),
                     "--out", out, "--quiet", "--check"]) == 3
        assert "FAIL" in capsys.readouterr().err

    def test_run_single_bench_selection(self, bench_dir, tmp_path):
        out = str(tmp_path / "BENCH_A.json")
        assert main(["bench", "run", "--bench", "syn.wall",
                     "--dir", bench_dir,
                     "--out", out, "--quiet"]) == 0
        report = json.load(open(out))
        assert [r["id"] for r in report["results"]] == ["syn.wall"]

    def test_run_unknown_bench_is_error(self, bench_dir, capsys):
        assert main(["bench", "run", "--bench", "no.such",
                     "--dir", bench_dir, "--quiet"]) == 1
        assert "unknown benchmark" in capsys.readouterr().err

    def test_run_json_emits_report_on_stdout(self, bench_dir, tmp_path,
                                             capsys):
        out = str(tmp_path / "BENCH_A.json")
        assert _run(bench_dir, out, ["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro-bench/1"

    def test_help_lists_only_list_and_run(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "--help"])
        out = capsys.readouterr().out
        assert "{list,run}" in out
        assert "compare" not in out and "history" not in out


# -- repro diffstats --json ---------------------------------------------------

def _write_sidecar(path, rate):
    records = [{"kind": "meta", "record": "schema", "version": 3}]
    for seq in range(3):
        records.append({"kind": "health", "isa": "rv32", "state": -1,
                        "pc": 0, "ts": 0.1 * seq,
                        "data": {"sample": {"v": 1, "seq": seq,
                                            "t": 0.1 * seq,
                                            "steps_per_sec": rate,
                                            "frontier": 4,
                                            "solver": {"share": 0.2}}}})
    records.append({"kind": "meta", "record": "run_summary",
                    "paths": 2, "defects": 0, "instructions": 1000,
                    "wall_time": 1.0, "stop_reason": "exhausted",
                    "telemetry": {}})
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return str(path)


class TestDiffstatsJson:
    def test_json_payload_matches_exit_logic(self, tmp_path, capsys):
        a = _write_sidecar(tmp_path / "a.jsonl", 1000.0)
        b = _write_sidecar(tmp_path / "b.jsonl", 700.0)
        assert main(["diffstats", a, b, "--json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"] >= 1
        flags = {row["name"]: row["flag"] for row in payload["rows"]}
        assert flags["health.steps_per_sec.mean"] == "regression"

    def test_json_clean_run(self, tmp_path, capsys):
        a = _write_sidecar(tmp_path / "a.jsonl", 1000.0)
        assert main(["diffstats", a, a, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["regressions"] == 0
        assert payload["baseline"] == a
