"""The repository benchmark: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload explode --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each pass of the workload runs in a
fresh worker process (``worker.py``) with ``PYTHONHASHSEED=0``; passes
repeat until ``--seconds`` is spent, with at least two.

``--trace 0`` reports the end-to-end metrics, each the median over the
passes.  Times are in reference seconds: the worker times a fixed
interpreter loop while it works and scales each piece of work by the host
speed sampled around it (``worker.SpeedLog``).  On a shared host whose
speed drifts by tens of percent from minute to minute, this keeps the
program's own changes visible.  The report prints plain seconds beside
them.  ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics of the traced ones, with the tracing overhead.
Every verdict is checked against the oracle (``oracle.py``) and every
exploration's shape against ``shapes.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
are the ``end_to_end`` (trace 0) or ``per_layer`` (trace 1) entries of
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
PASS_TIMEOUT_S = 150.0
RUN_LIMIT_S = 165.0       # start no pass that could end after this
OUT_DIR = ".perfbench"


def _rate(count_key: str, time_key: str, extra_key: Optional[str] = None):
    def rate(record):
        count = record[count_key] + (record[extra_key] if extra_key else 0)
        seconds = record[time_key]
        return count / seconds if count and seconds > 0 else None
    return rate


def verdicts(records: List[dict]) -> List[oracle.Verdict]:
    """Every verdict of ``records``, as the oracle made them."""
    return [oracle.Verdict(*verdict) for record in records
            for verdict in record["verdicts"]]


# name, unit, better, value of one pass (None: no meaning here).
END_TO_END: List[Tuple[str, str, str, Callable]] = [
    ("setup_s", "s", "lower", lambda r: r["setup_s"]),
    ("wall_s", "s", "lower", lambda r: r["wall_s"]),
    ("instr_per_s", "1/s", "higher",
     _rate("instructions", "explore_s")),
    ("paths_per_s", "1/s", "higher",
     _rate("paths", "explore_s", "defects")),
    ("first_defect_s", "s", "lower", lambda r: r["first_defect_s"]),
    ("rules_per_s", "1/s", "higher", _rate("rules", "lint_s")),
    ("peak_rss_mb", "MB", "lower", lambda r: r["peak_rss_mb"]),
    ("error_rate", "ratio", "lower",
     lambda r: oracle.error_rate(verdicts([r]))[2]),
]


def view(record: dict, times: str = "ref") -> dict:
    """``record`` flattened with its ``"ref"`` (reference seconds) or
    ``"raw"`` (seconds) times."""
    return dict(record, **record[times])


def git_sha(root: str) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(name: str, seed: int, trace: bool, out_dir: str,
               env: Dict[str, str]) -> dict:
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", name, "--seed", str(seed),
               "--trace", "1" if trace else "0", "--out-dir", out_dir]
    try:
        done = subprocess.run(command, cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError("pass exceeded %.0f s" % PASS_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("worker exited %d:\n%s"
                           % (done.returncode, done.stderr[-2000:]))
    return json.loads(lines[-1])


def run_passes(name: str, seed: int, seconds: float, trace: bool,
               out_dir: str) -> Tuple[List[dict], List[dict], float]:
    """``(untraced, traced, elapsed)``.  Without tracing: passes until
    ``seconds`` is spent (at least :data:`MIN_PASSES`).  With tracing:
    untraced/traced pairs until ``seconds`` is spent (at least one)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    plain: List[dict] = []
    traced: List[dict] = []
    start = time.perf_counter()
    durations: List[float] = []
    minimum = 1 if trace else MIN_PASSES
    while True:
        began = time.perf_counter()
        plain.append(run_worker(name, seed, False, out_dir, env))
        if trace:
            traced.append(run_worker(name, seed, True, out_dir, env))
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if elapsed + max(durations) > RUN_LIMIT_S:
            break
        if len(durations) >= minimum and \
                elapsed + stats.median(durations) > seconds:
            break
    return plain, traced, time.perf_counter() - start


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return "%.6g" % value


def end_to_end(records: List[dict]) -> Dict[str, dict]:
    """Per metric: median, sample count, supported tail, spread."""
    table = {}
    for name, unit, better, value_of in END_TO_END:
        values = [value_of(record) for record in records]
        values = [value for value in values if value is not None]
        row = {"unit": unit, "better": better, "n": len(values),
               "median": None, "tail": None, "iqr": None}
        if values:
            middle, _count, tail_q, tail = stats.summary(values)
            row.update(median=middle,
                       tail=(tail_q, tail) if tail_q is not None else None,
                       iqr=stats.relative_iqr(values))
        table[name] = row
    return table


def per_layer(traced: List[dict], plain: List[dict]) -> Dict[str, float]:
    """Median of every per-layer metric over the traced passes, plus
    ``trace.overhead`` (traced region / untraced region - 1, both in
    reference seconds)."""
    names = traced[0]["layers"].keys()
    layers = {name: stats.median([record["layers"][name]
                                  for record in traced])
              for name in names}
    layers["trace.overhead"] = (
        stats.median([record["ref"]["region_s"] for record in traced])
        / stats.median([record["ref"]["region_s"] for record in plain])
        - 1.0)
    return layers


def print_report(name: str, seed: int, plain: List[dict],
                 traced: List[dict], elapsed: float,
                 layers: Optional[Dict[str, float]]) -> None:
    first = plain[0]
    print("perfbench: workload %s, seed %d, %d untraced + %d traced "
          "passes in %.1f s" % (name, seed, len(plain), len(traced),
                                elapsed))
    print("host: nproc %d, Python %s, git %s, PYTHONHASHSEED=0"
          % (os.cpu_count() or 0, platform.python_version(), git_sha(ROOT)))
    if first["inputs"]:
        print("inputs: " + ", ".join("%s=%#x" % item
                                     for item in sorted(
                                         first["inputs"].items())))
    print("shape: %d instructions, %d paths, %d defects, %d rules"
          % (first["instructions"], first["paths"], first["defects"],
             first["rules"]))
    print()
    print("host speed: reference loop %s s (median over passes; "
          "%s s on the reference host)"
          % (_fmt(stats.median([record["loop_s"] for record in plain])),
             _fmt(first["reference_loop_s"])))
    print()
    print("%-16s %-6s %-7s %14s %14s %4s %16s %7s"
          % ("metric", "unit", "better", "median", "raw median", "n",
             "tail", "iqr"))
    raw = end_to_end([view(record, "raw") for record in plain])
    for metric, row in end_to_end([view(record) for record in plain]).items():
        tail = ("p%g=%s" % (row["tail"][0], _fmt(row["tail"][1]))
                if row["tail"] else "-")
        iqr = "%.1f%%" % (100 * row["iqr"]) if row["iqr"] is not None \
            else "-"
        print("%-16s %-6s %-7s %14s %14s %4d %16s %7s"
              % (metric, row["unit"], row["better"], _fmt(row["median"]),
                 _fmt(raw[metric]["median"]), row["n"], tail, iqr))
    if layers is None:
        return
    record = traced[len(traced) // 2]
    wall = record["raw"]["region_s"]
    print()
    print("per-layer self time (traced pass %d of %d):"
          % (len(traced) // 2 + 1, len(traced)))
    print("%-18s %9s %12s %7s" % ("span", "calls", "self_s", "share"))
    self_sum = 0.0
    for span, calls, self_s in record["table"]:
        self_sum += self_s
        print("%-18s %9d %12.6f %6.1f%%"
              % (span, calls, self_s, 100 * self_s / wall))
    print("%-18s %9s %12.6f %6.1f%%" % ("(residual)", "", wall - self_sum,
                                        100 * (wall - self_sum) / wall))
    print("sum of self %.6f s + residual %.6f s = traced wall %.6f s"
          % (self_sum, wall - self_sum, wall))
    print()
    print("per-layer metrics (median of %d traced passes):" % len(traced))
    for metric, value in layers.items():
        print("  %-30s %s" % (metric, _fmt(value)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no program under %s/src/repro; run from a full "
              "checkout" % ROOT, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    out_dir = os.path.join(ROOT, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    trace = bool(args.trace)
    try:
        plain, traced, elapsed = run_passes(args.workload, args.seed,
                                            args.seconds, trace, out_dir)
    except RuntimeError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    layers = per_layer(traced, plain) if trace else None
    print_report(args.workload, args.seed, plain, traced, elapsed, layers)

    records = plain + traced
    attempted, failed, _rate = oracle.error_rate(verdicts(records))
    problems = sorted({problem for record in records
                       for problem in record["shape_problems"]})
    for verdict in verdicts(records):
        if not verdict.ok:
            print("WRONG VERDICT %s: %s" % (verdict.subject, verdict.detail))
    for problem in problems:
        print("SHAPE MISMATCH %s" % problem)

    metrics = {}
    if trace:
        for entry in contract["per_layer"]:
            metrics[entry["name"]] = {"value": layers[entry["name"]],
                                      "unit": entry["unit"]}
    else:
        table = end_to_end([view(record) for record in plain])
        for entry in contract["end_to_end"]:
            metrics[entry["name"]] = {"value": table[entry["name"]]["median"],
                                      "unit": entry["unit"]}
    correct = failed == 0 and not problems and all(
        entry["value"] is not None for entry in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
