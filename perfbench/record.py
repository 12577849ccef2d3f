"""Record the benchmark's reference data.

    python3 perfbench/record.py shapes
    python3 perfbench/record.py baseline

``shapes`` runs one pass of every workload for each of
:data:`SHAPE_SEEDS` and writes
``shapes.json``: the exact ``[instructions, paths, defects]`` of every
exploration.  It refuses to write when two seeds disagree, since every
run checks the recorded shape whatever its seed.

``baseline`` runs every workload untraced and traced with
:data:`BASELINE_SEED` for ``run_seconds`` of ``BENCHMARK.json``, and
writes ``baseline.json``: the end-to-end and per-layer medians of this
commit,
the solver counts per exploration (``checks``, ``sat_calls``), and the
host they were measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import stats  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SHAPE_SEEDS = list(range(1, 11))
BASELINE_SEED = 1


def _write(name: str, payload: dict) -> None:
    path = os.path.join(HERE, name)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % path)


def record_shapes() -> int:
    env = dict(os.environ, PYTHONHASHSEED="0")
    out_dir = os.path.join(run.ROOT, run.OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    payload = {"seeds_checked": SHAPE_SEEDS}
    for name in workloads.NAMES:
        shapes = None
        for seed in SHAPE_SEEDS:
            record = run.run_worker(name, seed, False, out_dir, env)
            wrong = [verdict for verdict in record["verdicts"]
                     if not verdict[1]]
            if wrong:
                print("%s seed %d: wrong verdicts %s" % (name, seed, wrong))
                return 1
            if shapes is not None and record["shapes"] != shapes:
                print("%s: seed %d changes the shape" % (name, seed))
                return 1
            shapes = record["shapes"]
            print("%s seed %d: %d explorations" % (name, seed, len(shapes)))
        payload[name] = shapes
    _write("shapes.json", payload)
    return 0


def record_baseline() -> int:
    out_dir = os.path.join(run.ROOT, run.OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        seconds = float(json.load(handle)["run_seconds"])
    seed = BASELINE_SEED
    payload = {
        "commit": run.git_sha(run.ROOT),
        "host": {"nproc": os.cpu_count(),
                 "python": platform.python_version(),
                 "machine": platform.machine()},
        "seed": seed, "seconds": seconds, "workloads": {},
    }
    for name in workloads.NAMES:
        plain, _, _ = run.run_passes(name, seed, seconds, False, out_dir)
        pairs, traced, _ = run.run_passes(name, seed, seconds, True, out_dir)
        layers = run.per_layer(traced, pairs)
        raw = run.end_to_end([run.view(record, "raw") for record in plain])
        payload["workloads"][name] = {
            "why": workloads.WHY[name],
            "end_to_end": {
                metric: {"median": row["median"],
                         "raw_median": raw[metric]["median"],
                         "n": row["n"], "unit": row["unit"],
                         "better": row["better"]}
                for metric, row in run.end_to_end(
                    [run.view(record) for record in plain]).items()},
            "loop_s": stats.median([record["loop_s"] for record in plain]),
            "per_layer": {
                metric: {"median": value,
                         "unit": worker.LAYER_METRICS[metric][0],
                         "better": worker.LAYER_METRICS[metric][1],
                         "n": len(traced)}
                for metric, value in layers.items()},
            "solver_counts": plain[0]["jobs"],
        }
        print("%s: %d untraced, %d traced passes" % (name, len(plain),
                                                     len(traced)))
    _write("baseline.json", payload)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("what", choices=("shapes", "baseline"))
    args = parser.parse_args(argv)
    if args.what == "shapes":
        return record_shapes()
    return record_baseline()


if __name__ == "__main__":
    sys.exit(main())
