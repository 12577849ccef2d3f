"""Telemetry overhead guard.

Runs the quickstart-shaped workload (maze kernel: forks, solver checks,
memory traffic) under several Obs configurations and gates three of
them against a fully disabled Obs.  Each budget is declared once, as a
registered benchmark's ``expect_max``:

* ``obs.counters_overhead`` — the engine default (enabled counters, no
  event sink, no cost ledger) within ``MAX_OVERHEAD``;
* ``obs.health_overhead`` — counters plus the health monitor at its
  default cadence, within ``MAX_OVERHEAD``;
* ``obs.attr_overhead`` — counters plus sampled cost attribution,
  within ``MAX_ATTR_OVERHEAD``.

``repro bench run --check --bench obs.counters_overhead ...`` gates
them; running this file prints the full table, every configuration
included, and judges the same three budgets.

Usage::

    python benchmarks/bench_obs_overhead.py   # report + judge

Exit status 1 when a budget is exceeded.

(Not a pytest module on purpose: single-shot wall-clock assertions are
too noisy for the unit suite; best-of-N in a dedicated gate run is the
right home.)
"""

import sys
import time

from repro.bench import Sample, benchmark, evaluate_expectations, get
from repro.core import Engine, EngineConfig
from repro.obs import AttrConfig, FlightRecorder, HealthConfig, Obs
from repro.programs import build_kernel

MAX_OVERHEAD = 0.15     # counters (and +health) must cost < 15% vs. disabled
MAX_ATTR_OVERHEAD = 0.20  # sampled cost attribution must cost < 20%
REPEATS = 5             # best-of to suppress scheduler noise
WORKLOAD = ("maze", {"depth": 6, "solution": 0b101100})


def _recording() -> Obs:
    """Counters + a live FlightRecorder sink (the in-process execution
    tree).  Measured and reported, but NOT part of the guard: the
    recorder is default-off like every sink, so its cost is opt-in."""
    obs = Obs.default()
    obs.add_sink(FlightRecorder())
    return obs


def run_once(obs_factory, health_factory=None, attr_factory=None) -> float:
    model, image = build_kernel(WORKLOAD[0], "rv32", **WORKLOAD[1])
    health = health_factory() if health_factory is not None else None
    attr = attr_factory() if attr_factory is not None else None
    config = EngineConfig(collect_path_inputs=False, obs=obs_factory(),
                          health=health, attr=attr)
    engine = Engine(model, config=config)
    engine.load_image(image)
    start = time.perf_counter()
    result = engine.explore()
    elapsed = time.perf_counter() - start
    assert result.instructions_executed > 0
    return elapsed


def best_of(obs_factory, health_factory=None, attr_factory=None,
            repeats: int = REPEATS) -> float:
    return min(run_once(obs_factory, health_factory, attr_factory)
               for _ in range(repeats))


def overhead(configured: float, disabled: float) -> float:
    """Relative cost of a configuration's best time over the disabled
    Obs's best time (0.15 = 15% slower)."""
    return (configured - disabled) / disabled if disabled else 0.0


def overhead_sample(health_factory=None, attr_factory=None) -> Sample:
    """One configuration's best-of overhead ratio vs a disabled Obs."""
    run_once(Obs.disabled)      # warm model/decoder caches
    disabled = best_of(Obs.disabled)
    configured = best_of(Obs.default, health_factory, attr_factory)
    return Sample(overhead(configured, disabled),
                  wall_s=disabled + configured)


@benchmark("obs.counters_overhead",
           title="telemetry: default-counters overhead vs disabled Obs",
           suite="full", isas=("rv32",), unit="ratio", direction="lower",
           expect_max=MAX_OVERHEAD, reps=1, warmup=0,
           workload="maze(depth 6), best-of-%d per Obs config" % REPEATS)
def _counters_overhead():
    return overhead_sample()


@benchmark("obs.health_overhead",
           title="telemetry: counters + health monitor vs disabled Obs",
           suite="full", isas=("rv32",), unit="ratio", direction="lower",
           expect_max=MAX_OVERHEAD, reps=1, warmup=0,
           workload="maze(depth 6), best-of-%d per Obs config" % REPEATS)
def _health_overhead():
    return overhead_sample(health_factory=HealthConfig)


@benchmark("obs.attr_overhead",
           title="telemetry: counters + sampled attribution vs disabled "
                 "Obs",
           suite="full", isas=("rv32",), unit="ratio", direction="lower",
           expect_max=MAX_ATTR_OVERHEAD, reps=1, warmup=0,
           workload="maze(depth 6), best-of-%d per Obs config" % REPEATS)
def _attr_overhead():
    return overhead_sample(attr_factory=AttrConfig)


def main() -> int:
    # Warm up model/decoder caches so the first config isn't penalized.
    run_once(Obs.disabled)
    disabled = best_of(Obs.disabled)
    counters = best_of(Obs.default)
    profiled = best_of(lambda: Obs(metrics=True, profile=True))
    recording = best_of(_recording)
    # Health monitor at its default cadence (sample every 256 steps):
    # guarded alongside the counters — a monitored run must stay cheap
    # enough to leave on in CI.
    monitored = best_of(Obs.default, HealthConfig)
    # Sampled cost attribution at its default cadence (deep-probe every
    # 16th step): guarded under its own, looser, budget — attribution
    # turns the cost ledger on, so every layer scope is timed.
    attributed = best_of(Obs.default, attr_factory=AttrConfig)
    gated = {"obs.counters_overhead": overhead(counters, disabled),
             "obs.health_overhead": overhead(monitored, disabled),
             "obs.attr_overhead": overhead(attributed, disabled)}
    print("== telemetry overhead (best of %d, maze depth=%d) =="
          % (REPEATS, WORKLOAD[1]["depth"]))
    print("disabled:          %8.4fs" % disabled)
    for label, seconds, note in (
            ("counters (default):", counters, ""),
            ("counters+health:   ", monitored, ""),
            ("counters+ledger:   ", profiled, ""),
            ("counters+attr:     ", attributed, ""),
            ("counters+recorder: ", recording, "  [opt-in, not guarded]")):
        print("%s%8.4fs  (%+.1f%%)%s" % (label, seconds,
                                          100 * overhead(seconds, disabled),
                                          note))
    failed = False
    for bench_id, observed in gated.items():
        for exp in evaluate_expectations(get(bench_id), observed):
            failed = failed or not exp["passed"]
            print("%s: %s %.1f%% (budget %.0f%%)"
                  % ("OK" if exp["passed"] else "FAIL", bench_id,
                     100 * observed, 100 * exp["threshold"]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
