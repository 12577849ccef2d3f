"""Differential harness: compiled transfer functions vs IR interpretation.

The specializer's contract (`repro.compile`) is bit-for-bit
observational equivalence, not just equal final values: exploring with
``compiled_semantics=True`` must produce *identical* tree, leaf and
defect fingerprints — the same hashes the run store uses for replay
verification.  This harness enforces that on every shipped ISA, over
the exerciser kernel (touches every portable operation) and the whole
defect suite (every checker: div-zero, OOB, uninit, taint, trap).

The concrete twin is held to the same standard: full machine-state
equality (registers, memory, I/O, instruction count) after complete
simulator runs.
"""

import pytest

from repro.core import Engine, EngineConfig
from repro.obs import Obs
from repro.obs.sinks import RingBufferSink
from repro.programs import all_cases, build_kernel, run_case
from repro.programs.suite import CODE_BASE
from repro.runstore.fingerprint import (defects_fingerprint,
                                        leaves_fingerprint,
                                        tree_fingerprint)

ALL_TARGETS = ["rv32", "mips32", "armlite", "pred32", "vlx"]


def _config(compiled, **kwargs):
    ring = RingBufferSink(capacity=200000)
    obs = Obs(metrics=True)
    obs.add_sink(ring)
    config = EngineConfig(collect_coverage=True, obs=obs,
                          compiled_semantics=compiled, **kwargs)
    return config, ring


def _fingerprints(ring, result):
    serialized = result.to_dict()
    return (tree_fingerprint(ring.events()),
            leaves_fingerprint(serialized["paths"]),
            defects_fingerprint(serialized["defects"]))


def _explore_kernel(target, kernel, compiled):
    model, image = build_kernel(kernel, target)
    config, ring = _config(compiled)
    engine = Engine(model, config=config)
    engine.load_image(image)
    result = engine.explore()
    return _fingerprints(ring, result)


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_exerciser_fingerprints_identical(target):
    interpreted = _explore_kernel(target, "exerciser", compiled=False)
    compiled = _explore_kernel(target, "exerciser", compiled=True)
    assert interpreted == compiled


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_defect_suite_fingerprints_identical(target):
    for case in all_cases():
        for variant in ("bad", "good"):
            per_mode = {}
            for compiled in (False, True):
                config, ring = _config(compiled,
                                       max_steps_per_path=4096)
                detected, result, _image = run_case(case, target, variant,
                                                    config=config)
                per_mode[compiled] = (detected, result.stop_reason,
                                      _fingerprints(ring, result))
            assert per_mode[False] == per_mode[True], (
                "%s/%s/%s diverged" % (target, case.name, variant))


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_concrete_simulator_state_identical(target):
    from repro.isa.simulator import run_image

    model, image = build_kernel("exerciser", target)
    for input_bytes in (b"", b"\x00" * 8,
                        b"\xff\x7f\x01\x02\x03\x04\x05\x06", b"abcdefgh"):
        interp_sim = run_image(model, image, input_bytes=input_bytes,
                               max_steps=20000)
        compiled_sim = run_image(model, image, input_bytes=input_bytes,
                                 max_steps=20000, compiled=True)
        context = (target, input_bytes)
        assert interp_sim.output == compiled_sim.output, context
        assert interp_sim.halted == compiled_sim.halted, context
        assert interp_sim.exit_code == compiled_sim.exit_code, context
        assert interp_sim.trapped == compiled_sim.trapped, context
        assert interp_sim.trap_code == compiled_sim.trap_code, context
        assert interp_sim.state.pc == compiled_sim.state.pc, context
        assert interp_sim.state.regfiles == compiled_sim.state.regfiles, \
            context
        assert interp_sim.state.registers == compiled_sim.state.registers, \
            context
        assert interp_sim.state.memory == compiled_sim.state.memory, context
        assert interp_sim.state.input_cursor \
            == compiled_sim.state.input_cursor, context
        assert interp_sim.instruction_count \
            == compiled_sim.instruction_count, context


def test_compiled_flag_does_not_change_run_identity():
    """``compiled_semantics`` must be invisible to the run store: it is
    not serialized, so a compiled submission hits the cache entry an
    interpreted run recorded (and vice versa)."""
    config = EngineConfig(compiled_semantics=True)
    assert "compiled_semantics" not in config.to_dict()
    assert "compiled_semantics" not in EngineConfig._SERIALIZED_FIELDS
    rebuilt = EngineConfig.from_dict(config.to_dict())
    assert rebuilt.compiled_semantics is False


def test_store_hit_across_modes(tmp_path):
    """Record interpreted, resubmit compiled: must be a store *hit* with
    the recorded fingerprints verifying against the compiled re-run."""
    from repro.runstore import RunStore
    from repro.runstore.store import cached_explore

    model, image = build_kernel("exerciser", "rv32")
    store = RunStore(str(tmp_path / "store"))
    _result, first, hit = cached_explore(
        store, model, image,
        EngineConfig(collect_coverage=True, compiled_semantics=False),
        "dfs", 0, ())
    assert not hit
    _result, second, hit = cached_explore(
        store, model, image,
        EngineConfig(collect_coverage=True, compiled_semantics=True),
        "dfs", 0, ())
    assert hit
    assert second.run_id == first.run_id


def test_deep_attr_step_falls_back_without_changing_fingerprints():
    """Cost attribution's deep steps run interpreted (the per-IR-kind
    probes need the recursive walk); fingerprints must still match a
    fully interpreted exploration, attr being observe-only."""
    from repro.obs import AttrConfig

    model, image = build_kernel("exerciser", "rv32")
    baseline = _explore_kernel("rv32", "exerciser", compiled=False)
    config, ring = _config(True)
    config.attr = AttrConfig(mode="full")
    engine = Engine(model, config=config)
    engine.load_image(image)
    result = engine.explore()
    assert _fingerprints(ring, result) == baseline
    # The attribution profile still carries per-IR-kind rows, proving
    # the deep-step fallback actually engaged the interpreted walk.
    attr_block = (result.telemetry or {}).get("attr")
    assert attr_block, "attr telemetry missing"

    # Sampled mode is the risky interleaving: compiled steps alternate
    # with interpreted deep steps inside one exploration.
    config, ring = _config(True)
    config.attr = AttrConfig(mode="sampled", sample_every=3)
    engine = Engine(model, config=config)
    engine.load_image(image)
    result = engine.explore()
    assert _fingerprints(ring, result) == baseline
