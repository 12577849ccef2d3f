"""Golden exploration fingerprints: the default config must not drift.

The tree / leaves / defects fingerprints (``repro.runstore.fingerprint``)
of the default-config exploration of the exerciser kernel and maze(5)
on every shipped ISA are pinned to absolute values.  Solver-layer
refactors (cache, model replay, frame reuse) must answer every check
with the same verdict and the same model, so the leaves (which carry
model-derived path inputs) and the execution tree stay bit-identical.
Observability (the cost ledger, rule-level attribution) and compiled
semantics are observe-only / equivalence-proven, so every mode must
hit the same goldens.

A change that *intends* to alter exploration results regenerates the
table with ``python tests/integration/test_golden_fingerprints.py``
(PYTHONPATH=src) and says why in its change log.
"""

import pytest

from repro.core import Engine, EngineConfig
from repro.obs import Obs
from repro.obs.ledger import AttrConfig
from repro.obs.sinks import RingBufferSink
from repro.programs import build_kernel
from repro.runstore.fingerprint import (defects_fingerprint,
                                        leaves_fingerprint,
                                        tree_fingerprint)

KERNELS = {"exerciser": {}, "maze": {"depth": 5}}

_EXERCISER_LEAVES = ("fdc9b67e886c61d713f3361c3f99b340"
                     "11b6f4555924580852aaddb8c54eabd6")
_MAZE_LEAVES = ("eb73203d081fbf5432ed6d5593c6cc88"
                "9ed84ee846497237acbf5a73b8ec774d")

#: (target, kernel) -> (tree, leaves, defects), sha256 hex digests.
GOLDEN = {
    ("rv32", "exerciser"): (
        "11830f2c3d3a179add9366d6ab7777f4b176139c3c70691720e85e6d7ef2b8ec",
        _EXERCISER_LEAVES,
        "aec247d3c2be67f3325df258683cf86e108097fd0ad4e5b67f6f18aed69ee810"),
    ("rv32", "maze"): (
        "8b83f0d5a43f9d8b8082b422e2912dd7403b272b197ece4fbeab4f0423c31989",
        _MAZE_LEAVES,
        "731362193dd4c41fc232a6397249456786b05a4dc948d4d9a905d0e62231180a"),
    ("mips32", "exerciser"): (
        "6cc07fb752d6ad82c77708c988a218946c7bbd134f7e2caee0032b910c4f3fba",
        _EXERCISER_LEAVES,
        "b7b55b04e938416edd57a5ffb30de112188fa8dc90045aded7508187b405acec"),
    ("mips32", "maze"): (
        "48b8e5e9a7d02841d5dd5b60d9dfa0731e2fced801d08094a34e8abce841ef8c",
        _MAZE_LEAVES,
        "731362193dd4c41fc232a6397249456786b05a4dc948d4d9a905d0e62231180a"),
    ("armlite", "exerciser"): (
        "91f2e02e2b75747348635cdf10163ccf380fc49f072b58a1adba955be0291975",
        _EXERCISER_LEAVES,
        "e3fac39e3e9e57491e8f401f868b7b2788c3547d76330fd9946db32f0fc27678"),
    ("armlite", "maze"): (
        "5f4b5d68c2b909391880cf1961b01de63721d78d274263a52e3e141164b25aa0",
        _MAZE_LEAVES,
        "289ea4e4e11f3167d91213ac45912b46cdeb94f46f4613a87273bf4f8a49bf24"),
    ("pred32", "exerciser"): (
        "6422805dac6da297cc91a40b1e1ba9b4b9a9c943b20d95b07b8f5cc8a3c5ae81",
        _EXERCISER_LEAVES,
        "e3fac39e3e9e57491e8f401f868b7b2788c3547d76330fd9946db32f0fc27678"),
    ("pred32", "maze"): (
        "f362a81377e965aec0d70eba9b68e1734d6fd964accc3f6a16998ae2b73fa237",
        _MAZE_LEAVES,
        "289ea4e4e11f3167d91213ac45912b46cdeb94f46f4613a87273bf4f8a49bf24"),
    ("vlx", "exerciser"): (
        "bc535783c9477d7fecfe11f63c219e562da4a87ffe05ec1f154368c39e143765",
        _EXERCISER_LEAVES,
        "4902ad67a9e93357321df4a7c16199443b638229826d1ab4f2e65a6819b0827b"),
    ("vlx", "maze"): (
        "5a6adafb5094f87844ae5142c442a62e0cf91dc55aea7b46096b1ac04c72eaaf",
        "25e4a9522d01ef1e4eea40542bdeb945c2226b165fd130cfa2de99e06314d9af",
        "9c3f514521d20c731776c1871290b2a5b4cd3073e6ef38f06b9d16aeb55e36d8"),
}

#: Observability modes: ledger off, the --profile ledger, and the
#: --attr ledger with a deep step every 4th instruction.
MODES = ("off", "profile", "attr")


def explore_fingerprints(target, kernel, compiled=False, mode="off"):
    """Default-config exploration of ``kernel`` on ``target``; returns
    the ``(tree, leaves, defects)`` hex digests."""
    model, image = build_kernel(kernel, target, **KERNELS[kernel])
    ring = RingBufferSink(capacity=200000)
    obs = Obs(metrics=True, profile=mode != "off")
    obs.add_sink(ring)
    attr = AttrConfig(mode="sampled", sample_every=4) \
        if mode == "attr" else None
    engine = Engine(model, config=EngineConfig(
        obs=obs, compiled_semantics=compiled, attr=attr))
    engine.load_image(image)
    result = engine.explore()
    serialized = result.to_dict()
    return tuple(digest.split(":", 1)[1] for digest in (
        tree_fingerprint(ring.events()),
        leaves_fingerprint(serialized["paths"]),
        defects_fingerprint(serialized["defects"])))


@pytest.mark.parametrize("compiled", [False, True],
                         ids=["interpreted", "compiled"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("target,kernel", sorted(GOLDEN))
def test_fingerprints_match_golden(target, kernel, mode, compiled):
    assert explore_fingerprints(target, kernel, compiled, mode) \
        == GOLDEN[(target, kernel)]


if __name__ == "__main__":  # regenerate the table above
    for target, kernel in sorted(GOLDEN):
        print((target, kernel), explore_fingerprints(target, kernel))
