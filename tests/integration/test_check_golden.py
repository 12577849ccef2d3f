"""Golden hash of the solver's check stream during exploration.

The fingerprint goldens pin what exploration *finds* and
``tests/smt/test_sat_golden.py`` pins how the CDCL core *searches*; this
file pins what every :meth:`repro.smt.Solver.check` *answers* while the
engine explores.  One SHA-256 covers, for every check of a fixed set of
explorations, in order:

* the verdict;
* on SAT, the sorted model;
* the :class:`~repro.smt.solver.SolverStats` delta of that check, less
  ``solve_time``, which pins *which tier* answered it (exact hit,
  subsumption, witness replay, interval refutation or CDCL).

Memoization inside the tiers (interval memos, witness memos, the
decision heap, field-term caches) must leave it exactly where it is.

The explorations: rv32 ``maze(5)`` under DFS, armlite ``diamonds(6)``
under BFS with state merging, and two vlx defect-suite bad/good pairs:
``oob_read`` (symbolic-index memory) and ``magic_trap`` (whose good
variant has a check refuted by the interval tier).

A change that *intends* to alter solver traffic regenerates the hash
with ``python tests/integration/test_check_golden.py`` (PYTHONPATH=src)
and says why in its change log.
"""

import hashlib
import json
from contextlib import contextmanager

from repro.core import Engine, EngineConfig
from repro.programs import build_kernel
from repro.programs.suite import case_by_name, run_case
from repro.smt import terms as T
from repro.smt.sat import SAT
from repro.smt.solver import Solver

#: Recorded before the interval memo, the model check through the
#: witness memo, the duplicate-free decision heap and the shared
#: field-term cache; they must not move it.
GOLDEN = ("d1672460f0b8afef6d7172c86e8a8453"
          "fbbe98d41ec5bbaa09dc17151a7f162c")


@contextmanager
def _recording(digest):
    """Feed every ``Solver.check`` (verdict, model, stats delta) into
    ``digest`` while the block runs."""
    original = Solver.check

    def check(self, extra=()):
        before = self.stats.as_dict()
        verdict = original(self, extra)
        delta = self.stats.delta_since(before)
        del delta["solve_time"]
        model = sorted(self.model().items()) if verdict == SAT else None
        digest.update(json.dumps([verdict, model, delta],
                                 sort_keys=True).encode())
        return verdict

    Solver.check = check
    try:
        yield
    finally:
        Solver.check = original


def _explore_kernel(kernel, target, strategy, config=None, **params):
    model, image = build_kernel(kernel, target, **params)
    engine = Engine(model, config=config, strategy=strategy)
    engine.load_image(image)
    engine.explore()


def check_stream_digest() -> str:
    digest = hashlib.sha256()
    previous = T.set_pool(T.TermPool())
    try:
        with _recording(digest):
            _explore_kernel("maze", "rv32", "dfs", depth=5)
            _explore_kernel("diamonds", "armlite", "bfs",
                            EngineConfig(merge_states=True), count=6)
            for name in ("oob_read", "magic_trap"):
                for variant in ("bad", "good"):
                    run_case(case_by_name(name), "vlx", variant)
    finally:
        T.set_pool(previous)
    return digest.hexdigest()


def test_check_stream_matches_golden():
    assert check_stream_digest() == GOLDEN


if __name__ == "__main__":  # regenerate GOLDEN above
    print(check_stream_digest())
