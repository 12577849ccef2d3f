"""Golden hash of the CDCL search itself.

The fingerprint goldens pin what exploration *finds*; this file pins how
the SAT core *searches*.  One SHA-256 covers, for every call of a fixed,
deterministic sequence, the result, the full ``SatSolver.stats`` dict
(decisions, propagations, conflicts, restarts, learned) and, on SAT, the
sorted model.  Any change to branching order, tie-breaking, propagation
order, conflict analysis or restarts moves the hash, so a data-structure
rework of ``repro.smt.sat`` (decision heap, unit list, inlined
propagation) must leave it exactly where it is.

The sequence has two parts:

* seeded random CNFs solved incrementally under varying assumptions,
  with clauses and fresh variables added between calls;
* bit-blasted :class:`~repro.smt.Solver` queries built directly from
  terms (cache and interval layers off, so every check reaches CDCL):
  the branch conditions the ``maze(5)`` kernel raises on a 32-bit
  target, plus a small multiply-accumulate checksum.

A change that *intends* to alter the search regenerates the hash with
``python tests/smt/test_sat_golden.py`` (PYTHONPATH=src) and says why in
its change log.
"""

import hashlib
import json
import random

from repro.smt import Solver
from repro.smt import terms as T
from repro.smt.sat import SAT, SatSolver

#: Recorded before the decision heap and unit list replaced the linear
#: scans; they must not move it.
GOLDEN = ("8f6c469946f0d6cd98916967464ee5b2"
          "2a2c9021b0f5aee14d18bf03d84b6bee")


def _record(digest, result, sat: SatSolver) -> None:
    model = sorted(sat.model().items()) if result == SAT else None
    digest.update(json.dumps([result, sat.stats, model],
                             sort_keys=True).encode())


def _random_clause(rng, num_vars, min_len=2, max_len=3):
    """Distinct variables, so a clause never collapses to a unit."""
    return [rng.choice((-1, 1)) * var for var in
            rng.sample(range(1, num_vars + 1), rng.randint(min_len, max_len))]


def _assumptions(rng, num_vars, most=3):
    return [rng.choice((-1, 1)) * rng.randint(1, num_vars)
            for _ in range(rng.randint(1, most))]


def _incremental_cnfs(digest) -> None:
    """Clauses and variables arrive between calls; every call but the
    last of an instance runs under assumptions, so nothing is assigned
    at decision level 0 while clauses are being added (the reordering
    of root-false literals in ``add_clause`` is covered by
    ``test_sat.TestClausesAddedAfterSolve``).  Every third
    instance starts with ``_var_inc`` near the 1e100 ceiling so the
    activity rescale runs mid-search."""
    for seed in range(24):
        rng = random.Random(seed)
        num_vars = rng.randint(50, 110)
        s = SatSolver()
        if seed % 3 == 0:
            s._var_inc = 1e99
        for _ in range(int(num_vars * rng.uniform(3.4, 4.2))):
            s.add_clause(_random_clause(rng, num_vars, 3, 3))
        for _ in range(8):
            _record(digest, s.solve(_assumptions(rng, num_vars)), s)
            num_vars += rng.randint(0, 2)
            for _ in range(rng.randint(1, 6)):
                s.add_clause(_random_clause(rng, num_vars))
        _record(digest, s.solve(), s)


def _root_units(digest) -> None:
    """Unit clauses and root-level learning: a no-assumption solve first,
    then repeated calls under assumptions over the same clause set."""
    for seed in range(100, 116):
        rng = random.Random(seed)
        num_vars = rng.randint(40, 120)
        s = SatSolver()
        for _ in range(rng.randint(1, 4)):
            s.add_clause(_random_clause(rng, num_vars, 1, 1))
        for _ in range(int(num_vars * rng.uniform(3.2, 4.2))):
            s.add_clause(_random_clause(rng, num_vars, 3, 3))
        _record(digest, s.solve(), s)
        for _ in range(6):
            _record(digest, s.solve(_assumptions(rng, num_vars, 4)), s)
        _record(digest, s.solve(), s)


def _bitblasted_queries(digest) -> None:
    previous = T.set_pool(T.TermPool())
    try:
        solver = Solver(use_query_cache=False, use_intervals=False)
        sat = solver._blaster.sat
        word = 32
        zero = T.bv(0, word)
        one = T.bv(1, word)

        def check(conds):
            _record(digest, solver.check(conds), sat)

        # maze(5): acc = 2*acc + (in_k & 1), branch on each bit, then on
        # the accumulator against the solution.
        paths = [([], zero)]
        for step in range(5):
            byte = T.zext(T.var("golden_in%d" % step, 8), word - 8)
            bit = T.and_(byte, one)
            grown = []
            for path, acc in paths:
                acc = T.add(T.add(acc, acc), bit)
                for cond in (T.eq(bit, zero), T.ne(bit, zero)):
                    check(path + [cond])
                    grown.append((path + [cond], acc))
            paths = grown
        solution = T.bv(0b10110, word)
        for path, acc in paths:
            check(path + [T.eq(acc, solution)])
            check(path + [T.ne(acc, solution)])

        # checksum(3): acc = (acc*31 + in_k) & 0xffff against a magic value.
        acc = zero
        for step in range(3):
            byte = T.zext(T.var("golden_ck%d" % step, 8), word - 8)
            acc = T.and_(T.add(T.mul(acc, T.bv(31, word)), byte),
                         T.bv(0xffff, word))
            check([T.ult(acc, T.bv(0x1d0d, word))])
        check([T.eq(acc, T.bv(0x1d0d, word))])
        check([T.eq(acc, T.bv(0xffff, word))])
    finally:
        T.set_pool(previous)


def search_digest() -> str:
    digest = hashlib.sha256()
    _incremental_cnfs(digest)
    _root_units(digest)
    _bitblasted_queries(digest)
    return digest.hexdigest()


def test_search_is_bit_identical():
    assert search_digest() == GOLDEN


if __name__ == "__main__":
    print(search_digest())
