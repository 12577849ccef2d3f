"""Solver query-result cache: exact memoization + unsat subsumption.

Symbolic-execution workloads hammer the solver with *near-identical*
conjunctions: every branch feasibility check along a path shares the
whole path-condition prefix, a finished path's input query repeats the
last feasibility check verbatim, and checker queries re-ask the same
question at the same site on sibling paths.  The Survey of Symbolic
Execution Techniques (Baldoni et al.) names constraint caching the
standard lever — KLEE's counterexample cache — and this module is that
layer for :class:`repro.smt.solver.Solver`:

* **Exact cache** — every decided ``check()`` is stored under its
  canonical query key (:func:`repro.smt.terms.query_key`: the frozenset
  of per-conjunct structural digests, so conjunct order and duplication
  cannot split entries).  SAT entries memoize the model, so a repeat
  query returns both verdict *and* model without touching a solver
  layer.
* **Unsat subsumption** — a conjunction is unsat iff some subset of it
  is unsat.  Every UNSAT answer's key is kept in a bounded set; a new
  query that is a *superset* of any stored unsat set is unsat without
  solving.  (Without core extraction the stored set is the whole query —
  still sound, and supersets are exactly what path extension produces.)
* **Witness replay** — the pool of recent SAT models (plus the all-zero
  assignment) is the engine's one model-replay store.  Each pooled
  :class:`Witness` is a model plus a *persistent* evaluation memo (term
  id -> value under that model; term ids are never reused, so the memo
  can only be right).  The solver replays the pool against new
  (typically superset) queries before any solving, and the engine
  seeds each forked state's frame with the witness that proved its
  branch, so both replay sites share one memo per model and a replay
  against a query sharing its path-condition prefix with earlier ones
  only evaluates the new conjuncts.

Everything here is *sound by construction*: exact hits replay a decided
verdict for a semantically identical query, subsumption only weakens
satisfiability, and witness replay proves SAT with an explicit model.
The differential harness (``tests/smt/test_cache_differential.py``)
checks the claim against a cache-free twin on randomized query streams.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, Iterator, Optional, Tuple

from .sat import SAT, UNSAT

__all__ = ["CacheEntry", "QueryCache", "Witness"]


class CacheEntry:
    """One decided query: verdict plus (for SAT) the witnessing model."""

    __slots__ = ("verdict", "model")

    def __init__(self, verdict: str, model: Optional[Dict[str, int]]):
        self.verdict = verdict
        self.model = model

    def __repr__(self):
        return "<CacheEntry %s%s>" % (
            self.verdict, "" if self.model is None else " +model")


class Witness:
    """A pooled model plus its persistent evaluation memo.

    The memo maps term id -> value under ``model`` and only grows; it
    is shared by every replay of the model (solver pool probes and the
    engine's per-state frames alike).  ``model`` is never mutated.
    """

    __slots__ = ("model", "memo")

    def __init__(self, model: Dict[str, int]):
        self.model = model
        self.memo: Dict[int, int] = {}


def _fingerprint(model: Dict[str, int]) -> Tuple[Tuple[str, int], ...]:
    return tuple(sorted(model.items()))


def _valid_model(model: object) -> bool:
    """A persisted model must map variable names to unsigned values."""
    return isinstance(model, dict) and all(
        isinstance(name, str) and isinstance(value, int)
        and not isinstance(value, bool) and value >= 0
        for name, value in model.items())


class QueryCache:
    """Bounded LRU of decided queries plus a bounded unsat-set index.

    ``max_entries`` bounds the exact cache, ``max_unsat_sets`` the
    subsumption index (scanned linearly per miss, so it stays small),
    and ``model_probe`` the witness pool (the all-zero witness is
    always a candidate on top of it).
    """

    def __init__(self, max_entries: int = 2048, max_unsat_sets: int = 64,
                 model_probe: int = 4):
        self.max_entries = max_entries
        self.max_unsat_sets = max_unsat_sets
        self.model_probe = model_probe
        self._entries: "OrderedDict[FrozenSet[bytes], CacheEntry]" = \
            OrderedDict()
        self._unsat_sets: "OrderedDict[FrozenSet[bytes], None]" = \
            OrderedDict()
        # The witness pool: recent SAT models, newest last, keyed by
        # their sorted item tuple (bounded by model_probe, LRU).
        self._models: "OrderedDict[tuple, Witness]" = OrderedDict()
        # The all-zero assignment is a candidate for every query (it
        # satisfies a surprising share of path conditions).
        self.zero = Witness({})
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookup --------------------------------------------------------------

    def lookup(self, key: FrozenSet[bytes]) -> Optional[CacheEntry]:
        """Exact hit (LRU-refreshing) or None."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def subsumes_unsat(self, key: FrozenSet[bytes]) -> bool:
        """True iff some stored unsat conjunction is a subset of ``key``.

        Any superset of an unsat set is unsat: adding conjuncts only
        strengthens a conjunction.
        """
        size = len(key)
        for unsat_key in self._unsat_sets:
            if len(unsat_key) <= size and unsat_key <= key:
                return True
        return False

    def witnesses(self) -> Iterator[Witness]:
        """Replay candidates: the all-zero witness first, then the
        pooled SAT models newest-first (≤ ``model_probe``).  Callers
        pass ``witness.memo`` straight to ``terms.all_true`` so it
        keeps accumulating."""
        yield self.zero
        yield from reversed(self._models.values())

    def witness(self, model: Dict[str, int]) -> Witness:
        """The pooled witness for ``model`` (sharing its memo), or a
        fresh unpooled one; never changes the pool."""
        if not model:
            return self.zero
        pooled = self._models.get(_fingerprint(model))
        return pooled if pooled is not None else Witness(model)

    # -- insertion -----------------------------------------------------------

    def store(self, key: FrozenSet[bytes], verdict: str,
              model: Optional[Dict[str, int]] = None,
              witness: Optional[Witness] = None) -> Optional[Witness]:
        """Record a decided query (idempotent; refreshes recency).

        A SAT ``model`` enters the witness pool (or refreshes its
        pooled twin); the pooled witness is returned.  ``witness``, if
        given, is :meth:`witness` of the same model: when the model is
        new to the pool it is pooled itself, keeping the memo it has
        accumulated (the solver's model check)."""
        if key in self._entries:
            self._entries.move_to_end(key)
            entry = self._entries[key]
        else:
            entry = self._entries[key] = CacheEntry(verdict, model)
            if len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        if verdict == UNSAT:
            self._remember_unsat(key)
        elif model is not None:
            entry.model = model
            return self._remember_model(model, witness)
        return None

    def _remember_unsat(self, key: FrozenSet[bytes]) -> None:
        if key in self._unsat_sets:
            self._unsat_sets.move_to_end(key)
            return
        # Drop stored sets subsumed by the newcomer: if ``key`` is a
        # subset of an existing set, the existing set is redundant.
        stale = [stored for stored in self._unsat_sets
                 if key < stored]
        for stored in stale:
            del self._unsat_sets[stored]
        self._unsat_sets[key] = None
        if len(self._unsat_sets) > self.max_unsat_sets:
            self._unsat_sets.popitem(last=False)

    def _remember_model(self, model: Dict[str, int],
                        witness: Optional[Witness] = None) -> Witness:
        if not model:
            return self.zero  # always a candidate already
        fingerprint = _fingerprint(model)
        pooled = self._models.get(fingerprint)
        if pooled is not None:
            # Refresh recency, keep the accumulated memo.
            self._models.move_to_end(fingerprint)
            return pooled
        if witness is None:
            witness = Witness(model)
        self._models[fingerprint] = witness
        if len(self._models) > self.model_probe:
            self._models.popitem(last=False)
        return witness

    # -- persistence ---------------------------------------------------------
    #
    # Cache keys are frozensets of *structural* term digests
    # (terms.digest / terms.query_key): 16-byte blake2b hashes computed
    # from operator + operands, independent of term ids or process.
    # That makes the whole cache process-portable — the run store
    # persists it alongside a recorded run so later explorations can
    # warm-start (repro.runstore).

    def save_state(self) -> Dict[str, object]:
        """JSON-able snapshot of every decided query, unsat set and
        recent model (evaluation memos are process-local and dropped)."""
        return {
            "version": 1,
            "entries": [
                {"key": sorted(digest.hex() for digest in key),
                 "verdict": entry.verdict,
                 "model": entry.model}
                for key, entry in self._entries.items()],
            "unsat_sets": [sorted(digest.hex() for digest in key)
                           for key in self._unsat_sets],
            "models": [witness.model for witness in self._models.values()],
        }

    def load_state(self, payload: Dict[str, object]) -> int:
        """Merge a :meth:`save_state` snapshot into this cache; returns
        the number of entries loaded.  Tolerant of malformed payloads
        (a corrupt warm-start file degrades to a cold cache): a SAT
        entry or ``models`` row without a well-formed model (a dict of
        variable name -> non-negative int) is dropped, since a SAT
        answer must always be able to produce its model."""
        if not isinstance(payload, dict):
            return 0
        loaded = 0
        for record in payload.get("entries") or ():
            try:
                key = frozenset(bytes.fromhex(digest)
                                for digest in record["key"])
                verdict = record["verdict"]
                model = record.get("model")
            except (KeyError, TypeError, ValueError):
                continue
            if verdict == UNSAT:
                model = None
            elif verdict != SAT or not _valid_model(model):
                continue
            self.store(key, verdict, model)
            loaded += 1
        for row in payload.get("unsat_sets") or ():
            try:
                self._remember_unsat(frozenset(bytes.fromhex(digest)
                                               for digest in row))
            except (TypeError, ValueError):
                continue
        for model in payload.get("models") or ():
            if _valid_model(model):
                self._remember_model(model)
        return loaded

    # -- maintenance ---------------------------------------------------------

    def clear(self) -> None:
        self._entries.clear()
        self._unsat_sets.clear()
        self._models.clear()
        self.zero.memo.clear()

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries),
                "unsat_sets": len(self._unsat_sets),
                "models": len(self._models),
                "evictions": self.evictions}

    def __repr__(self):
        return "<QueryCache %d entries, %d unsat sets>" % (
            len(self._entries), len(self._unsat_sets))
