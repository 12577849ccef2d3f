"""The SMT solver front end used by the execution engine.

:class:`Solver` exposes the conventional assert / push / pop / check / model
interface over the bit-blaster and CDCL core.  :meth:`Solver.check` first
drops constant-true conjuncts (a constant-false one is UNSAT outright),
then tries these layers in order, cheapest first:

1. **Exact hit** — every decided query is memoized under a canonical,
   order-independent digest of its conjunction (``repro.smt.cache``);
   a repeat replays the stored verdict and model.
2. **Unsat subsumption** — a superset of a known-unsat conjunction is
   unsat.
3. **Witness replay** — the query cache's witness pool (the all-zero
   model plus recent SAT models, each with a persistent evaluation
   memo) is replayed through the term evaluator (KLEE-style
   counterexample caching).  The pool is the engine's only model-replay
   store: the engine's per-state frames hold pool witnesses too (see
   :meth:`Solver.witness`).
4. **Interval pre-filter** — conservative range analysis proves easy
   unsats (e.g. contradictory equalities on the same variable).  The
   solver keeps one per-term interval memo across checks, so a check
   only pays for the conjuncts no earlier check has seen
   (``repro.smt.interval``).
5. **Bit-blast + CDCL** — the complete decision procedure.  Assertions are
   blasted into one persistent CNF and each check solves under assumptions,
   so learned clauses carry over between path-feasibility queries.  Every
   SAT model is checked against the query before it is returned, cached
   or pooled; the check evaluates through the memo of the pool witness
   the model becomes, so the witness pool's and the engine frames' later
   replays of the same conjuncts under that model are memo hits.  With
   the query cache off the check uses a fresh memo.

Layers 1–3 answer without solving: they are *not* counted as solver
work (no ``solver_check`` event, no ``solver`` ledger scope, no
``solver.check_ms`` observation) — they emit ``solver_cache`` events and
``solver.cache_*`` counters instead.

Two nested switches serve the Figure 2 / Table 5 ablations:
``use_query_cache=False`` removes layers 1–3 (and the engine's frame
replay with them); with the cache on, ``use_model_cache=False`` removes
layer 3 and frame replay only.  ``use_intervals`` toggles layer 4.  The
engine's ``--no-solver-cache`` flag maps to ``use_query_cache=False``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from . import terms as T
from .bitblast import BitBlaster
from .cache import QueryCache, Witness
from .interval import Interval, refute_conjunction
from .sat import SAT, UNSAT, SatSolver

__all__ = ["Solver", "SolverStats", "SAT", "UNSAT"]


class SolverStats:
    """Counters for the throughput/ablation benchmarks.

    Stats are *cumulative over the solver's lifetime*; callers that need
    per-run numbers (e.g. one ``Engine.explore``) must snapshot with
    :meth:`as_dict` at the start and diff with :meth:`delta_since`.

    Accounting contract (pinned by ``tests/obs/test_profile.py``):
    ``checks`` counts every :meth:`Solver.check` call; the
    ``cache_hit_*`` / ``cache_model_reuse`` / ``cache_subsumed_unsat``
    counters partition the calls the query-cache layer answered
    (``cache_sat`` is their SAT share: exact SAT hits plus witness
    replays), and ``frame_reuse`` counts engine frame replays, which
    never reach :meth:`Solver.check`.  Cache answers add nothing to
    ``solve_time``, the ``solver`` ledger layer, the ``solver.check_ms``
    histogram or the ``solver_check`` event count — cached hits never
    inflate the solver's measured work.
    """

    def __init__(self):
        self.checks = 0
        self.cache_sat = 0
        self.interval_unsat = 0
        self.sat_calls = 0
        self.sat_results = 0
        self.unsat_results = 0
        self.solve_time = 0.0
        # Query-cache layer (repro.smt.cache).
        self.cache_hit_sat = 0          # exact key hit, SAT + memoized model
        self.cache_hit_unsat = 0        # exact key hit, UNSAT
        self.cache_model_reuse = 0      # pooled witness satisfied a new query
        self.cache_subsumed_unsat = 0   # superset of a known-unsat set
        self.cache_misses = 0           # probed the cache, had to solve
        # Engine-side replay: the pool witness in a state's frame
        # answered a branch feasibility check without a solver call
        # (Solver.note_frame_reuse, driven by repro.core.executor).
        self.frame_reuse = 0

    def as_dict(self) -> Dict[str, float]:
        return dict(self.__dict__)

    def delta_since(self, before: Dict[str, float]) -> Dict[str, float]:
        """Stats accumulated since an earlier :meth:`as_dict` snapshot."""
        return {key: value - before.get(key, 0)
                for key, value in self.__dict__.items()}

    def cache_hits_total(self) -> int:
        """Queries answered by the cache layer (any sub-path)."""
        return (self.cache_hit_sat + self.cache_hit_unsat
                + self.cache_model_reuse + self.cache_subsumed_unsat
                + self.frame_reuse)

    def __repr__(self):
        return "SolverStats(%s)" % ", ".join(
            "%s=%s" % item for item in sorted(self.__dict__.items()))


class Solver:
    """Incremental QF_BV solver (assert / push / pop / check / model)."""

    def __init__(self, use_intervals: bool = True,
                 use_model_cache: bool = True,
                 use_query_cache: bool = True,
                 query_cache_size: int = 2048):
        self.use_intervals = use_intervals
        self.use_model_cache = use_model_cache
        self.use_query_cache = use_query_cache
        self._blaster = BitBlaster(SatSolver())
        self._frames: List[List[T.Term]] = [[]]
        self._last_model: Optional[Dict[str, int]] = None
        # The pool witness behind the last SAT answer (None with the
        # query cache off).
        self._last_witness: Optional[Witness] = None
        # Per-term interval memo for the interval pre-filter (layer 4).
        self._interval_memo: Dict[int, Interval] = {}
        self.query_cache = QueryCache(max_entries=query_cache_size) \
            if use_query_cache else None
        self.stats = SolverStats()
        # Observability (attached by the engine; see repro.obs).
        from ..obs.ledger import Ledger
        from ..obs.metrics import NULL_COUNTER, NULL_HISTOGRAM
        self._obs_tracer = None
        self._ledger = Ledger(enabled=False)
        self._check_hist = NULL_HISTOGRAM
        self._c_cache_hit = NULL_COUNTER
        self._c_cache_model_reuse = NULL_COUNTER
        self._c_cache_subsumed = NULL_COUNTER
        self._c_cache_miss = NULL_COUNTER
        self._c_frame_reuse = NULL_COUNTER

    def attach_obs(self, obs) -> None:
        """Wire an :class:`repro.obs.Obs` handle into this solver.

        Every *solved* query runs under a ``solver`` scope of the cost
        ledger (charged to the engine's current rule/pc/IR context when
        attribution is on) and feeds a ``solver.check_ms`` latency
        histogram and (when the tracer has a sink) one ``solver_check``
        event.  Query-cache answers are counted separately —
        ``solver.cache_hit`` / ``solver.cache_model_reuse`` /
        ``solver.cache_subsumed`` / ``solver.cache_miss`` /
        ``solver.frame_reuse`` counters, a ledger ``cache_hit`` /
        ``cache_miss`` count and one ``solver_cache`` event per hit —
        and deliberately skip the solver scope, histogram and
        ``solver_check`` event so cached hits never inflate measured
        solver work.
        """
        self._obs_tracer = obs.tracer
        self._ledger = obs.ledger
        self._check_hist = obs.metrics.histogram("solver.check_ms")
        metrics = obs.metrics
        self._c_cache_hit = metrics.counter("solver.cache_hit")
        self._c_cache_model_reuse = metrics.counter(
            "solver.cache_model_reuse")
        self._c_cache_subsumed = metrics.counter("solver.cache_subsumed")
        self._c_cache_miss = metrics.counter("solver.cache_miss")
        self._c_frame_reuse = metrics.counter("solver.frame_reuse")

    # -- assertion management -------------------------------------------------

    def add(self, term: T.Term) -> None:
        """Assert a boolean term in the current frame."""
        if term.width != 1:
            raise T.WidthError(
                "assertions must be boolean (width 1), got width %d" % term.width)
        self._frames[-1].append(term)

    def push(self) -> None:
        self._frames.append([])

    def pop(self) -> None:
        if len(self._frames) == 1:
            raise T.SmtError("cannot pop the outermost frame")
        self._frames.pop()

    def assertions(self) -> List[T.Term]:
        return [term for frame in self._frames for term in frame]

    # -- solving ----------------------------------------------------------------

    def check(self, extra: Iterable[T.Term] = ()) -> str:
        """Check satisfiability of the assertions plus ``extra`` terms."""
        self.stats.checks += 1
        extra = list(extra)
        for term in extra:
            if term.width != 1:
                raise T.WidthError("extra constraints must be boolean")
        conds = self.assertions() + extra
        live = key = None  # live stays None when a conjunct is false
        if not any(T.is_false(term) for term in conds):
            live = [term for term in conds if not T.is_true(term)]
            if self.query_cache is not None:
                key = T.query_key(live)
                cached = self._probe_cache(key, live)
                if cached is not None:
                    return cached
                self.stats.cache_misses += 1
                self._c_cache_miss.inc()
                self._ledger.count("cache_miss")
        result, elapsed = self._ledger.timed("solver", self._solve, live)
        self.stats.solve_time += elapsed
        self._check_hist.observe(elapsed * 1000.0)
        if result == SAT:
            self.stats.sat_results += 1
        else:
            self.stats.unsat_results += 1
        if key is not None:
            if result == SAT:
                self._last_witness = self.query_cache.store(
                    key, SAT, self._last_model, self._last_witness)
            else:
                self._last_witness = self.query_cache.store(key, UNSAT)
        tracer = self._obs_tracer
        if tracer is not None and tracer.enabled:
            tracer.emit("solver_check", result=result,
                        ms=round(elapsed * 1000.0, 4))
        return result

    # -- query-cache layer -------------------------------------------------------

    def _probe_cache(self, key, conds: List[T.Term]) -> Optional[str]:
        """Exact hit, unsat subsumption, then witness replay.

        Returns the cached verdict, or None when the query must be
        solved.  Answers here touch none of the solver-work telemetry
        (``solve_time`` / ``solver`` ledger scope / ``solver.check_ms`` /
        ``solver_check`` events); they count under ``cache_*`` stats and
        emit one ``solver_cache`` event instead.
        """
        cache = self.query_cache
        entry = cache.lookup(key)
        if entry is not None:
            if entry.verdict == SAT:
                self.stats.cache_hit_sat += 1
                self.stats.cache_sat += 1
                self._last_model = entry.model
                self._last_witness = cache.witness(entry.model)
            else:
                self.stats.cache_hit_unsat += 1
            self.stats.sat_results += entry.verdict == SAT
            self.stats.unsat_results += entry.verdict == UNSAT
            self._c_cache_hit.inc()
            self._emit_cache_event("exact", entry.verdict)
            return entry.verdict
        if cache.subsumes_unsat(key):
            self.stats.cache_subsumed_unsat += 1
            self.stats.unsat_results += 1
            self._c_cache_subsumed.inc()
            # Promote to an exact entry so the repeat is an O(1) hit.
            cache.store(key, UNSAT)
            self._emit_cache_event("subsume", UNSAT)
            return UNSAT
        if not self.use_model_cache:
            return None
        for witness in cache.witnesses():
            if T.all_true(conds, witness.model, witness.memo):
                self.stats.cache_model_reuse += 1
                self.stats.cache_sat += 1
                self.stats.sat_results += 1
                self._last_model = witness.model
                self._last_witness = witness
                self._c_cache_model_reuse.inc()
                cache.store(key, SAT, witness.model)
                self._emit_cache_event("model", SAT)
                return SAT
        return None

    def _emit_cache_event(self, layer: str, result: str) -> None:
        self._ledger.count("cache_hit")
        tracer = self._obs_tracer
        if tracer is not None and tracer.enabled:
            tracer.emit("solver_cache", layer=layer, result=result)

    def witness(self) -> Optional[Witness]:
        """The pool witness behind the last SAT answer, or None when
        witness replay is off (``use_query_cache`` / ``use_model_cache``).

        The engine seeds a forked state's frame with it, so the
        state's later branch checks replay the same witness (and
        share its memo) before asking :meth:`check`."""
        return self._last_witness if self.use_model_cache else None

    def note_frame_reuse(self) -> None:
        """Record one engine frame replay: the pool witness held by a
        state's frame answered a branch feasibility query, so no solver
        call was made at all (see ``Engine._branch_feasible``)."""
        self.stats.frame_reuse += 1
        self._c_frame_reuse.inc()
        self._emit_cache_event("frame", SAT)

    # -- solving layers: intervals, then bit-blast + CDCL ------------------------

    def _solve(self, conds: Optional[List[T.Term]]) -> str:
        """Decide ``conds`` (constant-true conjuncts already dropped;
        None means a conjunct was constant false)."""
        if conds is None:
            return UNSAT
        if not conds:
            self._last_model = {}
            self._last_witness = None
            return SAT
        if self.use_intervals and refute_conjunction(conds,
                                                     self._interval_memo):
            self.stats.interval_unsat += 1
            return UNSAT
        self.stats.sat_calls += 1
        assumptions = [self._blaster.literal_for(term) for term in conds]
        if self._blaster.sat.solve(assumptions) == UNSAT:
            return UNSAT
        model = self._blaster.extract_model(None)   # from the assignment
        # Internal consistency check: the model must actually satisfy the
        # query (catches bit-blaster bugs immediately).  It evaluates
        # through the memo of the witness the model becomes (pooled by
        # check() only if it passes), so later replays reuse the work.
        witness = self.query_cache.witness(model) \
            if self.query_cache is not None else None
        if not T.all_true(conds, model,
                          witness.memo if witness is not None else None):
            raise T.SmtError("solver produced a model that does not satisfy "
                             "the query; this is a bug in the bit-blaster")
        self._last_model = model
        self._last_witness = witness
        return SAT

    def model(self) -> Dict[str, int]:
        """The model of the last SAT answer (var name -> unsigned int)."""
        if self._last_model is None:
            raise T.SmtError("no model available; call check() first")
        return dict(self._last_model)

    def eval_term(self, term: T.Term) -> int:
        """Evaluate ``term`` under the last model."""
        return T.evaluate(term, self.model())
