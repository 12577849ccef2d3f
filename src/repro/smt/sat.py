"""A CDCL SAT solver.

Implements the standard conflict-driven clause learning loop: two-watched-
literal propagation, first-UIP conflict analysis with learned-clause
minimization, EVSIDS branching, phase saving, and Luby restarts.  Pure
Python, tuned for the clause counts the bit-blaster produces (tens of
thousands of clauses), not for SAT-competition instances.

The CNF persists across calls and grows to thousands of variables, so no
decision and no :meth:`SatSolver.solve` call walks all of it:

* **Decision heap.**  Branching picks the unassigned variable of highest
  activity, lowest index first among ties, from a lazy binary heap of
  ``(-activity, var)`` entries.  A variable gets an entry when it is
  created and each time backtracking unassigns it; bumps only touch
  assigned variables, so an entry whose variable is assigned or whose
  activity has since grown is stale and is skipped when it reaches the
  top.  Every unassigned variable always has an entry carrying its
  current activity, so the heap's best live entry is exactly what a scan
  over all variables would pick.  The activity rescale, and a heap grown
  past four entries per variable, rebuild it from the unassigned
  variables.
* **Unit list.**  Unit clauses are kept in ``_units`` (and in
  ``_clauses``, for export) and replayed at level 0 by each call.

Literal encoding follows DIMACS: variables are positive integers, a negative
integer denotes the negated literal.  Internally literals map to indices
``2*v`` (positive) and ``2*v + 1`` (negative) for array-based watch lists.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = ["SatSolver", "SAT", "UNSAT"]

SAT = "sat"
UNSAT = "unsat"

_UNASSIGNED = -1


def _lit_index(lit: int) -> int:
    return 2 * lit if lit > 0 else -2 * lit + 1


def luby(i: int) -> int:
    """The Luby restart sequence (1-indexed): 1 1 2 1 1 2 4 ..."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class SatSolver:
    """Incremental-ish CDCL solver.

    Clauses persist across :meth:`solve` calls; per-call *assumptions* give
    the incremental interface the SMT layer needs (assert once, query under
    different assumption sets).
    """

    def __init__(self, decay: float = 0.95, restart_base: int = 100):
        self._num_vars = 0
        self._clauses: List[List[int]] = []
        self._units: List[int] = []
        self._learned: List[List[int]] = []
        self._watches: List[List[List[int]]] = [[], []]  # index -> clauses
        self._assign: List[int] = [_UNASSIGNED]          # var -> 0/1
        self._level: List[int] = [0]
        self._reason: List[Optional[List[int]]] = [None]
        self._phase: List[int] = [0]
        self._activity: List[float] = [0.0]
        self._heap: List[tuple] = []   # lazy (-activity, var) decision heap
        self._var_inc = 1.0
        self._decay = decay
        self._restart_base = restart_base
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._queue_head = 0
        self._empty_clause = False
        # Statistics, exposed for the benchmarks.
        self.stats = {"decisions": 0, "propagations": 0, "conflicts": 0,
                      "restarts": 0, "learned": 0}

    # -- construction -------------------------------------------------------

    def new_var(self) -> int:
        self._num_vars += 1
        self._assign.append(_UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._phase.append(0)
        self._activity.append(0.0)
        self._watches.append([])
        self._watches.append([])
        heappush(self._heap, (-0.0, self._num_vars))
        return self._num_vars

    def _ensure_var(self, var: int) -> None:
        while self._num_vars < var:
            self.new_var()

    def add_clause(self, lits: Sequence[int]) -> None:
        """Add a clause (a sequence of DIMACS literals)."""
        seen = set()
        clause: List[int] = []
        for lit in lits:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            clause.append(lit)
            if abs(lit) > self._num_vars:
                self._ensure_var(abs(lit))
        if not clause:
            self._empty_clause = True
            return
        self._clauses.append(clause)
        if len(clause) == 1:
            self._units.append(clause[0])
            return
        if self._root_false(clause[0]) or self._root_false(clause[1]):
            # Literals false at level 0 stay false and are never
            # propagated again, so they must not be watched: move the
            # others to the front.  None left is a contradiction; one
            # left is a unit for the next call to replay.
            live = [lit for lit in clause if not self._root_false(lit)]
            clause[:] = live + [lit for lit in clause
                                if self._root_false(lit)]
            if not live:
                self._empty_clause = True
            elif len(live) == 1:
                self._units.append(live[0])
        self._attach(clause)

    def _root_false(self, lit: int) -> bool:
        var = lit if lit > 0 else -lit
        return self._assign[var] == (lit < 0) and self._level[var] == 0

    def _attach(self, clause: List[int]) -> None:
        self._watches[_lit_index(-clause[0])].append(clause)
        self._watches[_lit_index(-clause[1])].append(clause)

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses)

    # -- assignment helpers --------------------------------------------------

    def _value(self, lit: int) -> int:
        """0 false, 1 true, -1 unassigned."""
        val = self._assign[abs(lit)]
        if val == _UNASSIGNED:
            return _UNASSIGNED
        return val if lit > 0 else 1 - val

    def _enqueue(self, lit: int, reason: Optional[List[int]]) -> bool:
        val = self._value(lit)
        if val == 0:
            return False
        if val == 1:
            return True
        var = abs(lit)
        self._assign[var] = 1 if lit > 0 else 0
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[List[int]]:
        """Unit propagation; returns a conflicting clause or None."""
        # Inlined _value/_lit_index/_enqueue: this is the solver's hot loop.
        # A literal ``l`` is false when its variable's value equals
        # ``l < 0``, and true when it equals ``l > 0`` (an unassigned -1
        # equals neither).
        trail = self._trail
        assign = self._assign
        watches = self._watches
        start = head = self._queue_head
        while head < len(trail):
            lit = trail[head]
            head += 1
            watch_list = watches[2 * lit if lit > 0 else -2 * lit + 1]
            i = 0
            while i < len(watch_list):
                clause = watch_list[i]
                # Make sure the falsified literal is in slot 1.
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                first_val = assign[first] if first > 0 else assign[-first]
                if first_val == (first > 0):
                    i += 1
                    continue
                # Look for a replacement watch.
                for k in range(2, len(clause)):
                    other = clause[k]
                    if (assign[other] if other > 0
                            else assign[-other]) != (other < 0):
                        clause[1], clause[k] = other, clause[1]
                        watches[2 * other + 1 if other > 0
                                else -2 * other].append(clause)
                        watch_list[i] = watch_list[-1]
                        watch_list.pop()
                        break
                else:
                    # Clause is unit or conflicting.
                    if first_val != _UNASSIGNED:
                        self._queue_head = head
                        self.stats["propagations"] += head - start
                        return clause
                    var = first if first > 0 else -first
                    assign[var] = 1 if first > 0 else 0
                    self._level[var] = len(self._trail_lim)
                    self._reason[var] = clause
                    trail.append(first)
                    i += 1
        self._queue_head = head
        self.stats["propagations"] += head - start
        return None

    # -- conflict analysis ---------------------------------------------------

    def _bump(self, var: int) -> None:
        # Only assigned variables are bumped (they sit in the conflict's
        # reasons), so their heap entries are renewed when they are
        # unassigned and no push is needed here.
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        activity = self._activity
        assign = self._assign
        self._heap = [(-activity[v], v) for v in range(1, self._num_vars + 1)
                      if assign[v] == _UNASSIGNED]
        heapify(self._heap)

    def _analyze(self, conflict: List[int]):
        """First-UIP learning; returns (learned clause, backtrack level)."""
        learned: List[int] = [0]  # slot 0 becomes the asserting literal
        seen = [False] * (self._num_vars + 1)
        counter = 0
        lit = None
        reason = conflict
        index = len(self._trail)
        current_level = len(self._trail_lim)
        while True:
            for q in reason:
                if lit is not None and q == lit:
                    continue
                var = abs(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self._level[var] == current_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Walk the trail backwards to the next marked literal.
            while True:
                index -= 1
                lit = self._trail[index]
                if seen[abs(lit)]:
                    break
            counter -= 1
            seen[abs(lit)] = False
            if counter == 0:
                break
            reason = self._reason[abs(lit)]
        learned[0] = -lit
        # Clause minimization: drop literals implied by the rest.
        keep = [learned[0]]
        for q in learned[1:]:
            reason_q = self._reason[abs(q)]
            if reason_q is None:
                keep.append(q)
                continue
            if any(not seen[abs(r)] and self._level[abs(r)] > 0
                   for r in reason_q if abs(r) != abs(q)):
                keep.append(q)
        learned = keep
        if len(learned) == 1:
            back_level = 0
        else:
            # Second-highest decision level in the clause.
            levels = sorted((self._level[abs(q)] for q in learned[1:]),
                            reverse=True)
            back_level = levels[0]
            # Ensure the literal at that level is in slot 1 (watch invariant).
            for k in range(1, len(learned)):
                if self._level[abs(learned[k])] == back_level:
                    learned[1], learned[k] = learned[k], learned[1]
                    break
        return learned, back_level

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        assign = self._assign
        phase = self._phase
        reason = self._reason
        activity = self._activity
        heap = self._heap
        for lit in reversed(self._trail[limit:]):
            var = abs(lit)
            phase[var] = assign[var]
            assign[var] = _UNASSIGNED
            reason[var] = None
            heappush(heap, (-activity[var], var))
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._queue_head = len(self._trail)
        if len(heap) > 4 * self._num_vars:
            self._rebuild_heap()

    def _pick_branch(self) -> int:
        """The unassigned variable of highest activity (lowest index among
        ties), signed by its saved phase; 0 when every variable is set."""
        heap = self._heap
        assign = self._assign
        activity = self._activity
        while heap:
            neg_act, var = heappop(heap)
            if assign[var] == _UNASSIGNED and -neg_act == activity[var]:
                return var if self._phase[var] else -var
        return 0

    # -- main loop -----------------------------------------------------------

    def solve(self, assumptions: Iterable[int] = ()) -> str:
        """Solve under ``assumptions``; returns :data:`SAT` or :data:`UNSAT`."""
        if self._empty_clause:
            return UNSAT
        self._backtrack(0)
        # Replay unit clauses at level 0.
        for lit in self._units:
            if not self._enqueue(lit, None):
                return UNSAT
        if self._propagate() is not None:
            return UNSAT
        assumptions = list(assumptions)
        for lit in assumptions:
            self._ensure_var(abs(lit))
        restart_round = 1
        conflicts_until_restart = self._restart_base * luby(restart_round)
        conflicts_here = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats["conflicts"] += 1
                conflicts_here += 1
                if not self._trail_lim:
                    return UNSAT
                if len(self._trail_lim) <= len(assumptions):
                    # Conflict forced purely by the assumptions.
                    return UNSAT
                learned, back_level = self._analyze(conflict)
                back_level = max(back_level, len(assumptions))
                if back_level >= len(self._trail_lim):
                    back_level = len(self._trail_lim) - 1
                self._backtrack(back_level)
                if len(learned) > 1:
                    self._attach(learned)
                    self._learned.append(learned)
                    self.stats["learned"] += 1
                self._enqueue(learned[0], learned)
                self._var_inc /= self._decay
                continue
            if conflicts_here >= conflicts_until_restart:
                self.stats["restarts"] += 1
                restart_round += 1
                conflicts_until_restart = self._restart_base * luby(restart_round)
                conflicts_here = 0
                self._backtrack(len(assumptions)
                                if len(self._trail_lim) > len(assumptions) else 0)
                continue
            # Apply pending assumptions, one decision level each.
            decision = 0
            if len(self._trail_lim) < len(assumptions):
                lit = assumptions[len(self._trail_lim)]
                val = self._value(lit)
                if val == 0:
                    return UNSAT
                self._trail_lim.append(len(self._trail))
                if val == _UNASSIGNED:
                    self._enqueue(lit, None)
                continue
            decision = self._pick_branch()
            if decision == 0:
                return SAT
            self.stats["decisions"] += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(decision, None)

    def model(self) -> Dict[int, int]:
        """Assignment after a SAT answer: var -> 0/1 (unassigned vars -> 0)."""
        return {var: (self._assign[var] if self._assign[var] != _UNASSIGNED else 0)
                for var in range(1, self._num_vars + 1)}
