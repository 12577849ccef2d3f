"""The retargetable symbolic execution engine.

This is the paper's contribution: a single engine that symbolically
executes *any* ADL-described ISA by interpreting the generated IR over
solver terms.  Nothing in this module is ISA-specific — the ISA enters only
through the :class:`~repro.isa.model.ArchModel` passed to :class:`Engine`.

Execution model
---------------
* The program counter is concrete; conditional branches (IR ``IfStmt`` with
  a symbolic condition) fork the state, indirect jumps (symbolic ``SetPc``)
  are concretized by solver enumeration (up to ``max_fork_targets``).
* Expression-level ``ite`` does not fork; both arms are evaluated and the
  engine tracks the arm guards so checker queries (e.g. division-by-zero)
  are asked *under* the guard — a guarded ``(d == 0) ? safe : x/d`` is not
  a defect.
* Memory addresses are concretized with a bounded-window policy: small
  ranges become ite-chains over every in-range byte, larger ones are
  solver-enumerated and the path constrained to the found values (the
  standard angr-style compromise; enumeration shortfalls are counted in
  the stats, never silent).
* Each decoded instruction carries its field terms and a memo of its
  folded closed subexpressions, shared per term pool (see
  :meth:`Engine._field_terms` and :meth:`Engine._eval`).

Checkers (enabled via :class:`EngineConfig`): division by zero, unmapped
(out-of-bounds) access, write to read-only regions, uninitialized reads in
tracked regions, reachable traps, undecodable instructions.
"""

from __future__ import annotations

import time
import weakref
from typing import Dict, List, Optional, Tuple

from ..ir import interp
from ..ir import nodes as N
from ..isa.decoder import DecodeError
from ..obs import Obs
from ..obs.ledger import ir_kind
from ..smt import SAT, Solver
from ..smt import terms as T
from . import reporting as R
from .memory import MemoryMap, Region, SymMemory
from .state import SymState
from .strategy import (CoverageStrategy, ObservedStrategy, Strategy,
                       make_strategy)

__all__ = ["Engine", "EngineConfig", "EngineError"]


class EngineError(Exception):
    """Engine misuse or an internal invariant violation."""


class EngineConfig:
    """Tunables for exploration, concretization and checking."""

    def __init__(self,
                 max_steps_per_path: int = 4096,
                 max_states: int = 4096,
                 max_paths: Optional[int] = None,
                 max_defects: Optional[int] = None,
                 max_instructions: Optional[int] = None,
                 max_wall_seconds: Optional[float] = None,
                 max_fork_targets: int = 4,
                 max_visits_per_pc: Optional[int] = None,
                 symbolic_read_window: int = 32,
                 max_address_values: int = 4,
                 check_div_zero: bool = True,
                 div_check_respects_guards: bool = False,
                 check_oob: bool = True,
                 check_uninit: bool = False,
                 check_write_protect: bool = True,
                 check_tainted_control: bool = False,
                 merge_states: bool = False,
                 dedup_defects: bool = True,
                 collect_path_inputs: bool = True,
                 collect_coverage: bool = False,
                 cow_memory: bool = True,
                 use_solver_cache: bool = True,
                 compiled_semantics: bool = False,
                 obs: Optional[Obs] = None,
                 health: Optional[object] = None,
                 attr: Optional[object] = None):
        self.max_steps_per_path = max_steps_per_path
        self.max_states = max_states
        self.max_paths = max_paths
        self.max_defects = max_defects
        self.max_instructions = max_instructions
        # Wall-clock deadline for the whole exploration (CLI
        # --max-seconds): checked in _limit_hit between steps, stops
        # with the honest 'deadline' stop reason so unattended/CI runs
        # cannot hang.  None = no deadline.
        self.max_wall_seconds = max_wall_seconds
        self.max_fork_targets = max_fork_targets
        # Loop bound: a single path revisiting one pc more than this many
        # times is pruned (recorded as a 'loop-limit' path). None = off.
        self.max_visits_per_pc = max_visits_per_pc
        self.symbolic_read_window = symbolic_read_window
        self.max_address_values = max_address_values
        self.check_div_zero = check_div_zero
        # Architectural division guards are *inside* the instruction
        # semantics ("(d == 0) ? -1 : a/d" on RISC-V-style ISAs): with this
        # False (the default), the div-zero checker looks through such
        # expression-level guards, because a software division whose divisor
        # can be zero is a defect even though the hardware defines a result.
        # Software guards are branch instructions, which land in the path
        # condition and are always respected.
        self.div_check_respects_guards = div_check_respects_guards
        self.check_oob = check_oob
        self.check_uninit = check_uninit
        self.check_write_protect = check_write_protect
        # Report indirect control transfers whose target depends on
        # program input (the classic "attacker controls pc" detector).
        self.check_tainted_control = check_tainted_control
        # Opportunistic state merging at common pcs (veritesting-lite;
        # see repro.core.merge). Collapses diamond-shaped path explosion
        # into ite-terms at the cost of bigger solver queries.
        self.merge_states = merge_states
        self.dedup_defects = dedup_defects
        self.collect_path_inputs = collect_path_inputs
        self.collect_coverage = collect_coverage
        self.cow_memory = cow_memory
        # Solver caching/replay layer (Table 5 ablation; CLI
        # --no-solver-cache): the default solver's use_query_cache.
        # Off means no exact hits, no subsumption and no witness replay,
        # the engine's per-state frame replay (_branch_feasible)
        # included.
        self.use_solver_cache = use_solver_cache
        # Execute specialized per-instruction transfer functions
        # (repro.compile) instead of walking rule IR per step (CLI
        # --compiled).  Proven observationally equivalent by the
        # differential harness (tests/compile): identical tree/leaf/
        # defect fingerprints on every shipped ISA — which is why this
        # flag is absent from _SERIALIZED_FIELDS and never perturbs
        # run-store identity.
        self.compiled_semantics = compiled_semantics
        # Observability handle (repro.obs).  None means "engine default":
        # enabled counters, no event sink, no ledger — negligible
        # overhead.  Pass Obs.disabled() for a zero-telemetry baseline,
        # or an Obs with sinks/profiling for full tracing.
        self.obs = obs
        # Live health monitor (repro.obs.health).  None = off.  Pass a
        # HealthConfig to attach the periodic sampler + stall/pressure
        # watchdog to the exploration loop.  Sampling is read-only;
        # degradation actions fire only when HealthConfig.actions
        # explicitly opts in.
        self.health = health
        # Rule-level cost attribution (repro.obs.ledger).  None = off.
        # Pass an AttrConfig to have the ledger charge eval/solver time,
        # cache traffic, forks and term allocations to individual ADL
        # rules, IR node kinds and branch sites (CLI --attr; repro hot).
        # Observe-only.
        self.attr = attr

    # Every field that shapes the exploration *outcome* — the run-store
    # key material (repro.runstore).  ``obs``, ``health`` and ``attr``
    # are deliberately absent: observability must never change what a
    # run computes, and serializing live handles makes no sense.
    # ``compiled_semantics`` is likewise absent: compiled and
    # interpreted execution produce bit-identical fingerprints (the
    # differential harness enforces it), so a compiled run answers for
    # an interpreted one in the store and vice versa.
    _SERIALIZED_FIELDS = (
        "max_steps_per_path", "max_states", "max_paths", "max_defects",
        "max_instructions", "max_wall_seconds", "max_fork_targets",
        "max_visits_per_pc", "symbolic_read_window",
        "max_address_values", "check_div_zero",
        "div_check_respects_guards", "check_oob", "check_uninit",
        "check_write_protect", "check_tainted_control", "merge_states",
        "dedup_defects", "collect_path_inputs", "collect_coverage",
        "cow_memory", "use_solver_cache")

    def to_dict(self) -> Dict[str, object]:
        """JSON-able snapshot of every outcome-shaping field."""
        return {name: getattr(self, name)
                for name in self._SERIALIZED_FIELDS}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "EngineConfig":
        """Rebuild a config from :meth:`to_dict` output.  Unknown keys
        are ignored so newer stores replay on older code."""
        known = {key: value for key, value in payload.items()
                 if key in cls._SERIALIZED_FIELDS}
        return cls(**known)


class _Outcome:
    """Control effects accumulated while executing one IR block."""

    __slots__ = ("next_pc", "halted", "exit_code", "trapped", "trap_code")

    def __init__(self):
        self.next_pc: Optional[T.Term] = None
        self.halted = False
        self.exit_code: Optional[T.Term] = None
        self.trapped = False
        self.trap_code: Optional[T.Term] = None


class _PathEnd(Exception):
    """Internal: the current path cannot continue (defect or dead end)."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


class _FieldTerms(dict):
    """A decoded instruction's field-name -> constant term dict, plus
    ``folded``: its memo of closed IR subexpressions (IR node -> term, or
    ``_OPEN`` for a node that is not closed); None when the pool does not
    simplify."""

    __slots__ = ("folded",)


# Memo marker for an IR node that is not closed.
_OPEN = object()

# Term pool -> Decoded -> _FieldTerms; see Engine._field_terms.  Both
# levels are weak, so an entry dies with its pool (cached terms never
# outlive a terms.configure()) or with its decoded instruction (and so
# with a discarded model's decoder).
_FIELD_TERMS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _closed(expr: N.Expr) -> bool:
    """True if ``expr`` depends only on constants, instruction fields and
    the pc, which a decoded instruction fixes, and has no side effect:
    register reads, loads, locals and input are open, and so is a
    division, whose divisor the div-zero checker must see every time."""
    kind = type(expr)
    if kind is N.Const or kind is N.Field or kind is N.Pc:
        return True
    if kind is N.BinOp:
        return (expr.op not in Engine._DIV_OPS and _closed(expr.left)
                and _closed(expr.right))
    if kind is N.UnOp or kind is N.Ext or kind is N.ExtractBits:
        return _closed(expr.operand)
    if kind is N.ConcatBits:
        return _closed(expr.hi_part) and _closed(expr.lo_part)
    if kind is N.IteExpr:
        return (_closed(expr.cond) and _closed(expr.then)
                and _closed(expr.other))
    return False


class _PcContext(interp.MachineContext):
    """The only machine state a closed expression reads: the pc."""

    __slots__ = ("pc",)

    def __init__(self, pc: int):
        self.pc = pc

    def current_pc(self) -> int:
        return self.pc


class Engine:
    """Symbolic executor over a generated :class:`ArchModel`."""

    def __init__(self, model, config: Optional[EngineConfig] = None,
                 solver: Optional[Solver] = None, strategy: str = "dfs",
                 seed: int = 0):
        self.model = model
        self.config = config if config is not None else EngineConfig()
        self.solver = solver if solver is not None else Solver(
            use_query_cache=self.config.use_solver_cache)
        # -- observability wiring (see repro.obs) --------------------------
        self.obs = (self.config.obs if self.config.obs is not None
                    else Obs.default())
        self.obs.set_isa(model.name)
        self.solver.attach_obs(self.obs)
        model.decoder.attach_obs(self.obs)
        self._tracer = self.obs.tracer
        # The cost ledger (repro.obs.ledger) times the layers; with
        # EngineConfig.attr it also charges them to rules / IR node
        # kinds / branch sites.  Observe-only.
        self._ledger = self.obs.ledger
        if self.config.attr is not None:
            self._ledger.attribute(self.config.attr)
        self._ledger_on = self._ledger.enabled
        metrics = self.obs.metrics
        self._c_steps = metrics.counter("engine.steps")
        self._c_forks = metrics.counter("engine.forks")
        self._c_paths = metrics.counter("engine.paths")
        self._c_defects = metrics.counter("engine.defects")
        self._c_pruned = metrics.counter("engine.pruned")
        self.strategy: Strategy = make_strategy(strategy, seed)
        self._coverage_feedback = (self.strategy
                                   if isinstance(self.strategy,
                                                 CoverageStrategy) else None)
        if self.config.merge_states:
            from .merge import MergingFrontier
            self.strategy = MergingFrontier(self.strategy, obs=self.obs)
        # The strategy shim pays a few calls per push/pop; only mount it
        # when a layer that needs it is active (the ledger or tracing —
        # sinks must be attached before the engine is constructed).
        if self._ledger_on or self.obs.tracer.enabled:
            self.strategy = ObservedStrategy(self.strategy, self.obs)
        # Live health monitor (sampler + watchdog; repro.obs.health).
        self.health = None
        if self.config.health is not None:
            from ..obs.health import HealthMonitor
            self.health = HealthMonitor(self.config.health, self.obs)
        self._strategy_name = strategy
        self._strategy_seed = seed
        self._explore_start = 0.0
        self.memory_map = MemoryMap()
        self._base_memory = SymMemory(self.memory_map,
                                      cow=self.config.cow_memory)
        # Address hooks ("SimProcedure"-style): pc -> callable(engine,
        # state) -> Optional[list[SymState]].  See Engine.hook().
        self._hooks: Dict[int, object] = {}
        # User-registered checkers, called before each instruction.
        self._checkers: List[object] = []
        self._entry: Optional[int] = None
        self._result: Optional[R.ExplorationResult] = None
        self._defect_sites: set = set()
        self._endian = model.endian
        self._pc_mask = T.mask(model.pc_width)
        # Specialized transfer functions (repro.compile): plans compiled
        # once per (isa, spec digest) and dispatched per instruction in
        # _exec_block.
        self._compiled = None
        if self.config.compiled_semantics:
            from ..compile import compiled_for
            self._compiled = compiled_for(model)

    # -- setup -------------------------------------------------------------------

    def load_image(self, image, writable: bool = True) -> None:
        """Map an assembled image and take its entry point."""
        self._base_memory.load_image(image.base, bytes(image.data),
                                     name="image", writable=writable)
        self._entry = image.entry

    def add_region(self, start: int, size: int, name: str = "region",
                   writable: bool = True, track_uninit: bool = False) -> Region:
        """Declare additional valid memory (stack, heap, MMIO buffers)."""
        return self.memory_map.add(
            Region(start, size, name, writable, track_uninit))

    def hook(self, address: int, handler) -> None:
        """Replace execution at ``address`` with a Python handler.

        ``handler(engine, state)`` runs instead of the instruction there
        (the angr "SimProcedure" idea: model library calls, summarize
        functions, inject faults).  It may mutate ``state`` and must
        return the list of successor states (returning ``[state]`` to
        continue it, after advancing ``state.pc`` itself), or ``None`` as
        shorthand for "advance past this instruction and continue".
        """
        self._hooks[address] = handler

    def unhook(self, address: int) -> None:
        self._hooks.pop(address, None)

    def add_checker(self, checker) -> None:
        """Register ``checker(engine, state, decoded)`` to run before each
        instruction.  Use :meth:`report` inside it to file defects."""
        self._checkers.append(checker)

    def report(self, state: SymState, kind: str, message: str,
               decoded=None) -> None:
        """File a defect from a hook or custom checker."""
        self._report(state, kind, decoded, message)

    def initial_state(self) -> SymState:
        if self._entry is None:
            raise EngineError("no image loaded; call load_image() first")
        state = SymState(self.model, self._base_memory.fork())
        state.pc = self._entry
        return state

    # -- exploration --------------------------------------------------------------

    def explore(self, state: Optional[SymState] = None) -> R.ExplorationResult:
        """Run exploration to exhaustion or a configured limit.

        Solver stats and telemetry counters attached to the result are
        *per-exploration deltas*: exploring twice on one engine reports
        each run's own numbers, not cumulative ones.
        """
        result = R.ExplorationResult()
        self._result = result
        self._defect_sites = set()
        solver_before = self.solver.stats.as_dict()
        obs_before = self.obs.mark()
        start_time = time.perf_counter()
        self._explore_start = start_time
        monitor = self.health
        if monitor is not None:
            monitor.begin(self, result)
        self.strategy.push(state if state is not None else
                           self.initial_state())
        try:
            while self.strategy:
                if self._limit_hit(result):
                    break
                if monitor is not None:
                    diagnoses = monitor.tick()
                    if diagnoses and not self._apply_health_actions(
                            diagnoses, result):
                        break
                current = self.strategy.pop()
                for successor in self._step(current, result):
                    if len(self.strategy) >= self.config.max_states:
                        result.states_pruned += 1
                        self._c_pruned.inc()
                        self._dead_end(successor, "max-states")
                        continue
                    self.strategy.push(successor)
        finally:
            result.wall_time = time.perf_counter() - start_time
            result.solver_stats = self.solver.stats.delta_since(
                solver_before)
            telemetry = self.obs.snapshot(since=obs_before)
            telemetry["solver"] = dict(result.solver_stats)
            telemetry["wall_time"] = result.wall_time
            if monitor is not None:
                telemetry["health"] = monitor.finish()
            if self.config.attr is not None:
                telemetry["attr"] = self._ledger.attr_snapshot(
                    obs_before["ledger"], self.model)
            result.telemetry = telemetry
            self._result = None
        return result

    def _limit_hit(self, result: R.ExplorationResult) -> bool:
        cfg = self.config
        if cfg.max_paths is not None and len(result.paths) >= cfg.max_paths:
            result.stop_reason = "max-paths"
            return True
        if (cfg.max_defects is not None
                and len(result.defects) >= cfg.max_defects):
            result.stop_reason = "max-defects"
            return True
        if (cfg.max_instructions is not None
                and result.instructions_executed >= cfg.max_instructions):
            result.stop_reason = "max-instructions"
            return True
        if (cfg.max_wall_seconds is not None
                and time.perf_counter() - self._explore_start
                >= cfg.max_wall_seconds):
            result.stop_reason = "deadline"
            return True
        return False

    # -- health-monitor degradation actions (opt-in; repro.obs.health) -----------

    def _apply_health_actions(self, diagnoses,
                              result: R.ExplorationResult) -> bool:
        """Act on watchdog diagnoses; False stops the exploration.

        Only diagnoses whose configured action is not ``"none"`` do
        anything — the watchdog is observe-only by default, so a
        monitored run explores exactly the same tree as an unmonitored
        one unless the operator explicitly opted into degradation.
        """
        for diagnosis in diagnoses:
            action = diagnosis.get("action", "none")
            if action == "stop":
                result.stop_reason = "pressure"
                return False
            if action == "merge":
                self._force_merge_pass(result)
            elif action == "switch":
                self._switch_strategy(
                    self.config.health.switch_strategy)
        return True

    def _force_merge_pass(self, result: R.ExplorationResult) -> int:
        """Drain the frontier and merge structurally compatible states
        parked at the same pc (graceful degradation under frontier
        pressure).  Returns the number of merges performed."""
        from .merge import try_merge
        drained: List[SymState] = []
        while self.strategy:
            drained.append(self.strategy.pop())
        survivors: List[SymState] = []
        buckets: Dict[int, List[int]] = {}
        merges = 0
        tracer = self._tracer
        for state in drained:
            merged_index = None
            for index in buckets.get(state.pc, ()):
                merged = try_merge(survivors[index], state)
                if merged is None:
                    continue
                if tracer.enabled:
                    tracer.emit("merge", state_id=merged.state_id,
                                pc=merged.pc,
                                merged_from=[survivors[index].state_id,
                                             state.state_id],
                                duplicate=merged is survivors[index],
                                forced=True)
                survivors[index] = merged
                merged_index = index
                merges += 1
                break
            if merged_index is None:
                buckets.setdefault(state.pc, []).append(len(survivors))
                survivors.append(state)
        # Pops drained newest-first; push back reversed so a stack
        # frontier keeps roughly its old scheduling order.
        for state in reversed(survivors):
            self.strategy.push(state)
        if merges:
            self.obs.metrics.counter("engine.merges").inc(merges)
        return merges

    def _switch_strategy(self, name: str) -> None:
        """Swap the frontier for a fresh strategy (graceful degradation:
        e.g. leave a depth-stuck DFS for BFS).  Pending states carry
        over; wrappers (merging, observability) are re-applied."""
        drained: List[SymState] = []
        while self.strategy:
            drained.append(self.strategy.pop())
        fresh = make_strategy(name, self._strategy_seed)
        self._coverage_feedback = (fresh if isinstance(
            fresh, CoverageStrategy) else None)
        if self.config.merge_states:
            from .merge import MergingFrontier
            fresh = MergingFrontier(fresh, obs=self.obs)
        if self._ledger_on or self.obs.tracer.enabled:
            fresh = ObservedStrategy(fresh, self.obs)
        self.strategy = fresh
        for state in drained:
            self.strategy.push(state)
        self._strategy_name = name

    # -- single step -----------------------------------------------------------------

    def _step(self, state: SymState,
              result: R.ExplorationResult) -> List[SymState]:
        """Execute one instruction of ``state``; returns live successors."""
        self._c_steps.inc()
        tracer = self._tracer
        if tracer.enabled:
            tracer.set_context(state.state_id, state.pc)
        if self._coverage_feedback is not None:
            self._coverage_feedback.visit(state.pc)
        if self.config.collect_coverage:
            result.visited_pcs.add(state.pc)
        if self.config.max_visits_per_pc is not None:
            visits = state.visit_counts.get(state.pc, 0) + 1
            if visits > self.config.max_visits_per_pc:
                self._end_path(state, "loop-limit", result)
                result.states_pruned += 1
                self._c_pruned.inc()
                return []
            state.visit_counts[state.pc] = visits
        hook = self._hooks.get(state.pc)
        if hook is not None:
            result.instructions_executed += 1
            successors = hook(self, state)
            if successors is None:
                try:
                    decoded = self._fetch(state)
                except _PathEnd as dead:
                    self._dead_end(state, dead.reason)
                    return []
                state.pc = (state.pc + decoded.length) & self._pc_mask
                return [state]
            return list(successors)
        try:
            decoded = self._fetch(state)
        except _PathEnd as dead:
            self._dead_end(state, dead.reason)
            return []
        for checker in self._checkers:
            checker(self, state, decoded)
        result.instructions_executed += 1
        cond_base = len(state.path_condition) if tracer.enabled else 0
        if tracer.enabled:
            tracer.emit("step", state_id=state.state_id, pc=state.pc,
                        instr=decoded.instruction.name)
        try:
            if self._ledger_on:
                finished = self._exec_accounted(state, decoded)
            else:
                finished = self._exec_block(state, decoded)
        except _PathEnd as dead:
            self._dead_end(state, dead.reason)
            return []
        successors: List[SymState] = []
        for sub_state, outcome in finished:
            sub_state.steps += 1
            if outcome.trapped:
                self._report(sub_state, R.TRAP, decoded,
                             "trap instruction reached")
                self._dead_end(sub_state, "trap")
                continue
            if outcome.halted:
                self._finish_path(sub_state, outcome, result)
                continue
            if sub_state.steps >= self.config.max_steps_per_path:
                self._end_path(sub_state, "depth-limit", result)
                continue
            successors.extend(
                self._advance_pc(sub_state, outcome, decoded, result))
        if len(finished) > 1:
            forked = len(finished) - 1
            result.states_forked += forked
            self._c_forks.inc(forked)
            if self._ledger_on:
                self._ledger.count("fork", forked)
            if tracer.enabled:
                tracer.emit("fork", state_id=state.state_id, pc=state.pc,
                            children=[sub.state_id
                                      for sub, _ in finished],
                            conds=[self._edge_cond(sub, cond_base)
                                   for sub, _ in finished])
        return successors

    def _exec_accounted(self, state: SymState, decoded):
        """:meth:`_exec_block` under the ledger's ``eval`` scope, charged
        to the instruction's rule and pc.  On a *deep* (sampled)
        attribution step ``self._eval`` is shadowed by a wrapper that
        opens one IR-node scope per expression: every ``self._eval``
        call site, including the recursive ones inside :meth:`_eval`,
        resolves through the instance attribute, so the whole tree is
        probed without a second evaluator."""
        ledger = self._ledger
        deep = ledger.begin_step(decoded.instruction.name, state.pc)
        if deep:
            engine, base = self, Engine._eval

            def probed(state, expr, fields, local_values, guards, decoded):
                ledger.enter("eval", ir_kind(expr))
                try:
                    return base(engine, state, expr, fields, local_values,
                                guards, decoded)
                finally:
                    ledger.exit()

            self.__dict__["_eval"] = probed
        ledger.enter("eval")
        try:
            return self._exec_block(state, decoded)
        finally:
            elapsed = ledger.exit()
            if deep:
                del self.__dict__["_eval"]
                ledger.end_deep_step(elapsed)

    #: Rendered branch-condition summaries on fork events are truncated
    #: to this many characters (flight-recorder edge labels, not proofs).
    COND_SUMMARY_LIMIT = 96

    def _edge_cond(self, state: SymState, base_len: int) -> str:
        """Short rendering of the path conditions ``state`` gained during
        the current instruction — the per-edge branch-condition summary
        carried by ``fork`` events for the flight recorder."""
        extra = state.path_condition[base_len:]
        if not extra:
            return ""
        text = " && ".join(T.render(cond, max_depth=4) for cond in extra)
        if len(text) > self.COND_SUMMARY_LIMIT:
            text = text[:self.COND_SUMMARY_LIMIT - 3] + "..."
        return text

    def _dead_end(self, state: SymState, reason: str) -> None:
        """A state died without finishing a path (defect kill, dead end).

        Emits a ``prune`` event so the flight recorder can close the
        node instead of leaving it dangling as live.  Carries the fork
        parent when known: a branch that dies inside ``_fork_if`` never
        appears in a ``fork`` event (only survivors do), so this is the
        recorder's only chance to attach it to the tree."""
        if self._tracer.enabled:
            data = {"reason": reason}
            if state.parent_id is not None:
                data["parent"] = state.parent_id
            self._tracer.emit("prune", state_id=state.state_id,
                              pc=state.pc, **data)

    def _fetch(self, state: SymState):
        decoder = self.model.decoder
        if self._ledger_on:
            with self._ledger.scope("decode"):
                decoded = self._fetch_inner(state, decoder)
        else:
            decoded = self._fetch_inner(state, decoder)
        if self._tracer.enabled:
            self._tracer.emit("decode_cache", state_id=state.state_id,
                              pc=state.pc, hit=decoder.last_cache_hit,
                              instr=decoded.instruction.name)
        return decoded

    def _fetch_inner(self, state: SymState, decoder):
        window = state.memory.concrete_window(
            state.pc, decoder.max_length)
        if window is None:
            self._report(state, R.INVALID_INSTRUCTION, None,
                         "symbolic bytes in instruction stream")
            raise _PathEnd("symbolic-code")
        try:
            return decoder.decode_bytes(window, state.pc)
        except DecodeError:
            self._report(state, R.INVALID_INSTRUCTION, None,
                         "undecodable instruction")
            raise _PathEnd("decode-error")

    def _finish_path(self, state: SymState, outcome: _Outcome,
                     result: R.ExplorationResult) -> None:
        exit_code = None
        if outcome.exit_code is not None and outcome.exit_code.is_const():
            exit_code = outcome.exit_code.value
        self._end_path(state, "halted", result, exit_code)

    def _end_path(self, state: SymState, status: str,
                  result: R.ExplorationResult,
                  exit_code: Optional[int] = None) -> None:
        """Record one finished path (all PathResult creation funnels
        through here so the ``path_end`` event cannot drift from the
        result list — the acceptance invariant paths == path_end)."""
        result.paths.append(R.PathResult(
            status, state, self._path_input(state), exit_code))
        self._c_paths.inc()
        if self._tracer.enabled:
            data = {"status": status}
            if exit_code is not None:
                data["exit_code"] = exit_code
            self._tracer.emit("path_end", state_id=state.state_id,
                              pc=state.pc, **data)

    def _path_input(self, state: SymState) -> bytes:
        if not self.config.collect_path_inputs:
            return b""
        if not state.path_condition:
            return bytes(len(state.input_vars))
        if self.solver.check(extra=state.path_condition) != SAT:
            return b""
        return state.input_bytes_from_model(self.solver.model())

    def _advance_pc(self, state: SymState, outcome: _Outcome, decoded,
                    result: R.ExplorationResult) -> List[SymState]:
        if outcome.next_pc is None:
            state.pc = (state.pc + decoded.length) & self._pc_mask
            return [state]
        target = outcome.next_pc
        if target.is_const():
            state.pc = target.value
            return [state]
        if self.config.check_tainted_control and any(
                name.startswith("in_") for name in T.variables(target)):
            self._report(state, R.TAINTED_CONTROL, decoded,
                         "jump target depends on program input")
        # Indirect jump with a symbolic target: enumerate feasible values.
        values = self._enumerate(state, target, (),
                                 self.config.max_fork_targets)
        if not values:
            return []
        successors = []
        cond_base = len(state.path_condition)
        for value in values:
            branch = state if len(values) == 1 else state.fork()
            branch.assume(T.eq(target, T.bv(value, target.width)))
            branch.pc = value
            successors.append(branch)
        if len(successors) > 1:
            forked = len(successors) - 1
            result.states_forked += forked
            self._c_forks.inc(forked)
            if self._ledger_on:
                self._ledger.count("fork", forked)
            if self._tracer.enabled:
                self._tracer.emit("fork", state_id=state.state_id,
                                  pc=state.pc, indirect=True,
                                  children=[s.state_id
                                            for s in successors],
                                  conds=[self._edge_cond(s, cond_base)
                                         for s in successors])
        return successors

    # -- block execution (with forking on symbolic conditions) ----------------------

    def _exec_block(self, state: SymState,
                    decoded) -> List[Tuple[SymState, _Outcome]]:
        if self._compiled is not None and not self._ledger.deep:
            # Specialized path: pre-compiled plan, cached field terms.
            # Deep attribution steps fall back to the interpreted walk
            # so the per-IR-kind scopes (`repro hot`) still see every
            # node — accounting is observe-only and forces identical
            # evaluation order, so fingerprints cannot shift.
            from ..compile import symbolic as _compiled_sym
            plan = self._compiled.plans[decoded.instruction.name]
            return _compiled_sym.exec_block(self, state, decoded, plan)
        fields = self._field_terms(decoded)
        frames = [(decoded.instruction.semantics, 0)]
        return self._run_frames(state, frames, {}, _Outcome(), fields,
                                decoded)

    def _field_terms(self, decoded) -> "_FieldTerms":
        """The field-name -> constant term dict of one decoded
        instruction, for both the interpreted and the compiled path;
        callers must not mutate it.  When the active pool simplifies, it
        carries the memo of folded closed subexpressions (see
        :meth:`_eval`).

        Everything in it is fixed by the decoded instruction (its
        fields and address), so it is kept per term pool and shared by
        every engine on the same decoder, whose cache returns one
        :class:`Decoded` per address and bytes."""
        pool = T.get_pool()
        by_decoded = _FIELD_TERMS.get(pool)
        if by_decoded is None:
            by_decoded = _FIELD_TERMS[pool] = weakref.WeakKeyDictionary()
        terms = by_decoded.get(decoded)
        if terms is None:
            terms = _FieldTerms(
                (name, T.bv(value, self._field_width(decoded, name)))
                for name, value in decoded.fields.items())
            terms.folded = {} if pool.simplify else None
            by_decoded[decoded] = terms
        return terms

    def _field_width(self, decoded, name: str) -> int:
        operand = decoded.instruction.operands.get(name)
        if operand is not None:
            return operand.width
        return decoded.instruction.encoding.field(name).width

    def _run_frames(self, state, frames, local_values, outcome, fields,
                    decoded) -> List[Tuple[SymState, _Outcome]]:
        """Execute a continuation stack of (stmts, index) frames.

        The innermost block runs off the stack; an ``if`` pushes the
        block's continuation back before it enters a body or forks, so
        a fork copies the frames still to run."""
        while frames:
            stmts, index = frames.pop()
            while index < len(stmts):
                stmt = stmts[index]
                index += 1
                kind = type(stmt)
                if kind is N.IfStmt:
                    cond = self._eval(state, stmt.cond, fields, local_values,
                                      (), decoded)
                    frames.append((stmts, index))
                    if not cond.is_const():
                        return self._fork_if(state, stmt, cond, frames,
                                             local_values, outcome, fields,
                                             decoded)
                    body = stmt.then_body if cond.value == 1 else \
                        stmt.else_body
                    if body:
                        frames.append((body, 0))
                    break
                handler = self._EXEC.get(kind)
                if handler is None:
                    raise EngineError("unknown IR statement %r" % (stmt,))
                if handler(self, state, stmt, outcome, fields, local_values,
                           decoded):
                    return [(state, outcome)]
        return [(state, outcome)]

    def _branch_feasible(self, state: SymState, branch_cond: T.Term):
        """Feasibility of ``state.path_condition ∧ branch_cond``.

        Returns ``(verdict, witness)``: on SAT, the query cache's pool
        witness that proved it (None when the solver's witness replay
        is off); ``(verdict, None)`` otherwise.

        Frame replay runs first: a state's ``frame`` holds the witness
        that proved its last branch plus a watermark of how many
        path-condition conjuncts it has been validated against.  A
        branch check then only evaluates the *unvalidated suffix* and
        the branch condition under that witness — no solver call, no
        query key, no re-blasting of the shared prefix.  Because a
        model is total (unassigned variables evaluate as 0), exactly one
        of ``c`` / ``¬c`` is true under it, so at most one sibling per
        fork falls through to the solver.  Sound by construction: the
        fast path only ever answers SAT, with an explicit witness.
        """
        frame = state.frame
        if frame is not None:
            witness, checked = frame
            model, memo = witness.model, witness.memo
            path = state.path_condition
            if checked < len(path):
                if T.all_true(path[checked:], model, memo):
                    state.frame = (witness, len(path))
                else:
                    # A newer conjunct falsified the witness; drop the
                    # frame (replace, never mutate: forks share it).
                    state.frame = witness = None
            if witness is not None and T.all_true((branch_cond,), model,
                                                  memo):
                self.solver.note_frame_reuse()
                return SAT, witness
        verdict = self.solver.check(
            extra=state.path_condition + [branch_cond])
        if verdict != SAT:
            return verdict, None
        return SAT, self.solver.witness()

    def _fork_branches(self, state: SymState, cond: T.Term,
                       then_body, else_body):
        """Yield ``(branch_state, body)`` for each feasible side of a
        symbolic ``if``, then-side first (interpreted ``_fork_if`` and
        compiled ``repro.compile.symbolic._fork`` alike).

        The last side continues in ``state`` itself, so callers must
        finish each yielded branch before resuming the generator.  A
        branch's frame is seeded with the witness that proved it: that
        witness satisfies the extended path condition, so the child's
        next branch check starts validated.
        """
        feasible = []
        # On a deep attribution step the feasibility probes run under a
        # synthetic IfStmt scope, so their solver time shows up as
        # isa;rule;IfStmt;solver in the flamegraph (branch blame).
        # Compiled plans never see deep steps (_exec_block interprets).
        probe = self._ledger.deep
        if probe:
            self._ledger.enter("eval", "IfStmt")
        try:
            for branch_cond, body in ((cond, then_body),
                                      (T.not_(cond), else_body)):
                verdict, witness = self._branch_feasible(state, branch_cond)
                if verdict == SAT:
                    feasible.append((branch_cond, body, witness))
        finally:
            if probe:
                self._ledger.exit()
        last = len(feasible) - 1
        for position, (branch_cond, body, witness) in enumerate(feasible):
            branch_state = state if position == last else state.fork()
            branch_state.assume(branch_cond)
            if witness is not None:
                branch_state.frame = (witness,
                                      len(branch_state.path_condition))
            yield branch_state, body

    def _fork_if(self, state, stmt, cond, frames, local_values, outcome,
                 fields, decoded) -> List[Tuple[SymState, _Outcome]]:
        results: List[Tuple[SymState, _Outcome]] = []
        for branch_state, body in self._fork_branches(
                state, cond, stmt.then_body, stmt.else_body):
            branch_frames = [(stmts, idx) for stmts, idx in frames]
            if body:
                branch_frames.append((tuple(body), 0))
            branch_outcome = _Outcome()
            for slot in _Outcome.__slots__:
                setattr(branch_outcome, slot, getattr(outcome, slot))
            branch_locals = dict(local_values)
            try:
                results.extend(self._run_frames(
                    branch_state, branch_frames, branch_locals,
                    branch_outcome, fields, decoded))
            except _PathEnd as dead:
                # This branch died (e.g. OOB store); siblings continue.
                self._dead_end(branch_state, dead.reason)
                continue
        return results

    # Non-branching statements, dispatched on their type by _run_frames;
    # each returns True when it terminates the block.

    def _exec_set_local(self, state, stmt, outcome, fields, local_values,
                        decoded) -> bool:
        if isinstance(stmt.value, N.InputByte):
            local_values[stmt.name] = state.next_input()
        else:
            local_values[stmt.name] = self._eval(
                state, stmt.value, fields, local_values, (), decoded)
        return False

    def _exec_set_reg(self, state, stmt, outcome, fields, local_values,
                      decoded) -> bool:
        if isinstance(stmt.value, N.InputByte):
            value = state.next_input()
        else:
            value = self._eval(state, stmt.value, fields, local_values,
                               (), decoded)
        index = None
        if stmt.index is not None:
            index_term = self._eval(state, stmt.index, fields,
                                    local_values, (), decoded)
            index = self._concrete_index(state, index_term, decoded)
        state.write_reg(stmt.regfile, index, value)
        return False

    def _exec_set_pc(self, state, stmt, outcome, fields, local_values,
                     decoded) -> bool:
        outcome.next_pc = self._eval(state, stmt.value, fields,
                                     local_values, (), decoded)
        return False

    def _exec_store(self, state, stmt, outcome, fields, local_values,
                    decoded) -> bool:
        addr = self._eval(state, stmt.addr, fields, local_values, (),
                          decoded)
        value = self._eval(state, stmt.value, fields, local_values, (),
                           decoded)
        self._store(state, addr, value, stmt.size, decoded)
        return False

    def _exec_output(self, state, stmt, outcome, fields, local_values,
                     decoded) -> bool:
        state.output.append(self._eval(state, stmt.value, fields,
                                       local_values, (), decoded))
        return False

    def _exec_halt(self, state, stmt, outcome, fields, local_values,
                   decoded) -> bool:
        outcome.halted = True
        outcome.exit_code = self._eval(state, stmt.code, fields,
                                       local_values, (), decoded)
        return True

    def _exec_trap(self, state, stmt, outcome, fields, local_values,
                   decoded) -> bool:
        outcome.trapped = True
        outcome.trap_code = self._eval(state, stmt.code, fields,
                                       local_values, (), decoded)
        return True

    _EXEC = {
        N.SetLocal: _exec_set_local, N.SetReg: _exec_set_reg,
        N.SetPc: _exec_set_pc, N.Store: _exec_store,
        N.Output: _exec_output, N.Halt: _exec_halt, N.Trap: _exec_trap,
    }

    # -- expression evaluation ------------------------------------------------------

    _BINOP_BUILDERS = {
        "add": T.add, "sub": T.sub, "mul": T.mul,
        "udiv": T.udiv, "urem": T.urem, "sdiv": T.sdiv, "srem": T.srem,
        "and": T.and_, "or": T.or_, "xor": T.xor,
        "shl": T.shl, "lshr": T.lshr, "ashr": T.ashr,
        "eq": T.eq, "ne": T.ne, "ult": T.ult, "ule": T.ule,
        "ugt": T.ugt, "uge": T.uge, "slt": T.slt, "sle": T.sle,
        "sgt": T.sgt, "sge": T.sge,
    }

    _UNOP_BUILDERS = {"not": T.not_, "neg": T.neg, "boolnot": T.not_}

    _DIV_OPS = frozenset({"udiv", "urem", "sdiv", "srem"})

    def _eval(self, state: SymState, expr: N.Expr, fields, local_values,
              guards: Tuple[T.Term, ...], decoded) -> T.Term:
        """Evaluate one IR expression to a term.

        When the pool simplifies, a *closed* subexpression (see
        :func:`_closed`: built from constants, fields and the pc only) is
        evaluated once per decoded instruction on Python ints by the
        reference interpreter and interned as one constant; the memo
        (``fields.folded``) then answers it.  The simplifying term
        constructors would fold it to that same constant, and constants
        are ordered after every other operand, so only constant terms
        stop being created.  Other nodes dispatch on their type.
        """
        folded = fields.folded
        if folded is not None:
            term = folded.get(expr)
            if term is None:
                if _closed(expr):
                    term = T.bv(interp.eval_expr(
                        expr, _PcContext(decoded.address), decoded.fields,
                        {}), expr.width)
                    folded[expr] = term
                    return term
                folded[expr] = _OPEN
            elif term is not _OPEN:
                return term
        handler = self._EVAL.get(type(expr))
        if handler is None:
            raise EngineError("unknown IR expression %r" % (expr,))
        return handler(self, state, expr, fields, local_values, guards,
                       decoded)

    def _eval_const(self, state, expr, fields, local_values, guards,
                    decoded) -> T.Term:
        return T.bv(expr.value, expr.width)

    def _eval_field(self, state, expr, fields, local_values, guards,
                    decoded) -> T.Term:
        return fields[expr.name]

    def _eval_local(self, state, expr, fields, local_values, guards,
                    decoded) -> T.Term:
        return local_values[expr.name]

    def _eval_pc(self, state, expr, fields, local_values, guards,
                 decoded) -> T.Term:
        return T.bv(state.pc, expr.width)

    def _eval_read_reg(self, state, expr, fields, local_values, guards,
                       decoded) -> T.Term:
        index = None
        if expr.index is not None:
            index_term = self._eval(state, expr.index, fields,
                                    local_values, guards, decoded)
            index = self._concrete_index(state, index_term, decoded)
        return state.read_reg(expr.regfile, index)

    def _eval_load(self, state, expr, fields, local_values, guards,
                   decoded) -> T.Term:
        addr = self._eval(state, expr.addr, fields, local_values,
                          guards, decoded)
        return self._load(state, addr, expr.size, guards, decoded)

    def _eval_binop(self, state, expr, fields, local_values, guards,
                    decoded) -> T.Term:
        left = self._eval(state, expr.left, fields, local_values,
                          guards, decoded)
        right = self._eval(state, expr.right, fields, local_values,
                           guards, decoded)
        if expr.op in self._DIV_OPS and self.config.check_div_zero:
            self._check_div(state, right, guards, decoded)
        return self._BINOP_BUILDERS[expr.op](left, right)

    def _eval_unop(self, state, expr, fields, local_values, guards,
                   decoded) -> T.Term:
        operand = self._eval(state, expr.operand, fields, local_values,
                             guards, decoded)
        builder = self._UNOP_BUILDERS.get(expr.op)
        if builder is None:
            raise EngineError("unknown unary op %r" % expr.op)
        return builder(operand)

    def _eval_ext(self, state, expr, fields, local_values, guards,
                  decoded) -> T.Term:
        operand = self._eval(state, expr.operand, fields, local_values,
                             guards, decoded)
        extra = expr.width - operand.width
        return T.zext(operand, extra) if expr.kind == "zext" else \
            T.sext(operand, extra)

    def _eval_extract(self, state, expr, fields, local_values, guards,
                      decoded) -> T.Term:
        operand = self._eval(state, expr.operand, fields, local_values,
                             guards, decoded)
        return T.extract(operand, expr.hi, expr.lo)

    def _eval_concat(self, state, expr, fields, local_values, guards,
                     decoded) -> T.Term:
        hi_part = self._eval(state, expr.hi_part, fields, local_values,
                             guards, decoded)
        lo_part = self._eval(state, expr.lo_part, fields, local_values,
                             guards, decoded)
        return T.concat(hi_part, lo_part)

    def _eval_ite(self, state, expr, fields, local_values, guards,
                  decoded) -> T.Term:
        cond = self._eval(state, expr.cond, fields, local_values,
                          guards, decoded)
        if cond.is_const():
            chosen = expr.then if cond.value == 1 else expr.other
            return self._eval(state, chosen, fields, local_values,
                              guards, decoded)
        then = self._eval(state, expr.then, fields, local_values,
                          guards + (cond,), decoded)
        other = self._eval(state, expr.other, fields, local_values,
                           guards + (T.not_(cond),), decoded)
        return T.ite(cond, then, other)

    def _eval_input(self, state, expr, fields, local_values, guards,
                    decoded) -> T.Term:
        raise EngineError(
            "in() must be a whole right-hand side (translator bug)")

    _EVAL = {
        N.Const: _eval_const, N.Field: _eval_field, N.Local: _eval_local,
        N.Pc: _eval_pc, N.ReadReg: _eval_read_reg, N.Load: _eval_load,
        N.BinOp: _eval_binop, N.UnOp: _eval_unop, N.Ext: _eval_ext,
        N.ExtractBits: _eval_extract, N.ConcatBits: _eval_concat,
        N.IteExpr: _eval_ite, N.InputByte: _eval_input,
    }

    # -- checkers --------------------------------------------------------------------

    def _check_div(self, state: SymState, divisor: T.Term, guards,
                   decoded) -> None:
        zero = T.bv(0, divisor.width)
        cond = T.eq(divisor, zero)
        if T.is_false(cond):
            return
        site = (R.DIV_BY_ZERO, state.pc)
        if self.config.dedup_defects and site in self._defect_sites:
            return
        query = state.path_condition + [cond]
        if self.config.div_check_respects_guards:
            query = state.path_condition + list(guards) + [cond]
        if self.solver.check(extra=query) == SAT:
            self._report(state, R.DIV_BY_ZERO, decoded,
                         "divisor can be zero",
                         model=self.solver.model())

    def _check_mapped(self, state: SymState, addr: T.Term, guards,
                      decoded, writing: bool) -> bool:
        """OOB / write-protect checks; False ends the path."""
        if not self.config.check_oob:
            return True
        if addr.is_const():
            region = self.memory_map.region_for(addr.value)
            if region is None:
                self._report(state, R.OOB_ACCESS, decoded,
                             "access to unmapped address %#x" % addr.value)
                return False
            if writing and not region.writable and \
                    self.config.check_write_protect:
                self._report(state, R.WRITE_TO_CODE, decoded,
                             "write to read-only region %r at %#x"
                             % (region.name, addr.value))
                return False
            return True
        inside = self.memory_map.membership_term(addr)
        outside = T.not_(inside)
        site = (R.OOB_ACCESS, state.pc)
        skip_report = self.config.dedup_defects and site in self._defect_sites
        if not skip_report and self.solver.check(
                extra=state.path_condition + list(guards) + [outside]) == SAT:
            model = self.solver.model()
            bad_addr = T.evaluate(addr, model)
            self._report(state, R.OOB_ACCESS, decoded,
                         "access can reach unmapped address %#x" % bad_addr,
                         model=model)
        # Constrain to mapped memory and continue if possible.
        state.assume(inside)
        return self.solver.check(extra=state.path_condition) == SAT

    def _report(self, state: SymState, kind: str, decoded, message: str,
                model: Optional[Dict[str, int]] = None) -> None:
        result = self._result
        if result is None:
            return
        site = (kind, state.pc)
        if self.config.dedup_defects and site in self._defect_sites:
            return
        self._defect_sites.add(site)
        if model is None:
            if state.path_condition and self.solver.check(
                    extra=state.path_condition) != SAT:
                return  # path infeasible after all; drop silently
            model = self.solver.model() if state.path_condition else {}
        instruction = decoded.instruction.name if decoded else "?"
        result.defects.append(R.Defect(
            kind, state.pc, instruction, message,
            state.input_bytes_from_model(model), model,
            state.state_id, state.steps))
        self._c_defects.inc()
        if self._tracer.enabled:
            self._tracer.emit("defect", state_id=state.state_id,
                              pc=state.pc, defect_kind=kind,
                              instr=instruction, message=message)

    # -- memory access with concretization ----------------------------------------------

    def _load(self, state: SymState, addr: T.Term, size: int, guards,
              decoded) -> T.Term:
        if self._ledger_on:
            with self._ledger.scope("memory"):
                return self._load_inner(state, addr, size, guards, decoded)
        return self._load_inner(state, addr, size, guards, decoded)

    def _load_inner(self, state: SymState, addr: T.Term, size: int, guards,
                    decoded) -> T.Term:
        if not self._check_mapped(state, addr, guards, decoded,
                                  writing=False):
            raise _PathEnd("oob-load")
        if addr.is_const():
            self._check_uninit(state, addr.value, size, decoded)
            return state.memory.read(addr.value, size, self._endian)
        values = self._resolve_address(state, addr, guards)
        if not values:
            raise _PathEnd("no-feasible-address")
        result = state.memory.read(values[-1], size, self._endian)
        for value in reversed(values[:-1]):
            result = T.ite(T.eq(addr, T.bv(value, addr.width)),
                           state.memory.read(value, size, self._endian),
                           result)
        state.assume(T.disjoin(T.eq(addr, T.bv(v, addr.width))
                               for v in values))
        return result

    def _store(self, state: SymState, addr: T.Term, value: T.Term,
               size: int, decoded) -> None:
        if self._ledger_on:
            with self._ledger.scope("memory"):
                self._store_inner(state, addr, value, size, decoded)
            return
        self._store_inner(state, addr, value, size, decoded)

    def _store_inner(self, state: SymState, addr: T.Term, value: T.Term,
                     size: int, decoded) -> None:
        if not self._check_mapped(state, addr, (), decoded, writing=True):
            raise _PathEnd("oob-store")
        if addr.is_const():
            state.memory.write(addr.value, value, size, self._endian)
            return
        values = self._resolve_address(state, addr, ())
        if not values:
            raise _PathEnd("no-feasible-address")
        # Concretize the store: constrain the address to one value (the
        # common single-value case is exact; multi-value is weakened by
        # ite-merging the old contents).
        if len(values) == 1:
            state.assume(T.eq(addr, T.bv(values[0], addr.width)))
            state.memory.write(values[0], value, size, self._endian)
            return
        state.assume(T.disjoin(T.eq(addr, T.bv(v, addr.width))
                               for v in values))
        for candidate in values:
            hit = T.eq(addr, T.bv(candidate, addr.width))
            old = state.memory.read(candidate, size, self._endian)
            state.memory.write(candidate, T.ite(hit, value, old), size,
                               self._endian)

    def _check_uninit(self, state: SymState, addr: int, size: int,
                      decoded) -> None:
        if not self.config.check_uninit:
            return
        for offset in range(size):
            byte_addr = addr + offset
            region = self.memory_map.region_for(byte_addr)
            if (region is not None and region.track_uninit
                    and not state.memory.is_initialized(byte_addr)):
                self._report(state, R.UNINIT_READ, decoded,
                             "read of uninitialized byte at %#x" % byte_addr)
                return

    def _resolve_address(self, state: SymState, addr: T.Term,
                         guards) -> List[int]:
        """Concrete candidate addresses for a symbolic address term."""
        from ..smt.interval import interval
        lo, hi = interval(addr)
        window = self.config.symbolic_read_window
        if hi - lo + 1 <= window:
            return [value for value in range(lo, hi + 1)
                    if self.memory_map.is_mapped(value)]
        return self._enumerate(state, addr, guards,
                               self.config.max_address_values)

    def _enumerate(self, state: SymState, term: T.Term, guards,
                   limit: int) -> List[int]:
        """Solver-enumerate up to ``limit`` feasible values of ``term``."""
        found: List[int] = []
        exclusions: List[T.Term] = []
        base = state.path_condition + list(guards)
        while len(found) < limit:
            if self.solver.check(extra=base + exclusions) != SAT:
                break
            value = T.evaluate(term, self.solver.model())
            found.append(value)
            exclusions.append(T.ne(term, T.bv(value, term.width)))
        return found

    # -- register index concretization ----------------------------------------------------

    def _concrete_index(self, state: SymState, index_term: T.Term,
                        decoded) -> int:
        if index_term.is_const():
            return index_term.value
        # Register indices come from encoding fields in every built-in ISA,
        # so a symbolic index indicates exotic semantics; concretize to the
        # first feasible value and constrain.
        values = self._enumerate(state, index_term, (), 1)
        if not values:
            raise _PathEnd("no-feasible-register-index")
        state.assume(T.eq(index_term, T.bv(values[0], index_term.width)))
        return values[0]
