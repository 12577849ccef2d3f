"""Symbolic machine state: registers, flags, memory, path condition.

One :class:`SymState` is one execution path prefix.  The program counter is
kept *concrete* (the classic binary-symbolic-execution design: branches fork
states, indirect jumps are concretized), while register and memory contents
are solver terms.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from ..smt import terms as T
from ..smt.cache import Witness
from .memory import SymMemory

__all__ = ["SymState"]

_state_ids = itertools.count()


class SymState:
    """One path's machine state plus its path condition."""

    def __init__(self, model, memory: SymMemory):
        self.model = model
        self.memory = memory
        self.pc: int = 0
        self.regfiles: Dict[str, List[T.Term]] = {
            name: [T.bv(0, info.width)] * info.count
            for name, info in model.regfiles.items()}
        self.registers: Dict[str, T.Term] = {
            name: T.bv(0, width) for name, width in model.registers.items()}
        self.path_condition: List[T.Term] = []
        self.input_vars: List[T.Term] = []
        self.output: List[T.Term] = []
        self.steps = 0
        self.halted = False
        self.exit_code: Optional[T.Term] = None
        self.state_id = next(_state_ids)
        self.parent_id: Optional[int] = None
        # Cumulative priority hint for coverage-guided search.
        self.priority = 0.0
        # Per-path pc visit counts (populated only when the engine's
        # loop bound, max_visits_per_pc, is configured).
        self.visit_counts: Dict[int, int] = {}
        # Frame replay (Engine._branch_feasible): ``(witness, checked)``
        # — the query-cache pool witness last known to satisfy this
        # path's condition and how many path-condition conjuncts it has
        # been validated against.  Forks share the tuple (sound: the
        # witness's memo is tied to its one fixed model; a state that
        # adopts a new witness replaces the tuple, never mutates it).
        self.frame: Optional[Tuple[Witness, int]] = None

    # -- path forking ---------------------------------------------------------------

    def fork(self) -> "SymState":
        child = SymState.__new__(SymState)
        child.model = self.model
        child.memory = self.memory.fork()
        child.pc = self.pc
        child.regfiles = {name: list(regs)
                          for name, regs in self.regfiles.items()}
        child.registers = dict(self.registers)
        child.path_condition = list(self.path_condition)
        child.input_vars = list(self.input_vars)
        child.output = list(self.output)
        child.steps = self.steps
        child.halted = self.halted
        child.exit_code = self.exit_code
        child.state_id = next(_state_ids)
        child.parent_id = self.state_id
        child.priority = self.priority
        child.visit_counts = dict(self.visit_counts)
        child.frame = self.frame
        return child

    # -- constraints -------------------------------------------------------------------

    def assume(self, cond: T.Term) -> None:
        """Add ``cond`` to this path's condition (no feasibility check)."""
        if not T.is_true(cond):
            self.path_condition.append(cond)

    # -- registers ------------------------------------------------------------------------

    def read_reg(self, regfile: str, index: Optional[int]) -> T.Term:
        if index is None:
            return self.registers[regfile]
        info = self.model.regfiles[regfile]
        if not (0 <= index < info.count):
            raise IndexError("register index %d out of range for %r"
                             % (index, regfile))
        if info.zero_index is not None and index == info.zero_index:
            return T.bv(0, info.width)
        return self.regfiles[regfile][index]

    def write_reg(self, regfile: str, index: Optional[int],
                  value: T.Term) -> None:
        if index is None:
            expected = self.model.registers[regfile]
            if value.width != expected:
                raise T.WidthError("register %r takes %d bits, got %d"
                                   % (regfile, expected, value.width))
            self.registers[regfile] = value
            return
        info = self.model.regfiles[regfile]
        if not (0 <= index < info.count):
            raise IndexError("register index %d out of range for %r"
                             % (index, regfile))
        if info.zero_index is not None and index == info.zero_index:
            return
        if value.width != info.width:
            raise T.WidthError("regfile %r takes %d bits, got %d"
                               % (regfile, info.width, value.width))
        self.regfiles[regfile][index] = value

    # -- input stream ------------------------------------------------------------------------

    def next_input(self) -> T.Term:
        """Fresh symbolic byte for the next input read.

        Input position k is named ``in_k`` on every path, so a model's
        ``in_*`` variables directly give the triggering input bytes.
        """
        var = T.var("in_%d" % len(self.input_vars), 8)
        self.input_vars.append(var)
        return var

    def input_bytes_from_model(self, model: Dict[str, int]) -> bytes:
        """Concrete input realizing this path, given a solver model."""
        return bytes(model.get("in_%d" % i, 0) & 0xff
                     for i in range(len(self.input_vars)))

    # -- footprint (health monitor) -----------------------------------------------

    def footprint(self) -> Dict[str, int]:
        """Cheap per-state cost estimate for the live health monitor.

        ``path_terms`` is the number of path-condition conjuncts (a
        proxy for solver query size), ``pages`` the number of memory
        pages this state references (COW-shared pages count once per
        state — the estimate bounds what a solver query or a merge pass
        may have to look at, not unique ownership).  O(1): no term
        traversal, no page scan.
        """
        return {"state": self.state_id, "pc": self.pc, "steps": self.steps,
                "path_terms": len(self.path_condition),
                "pages": self.memory.pages_touched,
                "depth": len(self.input_vars)}

    def __repr__(self):
        return "<SymState #%d pc=%#x steps=%d |pc|=%d>" % (
            self.state_id, self.pc, self.steps, len(self.path_condition))
