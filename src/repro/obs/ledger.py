"""The cost ledger: one accounting mechanism for "where did the time go?".

One scope stack, one clock read per scope edge, one accumulator.  Every
timed scope — an engine layer (``decode``/``eval``/``solver``/
``memory``/``strategy``), a lint pass (``lint.<id>``) or, on a *deep*
attribution step, one IR node — is charged on exit to one cell keyed
``(layer, rule, pc, kind)``:

* ``layer`` — the scope name (IR-node scopes are ``eval`` scopes that
  carry their own kind);
* ``rule``, ``pc`` — the attribution context: the ADL semantic rule and
  guest pc of the current instruction.  ``None`` unless attribution is
  on; work before the first step lands in the ``(engine)`` bucket;
* ``kind`` — the innermost IR node kind being evaluated (deep steps
  only), so solver time is blamed on the node that asked.

A cell holds ``[calls, total, self]``: inclusive seconds, and seconds
exclusive of the scopes nested beneath it.  Plain event counts (steps,
forks, cache traffic, term allocations) are cells too, with zero time.

Everything reported is a *view* of the cells:

* :func:`layer_view` — ``telemetry["phases"]`` and ``explore --profile``
  (per layer: calls / total_s / self_s / avg_us);
* :func:`attr_view` — the ``attr`` block (per rule, per IR kind, per
  branch site) behind ``repro hot``, flamegraphs and run-store
  ``attr.json``.

Both views read the same cells, so they agree by construction: the
per-rule ``eval_s`` sum *is* the ``eval`` layer total and the per-rule
solver checks *are* the ``solver`` layer's calls.  :meth:`Ledger.mark`
and the ``since=`` arguments scope either view to one exploration.

**Sampling.**  With attribution on, every step charges its rule (the
``eval`` scope is timed anyway); only every ``sample_every``-th step is
*deep* — per-IR-node scopes and term-pool deltas.  ``mode="full"``
makes every step deep.  A disabled ledger hands out one shared no-op
scope.
"""

from __future__ import annotations

import functools
from time import perf_counter as _clock
from typing import Dict, List, Optional

from ..ir import nodes as N

__all__ = ["Ledger", "AttrConfig", "ATTR_SCHEMA_VERSION", "ENGINE_BUCKET",
           "ir_kind", "layer_view", "attr_view"]

#: Version of the ``attr`` block (independent of the event schema
#: version; bumped when the block's shape changes).
ATTR_SCHEMA_VERSION = 1

#: Pseudo-rule charged for work issued outside any instruction (e.g. a
#: feasibility probe before the first step).
ENGINE_BUCKET = "(engine)"

#: Untimed event counts kept in the same cells, mapped to the attr
#: block's field.  Never shown as layers.  (Steps need no count: each
#: step is exactly one context-level ``eval`` scope.)
COUNTS = {"deep": "deep_steps", "fork": "forks", "cache_hit": "cache_hits",
          "cache_miss": "cache_misses", "term_allocs": "term_allocs"}


class AttrConfig:
    """Tunables for rule-level attribution (observe-only; never
    serialized into the run-store key — accounting must not change
    outcomes)."""

    MODES = ("sampled", "full")

    def __init__(self, mode: str = "sampled", sample_every: int = 16):
        if mode not in self.MODES:
            raise ValueError("attr mode must be one of %r, got %r"
                             % (self.MODES, mode))
        if int(sample_every) < 1:
            raise ValueError("sample_every must be >= 1, got %r"
                             % (sample_every,))
        self.mode = mode
        # Full mode makes every step deep; sampled mode probes every
        # Nth step so the always-on overhead stays bounded.
        self.sample_every = 1 if mode == "full" else int(sample_every)


def ir_kind(expr) -> str:
    """Attribution label for one IR expression node.  ``BinOp``/``UnOp``
    carry their operator so ``BinOp:add`` and ``BinOp:udiv`` separate."""
    name = expr.__class__.__name__
    if isinstance(expr, (N.BinOp, N.UnOp)):
        return "%s:%s" % (name, expr.op)
    return name


class _NullScope:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        return False


_NULL_SCOPE = _NullScope()


class _Scope:
    """Reusable ``with`` form of :meth:`Ledger.enter`/:meth:`Ledger.exit`
    (all per-entry state lives on the ledger's stack)."""

    __slots__ = ("_ledger", "_layer")

    def __init__(self, ledger: "Ledger", layer: str):
        self._ledger = ledger
        self._layer = layer

    def __enter__(self):
        self._ledger.enter(self._layer)
        return self

    def __exit__(self, *_exc):
        self._ledger.exit()
        return False


class Ledger:
    """Scope stack + cell accumulator; a no-op when disabled."""

    def __init__(self, enabled: bool = False, metrics=None):
        self.enabled = enabled
        self.cells: Dict[tuple, list] = {}
        # Open scopes: (key, closed-at-entry, enclosing kind, start).
        self._stack: List[tuple] = []
        # Running total of closed scopes' seconds.  Each exit rewinds it
        # to its value at the scope's entry plus the scope's own time,
        # so at a scope's exit its growth since entry is exactly the
        # time of the scope's direct children.
        self._closed = 0.0
        self._scopes: Dict[str, _Scope] = {}
        self._metrics = metrics
        # Attribution context (attribute() turns it on).
        self.config: Optional[AttrConfig] = None
        self.rule: Optional[str] = None
        self.pc: Optional[int] = None
        self.kind: Optional[str] = None   # innermost open IR-node scope
        self.deep = False
        self._steps = 0
        self._pool = None
        self._pool_mark = 0

    # -- timing -------------------------------------------------------------

    def enter(self, layer: str, kind: Optional[str] = None) -> None:
        """Open a scope; nested scopes inherit the enclosing IR kind."""
        if kind is None:
            kind = self.kind
        self._stack.append(((layer, self.rule, self.pc, kind),
                            self._closed, self.kind, _clock()))
        self.kind = kind

    def exit(self) -> float:
        """Close the innermost scope, charge its cell, return its
        inclusive seconds."""
        now = _clock()
        key, closed, self.kind, start = self._stack.pop()
        elapsed = now - start
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = [0, 0.0, 0.0]
        cell[0] += 1
        cell[1] += elapsed
        cell[2] += elapsed - (self._closed - closed)
        self._closed = closed + elapsed
        return elapsed

    def scope(self, layer: str):
        """Context manager timing one ``layer`` scope."""
        if not self.enabled:
            return _NULL_SCOPE
        scope = self._scopes.get(layer)
        if scope is None:
            scope = self._scopes[layer] = _Scope(self, layer)
        return scope

    def timed(self, layer: str, fn, *args):
        """``(fn(*args), seconds)`` under a ``layer`` scope.  The seconds
        are measured even when the ledger is off, for callers that keep
        their own stats from the same clock reads."""
        if not self.enabled:
            start = _clock()
            return fn(*args), _clock() - start
        self.enter(layer)
        try:
            result = fn(*args)
        finally:
            elapsed = self.exit()
        return result, elapsed

    def wrap(self, layer: str):
        """Decorator form of :meth:`scope`; ``functools.wraps`` keeps
        the wrapped function's metadata."""
        def decorator(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                with self.scope(layer):
                    return fn(*args, **kwargs)
            return wrapped
        return decorator

    # -- attribution --------------------------------------------------------

    def attribute(self, config: AttrConfig) -> None:
        """Turn on rule/IR/site attribution (and the ledger itself)."""
        from .metrics import MetricsRegistry
        metrics = self._metrics if self._metrics is not None \
            else MetricsRegistry(enabled=False)
        self.enabled = True
        self.config = config
        self.rule = ENGINE_BUCKET
        self._c_steps = metrics.counter("attr.steps")
        self._c_deep = metrics.counter("attr.deep_steps")
        self._h_eval = metrics.histogram("attr.step_eval_ms")

    def count(self, event: str, n: int = 1) -> None:
        """Charge ``n`` occurrences of an untimed event (see
        :data:`COUNTS`) to the current rule and pc."""
        if self.rule is None:
            return
        key = (event, self.rule, self.pc, None)
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = [0, 0.0, 0.0]
        cell[0] += n

    def begin_step(self, rule: str, pc: int) -> bool:
        """Set the (rule, pc) context for one instruction; returns
        whether this step is *deep* (per-IR-node scopes on)."""
        if self.config is None:
            return False
        self.rule = rule
        self.pc = pc
        self._c_steps.inc()
        self._steps += 1
        self.deep = (self._steps - 1) % self.config.sample_every == 0
        if self.deep:
            self.count("deep")
            self._c_deep.inc()
            if self._pool is None:
                from ..smt import terms as T
                self._pool = T.get_pool()
            self._pool_mark = self._pool.misses
        return self.deep

    def end_deep_step(self, elapsed: float) -> None:
        """Close a deep step: charge its term-pool allocations."""
        self.deep = False
        self.count("term_allocs", self._pool.misses - self._pool_mark)
        self._h_eval.observe(elapsed * 1000.0)

    # -- views --------------------------------------------------------------

    def mark(self) -> Dict[tuple, tuple]:
        """Start of a measured window (one exploration): a copy of the
        cells for ``since=``.  Work before the window's first step goes
        to the ``(engine)`` bucket again."""
        if self.config is not None:
            self.rule, self.pc = ENGINE_BUCKET, None
        return {key: tuple(cell) for key, cell in self.cells.items()}

    def since(self, mark: Optional[Dict[tuple, tuple]] = None
              ) -> Dict[tuple, list]:
        """The cells accumulated after ``mark`` (all cells without)."""
        if mark is None:
            return self.cells
        delta = {}
        for key, cell in self.cells.items():
            before = mark.get(key)
            if before is None:
                delta[key] = cell
            elif cell[0] != before[0]:
                delta[key] = [now - then for now, then in zip(cell, before)]
        return delta

    def snapshot(self, since=None) -> Dict[str, Dict[str, float]]:
        return layer_view(self.since(since))

    def attr_snapshot(self, since=None, model=None) -> Dict[str, object]:
        return attr_view(self.since(since), self.config, model)

    def report(self, title: str = "per-phase profile") -> str:
        """Human-readable layer table, widest layers first."""
        lines = ["== %s ==" % title,
                 "%-12s %10s %12s %12s %10s" % ("phase", "calls",
                                                "total", "self", "avg")]
        layers = self.snapshot()
        for name, row in sorted(layers.items(),
                                key=lambda item: -item[1]["total_s"]):
            lines.append("%-12s %10d %11.4fs %11.4fs %8.1fus"
                         % (name, row["calls"], row["total_s"],
                            row["self_s"], row["avg_us"]))
        if not layers:
            lines.append("(no phases recorded)")
        return "\n".join(lines)


def layer_view(cells) -> Dict[str, Dict[str, float]]:
    """Per-layer ``calls``/``total_s``/``self_s``/``avg_us``.  IR-node
    scopes add only their self time to ``eval``, so ``eval`` counts one
    call per step and its self time still excludes nested layers."""
    layers: Dict[str, list] = {}
    for (layer, _rule, _pc, kind), (calls, total, self_s) in cells.items():
        if layer in COUNTS:
            continue
        row = layers.setdefault(layer, [0, 0.0, 0.0])
        row[2] += self_s
        if kind is None or layer != "eval":
            row[0] += calls
            row[1] += total
    return {name: {"calls": calls, "total_s": total, "self_s": self_s,
                   "avg_us": (1e6 * total / calls) if calls else 0.0}
            for name, (calls, total, self_s) in sorted(layers.items())}


def _ir_row(table: Dict[str, dict], kind: str, *extra: str) -> dict:
    row = table.get(kind)
    if row is None:
        row = table[kind] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        row.update(dict.fromkeys(extra, 0.0))
    return row


def attr_view(cells, config: Optional[AttrConfig] = None,
              model=None) -> Dict[str, object]:
    """The JSON-able ``attr`` block (schema v1): per-rule, per-IR-kind
    and per-branch-site charges, plus their totals."""
    rules: Dict[str, Dict[str, object]] = {}
    rollup: Dict[str, dict] = {}
    sites: Dict[int, Dict[str, object]] = {}
    deep_steps = 0
    for (layer, rule, pc, kind), (calls, total, self_s) in cells.items():
        if rule is None:
            continue
        if layer == "deep":
            deep_steps += calls
            continue
        entry = rules.get(rule)
        if entry is None:
            entry = rules[rule] = {
                "steps": 0, "eval_s": 0.0, "solver_s": 0.0,
                "solver_checks": 0, "cache_hits": 0, "cache_misses": 0,
                "forks": 0, "term_allocs": 0, "ir": {}, "solver_by_ir": {}}
        seconds = None
        if layer == "eval" and kind is not None:
            for row in (_ir_row(entry["ir"], kind),
                        _ir_row(rollup, kind, "solver_s")):
                row["calls"] += calls
                row["total_s"] += total
                row["self_s"] += self_s
            continue
        if layer == "eval":
            field, seconds = "steps", "eval_s"
        elif layer == "solver":
            field, seconds = "solver_checks", "solver_s"
            if kind is not None:
                entry["solver_by_ir"][kind] = \
                    entry["solver_by_ir"].get(kind, 0.0) + total
                _ir_row(rollup, kind, "solver_s")["solver_s"] += total
        elif layer in COUNTS:
            field = COUNTS[layer]
        else:
            continue
        entry[field] += calls
        if seconds is not None:
            entry[seconds] += total
        if pc is None or field in ("cache_misses", "term_allocs"):
            continue
        site = sites.get(pc)
        if site is None:
            site = sites[pc] = {"rule": rule, "steps": 0, "solver_s": 0.0,
                                "solver_checks": 0, "cache_hits": 0,
                                "forks": 0}
        site[field] += calls
        if seconds == "solver_s":
            site["solver_s"] += total
    provenance = getattr(model, "rules", None) or {}
    rows: Dict[str, Dict[str, object]] = {}
    for name, entry in sorted(rules.items()):
        ir, solver_by_ir = entry.pop("ir"), entry.pop("solver_by_ir")
        if not (entry["steps"] or entry["solver_checks"]
                or entry["cache_hits"]):
            continue
        rule = provenance.get(name)
        if rule is not None:
            entry["mnemonic"] = rule.mnemonic
            entry["lines"] = [rule.line_lo, rule.line_hi]
        if ir:
            entry["ir"] = dict(sorted(ir.items()))
        if solver_by_ir:
            entry["solver_by_ir"] = dict(sorted(solver_by_ir.items()))
        rows[name] = entry
    def total(field: str):
        return sum(entry[field] for entry in rows.values())

    return {
        "version": ATTR_SCHEMA_VERSION,
        "isa": getattr(model, "name", "?"),
        "source": getattr(model, "source_path", None),
        "mode": config.mode if config is not None else "?",
        "sample_every": config.sample_every if config is not None else 0,
        "steps": total("steps"),
        "deep_steps": deep_steps,
        "eval_calls": total("steps"),
        "eval_s": total("eval_s"),
        "solver_checks": total("solver_checks"),
        "solver_s": total("solver_s"),
        "cache_hits": total("cache_hits"),
        "cache_misses": total("cache_misses"),
        "forks": total("forks"),
        "rules": rows,
        "ir": dict(sorted(rollup.items())),
        "sites": {"%#x" % pc: site for pc, site in sorted(sites.items())
                  if site["solver_checks"] or site["forks"]
                  or site["cache_hits"]},
    }
