"""Flamegraph + Chrome-trace rendering of ``attr`` snapshot blocks.

Both renderers are pure functions over the JSON-able snapshot produced
by :func:`repro.obs.ledger.attr_view`, so they work
offline from a telemetry sidecar's ``run_summary`` block or a
run-store ``attr.json`` artifact — the ``repro hot --flame/--trace``
round trip.

* :func:`collapsed_stacks` emits Brendan-Gregg collapsed-stack lines
  (``frame;frame;frame weight``) with ``isa;rule[;ir_kind][;solver]``
  frames and integer microsecond weights — feed the output straight to
  ``flamegraph.pl`` or any collapsed-stack viewer (speedscope, etc.).
* :func:`chrome_trace` emits a Chrome ``trace_event`` JSON object
  (synthetic sequential complete events) for ``chrome://tracing`` /
  Perfetto.
"""

from __future__ import annotations

from typing import Dict, List

__all__ = ["collapsed_stacks", "render_collapsed", "chrome_trace"]


def _us(seconds) -> int:
    try:
        return int(round(float(seconds) * 1e6))
    except (TypeError, ValueError):
        return 0


def collapsed_stacks(block) -> List[Dict[str, object]]:
    """Collapsed-stack rows (``{"stack": [...], "us": N}``) for one
    attribution snapshot; zero-weight rows are dropped.

    Per rule: IR-kind self time becomes ``isa;rule;kind``, solver time
    attributed inside an IR kind becomes ``isa;rule;kind;solver``,
    remaining (un-probed) solver time ``isa;rule;solver``, and the
    eval-time residual not covered by probed IR frames stays at
    ``isa;rule`` — so the flamegraph total equals the attributed
    eval+solver total.
    """
    if not isinstance(block, dict) or not isinstance(
            block.get("rules"), dict):
        return []
    isa = str(block.get("isa", "?"))
    rows: List[Dict[str, object]] = []

    def add(stack, us):
        if us > 0:
            rows.append({"stack": stack, "us": us})

    for name, entry in sorted(block["rules"].items()):
        if not isinstance(entry, dict):
            continue
        rule = str(name)
        ir = entry.get("ir") if isinstance(entry.get("ir"), dict) else {}
        solver_by_ir = entry.get("solver_by_ir") \
            if isinstance(entry.get("solver_by_ir"), dict) else {}
        ir_self_us = 0
        for kind, cost in sorted(ir.items()):
            if not isinstance(cost, dict):
                continue
            us = _us(cost.get("self_s"))
            ir_self_us += us
            add([isa, rule, str(kind)], us)
        probed_solver_us = 0
        for kind, seconds in sorted(solver_by_ir.items()):
            us = _us(seconds)
            probed_solver_us += us
            add([isa, rule, str(kind), "solver"], us)
        add([isa, rule, "solver"],
            _us(entry.get("solver_s")) - probed_solver_us)
        # Eval residual: wall time the (sampled) IR probe did not cover.
        # IR frames exclude solver child time by construction, so the
        # residual is eval minus probed IR self time.
        add([isa, rule], _us(entry.get("eval_s")) - ir_self_us)
    return rows


def render_collapsed(block) -> str:
    """Brendan-Gregg collapsed-stack text (one ``a;b;c N`` per line)."""
    return "\n".join("%s %d" % (";".join(row["stack"]), row["us"])
                     for row in collapsed_stacks(block))


def chrome_trace(block) -> Dict[str, object]:
    """Chrome ``trace_event`` JSON (synthetic sequential timeline).

    Wall-clock layout is reconstructed, not replayed: each rule gets a
    contiguous span sized by its attributed cost, with its IR kinds and
    solver time nested inside — the *shares* are faithful, the
    ordering is synthetic.
    """
    events: List[Dict[str, object]] = []
    cursor = 0
    meta = {"isa": "?", "mode": "?"}
    if isinstance(block, dict):
        meta = {"isa": block.get("isa", "?"),
                "mode": block.get("mode", "?"),
                "steps": block.get("steps", 0)}
    rows = collapsed_stacks(block)
    by_rule: Dict[str, List[Dict[str, object]]] = {}
    for row in rows:
        by_rule.setdefault(row["stack"][1], []).append(row)
    for rule in sorted(by_rule):
        children = by_rule[rule]
        total = sum(row["us"] for row in children)
        events.append({"name": rule, "cat": "rule", "ph": "X",
                       "ts": cursor, "dur": total, "pid": 1, "tid": 1,
                       "args": {"isa": meta.get("isa")}})
        child_cursor = cursor
        for row in children:
            frames = row["stack"][2:]
            if frames:
                events.append({"name": ";".join(frames), "cat": "ir",
                               "ph": "X", "ts": child_cursor,
                               "dur": row["us"], "pid": 1, "tid": 1})
            child_cursor += row["us"]
        cursor += total
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": meta}
