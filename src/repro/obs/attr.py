"""Offline renderers for the ``attr`` block: *which* spec rules pay.

The block itself is the rule/IR-kind/branch-site view of the cost
ledger (:func:`repro.obs.ledger.attr_view`).  It rides in
``result.telemetry["attr"]`` (schema-v5 sidecar ``run_summary``
blocks) and is persisted as ``attr.json`` in the run store.  These pure
functions over the JSON-able block back the ``repro hot`` and
``repro stats`` tables and the spec heat map; :mod:`repro.obs.flame`
renders the same block as flamegraphs and Chrome traces.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["hot_report", "hot_rules_lines", "annotate_spec_costs"]


def _rule_rows(block: Dict[str, object]) -> List[dict]:
    """Flatten a snapshot's rule table into rows with cost shares.

    Tolerant of malformed input: a non-dict block or rules table yields
    no rows (degenerate sidecars must never traceback)."""
    if not isinstance(block, dict):
        return []
    rules = block.get("rules")
    if not isinstance(rules, dict):
        return []
    total = 0.0
    rows = []
    for name, entry in rules.items():
        if not isinstance(entry, dict):
            continue
        eval_s = float(entry.get("eval_s", 0.0) or 0.0)
        solver_s = float(entry.get("solver_s", 0.0) or 0.0)
        cost = eval_s + solver_s
        total += cost
        rows.append({
            "rule": str(name),
            "mnemonic": str(entry.get("mnemonic", "?")),
            "lines": entry.get("lines"),
            "steps": int(entry.get("steps", 0) or 0),
            "eval_s": eval_s,
            "solver_s": solver_s,
            "solver_checks": int(entry.get("solver_checks", 0) or 0),
            "cache_hits": int(entry.get("cache_hits", 0) or 0),
            "forks": int(entry.get("forks", 0) or 0),
            "term_allocs": int(entry.get("term_allocs", 0) or 0),
            "cost_s": cost,
        })
    for row in rows:
        row["share"] = row["cost_s"] / total if total > 0 else 0.0
    rows.sort(key=lambda row: (-row["cost_s"], row["rule"]))
    return rows


def hot_rules_lines(block, top: int = 5,
                    min_share: float = 0.0) -> List[str]:
    """The "hottest rules" table as lines, or ``[]`` when the block is
    missing/degenerate (``repro stats`` renders these verbatim)."""
    rows = [row for row in _rule_rows(block)
            if row["share"] >= min_share][:max(0, top)]
    if not rows:
        return []
    lines = ["  %-14s %-8s %7s %9s %9s %7s %6s %6s"
             % ("rule", "mnemonic", "steps", "eval", "solver",
                "checks", "forks", "share"),
             "  " + "-" * 72]
    for row in rows:
        lines.append("  %-14s %-8s %7d %8.2fms %8.2fms %7d %6d %5.1f%%"
                     % (row["rule"], row["mnemonic"], row["steps"],
                        row["eval_s"] * 1e3, row["solver_s"] * 1e3,
                        row["solver_checks"], row["forks"],
                        100.0 * row["share"]))
    return lines


def hot_report(block, top: int = 10, min_share: float = 0.0) -> str:
    """Human-readable cost report for one ``attr`` snapshot block."""
    if not isinstance(block, dict) or not isinstance(
            block.get("rules"), dict):
        return "attr: no attribution block (run with --attr)"
    header = ("== cost attribution: %s (mode=%s, %s/%s steps deep) =="
              % (block.get("isa", "?"), block.get("mode", "?"),
                 block.get("deep_steps", 0), block.get("steps", 0)))
    lines = [header,
             "total: eval %.2fms  solver %.2fms over %s checks "
             "(%s cache hits, %s forks)"
             % (float(block.get("eval_s", 0.0)) * 1e3,
                float(block.get("solver_s", 0.0)) * 1e3,
                block.get("solver_checks", 0),
                block.get("cache_hits", 0), block.get("forks", 0))]
    table = hot_rules_lines(block, top=top, min_share=min_share)
    if table:
        lines.append("hottest rules:")
        lines.extend(table)
    ir = block.get("ir")
    if isinstance(ir, dict) and ir:
        rows = sorted(((kind, entry) for kind, entry in ir.items()
                       if isinstance(entry, dict)),
                      key=lambda kv: -(float(kv[1].get("self_s", 0.0))
                                       + float(kv[1].get("solver_s",
                                                         0.0))))
        lines.append("hottest IR kinds (deep-step sample):")
        lines.append("  %-16s %8s %9s %9s %9s"
                     % ("kind", "calls", "total", "self", "solver"))
        for kind, entry in rows[:max(0, top)]:
            lines.append("  %-16s %8d %8.2fms %8.2fms %8.2fms"
                         % (kind, int(entry.get("calls", 0)),
                            float(entry.get("total_s", 0.0)) * 1e3,
                            float(entry.get("self_s", 0.0)) * 1e3,
                            float(entry.get("solver_s", 0.0)) * 1e3))
    sites = block.get("sites")
    if isinstance(sites, dict) and sites:
        def _site_cost(item):
            entry = item[1]
            return -(float(entry.get("solver_s", 0.0) or 0.0))
        rows = sorted(((pc, entry) for pc, entry in sites.items()
                       if isinstance(entry, dict)), key=_site_cost)
        lines.append("hottest branch sites (solver blame):")
        lines.append("  %-10s %-14s %9s %7s %6s %6s"
                     % ("pc", "rule", "solver", "checks", "hits",
                        "forks"))
        for pc, entry in rows[:max(0, top)]:
            lines.append("  %-10s %-14s %8.2fms %7d %6d %6d"
                         % (pc, entry.get("rule", "?"),
                            float(entry.get("solver_s", 0.0)) * 1e3,
                            int(entry.get("solver_checks", 0) or 0),
                            int(entry.get("cache_hits", 0) or 0),
                            int(entry.get("forks", 0) or 0)))
    return "\n".join(lines)


def annotate_spec_costs(block, source_path: Optional[str] = None) -> str:
    """The ADL source with per-line *cost shares* in the margin — the
    heat-map twin of ``speccov``'s annotated coverage view.

    Lines of a rule that consumed cost carry its share of total
    attributed cost (eval + solver); zero-cost rules are flagged ``.``;
    structural lines stay blank.  ``source_path`` falls back to the
    path recorded in the snapshot, then to the built ISA model's.
    """
    if not isinstance(block, dict) or not isinstance(
            block.get("rules"), dict):
        raise ValueError("not an attribution block")
    path = source_path or block.get("source")
    if not path:
        from ..isa.model import build
        path = build(str(block.get("isa"))).source_path
    if not path:
        raise ValueError("no spec source path recorded for %r"
                         % block.get("isa"))
    with open(path) as handle:
        source_lines = handle.read().splitlines()
    shares: Dict[str, float] = {
        row["rule"]: row["share"] for row in _rule_rows(block)}
    spans: Dict[str, tuple] = {}
    for name, entry in block["rules"].items():
        lines = entry.get("lines") if isinstance(entry, dict) else None
        if isinstance(lines, (list, tuple)) and len(lines) == 2:
            spans[str(name)] = (int(lines[0]), int(lines[1]))
    # Fall back to the model's provenance table for rules whose spans
    # were not serialized (older snapshots).
    missing = [name for name in shares if name not in spans]
    if missing:
        try:
            from ..isa.model import build
            provenance = build(str(block.get("isa"))).rules
        except Exception:
            provenance = {}
        for name in missing:
            rule = provenance.get(name)
            if rule is not None:
                spans[name] = (rule.line_lo, rule.line_hi)
    margin: Dict[int, str] = {}
    for name, (lo, hi) in sorted(spans.items()):
        share = shares.get(name, 0.0)
        tag = "%6.2f%% " % (100.0 * share) if share > 0 else "      . "
        for line in range(lo, hi + 1):
            margin.setdefault(line, tag)
    out = ["# spec cost heat map: %s" % block.get("isa", "?"),
           "# margin: share of attributed cost (eval+solver) | "
           "'.' = executed rule with ~zero cost",
           ""]
    for number, text in enumerate(source_lines, 1):
        out.append("%s|%s" % (margin.get(number, " " * 8), text))
    return "\n".join(out)
