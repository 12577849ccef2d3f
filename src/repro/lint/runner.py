"""The lint driver: tolerant front-end pipeline + pass execution.

:func:`run_lint` takes a built-in spec name (``rv32``) or a filesystem
path to an ``.adl`` file, runs the ADL front end *tolerantly* — decode
ambiguity does not abort analysis (the SMT ambiguity pass reports every
pair with witnesses), and per-instruction translation failures are
collected instead of raised (inline IR validation is turned off so the
``ir-width`` pass can diagnose invalid blocks itself) — then executes
every enabled pass as one ``lint.<pass-id>`` layer of the
:class:`~repro.obs.Obs` cost ledger (whose clock also gives the
``--timings`` figures) and emits ``lint.*`` counters so ``repro stats``
can report lint runs like any other subsystem.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import adl
from ..adl import ast as A
from ..adl.errors import AdlError
from ..adl.translate import set_ir_validation, translate_instruction
from ..ir import nodes as N
from ..obs import Obs
from .base import (FAMILIES, LintContext, LintPass, all_passes,
                   pass_by_id)
from .findings import ERROR, INFO, WARN, LintReport, PassTiming

__all__ = ["LintConfig", "run_lint", "run_lint_all", "resolve_spec",
           "LintError"]


class LintError(Exception):
    """The spec could not be linted at all (unreadable / unparseable)."""


class LintConfig:
    """Which passes run, and with what solver."""

    def __init__(self, enable: Optional[Sequence[str]] = None,
                 disable: Optional[Sequence[str]] = None,
                 solver_factory: Optional[Callable] = None,
                 families: Optional[Sequence[str]] = None):
        #: When non-empty, run *only* these pass ids.
        self.enable = list(enable) if enable else []
        #: Pass ids to skip (applied after ``enable``).
        self.disable = list(disable) if disable else []
        #: When non-empty, restrict to these pass families
        #: (``--family transval`` runs just the translation validator).
        self.families = list(families) if families else []
        self.solver_factory = solver_factory

    def selected_passes(self) -> List[LintPass]:
        """Resolve the family/enable/disable selection against the
        registry.

        Unknown ids or families raise immediately (a typo in
        ``--enable``/``--family`` should not silently lint nothing).
        """
        for pass_id in list(self.enable) + list(self.disable):
            pass_by_id(pass_id)  # raises on unknown id
        for family in self.families:
            if family not in FAMILIES:
                raise KeyError("unknown lint pass family %r (have: %s)"
                               % (family, ", ".join(FAMILIES)))
        selected = all_passes()
        if self.families:
            wanted_families = set(self.families)
            selected = [p for p in selected
                        if p.family in wanted_families]
        if self.enable:
            wanted = set(self.enable)
            selected = [p for p in selected if p.id in wanted]
        if self.disable:
            unwanted = set(self.disable)
            selected = [p for p in selected if p.id not in unwanted]
        return selected


def resolve_spec(spec_or_path: str) -> Tuple[str, str]:
    """``(spec_name, path)`` for a built-in name or an ``.adl`` path."""
    if spec_or_path in adl.builtin_spec_names():
        return spec_or_path, adl.builtin_spec_path(spec_or_path)
    if os.path.exists(spec_or_path):
        base = os.path.basename(spec_or_path)
        name = base[:-4] if base.endswith(".adl") else base
        return name, spec_or_path
    raise LintError(
        "no spec named %r: not a built-in (%s) and no such file"
        % (spec_or_path, ", ".join(adl.builtin_spec_names())))


def _front_end(path: str) -> Tuple[A.ArchSpec,
                                   Dict[str, Optional[Tuple[N.Stmt, ...]]],
                                   Dict[str, Tuple[str, int]]]:
    """Parse + analyze + translate, tolerantly.

    Returns ``(spec, ir_blocks, translate_errors)``.  Decode-ambiguity
    checking is skipped (the SMT ambiguity pass owns it) and inline IR
    validation is off during translation (the ``ir-width`` pass owns
    it), so a deliberately broken spec still yields a full context.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise LintError("cannot read %s: %s" % (path, error))
    try:
        spec = adl.analyze(adl.parse_spec(text), check_ambiguity=False)
    except AdlError as error:
        raise LintError("%s: %s" % (path, error))
    ir_blocks: Dict[str, Optional[Tuple[N.Stmt, ...]]] = {}
    translate_errors: Dict[str, Tuple[str, int]] = {}
    previous = set_ir_validation(False)
    try:
        for instr in spec.instructions:
            try:
                ir_blocks[instr.name] = tuple(
                    translate_instruction(spec, instr))
            except AdlError as error:
                ir_blocks[instr.name] = None
                line = getattr(error, "line", 0) or instr.line
                translate_errors[instr.name] = (str(error), line)
    finally:
        set_ir_validation(previous)
    return spec, ir_blocks, translate_errors


def run_lint(spec_or_path: str, config: Optional[LintConfig] = None,
             obs: Optional[Obs] = None) -> LintReport:
    """Lint one spec; returns a finalized :class:`LintReport`."""
    config = config or LintConfig()
    obs = obs or Obs.default()
    spec_name, path = resolve_spec(spec_or_path)
    with obs.ledger.scope("lint.front-end"):
        spec, ir_blocks, translate_errors = _front_end(path)
    ctx = LintContext(spec, path, ir_blocks, translate_errors,
                      solver_factory=config.solver_factory)
    report = LintReport(spec_name, path)
    for lint_pass in config.selected_passes():
        ctx.solver_seconds = 0.0
        ctx.solver_checks = 0
        findings, elapsed = obs.ledger.timed(
            "lint.%s" % lint_pass.id, _drain, lint_pass, ctx)
        report.extend(findings)
        report.passes_run.append(lint_pass.id)
        report.timings.append(PassTiming(
            lint_pass.id, elapsed, len(findings),
            solver_seconds=ctx.solver_seconds,
            solver_checks=ctx.solver_checks))
    report.finalize()
    _emit_metrics(obs, report)
    return report


def _drain(lint_pass: LintPass, ctx: LintContext) -> list:
    return list(lint_pass.run(ctx))


def run_lint_all(config: Optional[LintConfig] = None,
                 obs: Optional[Obs] = None) -> List[LintReport]:
    """Lint every built-in spec, in name order."""
    obs = obs or Obs.default()
    return [run_lint(name, config=config, obs=obs)
            for name in adl.builtin_spec_names()]


def _emit_metrics(obs: Obs, report: LintReport) -> None:
    """``lint.*`` counters for ``repro stats`` / telemetry export."""
    metrics = obs.metrics
    if not metrics.enabled:
        return
    counts = report.by_severity()
    metrics.counter("lint.specs").inc()
    metrics.counter("lint.passes_run").inc(len(report.passes_run))
    metrics.counter("lint.findings.error").inc(counts[ERROR])
    metrics.counter("lint.findings.warn").inc(counts[WARN])
    metrics.counter("lint.findings.info").inc(counts[INFO])
    metrics.counter("lint.solver.checks").inc(
        sum(t.solver_checks for t in report.timings))
    metrics.counter("lint.solver.ms").inc(
        int(round(1000.0 * report.solver_seconds())))
