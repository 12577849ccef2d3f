"""Span recording around each layer's public functions, and self times.

The benchmark does not instrument the program: :func:`install` replaces
public functions and methods of the ``core``, ``isa``, ``adl``, ``smt``,
``compile``, ``lint`` and ``verify`` modules with wrappers that record one
span per call, and :meth:`Patches.restore` puts the originals back.

A span is ``[name, start, end, parent, trace]``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``trace`` the index of its root,
so every span of one exploration shares the root ``Engine.explore`` span's
trace id.  Spans stay in memory until :func:`write_spans`.

A span's *self time* is its duration minus the time its direct children
cover.  Calls are single-threaded and strictly nested, so the children of
one span never overlap and the covered time is the sum of their
durations.  Summed over every span, self time equals the summed duration
of the root spans; whatever the traced region spent outside any root is
the residual.
"""

from __future__ import annotations

import gzip
import json
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

NAME, START, END, PARENT, TRACE = range(5)


class Recorder:
    """In-memory span store plus named outcome counters."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self.peaks: Dict[str, int] = {}
        self._stack: List[int] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks.get(name, 0):
            self.peaks[name] = value

    def wrap(self, name: str, fn: Callable,
             outcome: Optional[Callable] = None) -> Callable:
        """``fn`` with one span per call.  ``outcome(recorder, result,
        args)`` runs after a call that returned (not after one that
        raised); it feeds the counters."""
        spans = self.spans
        stack = self._stack
        recorder = self

        def traced(*args, **kwargs):
            index = len(spans)
            if stack:
                parent = stack[-1]
                trace = spans[parent][TRACE]
            else:
                parent = -1
                trace = index
            span = [name, 0.0, 0.0, parent, trace]
            spans.append(span)
            stack.append(index)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if outcome is not None:
                outcome(recorder, result, args)
            return result

        return traced


def self_times(spans: List[list]) -> List[float]:
    """Self time of every span, index-aligned with ``spans``."""
    covered = [0.0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            covered[parent] += span[END] - span[START]
    return [span[END] - span[START] - covered[index]
            for index, span in enumerate(spans)]


def by_name(spans: List[list]) -> Dict[str, Dict[str, object]]:
    """Per span name: call count, summed self time, and every duration."""
    table: Dict[str, Dict[str, object]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.get(span[NAME])
        if row is None:
            row = table[span[NAME]] = {"calls": 0, "self_s": 0.0,
                                       "durations": []}
        row["calls"] += 1
        row["self_s"] += own
        row["durations"].append(span[END] - span[START])
    return table


def write_spans(path: str, spans: List[list], origin: float) -> None:
    """One JSON object per span, times in seconds from ``origin``."""
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for index, span in enumerate(spans):
            handle.write(json.dumps(
                {"id": index, "name": span[NAME],
                 "start": round(span[START] - origin, 9),
                 "end": round(span[END] - origin, 9),
                 "parent": span[PARENT], "trace": span[TRACE]},
                separators=(",", ":")))
            handle.write("\n")


# -- patching the program's public functions ---------------------------------


class Patches:
    """Originals of every patched attribute, restored in reverse order."""

    def __init__(self):
        self._saved: List[Tuple[object, str, bool, object]] = []

    def replace(self, owner, attr: str, recorder: Recorder, name: str,
                outcome: Optional[Callable] = None,
                drain: bool = False) -> None:
        owned = attr in vars(owner)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, owned, vars(owner).get(attr)))
        target = original
        if drain:
            def target(*args, **kwargs):
                return iter(list(original(*args, **kwargs)))
        setattr(owner, attr, recorder.wrap(name, target, outcome))

    def restore(self) -> None:
        while self._saved:
            owner, attr, owned, original = self._saved.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _hit_if(counter: str, test: Callable) -> Callable:
    def outcome(recorder, result, _args):
        if test(result):
            recorder.count(counter)
    return outcome


def _after_lookup(recorder, entry, _args):
    recorder.count("smt.cache.probes")
    if entry is not None:
        recorder.count("smt.cache.hits")


def _after_sat(recorder, _result, args):
    sat = args[0]
    recorder.peak("smt.sat.vars", sat.num_vars)
    recorder.peak("smt.sat.clauses", sat.num_clauses)


def _after_merge(recorder, result, _args):
    if result is not None:
        recorder.count("core.merge.merges")


def _after_verify(recorder, results, _args):
    from repro.verify import PROVED
    recorder.count("verify.rules", len(results))
    recorder.count("verify.proved",
                   sum(1 for result in results if result.status == PROVED))


class TracedStrategy:
    """Frontier proxy: one span per push/pop, frontier peak after push.

    Installed on each engine by the benchmark (the program's own
    ``ObservedStrategy`` shim is tied to its profiler), so a merging
    frontier's inner pushes are not counted twice.
    """

    def __init__(self, inner, recorder: Recorder):
        self.inner = inner
        self._recorder = recorder
        self._push = recorder.wrap("core.strategy", inner.push)
        self._pop = recorder.wrap("core.strategy", inner.pop)

    def push(self, state) -> None:
        self._push(state)
        self._recorder.peak("core.strategy.frontier_peak", len(self.inner))

    def pop(self):
        return self._pop()

    def __len__(self) -> int:
        return len(self.inner)

    def __bool__(self) -> bool:
        return len(self.inner) > 0


def install(recorder: Recorder) -> Patches:
    """Wrap every traced public function; returns the undo record."""
    import repro.adl
    import repro.compile
    import repro.core.merge
    import repro.isa
    import repro.isa.model
    import repro.lint
    import repro.lint.runner
    import repro.smt.solver
    import repro.smt.terms
    import repro.verify
    from repro.core import Engine, SymMemory, SymState
    from repro.isa import Decoder
    from repro.smt.bitblast import BitBlaster
    from repro.smt.cache import QueryCache
    from repro.smt.sat import SatSolver
    from repro.smt.solver import Solver

    patches = Patches()
    put = patches.replace
    put(Engine, "explore", recorder, "core.engine")
    put(Decoder, "decode_bytes", recorder, "isa.decode")
    put(SymState, "fork", recorder, "core.state.fork")
    put(SymMemory, "read", recorder, "core.memory.read")
    put(SymMemory, "write", recorder, "core.memory.write")
    put(repro.core.merge, "try_merge", recorder, "core.merge",
        _after_merge)
    put(Solver, "check", recorder, "smt.solver")
    put(QueryCache, "lookup", recorder, "smt.cache", _after_lookup)
    put(QueryCache, "subsumes_unsat", recorder, "smt.cache",
        _hit_if("smt.cache.hits", bool))
    put(repro.smt.terms, "all_true", recorder, "smt.replay",
        _hit_if("smt.replay.hits", bool))
    # The solver calls the name bound in its own module.
    put(repro.smt.solver, "refute_conjunction", recorder, "smt.interval",
        _hit_if("smt.interval.unsat", bool))
    put(BitBlaster, "literal_for", recorder, "smt.bitblast")
    put(BitBlaster, "extract_model", recorder, "smt.bitblast")
    put(SatSolver, "solve", recorder, "smt.sat", _after_sat)
    put(repro.isa, "build", recorder, "adl.build")
    # The ADL front end: parse and analyze are looked up on the package,
    # translation through the names bound in the model and lint runner.
    put(repro.adl, "parse_spec", recorder, "adl.parse")
    put(repro.adl, "analyze", recorder, "adl.analyze")
    put(repro.isa.model, "translate_instruction", recorder, "adl.translate")
    put(repro.lint.runner, "translate_instruction", recorder,
        "adl.translate")
    put(repro.isa, "assemble", recorder, "isa.assemble")
    put(repro.compile, "compiled_for", recorder, "compile.codegen")
    put(repro.verify, "verify_model", recorder, "verify.model",
        _after_verify)
    for lint_pass in repro.lint.all_passes():
        # ``run`` is a generator; the runner drains it at once, so
        # draining it inside the span times the same work.
        put(type(lint_pass), "run", recorder, "lint." + lint_pass.family,
            drain=True)
    return patches
