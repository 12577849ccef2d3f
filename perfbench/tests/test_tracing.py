"""Span and self-time arithmetic, and the patches on the program."""

import pytest

import tracing


class FakeClock:
    """``perf_counter`` stand-in; ``advance`` moves time forward."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracing, "perf_counter", fake)
    return fake


def test_nested_spans_self_time(clock):
    recorder = tracing.Recorder()

    def leaf():
        clock.advance(2.0)

    traced_leaf = recorder.wrap("leaf", leaf)

    def outer():
        clock.advance(1.0)
        traced_leaf()
        clock.advance(3.0)
        traced_leaf()

    recorder.wrap("outer", outer)()
    spans = recorder.spans
    assert [span[tracing.NAME] for span in spans] == ["outer", "leaf",
                                                       "leaf"]
    assert [span[tracing.PARENT] for span in spans] == [-1, 0, 0]
    assert tracing.self_times(spans) == [4.0, 2.0, 2.0]
    table = tracing.by_name(spans)
    assert table["outer"]["calls"] == 1 and table["outer"]["self_s"] == 4.0
    assert table["leaf"]["calls"] == 2 and table["leaf"]["self_s"] == 4.0
    assert table["leaf"]["durations"] == [2.0, 2.0]
    # Self times partition the root span.
    assert sum(tracing.self_times(spans)) == 8.0


def test_trace_ids_follow_the_root(clock):
    recorder = tracing.Recorder()
    inner = recorder.wrap("inner", lambda: clock.advance(1.0))
    root = recorder.wrap("root", lambda: inner())
    root()
    root()
    traces = [span[tracing.TRACE] for span in recorder.spans]
    assert traces == [0, 0, 2, 2]


def test_exception_closes_the_span_and_propagates(clock):
    recorder = tracing.Recorder()
    counted = []

    def boom():
        clock.advance(5.0)
        raise KeyError("x")

    failing = recorder.wrap("fails", boom,
                            lambda rec, result, args: counted.append(1))

    def outer():
        clock.advance(1.0)
        try:
            failing()
        except KeyError:
            clock.advance(1.0)
        failing()

    with pytest.raises(KeyError):
        recorder.wrap("outer", outer)()
    spans = recorder.spans
    assert [span[tracing.END] - span[tracing.START] for span in spans] == \
        [12.0, 5.0, 5.0]
    assert tracing.self_times(spans) == [2.0, 5.0, 5.0]
    assert counted == []          # no outcome for a call that raised
    # The stack unwound: the next call is a root again.
    recorder.wrap("after", lambda: None)()
    assert recorder.spans[-1][tracing.PARENT] == -1


def test_counts_and_peaks():
    recorder = tracing.Recorder()
    hits = tracing._hit_if("hits", bool)
    probe = recorder.wrap("probe", lambda value: value, hits)
    for value in (True, False, True):
        probe(value)
    assert recorder.counts == {"hits": 2}
    recorder.peak("p", 3)
    recorder.peak("p", 1)
    assert recorder.peaks == {"p": 3}


class Base:
    def run(self):
        yield 1
        yield 2


class Child(Base):
    pass


class Own:
    def run(self):
        return "own"


def test_patches_restore_owned_and_inherited():
    recorder = tracing.Recorder()
    patches = tracing.Patches()
    original_own = Own.run
    patches.replace(Child, "run", recorder, "child", drain=True)
    patches.replace(Own, "run", recorder, "own")
    assert list(Child().run()) == [1, 2]
    assert Own().run() == "own"
    assert [span[tracing.NAME] for span in recorder.spans] == ["child",
                                                               "own"]
    patches.restore()
    assert "run" not in vars(Child)
    assert Own.run is original_own
    assert list(Child().run()) == [1, 2]


def test_traced_strategy_counts_ops_and_peak():
    from repro.core import DfsStrategy
    recorder = tracing.Recorder()
    frontier = tracing.TracedStrategy(DfsStrategy(), recorder)
    assert not frontier
    frontier.push("a")
    frontier.push("b")
    assert len(frontier) == 2 and frontier
    assert frontier.pop() == "b"
    assert recorder.peaks["core.strategy.frontier_peak"] == 2
    assert tracing.by_name(recorder.spans)["core.strategy"]["calls"] == 3


def test_install_traces_an_exploration_and_restores():
    """Every patch target exists; spans nest under ``core.engine``; the
    self times plus the residual make up the traced wall time."""
    import repro.isa
    from repro.core import Engine, SymState
    from repro.programs.kernels import maze
    from repro.programs.portable import lower
    from repro.programs.suite import CODE_BASE
    from repro.smt.solver import Solver

    original_check = Solver.check
    original_fork = SymState.fork
    recorder = tracing.Recorder()
    patches = tracing.install(recorder)
    start = tracing.perf_counter()
    try:
        model = repro.isa.build("rv32", fresh=True)
        image = repro.isa.assemble(model, lower(maze(3, 5), "rv32"),
                                   base=CODE_BASE)
        engine = Engine(model)
        engine.load_image(image)
        engine.strategy = tracing.TracedStrategy(engine.strategy, recorder)
        result = engine.explore()
    finally:
        wall = tracing.perf_counter() - start
        patches.restore()
    assert Solver.check is original_check
    assert SymState.fork is original_fork
    assert len(result.paths) + len(result.defects) == 8
    table = tracing.by_name(recorder.spans)
    for name in ("adl.build", "adl.parse", "isa.assemble", "core.engine",
                 "isa.decode", "core.state.fork", "core.strategy",
                 "smt.solver", "smt.cache", "smt.sat", "smt.bitblast"):
        assert table[name]["calls"] > 0, name
    assert table["core.engine"]["calls"] == 1
    assert table["isa.decode"]["calls"] == result.instructions_executed
    explore_roots = [span for span in recorder.spans
                     if span[tracing.NAME] == "core.engine"]
    trace_id = explore_roots[0][tracing.TRACE]
    assert all(span[tracing.TRACE] == trace_id for span in recorder.spans
               if span[tracing.START] >= explore_roots[0][tracing.START])
    self_sum = sum(tracing.self_times(recorder.spans))
    residual = wall - self_sum
    assert residual >= 0.0
    assert self_sum + residual == pytest.approx(wall)
