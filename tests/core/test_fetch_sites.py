"""Instruction fetch and the constant-folding IR walk in the symbolic
engine.

Fetch reads unwritten code bytes straight from the image and the
decoder's cache answers repeated decodes; these tests pin that
self-modifying code, symbolic code bytes and forked siblings behave as
with a fresh decode per step, that the folded closed subexpressions equal
what the term builders produce, and that folding files the same defects.
"""

import gc
import random

import pytest

from repro import adl
from repro.core import Engine, EngineConfig, SymState
from repro.core import reporting as R
from repro.core.executor import _FIELD_TERMS, _FieldTerms, _closed
from repro.core.memory import MemoryMap, Region, SymMemory
from repro.ir import nodes as N
from repro.isa import assemble, build, run_image
from repro.smt import terms as T

# Runs ``target`` twice: the first pass fills its site, then the code
# loads the word at ``repl`` and stores it over ``target`` (one pass adds
# 1 to x8, the rewritten one adds 16), so a stale site would print 2.
REWRITE_RV32 = """
.org 0x1000
.entry start
start:
    lui x5, 1
    addi x3, x0, 0
target:
    addi x8, x8, 1
    bne x3, x0, done
    addi x3, x0, 1
    lw x6, 0x28(x5)
    sw x6, 8(x5)
    jal x0, target
done:
    outb x8
    halt 0
repl:
    addi x8, x8, 16
"""

# As above, but only the path whose input byte is nonzero rewrites
# ``target``; the zero-input sibling must keep the original instruction.
FORK_REWRITE_RV32 = """
.org 0x1000
.entry start
start:
    lui x5, 1
    addi x3, x0, 0
target:
    addi x8, x8, 1
    bne x3, x0, done
    addi x3, x0, 1
    inb x1
    beq x1, x0, back
    lw x6, 0x30(x5)
    sw x6, 8(x5)
back:
    jal x0, target
done:
    outb x8
    halt 0
repl:
    addi x8, x8, 16
"""


def _explore(target, source, strategy="dfs", **config):
    model = build(target)
    image = assemble(model, source, base=0x1000)
    engine = Engine(model, config=EngineConfig(**config), strategy=strategy)
    engine.load_image(image)
    return engine.explore(), model, image


def _outputs(path):
    return bytes(term.value for term in path.state.output)


@pytest.mark.parametrize("compiled", [False, True],
                         ids=["interpreted", "compiled"])
def test_store_over_later_instruction_forces_redecode(compiled):
    result, model, image = _explore("rv32", REWRITE_RV32,
                                    compiled_semantics=compiled)
    assert image.symbols["target"] == 0x1008
    assert image.symbols["repl"] == 0x1028
    assert not result.defects
    [path] = result.paths
    assert path.exit_code == 0
    assert _outputs(path) == b"\x11"
    for sim_compiled in (False, True):
        sim = run_image(model, image, compiled=sim_compiled)
        assert sim.halted and sim.output == _outputs(path)


@pytest.mark.parametrize("strategy", ["dfs", "bfs"])
@pytest.mark.parametrize("compiled", [False, True],
                         ids=["interpreted", "compiled"])
def test_forked_sibling_that_did_not_write_keeps_instruction(strategy,
                                                             compiled):
    result, model, image = _explore("rv32", FORK_REWRITE_RV32,
                                    strategy=strategy,
                                    compiled_semantics=compiled)
    assert image.symbols["repl"] == 0x1030
    assert not result.defects
    outputs = {path.input_bytes[:1] == b"\x00": _outputs(path)
               for path in result.paths}
    assert outputs == {True: b"\x02", False: b"\x11"}
    for path in result.paths:
        sim = run_image(model, image, input_bytes=path.input_bytes)
        assert sim.output == _outputs(path)


def _symbolic_store_rv32(offset):
    return """
.org 0x1000
.entry start
start:
    lui x5, 1
    addi x3, x0, 0
target:
    addi x8, x8, 1
    bne x3, x0, done
    addi x3, x0, 1
    inb x1
    sb x1, %d(x5)
    jal x0, target
done:
    halt 0
""" % (8 + offset)


def _symbolic_store_vlx(offset):
    # ``target`` is a one-byte nop: a symbolic byte stored past it, in
    # the bytes of the next instructions, still lies in the fetch window.
    return """
.org 0x1000
.entry start
start:
    ldi r2, target
    ldi r3, 0
    ldi r5, 0
target:
    nop
    nop
    nop
    nop
    bne r3, r5, done
    ldi r3, 1
    inb r1
    stb r1, [r2 + %d]
    jmp target
done:
    hlt 0
""" % offset


@pytest.mark.parametrize("isa,program", [("rv32", _symbolic_store_rv32),
                                         ("vlx", _symbolic_store_vlx)])
@pytest.mark.parametrize("offset", [0, 1, 2, 3])
@pytest.mark.parametrize("compiled", [False, True],
                         ids=["interpreted", "compiled"])
def test_symbolic_byte_in_fetch_window_ends_path(isa, program, offset,
                                                 compiled):
    model = build(isa)
    assert offset < model.decoder.max_length
    result, _, image = _explore(isa, program(offset),
                                compiled_semantics=compiled)
    assert not result.paths
    [defect] = result.defects
    assert defect.kind == R.INVALID_INSTRUCTION
    assert defect.message == "symbolic bytes in instruction stream"
    assert defect.pc == image.symbols["target"]


def test_constant_zero_divisor_files_div_by_zero():
    """A division whose operands fold to constants (7 / (7 - 7)) still
    reaches the div-zero checker: divisions are never folded away."""
    model = build("rv32")
    engine = Engine(model)
    engine.load_image(assemble(model, ".org 0x1000\nhalt 0", base=0x1000))
    seven = N.Const(7, 32)
    divisor = N.BinOp("sub", seven, seven, 32)
    assert _closed(divisor)

    class Instruction:
        name = "fold_div"
        semantics = [N.SetReg("x", N.Const(1, 5),
                              N.BinOp("udiv", seven, divisor, 32))]

    class Decoded:
        instruction = Instruction
        address = 0x1000
        length = 4
        fields = {}

    engine._result = result = R.ExplorationResult()
    [(state, _)] = engine._exec_block(engine.initial_state(), Decoded)
    assert [defect.kind for defect in result.defects] == [R.DIV_BY_ZERO]
    assert state.read_reg("x", 1).value == 0xffffffff


def test_division_is_never_folded():
    zero, seven = N.Const(0, 8), N.Const(7, 8)
    assert _closed(N.BinOp("add", N.Ext("sext", N.Field("imm", 4), 8),
                           N.Pc(8), 8))
    assert _closed(N.IteExpr(N.BinOp("eq", N.Pc(8), zero, 1), seven, zero))
    for op in ("udiv", "urem", "sdiv", "srem"):
        assert not _closed(N.BinOp(op, seven, zero, 8))
    assert not _closed(N.BinOp("add", seven, N.ReadReg("x", zero, 8), 8))
    assert not _closed(N.Local("t", 8))


def test_each_step_asks_the_decoder_which_decodes_once_per_pc():
    """Every executed instruction is one ``decode_bytes`` call, answered
    from the decoder's cache after the first decode at its pc."""
    from repro.programs.kernels import maze
    from repro.programs.portable import lower
    model = build("rv32", fresh=True)
    image = assemble(model, lower(maze(4, 5), "rv32"), base=0x1000)
    engine = Engine(model, config=EngineConfig(collect_coverage=True))
    engine.load_image(image)
    misses = []
    decoder = model.decoder
    decode = decoder.decode_bytes

    def counted(data, address):
        decoded = decode(data, address)
        misses.extend([] if decoder.last_cache_hit else [address])
        return decoded

    decoder.decode_bytes = counted
    try:
        result = engine.explore()
    finally:
        del decoder.decode_bytes
    assert result.instructions_executed > 2 * len(result.visited_pcs)
    assert 0 < len(misses) <= len(result.visited_pcs)
    assert len(set(misses)) == len(misses)


def test_state_from_another_memory_decodes_its_own_bytes():
    model = build("rv32")
    image = assemble(model, """
    .org 0x1000
    halt 3
    """, base=0x1000)
    other = assemble(model, """
    .org 0x1000
    halt 5
    """, base=0x1000)
    engine = Engine(model)
    engine.load_image(image)
    assert engine.explore().paths[0].exit_code == 3
    memory = SymMemory(MemoryMap([Region(0x1000, 0x100, "code")]))
    memory.load_image(other.base, bytes(other.data))
    state = SymState(model, memory)
    state.pc = 0x1000
    assert engine.explore(state).paths[0].exit_code == 5


def _closed_subexpressions(stmts):
    """Every closed expression node under ``stmts``, in walk order."""
    found = []

    def walk(expr):
        if expr is None:
            return
        if _closed(expr):
            found.append(expr)
        for child in expr.children():
            walk(child)

    for stmt in stmts:
        if isinstance(stmt, N.IfStmt):
            walk(stmt.cond)
            found.extend(_closed_subexpressions(stmt.then_body))
            found.extend(_closed_subexpressions(stmt.else_body))
        else:
            for name in ("index", "value", "addr", "code"):
                walk(getattr(stmt, name, None))
    return found


@pytest.mark.parametrize("isa", adl.builtin_spec_names())
def test_folded_constants_equal_the_term_builder_walk(isa):
    """Each closed subexpression of every instruction, under random field
    values and pcs, folds to the constant the term builders build."""
    model = build(isa)
    engine = Engine(model)
    state = SymState(model, SymMemory(MemoryMap()))
    rng = random.Random(isa)
    checked = 0
    for instruction in model.instructions:
        nodes = _closed_subexpressions(instruction.semantics)
        if not nodes:
            continue

        class Decoded:
            pass

        decoded = Decoded()
        decoded.instruction = instruction
        for _ in range(4):
            decoded.address = state.pc = rng.getrandbits(model.pc_width)
            names = {node.name for expr in nodes for node in _walk(expr)
                     if isinstance(node, N.Field)}
            widths = {name: engine._field_width(decoded, name)
                      for name in names}
            decoded.fields = {name: rng.getrandbits(width)
                              for name, width in widths.items()}
            folded, plain = (_FieldTerms(
                (name, T.bv(value, widths[name]))
                for name, value in decoded.fields.items())
                for _ in range(2))
            folded.folded, plain.folded = {}, None
            for expr in nodes:
                want = engine._eval(state, expr, plain, {}, (), decoded)
                got = engine._eval(state, expr, folded, {}, (), decoded)
                assert want.is_const(), (instruction.name, expr)
                assert got is want, (instruction.name, expr,
                                     decoded.fields, decoded.address)
                checked += 1
    assert checked > 0


def _walk(expr):
    yield expr
    for child in expr.children():
        yield from _walk(child)


class TestImageWordRead:
    def _memory(self):
        memory = SymMemory(MemoryMap([Region(0x100, 0x10, "data")]))
        memory.load_image(0x100, b"\x01\x02\x03\x04")
        return memory

    def test_unwritten_word_is_one_constant(self):
        memory = self._memory()
        word = memory.read(0x100, 4, "little")
        assert word.is_const() and word.value == 0x04030201
        assert memory.read(0x100, 4, "big").value == 0x01020304
        assert memory.read(0x102, 4, "little").value == 0x0403

    def test_fetch_window_builds_no_byte_terms(self):
        memory = self._memory()
        before = T.pool_stats()
        assert memory.concrete_window(0x100, 4) == b"\x01\x02\x03\x04"
        assert memory.concrete_window(0x102, 4) == b"\x03\x04\x00\x00"
        assert T.pool_stats() == before
        memory.write_byte(0x101, T.bv(0xee, 8))
        assert memory.concrete_window(0x100, 2) == b"\x01\xee"
        assert memory.concrete_window(0x100, 4) == b"\x01\xee\x03\x04"
        assert memory.fork().concrete_window(0x102, 4) == b"\x03\x04\x00\x00"
        memory.write_byte(0x103, T.var("fs_w", 8))
        assert memory.concrete_window(0x100, 4) is None

    def test_written_byte_takes_the_byte_path(self):
        memory = self._memory()
        memory.write_byte(0x101, T.var("fs_b", 8))
        word = memory.read(0x100, 2, "little")
        assert not word.is_const()
        assert T.evaluate(word, {"fs_b": 0xaa}) == 0xaa01

    def test_without_simplification_the_concat_is_built(self):
        previous = T.set_pool(T.TermPool(simplify=False))
        try:
            word = self._memory().read(0x100, 2, "little")
            assert word.op == T.CONCAT
            assert T.evaluate(word, {}) == 0x0201
        finally:
            T.set_pool(previous)


def test_field_terms_are_shared_per_pool_and_die_with_it():
    """Engines share an instruction's field terms within one term pool; a
    new pool gets terms of its own, dropped with the pool."""
    model = build("rv32")
    image = assemble(model, ".org 0x1000\naddi x1, x0, 5\nhalt 0",
                     base=0x1000)
    decoded = model.decoder.decode_bytes(bytes(image.data[:4]), 0x1000)
    first, second = Engine(model), Engine(model)
    terms = first._field_terms(decoded)
    assert second._field_terms(decoded) is terms
    pools = len(_FIELD_TERMS)
    previous = T.set_pool(T.TermPool())
    try:
        engine = Engine(model)
        engine.load_image(image)
        fresh = engine._field_terms(decoded)
        assert fresh is not terms
        assert len(_FIELD_TERMS) == pools + 1
        assert all(fresh[name] is T.bv(value, fresh[name].width)
                   for name, value in decoded.fields.items())
        [path] = engine.explore().paths
        assert path.state.read_reg("x", 1).value == 5
    finally:
        T.set_pool(previous)
    assert first._field_terms(decoded) is terms
    del engine, fresh, path
    gc.collect()
    assert len(_FIELD_TERMS) == pools


def test_field_terms_die_with_their_decoded_instruction():
    """A discarded model's decoded instructions take their field terms
    along; the pool does not keep them."""
    model = build("rv32", fresh=True)
    image = assemble(model, ".org 0x1000\naddi x1, x0, 5\nhalt 0",
                     base=0x1000)
    engine = Engine(model)
    engine.load_image(image)
    engine.explore()
    by_decoded = _FIELD_TERMS[T.get_pool()]
    gc.collect()
    before = len(by_decoded)
    assert before >= 2
    del model, engine
    gc.collect()
    assert len(by_decoded) <= before - 2
