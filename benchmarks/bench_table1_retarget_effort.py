"""Table 1 — Retargeting effort.

The paper's economic argument: adding an ISA costs a few hundred ADL
lines, while the (shared, ISA-independent) engine is an order of magnitude
larger and is written once.  Rows report, per ISA: instruction count, ADL
spec lines, generated decode patterns, generated IR operations — against
the shared engine/substrate line counts.

The pytest-benchmark target times full model generation (parse + analyze +
translate + decoder construction) per ISA.
"""

import pytest

from repro.adl import load_builtin_spec
from repro.ir import count_nodes
from repro.isa import build
from repro.isa.model import ArchModel

from _util import ALL_TARGETS, adl_spec_loc, print_table, python_loc


def table_rows():
    rows = []
    for target in ALL_TARGETS:
        model = build(target)
        ir_ops = sum(count_nodes(instr.semantics)
                     for instr in model.instructions)
        rows.append([target, len(model.instructions),
                     adl_spec_loc(target), len(model.instructions),
                     ir_ops])
    return rows


def engine_rows():
    return [
        ["symbolic engine (core)", python_loc("core")],
        ["solver substrate (smt)", python_loc("smt")],
        ["IR + generation (ir, isa, adl)", python_loc("ir", "isa", "adl")],
    ]


def print_report():
    print_table(
        "Table 1a: per-ISA retargeting cost (written per target)",
        ["ISA", "instructions", "ADL lines", "decode patterns", "IR ops"],
        table_rows())
    print_table(
        "Table 1b: shared engine cost (written once, Python lines)",
        ["component", "lines"], engine_rows())
    spec_total = sum(adl_spec_loc(t) for t in ALL_TARGETS)
    shared = sum(row[1] for row in engine_rows())
    print("\nADL total for %d ISAs: %d lines; shared engine: %d lines "
          "(ratio 1:%.1f)" % (len(ALL_TARGETS), spec_total, shared,
                              shared / spec_total))


@pytest.mark.parametrize("target", ALL_TARGETS)
def test_model_generation_time(benchmark, target):
    """Time to generate the full ISA model from its ADL spec."""
    spec = load_builtin_spec(target)

    def generate():
        return ArchModel(spec)

    model = benchmark(generate)
    assert model.instructions


def test_print_table1():
    print_report()


if __name__ == "__main__":
    print_report()
