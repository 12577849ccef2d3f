"""Cost ledger, attribution view: the ledger contract, sampling, renderers.

Acceptance pins:
* the ledger contract on the exerciser kernel, on rv32 AND mips32: the
  per-rule ``eval_s`` sum is the ``eval`` layer total, the per-rule
  solver checks sum to the ``solver`` layer's calls, and the layers'
  self time fits inside the exploration's wall time;
* flamegraph weights sum to the attributed total;
* the heat map / flamegraph / report round-trip through JSON (the
  sidecar wire format) unchanged;
* the attr block rides into the run store as ``attr.json`` and never
  perturbs the run key (observe-only);
* degenerate inputs (missing block, pre-v5 sidecar) degrade to empty
  output, never a traceback.
"""

import json
import math
import time

import pytest

from repro.cli import main
from repro.core import Engine, EngineConfig
from repro.obs import AttrConfig, Obs
from repro.obs.attr import annotate_spec_costs, hot_report, hot_rules_lines
from repro.obs.ledger import ATTR_SCHEMA_VERSION, ENGINE_BUCKET, Ledger, ir_kind
from repro.obs.flame import chrome_trace, collapsed_stacks, render_collapsed
from repro.programs import build_kernel


def explore_attr(target, mode="full", sample_every=16, profile=True):
    model, image = build_kernel("exerciser", target)
    obs = Obs(metrics=True, profile=profile)
    config = EngineConfig(obs=obs,
                          attr=AttrConfig(mode, sample_every=sample_every))
    engine = Engine(model, config=config)
    engine.load_image(image)
    result = engine.explore()
    return engine, result, result.telemetry["attr"]


@pytest.fixture(scope="module", params=["rv32", "mips32"])
def full_run(request):
    """One full-mode instrumented exerciser exploration per ISA."""
    return request.param, explore_attr(request.param, mode="full")


def spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class TestReconciliation:
    """The ledger contract: rule and layer views of one accumulator."""

    def test_ledger_contract(self, full_run):
        _, (engine, result, block) = full_run
        layers = result.telemetry["phases"]
        rules = block["rules"].values()
        # Σ per-rule eval_s is the eval layer total (up to float
        # rounding of the two summation orders).
        assert layers["eval"]["total_s"] > 0
        assert math.fsum(rule["eval_s"] for rule in rules) \
            == pytest.approx(layers["eval"]["total_s"], rel=1e-12)
        assert block["eval_calls"] == layers["eval"]["calls"] \
            == result.instructions_executed
        # Per-rule solver checks are the solver layer's calls.
        assert sum(rule["solver_checks"] for rule in rules) \
            == layers["solver"]["calls"] > 0
        # Each second is charged to one layer once, inside the run.
        assert math.fsum(row["self_s"] for row in layers.values()) \
            <= result.wall_time

    def test_rule_totals_sum_to_block_totals(self, full_run):
        _, (engine, _, block) = full_run
        rules = block["rules"].values()
        assert sum(rule["steps"] for rule in rules) == block["steps"]
        assert abs(sum(rule["eval_s"] for rule in rules)
                   - block["eval_s"]) < 1e-9
        assert abs(sum(rule["solver_s"] for rule in rules)
                   - block["solver_s"]) < 1e-9
        assert sum(rule["solver_checks"] for rule in rules) \
            == block["solver_checks"]
        assert sum(rule["forks"] for rule in rules) == block["forks"]

    def test_snapshot_shape_and_provenance(self, full_run):
        target, (engine, _, block) = full_run
        assert block["version"] == ATTR_SCHEMA_VERSION
        assert block["isa"] == target
        assert block["mode"] == "full"
        assert block["rules"], "exerciser must attribute rules"
        # Spec provenance rides along for the heat map.
        attributed = [name for name in block["rules"]
                      if name != ENGINE_BUCKET]
        assert attributed
        for name in attributed:
            entry = block["rules"][name]
            assert entry["mnemonic"]
            lo, hi = entry["lines"]
            assert 0 < lo <= hi

    def test_branch_sites_carry_solver_blame(self, full_run):
        _, (engine, _, block) = full_run
        sites = block["sites"]
        assert sites, "the exerciser branches on input"
        blamed = sum(entry["solver_s"] for entry in sites.values())
        assert blamed > 0
        assert blamed <= block["solver_s"] + 1e-9
        for pc, entry in sites.items():
            assert pc.startswith("0x")
            assert entry["rule"] in block["rules"]

    def test_ir_rollup_populates_in_full_mode(self, full_run):
        _, (engine, _, block) = full_run
        rollup = block["ir"]
        assert rollup
        # Operator-qualified kinds separate add from compare.
        assert any(kind.startswith("BinOp:") for kind in rollup)
        for entry in rollup.values():
            assert entry["self_s"] <= entry["total_s"] + 1e-9


class TestSampling:
    def test_sampled_mode_bounds_deep_steps(self):
        _, _, block = explore_attr("rv32", mode="sampled", sample_every=4)
        assert block["mode"] == "sampled"
        assert block["sample_every"] == 4
        # Deep steps are exactly every 4th step, starting at the first.
        assert block["deep_steps"] == (block["steps"] + 3) // 4
        # Rule-level charging still covers EVERY step.
        assert block["eval_calls"] == block["steps"]

    def test_full_mode_probes_every_step(self):
        _, _, block = explore_attr("rv32", mode="full")
        assert block["deep_steps"] == block["steps"]

    def test_attr_metrics_exported(self):
        engine, _, block = explore_attr("rv32", mode="sampled",
                                        sample_every=8)
        metrics = engine.config.obs.metrics
        assert metrics.counter("attr.steps").value == block["steps"]
        assert metrics.counter("attr.deep_steps").value \
            == block["deep_steps"]
        assert metrics.histogram("attr.step_eval_ms").count \
            == block["deep_steps"]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            AttrConfig("always")

    @pytest.mark.parametrize("every", [0, -3])
    def test_non_positive_sample_every_rejected(self, every):
        # No silent clamp to 1, which would turn "sampled" into "full".
        with pytest.raises(ValueError):
            AttrConfig("sampled", sample_every=every)


def attributing(mode="sampled"):
    ledger = Ledger()
    ledger.attribute(AttrConfig(mode))
    return ledger


class TestUnitCharging:
    """The ledger in isolation: the attribution arithmetic."""

    def test_ir_self_time_excludes_children_and_solver(self):
        ledger = attributing("full")
        assert ledger.begin_step("addi", 0x1000)
        ledger.enter("eval")
        ledger.enter("eval", "BinOp:add")
        ledger.enter("eval", "Const")
        ledger.exit()
        with ledger.scope("solver"):
            spin(0.005)
        ledger.exit()
        ledger.end_deep_step(ledger.exit())
        cost = ledger.attr_snapshot()["rules"]["addi"]
        outer = cost["ir"]["BinOp:add"]
        inner = cost["ir"]["Const"]
        solver_s = cost["solver_s"]
        assert solver_s >= 0.005
        # The child's elapsed and the solver's time are both excluded
        # from the outer frame's self time.
        assert outer["self_s"] <= \
            outer["total_s"] - inner["total_s"] - solver_s + 1e-6
        assert cost["solver_by_ir"]["BinOp:add"] == solver_s

    def test_out_of_step_solver_work_hits_engine_bucket(self):
        ledger = attributing()
        with ledger.scope("solver"):
            spin(0.001)
        ledger.count("cache_hit")
        block = ledger.attr_snapshot()
        assert block["rules"][ENGINE_BUCKET]["solver_s"] \
            == block["solver_s"] >= 0.001
        assert block["rules"][ENGINE_BUCKET]["cache_hits"] == 1

    def test_zero_activity_rules_dropped_from_snapshot(self):
        block = attributing().attr_snapshot()
        assert block["rules"] == {}
        assert block["sites"] == {}

    def test_ir_kind_labels(self):
        from repro.ir import nodes as N
        const = N.Const(1, 8)
        assert ir_kind(const) == "Const"
        assert ir_kind(N.BinOp("add", const, const, 8)) == "BinOp:add"
        assert ir_kind(N.UnOp("not", const, 8)) == "UnOp:not"


class TestFlamegraph:
    def test_weights_sum_to_attributed_total(self, full_run):
        _, (engine, _, block) = full_run
        stacks = collapsed_stacks(block)
        assert stacks
        total_us = sum(frame["us"] for frame in stacks)
        want_us = (block["eval_s"] + block["solver_s"]) * 1e6
        # Integer-microsecond rounding: one count per emitted line.
        assert abs(total_us - want_us) <= len(stacks) + 1

    def test_collapsed_format_round_trips_json(self, full_run):
        target, (engine, _, block) = full_run
        wire = json.loads(json.dumps(block))
        text = render_collapsed(wire)
        for line in text.splitlines():
            stack, weight = line.rsplit(" ", 1)
            assert stack.startswith(target + ";")
            assert int(weight) > 0
        assert text == render_collapsed(block)

    def test_solver_frames_present(self, full_run):
        _, (engine, _, block) = full_run
        text = render_collapsed(block)
        assert ";solver " in text

    def test_chrome_trace_shape(self, full_run):
        _, (engine, _, block) = full_run
        trace = json.loads(json.dumps(chrome_trace(block)))
        events = trace["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0


class TestRenderers:
    def test_hot_report_round_trips_json(self, full_run):
        _, (engine, _, block) = full_run
        wire = json.loads(json.dumps(block))
        text = hot_report(wire)
        assert "cost attribution" in text
        assert "hottest rules:" in text
        assert text == hot_report(block)

    def test_stored_v1_block_with_reconcile_still_renders(self, full_run):
        # Blocks stored before the ledger carried a "reconcile" section;
        # readers ignore it.
        _, (engine, _, block) = full_run
        stored = dict(json.loads(json.dumps(block)), reconcile={
            "eval": {"attr_calls": 1, "phase_calls": 1,
                     "attr_s": 0.1, "phase_s": 0.1}})
        assert hot_report(stored) == hot_report(block)
        assert render_collapsed(stored) == render_collapsed(block)
        assert annotate_spec_costs(stored) == annotate_spec_costs(block)

    def test_min_share_filters_rows(self, full_run):
        _, (engine, _, block) = full_run
        everything = hot_rules_lines(block, top=100, min_share=0.0)
        dominant = hot_rules_lines(block, top=100, min_share=0.99)
        assert len(dominant) < len(everything)

    def test_annotate_emits_heat_margins(self, full_run):
        target, (engine, _, block) = full_run
        wire = json.loads(json.dumps(block))
        text = annotate_spec_costs(wire)
        lines = text.splitlines()
        with open(block["source"]) as handle:
            source_len = len(handle.read().splitlines())
        assert len(lines) == source_len + 3        # header + blank
        assert any("%" in line.split("|", 1)[0] for line in lines[3:])
        # Every source line survives verbatim to the right of the bar.
        assert lines[3:][0].split("|", 1)[1] is not None

    def test_degenerate_inputs_never_traceback(self):
        assert hot_rules_lines(None) == []
        assert hot_rules_lines({"rules": "oops"}) == []
        assert hot_rules_lines({}) == []
        assert "no attribution block" in hot_report(None)
        assert "no attribution block" in hot_report({"steps": 3})
        assert collapsed_stacks(None) == []
        assert render_collapsed({}) == ""
        assert chrome_trace(None)["traceEvents"] == []
        with pytest.raises(ValueError):
            annotate_spec_costs({"not": "a block"})


class TestRunStore:
    def test_attr_json_artifact_round_trips(self, tmp_path):
        from repro.runstore import RunStore, record_exploration

        model, image = build_kernel("maze", "rv32", depth=2, solution=0b10)
        store = RunStore(str(tmp_path / "store"))
        config = EngineConfig(obs=Obs(metrics=True, profile=True),
                              attr=AttrConfig("full"))
        result, stored = record_exploration(store, model, image, config)
        block = stored.attr()
        assert block is not None
        assert block["version"] == ATTR_SCHEMA_VERSION
        assert block == result.telemetry["attr"]

    def test_attr_never_perturbs_the_run_key(self, tmp_path):
        from repro.runstore import RunStore, run_key, spec_digest

        model, image = build_kernel("maze", "rv32", depth=2, solution=0b10)
        store = RunStore(str(tmp_path / "store"))
        spec = spec_digest(model)
        plain = run_key(model.name, spec, image, EngineConfig(), "dfs",
                        0, [])
        attributed = run_key(model.name, spec, image,
                             EngineConfig(attr=AttrConfig("full")),
                             "dfs", 0, [])
        assert store.run_id_for(plain) == store.run_id_for(attributed)

    def test_missing_artifact_degrades_to_none(self, tmp_path):
        from repro.runstore import RunStore, record_exploration

        model, image = build_kernel("maze", "rv32", depth=2, solution=0b10)
        store = RunStore(str(tmp_path / "store"))
        result, stored = record_exploration(store, model, image,
                                            EngineConfig())
        assert stored.attr() is None


BRANCHY = """
.org 0x1000
.entry start
start:
    inb x1
    addi x2, x0, 10
    beq x1, x2, yes
    addi x3, x0, 1
    jal x0, done
yes:
    addi x3, x0, 2
done:
    outb x3
    halt 0
"""


class TestCli:
    @pytest.fixture
    def branchy(self, tmp_path):
        path = tmp_path / "branchy.s"
        path.write_text(BRANCHY)
        return str(path)

    @pytest.fixture
    def sidecar(self, branchy, tmp_path, capsys):
        out = str(tmp_path / "run.jsonl")
        assert main(["explore", "rv32", branchy, "--attr", "full",
                     "--profile", "--telemetry-out", out]) == 0
        capsys.readouterr()
        return out

    def test_explore_prints_attr_report(self, branchy, capsys):
        assert main(["explore", "rv32", branchy, "--attr"]) == 0
        out = capsys.readouterr().out
        assert "cost attribution" in out
        assert "hottest rules:" in out

    def test_runfile_attr_block_accessor(self, sidecar):
        from repro.obs import load_run
        block = load_run(sidecar).attr_block()
        assert block is not None
        assert block["version"] == ATTR_SCHEMA_VERSION

    def test_runfile_attr_block_tolerates_plain_runs(self, branchy,
                                                     tmp_path, capsys):
        from repro.obs import load_run
        out = str(tmp_path / "plain.jsonl")
        assert main(["explore", "rv32", branchy,
                     "--telemetry-out", out]) == 0
        capsys.readouterr()
        assert load_run(out).attr_block() is None

    def test_hot_from_sidecar(self, sidecar, capsys):
        assert main(["hot", sidecar]) == 0
        out = capsys.readouterr().out
        assert "cost attribution" in out
        assert "beq" in out

    def test_hot_json_round_trips(self, sidecar, capsys):
        assert main(["hot", sidecar, "--json"]) == 0
        block = json.loads(capsys.readouterr().out)
        assert block["version"] == ATTR_SCHEMA_VERSION
        assert block["rules"]

    def test_hot_writes_flamegraph_and_trace(self, sidecar, tmp_path,
                                             capsys):
        folded = str(tmp_path / "out.folded")
        trace = str(tmp_path / "out.json")
        assert main(["hot", sidecar, "--flame", folded,
                     "--trace", trace]) == 0
        capsys.readouterr()
        with open(folded) as handle:
            lines = handle.read().splitlines()
        assert lines and all(line.startswith("rv32;") for line in lines)
        with open(trace) as handle:
            assert json.load(handle)["traceEvents"]

    def test_hot_annotate_heat_map(self, sidecar, tmp_path, capsys):
        out = str(tmp_path / "heat.txt")
        assert main(["hot", sidecar, "--annotate", "--out", out]) == 0
        capsys.readouterr()
        with open(out) as handle:
            text = handle.read()
        assert "spec cost heat map: rv32" in text
        assert "%" in text

    def test_stats_shows_hottest_rules(self, sidecar, capsys):
        assert main(["stats", sidecar]) == 0
        out = capsys.readouterr().out
        assert "hottest rules" in out
        assert "beq" in out

    def test_hot_from_store_run_id(self, branchy, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["record", "rv32", branchy, "--store", store]) == 0
        out = capsys.readouterr().out
        run_id = out.split("recorded ")[1].split()[0]
        assert main(["hot", run_id, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "cost attribution" in out
        assert "beq" in out

    def test_hot_without_attr_is_clean_error(self, branchy, tmp_path,
                                             capsys):
        out = str(tmp_path / "plain.jsonl")
        assert main(["explore", "rv32", branchy,
                     "--telemetry-out", out]) == 0
        capsys.readouterr()
        assert main(["hot", out]) == 1
        err = capsys.readouterr().err
        assert "no cost-attribution block" in err

    def test_hot_unknown_target_is_clean_error(self, tmp_path, capsys):
        assert main(["hot", "deadbeef", "--store",
                     str(tmp_path / "empty")]) == 1
        assert "neither" in capsys.readouterr().err

    def test_stats_degrades_without_attr(self, branchy, tmp_path,
                                         capsys):
        out = str(tmp_path / "plain.jsonl")
        assert main(["explore", "rv32", branchy,
                     "--telemetry-out", out]) == 0
        capsys.readouterr()
        assert main(["stats", out]) == 0
        assert "hottest rules" not in capsys.readouterr().out

    @pytest.mark.parametrize("every", ["0", "-2"])
    def test_attr_every_below_one_is_usage_error(self, branchy, every,
                                                 capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["explore", "rv32", branchy, "--attr",
                  "--attr-every", every])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--attr-every" in err
        assert "Traceback" not in err

    def test_record_off_skips_attribution(self, branchy, tmp_path,
                                          capsys):
        store = str(tmp_path / "store")
        assert main(["record", "rv32", branchy, "--store", store,
                     "--attr", "off"]) == 0
        out = capsys.readouterr().out
        run_id = out.split("recorded ")[1].split()[0]
        assert main(["hot", run_id, "--store", store]) == 1
        assert "no cost-attribution profile" in capsys.readouterr().err
