"""Tests of the benchmark harness itself.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

from lowcarb import cli  # noqa: E402
from lowcarb.optimize import DesignSpace  # noqa: E402


@pytest.mark.parametrize("shape", [workloads.SWEEP_LARGE_SHAPE, workloads.SWEEP_ALL_K_SHAPE])
def test_space_generator_is_deterministic_and_keeps_its_shape(shape):
    space_text, catalog_text = workloads.generate_space(11, shape)
    assert workloads.generate_space(11, shape) == (space_text, catalog_text)
    assert workloads.generate_space(12, shape)[0] != space_text

    space, limits = DesignSpace.from_json(space_text)
    assert space.size == workloads.space_size(shape) <= 1_000_000
    for o in workloads.ORIENTATIONS:
        lim = limits.limit(o)
        legal = sum(map(lim.wwr_ok, space.wwr[o])) * sum(map(lim.overhang_ok,
                                                             space.overhang_ratio[o]))
        assert legal == shape["wwr"][o][1] * shape["overhang"][o][1] >= 1
    assert workloads.feasible_size(shape) < space.size  # the code-limit mask rejects some


def test_trace_generator_is_deterministic_and_drains_the_battery():
    text = workloads.generate_trace(5)
    assert workloads.generate_trace(5) == text
    assert workloads.generate_trace(6) != text

    from lowcarb.node import load_node_config, load_trace, simulate
    from lowcarb.model import read_fixture

    result = simulate(load_node_config(read_fixture("node_demo.json")), load_trace(text),
                      dt=workloads.TRACE_DT_S)
    assert len(result.soc) == workloads.TRACE_STEPS
    assert not result.served.all()  # the dark spell runs the battery flat
    alarm = result.alarm.astype(int)
    assert (alarm[1:] != alarm[:-1]).sum() >= 4  # the alarm raises and releases


@pytest.fixture()
def paper(tmp_path):
    workloads.write_inputs("paper_cli", 0, SRC, tmp_path)
    return workloads.describe("paper_cli", tmp_path)


def _run_in_process(op):
    return cli.main(list(op.argv))


def test_one_corrupted_report_byte_fails_the_operation(paper, capsys):
    audit = paper.ops[0]
    ledger = workloads.Ledger(paper)
    assert ledger.record(audit, _run_in_process(audit))
    assert ledger.record(audit, _run_in_process(audit))

    report = audit.out_dir / "report.csv"
    data = bytearray(report.read_bytes())
    data[len(data) // 2] ^= 0x01
    report.write_bytes(bytes(data))
    assert not ledger.record(audit, 0)
    assert (ledger.attempted, ledger.failed) == (3, 1)


def test_a_nonzero_exit_fails_the_operation(paper):
    ledger = workloads.Ledger(paper)
    assert not ledger.record(paper.ops[0], 3)
    assert ledger.failed == 1


def test_reproducing_a_reference_that_failed_its_check_fails(paper, capsys):
    audit = paper.ops[0]
    assert _run_in_process(audit) == 0
    digest = workloads.report_digest(audit.out_dir)
    assert workloads.Ledger(paper, {"audit": (digest, True)}).record(audit, 0)
    assert not workloads.Ledger(paper, {"audit": (digest, False)}).record(audit, 0)


def test_a_failed_first_run_fails_every_later_run_of_its_label(paper, capsys):
    audit = paper.ops[0]
    ledger = workloads.Ledger(paper)
    assert not ledger.record(audit, 1)
    assert not ledger.record(audit, _run_in_process(audit))
    assert ledger.reference["audit"] == (None, False)


def test_reference_worker_checks_a_whole_round_and_the_measured_worker_needs_it(paper):
    _, first = run.spawn_worker(SRC.parent, "paper_cli", paper.ops[0].out_dir.parent.parent,
                                "--setup-only")
    assert sorted(first["reference"]) == sorted(op.label for op in paper.ops)
    assert first["failed"] == 0 and first["attempted"] == len(paper.ops)
    partial = paper.ops[0].out_dir.parent.parent / "partial.json"
    partial.write_text(json.dumps({"audit": first["reference"]["audit"]}))
    with pytest.raises(RuntimeError):
        run.spawn_worker(SRC.parent, "paper_cli", partial.parent, "--seconds", "0",
                         "--reference", str(partial))


class FakeRunner:
    """Traced runs take 3 s and untraced ones 1 s, but the second run of a
    pair is 0.5 s faster; records the tracing order."""

    def __init__(self):
        self.tracing, self.order = False, []

    def set_tracing(self, on):
        self.tracing = on

    def run(self, op):
        second = len(self.order) % 2 == 1
        self.order.append(self.tracing)
        elapsed = (3.0 if self.tracing else 1.0) - (0.5 if second else 0.0)
        return 0, elapsed, {"cli.write_s": 0.5} if self.tracing else None


class NullLedger:
    def record(self, op, code):
        pass


def test_traced_loop_cancels_the_order_of_each_pair(paper):
    one_op = dataclasses.replace(paper, ops=paper.ops[:1])  # so the loop makes MIN_OPS rounds
    runner = FakeRunner()
    ops, units, sums, overheads = worker.closed_loop(one_op, runner, NullLedger(), 0.0,
                                                     traced=True)
    assert worker.MIN_OPS == 3  # so an even number of rounds means one more
    assert runner.order == [False, True, True, False] * 2 and not runner.tracing
    assert [t for _, t in ops] == [1.0, 0.5, 1.0, 0.5] and units == 4
    assert overheads == [2.0, 2.0] and sums["cli.write_s"] == 2.0


def test_paper_runs_pass_their_checks(paper, capsys):
    ledger = workloads.Ledger(paper)
    for op in paper.ops:
        assert ledger.record(op, _run_in_process(op)), ledger.errors


def test_tracer_counts_layers_and_restores_the_program(paper, capsys):
    optimize_module = importlib.import_module("lowcarb.optimize")
    original = (cli.parse_building_spec, optimize_module._design_from_digits,
                DesignSpace.__dict__["from_json"])
    tracer = Tracer(measure_memory=True)
    tracer.install()
    try:
        optimize_op = next(op for op in paper.ops if op.label == "optimize")
        assert _run_in_process(optimize_op) == 0
        layers = tracer.take()
    finally:
        tracer.uninstall()
    assert (cli.parse_building_spec, optimize_module._design_from_digits,
            DesignSpace.__dict__["from_json"]) == original
    assert layers["optimize.designs_enumerated"] == 20736
    assert layers["optimize.designs_feasible"] == 20736
    assert layers["optimize.design_build_calls"] == layers["optimize.returned"] == 10
    assert layers["kernels.batch_energy_calls"] == 1
    assert 0 < layers["kernels.batch_energy_s"] < layers["optimize.total_s"]
    assert layers["optimize.self_s"] < layers["optimize.total_s"]
    assert layers["cli.report_bytes"] == sum(
        p.stat().st_size for p in optimize_op.out_dir.iterdir() if p.name != "run_manifest.json")
    assert tracer.peak_traced_bytes > 0
    assert tracer.take()["optimize.returned"] == 0  # take() clears


def test_importtime_parser_excludes_numpy_from_lowcarb():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | site",
        "import time:      2000 |      50000 |       numpy",
        "import time:      1000 |      60000 |   lowcarb",
        "import time:      3000 |      70000 | lowcarb.cli",
    ])
    assert run.parse_importtime(text) == (0.05, 0.02)


def test_benchmark_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "paper_cli", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert not capsys.readouterr().out  # no result line


def test_declared_per_layer_metrics_match_what_the_traced_run_prints():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    printed = (["startup.interpreter_s", "startup.import_numpy_s", "startup.import_lowcarb_s"]
               + [f"cli.{sub}_s" for sub in run.SUBCOMMANDS]
               + list(layer_metrics({}, 1, 0)) + ["trace.overhead_s"])
    assert sorted(m["name"] for m in declared) == sorted(printed)
