import json
import shutil
from pathlib import Path

import pytest

from lowcarb.cli import main
from lowcarb.model import fixture_path


@pytest.fixture()
def fixtures(tmp_path):
    """Copies of the bundled fixtures on a plain filesystem path."""
    names = ["baseline_school.json", "retrofit_package.json", "gd_climate.csv",
             "catalog.csv", "paper_tariff.json", "paper_space.json",
             "baseline_targets.json", "pv_site.json", "node_demo.json",
             "node_demo_trace.csv"]
    root = tmp_path / "fixtures"
    root.mkdir()
    for name in names:
        shutil.copy(fixture_path(name), root / name)
    return root


def test_audit_reproduces_baseline_eui(fixtures, tmp_path, capsys):
    out = tmp_path / "audit"
    code = main(["audit", "--spec", str(fixtures / "baseline_school.json"),
                 "--climate", str(fixtures / "gd_climate.csv"),
                 "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["eui_kwh_m2"] == pytest.approx(177.0, abs=1.0)
    assert (out / "report.csv").exists()
    assert (out / "run_manifest.json").exists()
    assert "EUI" in capsys.readouterr().out


def test_audit_missing_spec_is_io_error(tmp_path, capsys):
    code = main(["audit", "--spec", str(tmp_path / "missing.json"),
                 "--climate", str(tmp_path / "also_missing.csv"),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "file not found" in capsys.readouterr().err


def test_audit_invalid_spec_prints_violations(fixtures, tmp_path, capsys):
    doc = json.loads((fixtures / "baseline_school.json").read_text())
    doc["infiltration_ach"] = -2.0
    doc["storeys"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["audit", "--spec", str(bad),
                 "--climate", str(fixtures / "gd_climate.csv"),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    err_lines = [ln for ln in capsys.readouterr().err.splitlines() if ln]
    assert len(err_lines) == 2  # one violation per line
    assert any("infiltration" in ln for ln in err_lines)
    assert any("storeys" in ln for ln in err_lines)


def _audit_with_calibration(fixtures, tmp_path, block, name="o"):
    doc = json.loads((fixtures / "baseline_school.json").read_text())
    if block == "absent":
        del doc["calibration"]
    else:
        doc["calibration"] = block
    spec = tmp_path / f"{name}.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / name
    code = main(["audit", "--spec", str(spec),
                 "--climate", str(fixtures / "gd_climate.csv"), "--out", str(out)])
    return code, out


@pytest.mark.parametrize("block", ["absent", None])
def test_audit_without_calibration_uses_defaults(fixtures, tmp_path, block):
    code, out = _audit_with_calibration(fixtures, tmp_path, block)
    assert code == 0
    code, default_out = _audit_with_calibration(fixtures, tmp_path, {}, name="defaults")
    assert code == 0
    assert (out / "report.json").read_bytes() == (default_out / "report.json").read_bytes()


@pytest.mark.parametrize("block", [
    "oops",
    [1],
    {"internal_gain_multiplier": float("nan")},
    {"schedule_multiplier": float("inf")},
    {"equipment_multiplier": "many"},
])
def test_audit_bad_calibration_is_domain_error(fixtures, tmp_path, capsys, block):
    code, out = _audit_with_calibration(fixtures, tmp_path, block)
    assert code == 1
    err_lines = [ln for ln in capsys.readouterr().err.splitlines() if ln]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: calibration")
    assert not (out / "report.json").exists()


def test_usage_error_exit_code():
    assert main(["audit"]) == 2          # missing required flags
    assert main(["no-such-command"]) == 2


def test_reports_are_byte_identical_across_runs(fixtures, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["audit", "--spec", str(fixtures / "baseline_school.json"),
                     "--climate", str(fixtures / "gd_climate.csv"),
                     "--tariff", str(fixtures / "paper_tariff.json"),
                     "--out", str(out)]) == 0
        outs.append(out)
    for artifact in ("report.json", "report.csv"):
        assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()
    # input hashes in the manifest are stable; only the timestamp may differ
    manifests = [json.loads((out / "run_manifest.json").read_text()) for out in outs]
    assert manifests[0]["inputs"] == manifests[1]["inputs"]


def test_out_dir_from_environment(fixtures, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("LOWCARB_OUT", str(target))
    assert main(["audit", "--spec", str(fixtures / "baseline_school.json"),
                 "--climate", str(fixtures / "gd_climate.csv")]) == 0
    assert (target / "report.json").exists()


def test_optimize_subcommand(fixtures, tmp_path):
    out = tmp_path / "opt"
    code = main(["optimize", "--spec", str(fixtures / "baseline_school.json"),
                 "--climate", str(fixtures / "gd_climate.csv"),
                 "--catalog", str(fixtures / "catalog.csv"),
                 "--space", str(fixtures / "paper_space.json"),
                 "--tariff", str(fixtures / "paper_tariff.json"),
                 "--k", "10", "--out", str(out)])
    assert code == 0
    results = json.loads((out / "results.json").read_text())
    assert results["best"]["eui_kwh_m2"] <= 110.0
    table = (out / "results.csv").read_text().strip().splitlines()
    assert len(table) == 11  # header + k rows


def test_calibrate_subcommand(fixtures, tmp_path):
    out = tmp_path / "cal"
    code = main(["calibrate", "--spec", str(fixtures / "baseline_school.json"),
                 "--climate", str(fixtures / "gd_climate.csv"),
                 "--targets", str(fixtures / "baseline_targets.json"),
                 "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "calibration.json").read_text())
    embedded = json.loads((fixtures / "baseline_school.json").read_text())["calibration"]
    for key, value in embedded.items():
        assert doc["calibration"][key] == pytest.approx(value, rel=1e-9)


def test_pv_subcommand(fixtures, tmp_path, capsys):
    out = tmp_path / "pv"
    code = main(["pv", "--spec", str(fixtures / "pv_site.json"),
                 "--climate", str(fixtures / "gd_climate.csv"),
                 "--tariff", str(fixtures / "paper_tariff.json"),
                 "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "pv_report.json").read_text())
    assert doc["payback_years"] == pytest.approx(7.46, abs=0.01)
    assert "payback 7.46 yr" in capsys.readouterr().out


def test_node_sim_subcommand(fixtures, tmp_path):
    out = tmp_path / "node"
    code = main(["node-sim", "--spec", str(fixtures / "node_demo.json"),
                 "--trace", str(fixtures / "node_demo_trace.csv"),
                 "--dt", "60", "--out", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["uptime_fraction"] == 1.0
    assert abs(summary["ledger_wh"]["residual"]) < 1e-9
    states = (out / "states.csv").read_text().strip().splitlines()
    assert len(states) == 1441  # header + one row per minute


def test_node_sim_bad_trace_is_domain_error(fixtures, tmp_path, capsys):
    trace = tmp_path / "bad_trace.csv"
    trace.write_text("timestamp_s,irradiance_fraction,rain_reading\n"
                     "60,0.5,0\n60,0.5,0\n")
    code = main(["node-sim", "--spec", str(fixtures / "node_demo.json"),
                 "--trace", str(trace), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "strictly increasing" in capsys.readouterr().err


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "lowcarb" in capsys.readouterr().out
