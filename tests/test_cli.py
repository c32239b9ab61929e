import contextlib
import csv
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from conftest import dotted
from hypothesis import given, settings, strategies as st

import lowcarb
from lowcarb.cli import _json_dumps, main
from lowcarb.model import LightingTechnology, fixture_path, to_doc
from lowcarb.optimize import DesignVariables


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


def test_audit_invalid_spec_names_its_first_broken_field(fixtures, tmp_path, capsys):
    """Two broken fields: the one first in class order, storeys, is named by its key."""
    doc = json.loads((fixtures / "baseline_school.json").read_text())
    doc["infiltration_ach"] = -2.0
    doc["storeys"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["audit", "--spec", str(bad),
                 "--climate", str(fixtures / "gd_climate.csv"),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: malformed spec: storeys must be a whole number >= 1, got 0.0"]


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
    {"equipment_multiplier": "many"},
])
def test_audit_bad_calibration_is_domain_error(fixtures, tmp_path, capsys, block):
    code, out = _audit_with_calibration(fixtures, tmp_path, block)
    assert code == 1
    err_lines = [ln for ln in capsys.readouterr().err.splitlines() if ln]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: calibration")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("field, value, named", [
    ("storeys", math.inf, "error: malformed spec"),
    ("orientations", 5, "error: malformed spec"),
    ("storeys", 2.7, "error: malformed spec: storeys must be a whole number"),
    ("lighting.lamp_count", 2.7,
     "error: malformed spec: lighting.lamp_count must be a whole number"),
])
def test_audit_infinite_or_mistyped_spec_value_is_domain_error(fixtures, tmp_path, capsys,
                                                               field, value, named):
    doc = json.loads((fixtures / "baseline_school.json").read_text())
    *parents, key = field.split(".")
    target = doc
    for parent in parents:
        target = target[parent]
    target[key] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "o"
    code = main(["audit", "--spec", str(spec),
                 "--climate", str(fixtures / "gd_climate.csv"), "--out", str(out)])
    assert code == 1
    err_lines = [ln for ln in capsys.readouterr().err.splitlines() if ln]
    assert len(err_lines) == 1
    assert err_lines[0].startswith(named)
    assert not (out / "report.json").exists()


def test_audit_zero_calibration_multiplier_is_legal(fixtures, tmp_path):
    # calibrate can fit 0 for the gain multiplier, so audit must accept it back
    code, out = _audit_with_calibration(fixtures, tmp_path, {"internal_gain_multiplier": 0.0})
    assert code == 0
    assert (out / "report.json").exists()


def test_usage_error_exit_code():
    assert main(["audit"]) == 2          # missing required flags
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("command, flag", [
    ("audit", "--spec"), ("audit", "--climate"),
    ("calibrate", "--spec"), ("calibrate", "--climate"), ("calibrate", "--targets"),
    ("optimize", "--spec"), ("optimize", "--climate"), ("optimize", "--catalog"),
    ("optimize", "--space"), ("optimize", "--tariff"),
    ("pv", "--spec"), ("pv", "--climate"), ("pv", "--tariff"),
    ("node-sim", "--spec"), ("node-sim", "--trace"),
])
def test_missing_file_flag_is_usage_error(fixtures, tmp_path, command, flag):
    argv = _argv(fixtures, command) + ["--out", str(tmp_path / "o")]
    i = argv.index(flag)
    assert main(argv[:i] + argv[i + 2:]) == 2  # only that file flag dropped
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, drop, read", [
    ("audit", None, {"spec": "baseline_school.json", "climate": "gd_climate.csv",
                     "tariff": "paper_tariff.json"}),
    ("audit", "--tariff", {"spec": "baseline_school.json", "climate": "gd_climate.csv"}),
    ("calibrate", None, {"spec": "baseline_school.json", "climate": "gd_climate.csv",
                         "targets": "baseline_targets.json"}),
    ("optimize", None, {"spec": "baseline_school.json", "climate": "gd_climate.csv",
                        "catalog": "catalog.csv", "space": "paper_space.json",
                        "tariff": "paper_tariff.json"}),
    ("pv", None, {"spec": "pv_site.json", "climate": "gd_climate.csv",
                  "tariff": "paper_tariff.json"}),
    ("node-sim", None, {"spec": "node_demo.json", "trace": "node_demo_trace.csv"}),
], ids=["audit-tariff", "audit", "calibrate", "optimize", "pv", "node-sim"])
def test_manifest_hashes_exactly_the_files_read(fixtures, tmp_path, command, drop, read):
    argv = _argv(fixtures, command)
    if drop:
        i = argv.index(drop)
        del argv[i:i + 2]
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == command and manifest["output_dir"] == str(out)
    assert manifest["inputs"] == {
        key: {"path": str(fixtures / name),
              "sha256": hashlib.sha256((fixtures / name).read_bytes()).hexdigest()}
        for key, name in read.items()}


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
def test_manifest_hashes_the_bytes_of_an_input_given_as_a_pipe(fixtures, tmp_path):
    """``--spec <(cat baseline_school.json)``: a pipe can be read once, so the manifest
    holds the digest of the bytes the run parsed, not that of empty bytes."""
    data = (fixtures / "baseline_school.json").read_bytes()
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, data)  # the fixture fits in the pipe's buffer
        os.close(write_fd)
        out = tmp_path / "o"
        argv = _argv(fixtures, "audit", **{"baseline_school.json": f"/dev/fd/{read_fd}"})
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--out", str(out)]) == 0
    finally:
        os.close(read_fd)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["inputs"]["spec"] == {"path": f"/dev/fd/{read_fd}",
                                          "sha256": hashlib.sha256(data).hexdigest()}


def test_crlf_inputs_give_byte_identical_reports(fixtures, tmp_path):
    """Inputs are decoded as text mode decodes them, so CRLF line ends change no report;
    the manifest hashes the CRLF bytes."""
    crlf = {}
    for name in ("baseline_school.json", "gd_climate.csv", "paper_tariff.json"):
        crlf[name] = tmp_path / name
        crlf[name].write_bytes((fixtures / name).read_bytes().replace(b"\n", b"\r\n"))
    outs = {"lf": tmp_path / "lf", "crlf": tmp_path / "crlf"}
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(_argv(fixtures, "audit") + ["--out", str(outs["lf"])]) == 0
        assert main(_argv(fixtures, "audit", **crlf) + ["--out", str(outs["crlf"])]) == 0
    for name in ("report.json", "report.csv"):
        assert (outs["lf"] / name).read_bytes() == (outs["crlf"] / name).read_bytes()
    manifest = json.loads((outs["crlf"] / "run_manifest.json").read_text())
    assert manifest["inputs"]["climate"]["sha256"] == hashlib.sha256(
        crlf["gd_climate.csv"].read_bytes()).hexdigest()


@pytest.mark.parametrize("command", ["audit", "calibrate", "optimize", "pv", "node-sim"])
def test_inputs_that_start_with_a_byte_order_mark_give_byte_identical_reports(
        fixtures, tmp_path, command):
    """Every input saved with a UTF-8 BOM (as some editors save it) reads as without one;
    the manifest hashes the bytes with the BOM."""
    bom = {}
    for name in _COMMAND_OF:
        bom[name] = tmp_path / name
        bom[name].write_bytes(b"\xef\xbb\xbf" + (fixtures / name).read_bytes())
    outs = {"plain": tmp_path / "plain", "bom": tmp_path / "bom"}
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(_argv(fixtures, command) + ["--out", str(outs["plain"])]) == 0
        assert main(_argv(fixtures, command, **bom) + ["--out", str(outs["bom"])]) == 0
    reports = sorted(p.name for p in outs["plain"].iterdir() if p.name != "run_manifest.json")
    for name in reports:
        assert (outs["plain"] / name).read_bytes() == (outs["bom"] / name).read_bytes()
    manifest = json.loads((outs["bom"] / "run_manifest.json").read_text())
    spec = _argv(fixtures, command, **bom)[2]
    assert manifest["inputs"]["spec"] == {
        "path": spec, "sha256": hashlib.sha256(Path(spec).read_bytes()).hexdigest()}


@pytest.mark.parametrize("command, name, flag", [
    ("audit", "baseline_school.json", "spec"), ("node-sim", "node_demo_trace.csv", "trace")])
def test_an_input_that_is_not_utf8_is_one_line_naming_it(fixtures, tmp_path, capsys,
                                                         command, name, flag):
    """A file saved as UTF-16 (bytes ff fe first) is refused, naming its flag and path."""
    path = tmp_path / name
    path.write_bytes((fixtures / name).read_text().encode("utf-16"))
    out = tmp_path / "o"
    assert main(_argv(fixtures, command, **{name: path}) + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: --{flag} {path} is not UTF-8: 'utf-8' codec can't decode byte 0xff in "
        "position 0: invalid start byte"]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command, name, what", [
    ("audit", "baseline_school.json", "spec"), ("audit", "paper_tariff.json", "tariff"),
    ("calibrate", "baseline_targets.json", "targets"),
    ("optimize", "paper_space.json", "design space"), ("pv", "pv_site.json", "pv_site"),
    ("node-sim", "node_demo.json", "node")])
def test_a_json_input_nested_too_deeply_is_one_line_naming_it(fixtures, tmp_path, capsys,
                                                              command, name, what):
    """A value nested 100,000 lists deep exceeds what the JSON decoder recurses into."""
    path = tmp_path / name
    path.write_text('{"deep": ' + "[" * 100_000 + "]" * 100_000 + "}")
    out = tmp_path / "o"
    assert main(_argv(fixtures, command, **{name: path}) + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {what}: JSON nested too deeply"]
    assert captured.out == "" and not out.exists()


def test_every_input_is_read_before_any_is_parsed(fixtures, tmp_path, capsys):
    """A malformed spec and a missing tariff: the missing file is found first (exit 3),
    and nothing is written."""
    spec = tmp_path / "spec.json"
    spec.write_text("{")
    missing = tmp_path / "missing_tariff.json"
    out = tmp_path / "o"
    argv = _argv(fixtures, "audit", **{"baseline_school.json": spec,
                                       "paper_tariff.json": missing})
    assert main(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: file not found: {missing}"]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("command", ["audit", "calibrate", "optimize", "pv", "node-sim"])
def test_last_stdout_line_names_the_output_directory(fixtures, tmp_path, capsys, command):
    out = tmp_path / "o"
    assert main(_argv(fixtures, command) + ["--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"reports written to {out}"


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


#: Per run on the bundled fixtures: the subcommand, its extra arguments, the
#: internal-gain multiplier (None keeps the baseline's; at 300 the heating clamp
#: binds for every design) and the sha256 of every report but run_manifest.json.
PINNED_REPORTS = {
    "audit": ("audit", [], None, {
        "report.csv": "bad08965069cf521e7bf92c8823f12ee9a65a09952613d12515500e32775283f",
        "report.json": "7eee5816de3350ba3377389926fcd617979abb435875571deceb63ab3d8809aa",
    }),
    "audit-gain-300": ("audit", [], 300.0, {
        "report.csv": "3f39b81bebd2b603d6cf54182d3ab4d9297e06d7819660b9bc15019511a1ba89",
        "report.json": "9752408ca3f04947d042a5f0d2bfadbb43e0157b2b2266dc519fb5e1257a3f96",
    }),
    "calibrate": ("calibrate", [], None, {
        "calibration.json": "1a652c7a47f24fb48b07c0d7336666ad3c03fbd9a1bbe5304a8c2a505381f1b4",
    }),
    "optimize": ("optimize", [], None, {
        "results.csv": "db50de2dd3e3dcdb10bba6abf18dfcb79c15e6ea3d1d5164576874fd3e51d074",
        "results.json": "dc85cb3236d3f766b8c3419324550c4c74801a280b89fc304615448bfb0d8405",
    }),
    "optimize-all": ("optimize", ["--k", "20736"], None, {
        "results.csv": "5ff0a5a69162eb0e69aa7bef7dcc0970e4dcd159fa51b4ffa682833d08e93006",
        "results.json": "15884cd853f9b849bf83f527d0b30d3b8f3724600792081a6104a7c77ffea949",
    }),
    "optimize-all-gain-300": ("optimize", ["--k", "20736"], 300.0, {
        "results.csv": "3915effae8142b02897b9a80e3182aedda57f530c2bbbe19a1a9dcfb84a3324c",
        "results.json": "ceddc70ed26067f4d7f38ffaf1ecbf14c64d2e0fe4aea48e274a5a6bd11c0079",
    }),
    "pv": ("pv", [], None, {
        "pv_report.json": "757d47cf803840b9698f0398abbecdf7d43c7ea1dae7f41d97d557df722ebb2d",
    }),
    "node-sim": ("node-sim", [], None, {
        "states.csv": "cd3a463d7d5c03ef0097258ebd17658a4045ad5a5a9421bc8a18cd67f20a9058",
        "summary.json": "9622be36f4390c5e91ff18106dd894b650dbba7798db08e069697cbe9165ed7c",
    }),
}


@pytest.mark.parametrize("run", PINNED_REPORTS)
def test_reports_match_their_pinned_digests(fixtures, tmp_path, run):
    """A refactor of the model or the search leaves every report byte unchanged."""
    command, extra, gain, digests = PINNED_REPORTS[run]
    spec = {}
    if gain is not None:
        doc = json.loads((fixtures / "baseline_school.json").read_text())
        doc["calibration"]["internal_gain_multiplier"] = gain
        spec["baseline_school.json"] = tmp_path / "gain.json"
        spec["baseline_school.json"].write_text(json.dumps(doc))
    out = tmp_path / "o"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(_argv(fixtures, command, **spec) + extra + ["--out", str(out)]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.name != "run_manifest.json"} == digests


def test_out_dir_from_environment(fixtures, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("LOWCARB_OUT", str(target))
    assert main(["audit", "--spec", str(fixtures / "baseline_school.json"),
                 "--climate", str(fixtures / "gd_climate.csv")]) == 0
    assert (target / "report.json").exists()


def test_an_empty_out_dir_in_the_environment_means_the_default(fixtures, tmp_path,
                                                               monkeypatch):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setenv("LOWCARB_OUT", "")
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main(["audit", "--spec", str(fixtures / "baseline_school.json"),
                     "--climate", str(fixtures / "gd_climate.csv")]) == 0
    assert stdout.getvalue().endswith("reports written to lowcarb_out\n")
    assert [p.name for p in work.iterdir()] == ["lowcarb_out"]
    assert (work / "lowcarb_out" / "report.json").exists()


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


def test_optimize_reports_name_the_ranked_designs(fixtures, tmp_path, baseline_spec, climate,
                                                 catalog, baseline_calibration, tariff,
                                                 paper_space):
    """results.csv read back by its header, and results.json's best design, are the
    designs optimize() ranks, column by column and key by key."""
    out = tmp_path / "opt"
    assert main(_argv(fixtures, "optimize") + ["--k", "10", "--out", str(out)]) == 0
    space, limits = paper_space
    ranked = lowcarb.optimize(baseline_spec, climate, catalog, space, limits, k=10,
                              calib=baseline_calibration, tariff=tariff)

    def design(cells):
        return DesignVariables(
            **{o: float(cells[o]) for o in ("wwr_n", "wwr_s", "wwr_e", "wwr_w", "overhang_n",
                                            "overhang_s", "overhang_e", "overhang_w")},
            glazing_id=cells["glazing_id"], wall_id=cells["wall_id"],
            roof_id=cells["roof_id"], infiltration=float(cells["infiltration_ach"]),
            lighting_technology=LightingTechnology(cells["lighting_technology"]),
            hvac_id=cells["hvac_id"])

    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [design(row) for row in rows] == [r.design for r in ranked]
    assert [(int(row["rank"]), float(row["eui_kwh_m2"]), float(row["cost_cny_m2"]))
            for row in rows] == [(r.rank, r.eui, r.cost_per_m2) for r in ranked]

    best = json.loads((out / "results.json").read_text())["best"]["design"]
    assert set(best) == {"wwr", "overhang_ratio", "glazing_id", "wall_id", "roof_id",
                         "infiltration_ach", "lighting_technology", "hvac_id"}
    assert design({**{f"wwr_{o.lower()}": v for o, v in best["wwr"].items()},
                   **{f"overhang_{o.lower()}": v for o, v in best["overhang_ratio"].items()},
                   **best}) == design(rows[0])


def test_optimize_reports_the_code_legal_designs_it_evaluated(fixtures, tmp_path, capsys):
    doc = json.loads((fixtures / "paper_space.json").read_text())
    doc["code_limits"]["N"]["max_overhang"] = 0.0  # rejects one of the two N overhangs
    space = tmp_path / "space.json"
    space.write_text(json.dumps(doc))
    out = tmp_path / "opt"
    assert main(["optimize", "--spec", str(fixtures / "baseline_school.json"),
                 "--climate", str(fixtures / "gd_climate.csv"),
                 "--catalog", str(fixtures / "catalog.csv"), "--space", str(space),
                 "--tariff", str(fixtures / "paper_tariff.json"),
                 "--k", "10", "--out", str(out)]) == 0
    assert json.loads((out / "results.json").read_text())["evaluated_space_size"] == 10_368
    assert "evaluated 10368 designs" in capsys.readouterr().out


def _optimize_once(fixtures, tmp_path, capsys, catalog=None, space=None):
    out = tmp_path / "opt"
    code = main(["optimize", "--spec", str(fixtures / "baseline_school.json"),
                 "--climate", str(fixtures / "gd_climate.csv"),
                 "--catalog", str(catalog or fixtures / "catalog.csv"),
                 "--space", str(space or fixtures / "paper_space.json"),
                 "--tariff", str(fixtures / "paper_tariff.json"),
                 "--k", "10", "--out", str(out)])
    err_lines = [ln for ln in capsys.readouterr().err.splitlines() if ln]
    return code, err_lines, out


@pytest.mark.parametrize("key", ["glazing", "wall", "roof", "hvac"])
def test_optimize_space_id_missing_from_catalog_is_domain_error(fixtures, tmp_path,
                                                                 capsys, key):
    doc = json.loads((fixtures / "paper_space.json").read_text())
    doc[key] = doc[key] + ["no_such_id"]
    space = tmp_path / "space.json"
    space.write_text(json.dumps(doc))
    code, err_lines, out = _optimize_once(fixtures, tmp_path, capsys, space=space)
    assert code == 1
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: ") and "'no_such_id'" in err_lines[0]
    assert not (out / "results.json").exists()


def _edited_catalog(fixtures, tmp_path, row_id, column, value):
    with open(fixtures / "catalog.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if row["id"] == row_id:
            row[column] = value
    catalog = tmp_path / "catalog.csv"
    with open(catalog, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return catalog


@pytest.mark.parametrize("row_id, column", [
    ("wall_sip_12in", "r_value"),
    ("roof_concrete", "r_value"),
    ("dbl_loe", "u_value"),
    ("heat_pump", "cooling_cop"),
    ("vav_baseline", "heating_efficiency"),
    ("led", "lamp_power_w"),
])
@pytest.mark.parametrize("value", ["0", "-1.5", "nan", "inf"])
def test_optimize_nonpositive_catalog_coefficient_is_domain_error(fixtures, tmp_path,
                                                                  capsys, row_id, column,
                                                                  value):
    catalog = _edited_catalog(fixtures, tmp_path, row_id, column, value)
    code, err_lines, out = _optimize_once(fixtures, tmp_path, capsys, catalog=catalog)
    assert code == 1
    assert len(err_lines) == 1
    assert err_lines[0].startswith(f"error: malformed catalog row for {row_id!r}: {column}")
    assert not (out / "results.json").exists()


@pytest.mark.parametrize("row_id, column, value", [
    ("dbl_loe", "shgc", "nan"),
    ("dbl_loe", "shgc", "inf"),
    ("dbl_loe", "shgc", "-0.1"),
    ("dbl_loe", "shgc", "1.5"),
    ("sgl_clr", "visible_transmittance", "nan"),
    ("sgl_clr", "visible_transmittance", "-0.1"),
    ("sgl_clr", "visible_transmittance", "1.01"),
    ("wall_sip_12in", "cost_index", "0"),
    ("dbl_loe", "cost_index", "-1"),
    ("heat_pump", "cost_index", "nan"),
    ("led", "cost_index", "inf"),
])
def test_optimize_catalog_fraction_or_cost_index_out_of_range_is_domain_error(
        fixtures, tmp_path, capsys, row_id, column, value):
    catalog = _edited_catalog(fixtures, tmp_path, row_id, column, value)
    code, err_lines, out = _optimize_once(fixtures, tmp_path, capsys, catalog=catalog)
    assert code == 1
    assert len(err_lines) == 1
    assert err_lines[0].startswith(f"error: malformed catalog row for {row_id!r}: {column}")
    assert not (out / "results.json").exists()


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: d["infiltration_ach"].append(-5.0), id="negative-infiltration"),
    pytest.param(lambda d: d["infiltration_ach"].append(math.inf), id="infinite-infiltration"),
    pytest.param(lambda d: d["wwr"]["S"].append(1.2), id="wwr-above-1"),
    pytest.param(lambda d: d["wwr"]["N"].append(-0.1), id="negative-wwr"),
    pytest.param(lambda d: d["wwr"]["E"].append(math.nan), id="nan-wwr"),
    pytest.param(lambda d: d["overhang_ratio"]["E"].append(-0.25), id="negative-overhang"),
    pytest.param(lambda d: d["overhang_ratio"]["W"].append(math.inf), id="infinite-overhang"),
    pytest.param(lambda d: d.pop("glazing"), id="missing-glazing"),
    pytest.param(lambda d: d["wwr"].pop("E"), id="missing-wwr-orientation"),
    pytest.param(lambda d: d.update(hvac="heat_pump"), id="hvac-not-a-list"),
    pytest.param(lambda d: d["overhang_ratio"].update(N=0.0), id="overhang-not-a-list"),
    pytest.param(lambda d: d["infiltration_ach"].append(None), id="null-infiltration"),
    pytest.param(lambda d: d.update(code_limits=5), id="code-limits-not-an-object"),
    pytest.param(lambda d: d.update(code_limit=d.pop("code_limits")), id="misspelt-code-limits"),
    pytest.param(lambda d: d["overhang_ratio"].update(SW=[0.0]), id="unknown-orientation"),
    pytest.param(lambda d: d["hvac"].append("vav_baseline"), id="repeated-hvac"),
    pytest.param(lambda d: d["wwr"]["S"].append(d["wwr"]["S"][0]), id="repeated-wwr"),
])
def test_optimize_bad_design_space_is_domain_error(fixtures, tmp_path, capsys, edit):
    doc = json.loads((fixtures / "paper_space.json").read_text())
    edit(doc)
    space = tmp_path / "space.json"
    space.write_text(json.dumps(doc))
    code, err_lines, out = _optimize_once(fixtures, tmp_path, capsys, space=space)
    assert code == 1
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: ")
    assert not (out / "results.json").exists()


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


def test_pv_without_benefit_reports_a_null_payback(fixtures, tmp_path, capsys):
    site = json.loads((fixtures / "pv_site.json").read_text())
    site["roof_area_m2"] = 0
    (tmp_path / "site.json").write_text(json.dumps(site))
    out = tmp_path / "pv"
    argv = _argv(fixtures, "pv", **{"pv_site.json": tmp_path / "site.json"})
    assert main(argv + ["--out", str(out)]) == 0
    doc = json.loads((out / "pv_report.json").read_text())
    assert doc["payback_years"] is None and doc["total_benefit_cny"] == 0
    assert "payback never" in capsys.readouterr().out


def test_reports_are_keyed_by_the_records_declared_keys(fixtures, tmp_path, baseline_spec,
                                                        climate, baseline_calibration, tariff):
    """report.json and pv_report.json hold to_doc's keys of EnergyReport and
    PvEconomicsReport; audit adds the EUI, the building name and the cost."""
    from lowcarb.energy import annual_end_use
    from lowcarb.pv import load_pv_site, site_economics

    for command in ("audit", "pv"):
        assert main(_argv(fixtures, command) + ["--out", str(tmp_path / command)]) == 0
    audit = json.loads((tmp_path / "audit" / "report.json").read_text())
    pv = json.loads((tmp_path / "pv" / "pv_report.json").read_text())
    energy = to_doc(annual_end_use(baseline_spec, climate, baseline_calibration))
    site = load_pv_site(fixture_path("pv_site.json").read_text())
    economics = to_doc(site_economics(site, climate.pv_equivalent_full_sun_hours, tariff))
    assert set(energy) == set(audit) - {"eui_kwh_m2", "building", "annual_cost_cny_m2"}
    assert set(economics) == set(pv)


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


@pytest.mark.parametrize("dt", ["nan", "inf", "-inf", "0", "-1"])
def test_node_sim_nonfinite_or_nonpositive_dt_is_domain_error(fixtures, tmp_path, capsys, dt):
    out = tmp_path / "o"
    code = main(["node-sim", "--spec", str(fixtures / "node_demo.json"),
                 "--trace", str(fixtures / "node_demo_trace.csv"),
                 f"--dt={dt}", "--out", str(out)])
    assert code == 1
    err_lines = [ln for ln in capsys.readouterr().err.splitlines() if ln]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: dt must be a finite number > 0")
    assert not (out / "summary.json").exists()


def test_node_sim_dt_that_overflows_is_domain_error(fixtures, tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["node-sim", "--spec", str(fixtures / "node_demo.json"),
                 "--trace", str(fixtures / "node_demo_trace.csv"),
                 "--dt", "1e308", "--out", str(out)])
    assert code == 1
    err_lines = [ln for ln in capsys.readouterr().err.splitlines() if ln]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: dt 1e+308 s overflows")
    assert not out.exists()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_reports_refuse_nan_and_infinity(value):
    with pytest.raises(ValueError):
        _json_dumps({"x": value})


def _fresh_python(*args: str, env: dict[str, str] | None = None,
                  stdout: int = subprocess.PIPE) -> subprocess.CompletedProcess:
    """This interpreter run on ``args`` in a fresh process, in ``env`` (default: this
    process's environment), importing lowcarb from the tree these tests import; its
    stderr is captured, and its stdout unless ``stdout`` is another file descriptor."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(lowcarb.__file__).parents[1]), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=60)


def test_audit_calibrate_pv_and_node_sim_never_load_numpy(fixtures, tmp_path):
    # a fresh interpreter, since this one has numpy loaded by other tests
    runs = [
        ["audit", "--spec", str(fixtures / "baseline_school.json"),
         "--climate", str(fixtures / "gd_climate.csv"),
         "--tariff", str(fixtures / "paper_tariff.json"), "--out", str(tmp_path / "audit")],
        ["calibrate", "--spec", str(fixtures / "baseline_school.json"),
         "--climate", str(fixtures / "gd_climate.csv"),
         "--targets", str(fixtures / "baseline_targets.json"), "--out", str(tmp_path / "cal")],
        ["pv", "--spec", str(fixtures / "pv_site.json"),
         "--climate", str(fixtures / "gd_climate.csv"),
         "--tariff", str(fixtures / "paper_tariff.json"), "--out", str(tmp_path / "pv")],
        ["node-sim", "--spec", str(fixtures / "node_demo.json"),
         "--trace", str(fixtures / "node_demo_trace.csv"), "--dt", "60",
         "--out", str(tmp_path / "node")],
    ]
    script = ("import json, sys\n"
              "import lowcarb\n"
              "loaded = ['numpy' in sys.modules]\n"
              "from lowcarb.cli import main\n"
              "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
              "from lowcarb import node\n"
              "config = node.load_node_config(lowcarb.read_fixture('node_demo.json'))\n"
              "state = node.step(node.initial_state(config), config,\n"
              "                  node.EnvSample(0.5, 0.0, 60.0), 60.0)\n"
              "loaded.append('numpy' in sys.modules)\n"
              "print(json.dumps({'codes': codes, 'soc': state.soc, 'numpy_loaded': loaded}))\n")
    proc = _fresh_python("-c", script, json.dumps(runs))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    # the step's 3 W harvest covers the demo node's load, so the battery stays full
    assert result == {"codes": [0, 0, 0, 0], "soc": 1.0, "numpy_loaded": [False, False]}


@pytest.mark.parametrize("preset", [None, "2"])
def test_cli_runs_load_no_openssl_and_start_no_blas_threads_unless_asked(fixtures, tmp_path,
                                                                         preset):
    """Every subcommand hashes its inputs without hashlib, which would map OpenSSL's
    libcrypto. ``main`` sets OPENBLAS_NUM_THREADS to 1 unless it is set, so the numpy that
    optimize imports starts no BLAS worker thread; a value the user set is kept."""
    script = ("import json, os, sys\n"
              "from lowcarb.cli import main\n"
              "runs = [(main(a), '_hashlib' in sys.modules) for a in json.loads(sys.argv[1])]\n"
              "task = '/proc/self/task'\n"
              "threads = len(os.listdir(task)) if os.path.isdir(task) else None\n"
              "print(json.dumps([runs, os.environ.get('OPENBLAS_NUM_THREADS'), threads]))\n")
    runs = [_argv(fixtures, command) + ["--out", str(tmp_path / command)]
            for command in ("audit", "calibrate", "optimize", "pv", "node-sim")]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = _fresh_python("-c", script, json.dumps(runs), env=env)
    assert proc.returncode == 0, proc.stderr
    codes_and_hashlib, blas_threads, threads = json.loads(proc.stdout.splitlines()[-1])
    assert codes_and_hashlib == [[0, False]] * 5
    assert blas_threads == (preset or "1")
    if preset is None and threads is not None:  # Linux: numpy is loaded, in one thread
        assert threads == 1


def test_an_audit_without_site_packages_never_imports_importlib_resources(fixtures, tmp_path):
    """Only the bundled-fixture helpers need importlib.resources; python -S, so that no
    site .pth file imports it first."""
    script = ("import sys\n"
              "from lowcarb.cli import main\n"
              "print(main(sys.argv[1:]), 'importlib.resources' in sys.modules)\n")
    proc = _fresh_python("-S", "-c", script, *_argv(fixtures, "audit"),
                         "--out", str(tmp_path / "o"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_a_run_whose_stdout_has_no_reader_is_an_io_error_without_a_traceback(fixtures,
                                                                           tmp_path):
    """``lowcarb audit ... | true``: the reports are written, the summary has nowhere to
    go, and the run exits 3 with nothing on stderr."""
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    out = tmp_path / "o"
    try:
        proc = _fresh_python("-m", "lowcarb", *_argv(fixtures, "audit"), "--out", str(out),
                             stdout=write_fd)
    finally:
        os.close(write_fd)
    assert (proc.returncode, proc.stderr) == (3, "")
    assert (out / "report.json").exists()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "lowcarb" in capsys.readouterr().out


def test_one_process_reuses_the_parser_and_keeps_each_call_independent(fixtures, tmp_path):
    """``main`` builds its parser once per process; no option of one call reaches
    the next, whatever the earlier call ended in."""
    from lowcarb.cli import build_parser

    def rows(out):
        return len((out / "results.csv").read_text().splitlines()) - 1

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(_argv(fixtures, "optimize") + ["--k", "3", "--out", str(tmp_path / "k3")]) == 0
        assert main(_argv(fixtures, "optimize") + ["--out", str(tmp_path / "k10")]) == 0
        assert main(_argv(fixtures, "optimize") + ["--k", "three"]) == 2
        assert main(["--version"]) == 0
        assert main(_argv(fixtures, "audit") + ["--out", str(tmp_path / "audit")]) == 0
    assert build_parser() is build_parser()
    assert (rows(tmp_path / "k3"), rows(tmp_path / "k10")) == (3, 10)
    fresh = tmp_path / "fresh"
    proc = _fresh_python("-m", "lowcarb", *_argv(fixtures, "audit"), "--out", str(fresh))
    assert proc.returncode == 0, proc.stderr
    for name in ("report.json", "report.csv"):
        assert (tmp_path / "audit" / name).read_bytes() == (fresh / name).read_bytes()


# ---------------------------------------------------------------------------
# the input boundary, end to end
# ---------------------------------------------------------------------------

def _argv(fixtures, command, **files):
    """CLI arguments of ``command`` on the bundled fixtures, with ``files`` swapped in."""
    def f(name):
        return str(files.get(name, fixtures / name))

    return {
        "audit": ["audit", "--spec", f("baseline_school.json"), "--climate", f("gd_climate.csv"),
                  "--tariff", f("paper_tariff.json")],
        "calibrate": ["calibrate", "--spec", f("baseline_school.json"),
                      "--climate", f("gd_climate.csv"), "--targets", f("baseline_targets.json")],
        "optimize": ["optimize", "--spec", f("baseline_school.json"),
                     "--climate", f("gd_climate.csv"), "--catalog", f("catalog.csv"),
                     "--space", f("paper_space.json"), "--tariff", f("paper_tariff.json")],
        "pv": ["pv", "--spec", f("pv_site.json"), "--climate", f("gd_climate.csv"),
               "--tariff", f("paper_tariff.json")],
        "node-sim": ["node-sim", "--spec", f("node_demo.json"),
                     "--trace", f("node_demo_trace.csv")],
    }[command]


#: The subcommand that reads each bundled input.
_COMMAND_OF = {
    "baseline_school.json": "audit", "paper_tariff.json": "audit", "gd_climate.csv": "audit",
    "baseline_targets.json": "calibrate", "paper_space.json": "optimize",
    "catalog.csv": "optimize", "pv_site.json": "pv", "node_demo.json": "node-sim",
    "node_demo_trace.csv": "node-sim",
}


@pytest.mark.parametrize("command", ["node-sim", "optimize"])
def test_failed_report_build_writes_nothing(fixtures, tmp_path, capsys, monkeypatch, command):
    def refuse(_obj):
        raise ValueError("Out of range float values are not JSON compliant: nan")

    monkeypatch.setattr("lowcarb.cli._json_dumps", refuse)
    out = tmp_path / "o"
    assert main(_argv(fixtures, command) + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: Out of range")
    assert not out.exists() or not any(out.iterdir())


def _set(*path, value=None, drop=False):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        if drop:
            del doc[path[-1]]
        else:
            doc[path[-1]] = value
    return edit


def _replace(old, new):
    return lambda text: text.replace(old, new, 1)


def _probe(command, name, edit, named, id=None):
    return pytest.param(command, name, edit, named, id=id or f"{command}-{named.split()[0]}")


def _rename(*path, to):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[to] = doc.pop(path[-1])
    return edit


def _values(node, path=()):
    """(path, value) of every value below the root of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    return [pair for key, child in items
            for pair in [(path + (key,), child)] + _values(child, path + (key,))]


def _key_paths(name, below=()):
    """Path of every object key in a bundled JSON fixture, under the path ``below``."""
    doc = json.loads(fixture_path(name).read_text(encoding="utf-8"))
    for key in below:
        doc = doc[key]
    return [below + path for path, _ in _values(doc) if isinstance(path[-1], str)]


@pytest.mark.parametrize("command, name, edit, named", [
    _probe("optimize", "paper_space.json", _set("code_limits", "S", "max_wwr", value=math.nan),
           "code_limits.S.max_wwr must be finite"),
    _probe("optimize", "paper_space.json", _set("code_limits", "S", "strict", value="no"),
           "code_limits.S.strict must be true or false, got 'no'"),
    _probe("optimize", "paper_space.json", _set("code_limits", "N", "strict", value=1),
           "code_limits.N.strict must be true or false, got 1"),
    _probe("optimize", "paper_space.json", _set("code_limits", "E", "strict", value=None),
           "code_limits.E.strict must be true or false, got None"),
    _probe("node-sim", "node_demo_trace.csv",
           _replace("\n60.0,0.000000,0.0", "\n60.0,0.000000,nan"), "rain_reading"),
    _probe("node-sim", "node_demo_trace.csv",
           _replace("\n60.0,0.000000,0.0", "\nnan,0.000000,0.0"), "timestamp"),
    _probe("calibrate", "baseline_targets.json", _set("cooling_gj", drop=True),
           "targets.cooling_gj"),
    _probe("calibrate", "baseline_targets.json", lambda doc: [1],
           "targets document must be a JSON object"),
    _probe("audit", "gd_climate.csv",
           _replace("irradiation_kwh_m2_S=600", "irradiation_kwh_m2_S=nan"),
           "climate.irradiation_kwh_m2_S"),
    _probe("audit", "gd_climate.csv", _replace("\n7,110.0,0.0", "\n7,inf,0.0"),
           "climate month 7: cooling_degree_days_K_day"),
    _probe("optimize", "paper_space.json",
           _set("code_limits", "S", "max_overhang_ratio", value=0.1),
           "code_limits.S.max_overhang_ratio is not a code limit"),
    _probe("optimize", "paper_space.json", _set("code_limits", "SW", value={"max_wwr": 0.3}),
           "code_limits.SW is not a code limit field"),
    _probe("optimize", "paper_space.json", _set("code_limits", "N", value=None),
           "missing required field code_limits.N", id="optimize-code-limits-null-block"),
    _probe("optimize", "paper_space.json", _set("code_limits", "N", value=5),
           "code_limits.N must be a JSON object, got 5",
           id="optimize-code-limits-block-not-an-object"),
    _probe("audit", "baseline_school.json", _set("floor_area_m2", value="x"),
           "floor_area_m2 must be a number, got 'x'"),
    _probe("audit", "baseline_school.json",
           _set("roof", "construction", "r_value", value="x"),
           "roof.construction.r_value must be a number, got 'x'"),
    _probe("audit", "baseline_school.json", _set("name", value=None),
           "malformed spec: missing required field name"),
    _probe("audit", "baseline_school.json", _set("roof", value=[1]),
           "roof must be a JSON object, got [1]"),
    _probe("audit", "baseline_school.json", _set("lighting", "technology", value=["led"]),
           "lighting.technology must be one of 'incandescent', 'led', got ['led']"),
    _probe("node-sim", "node_demo.json", _set("sensor_loads", 0, "name", value=None),
           "missing required field node.sensor_loads[0].name"),
    _probe("optimize", "paper_space.json", _set("glazing", 0, value=1),
           "design space glazing item 0 must be a string, got 1"),
    _probe("optimize", "catalog.csv", _replace(",electric,", ",coal,"),
           "malformed catalog row for 'heat_pump': heating_fuel must be one of"),
    _probe("audit", "baseline_school.json",
           _rename("orientations", 1, "overhang_ratio", to="overhang_rato"),
           "malformed spec: orientations[1].overhang_rato is not a spec field",
           id="audit-unknown-spec-key"),
    _probe("audit", "baseline_school.json", _set("storeys_count", value=3),
           "malformed spec: storeys_count is not a spec field", id="audit-unknown-top-key"),
    _probe("optimize", "catalog.csv", _replace("dbl_loe,,1.8,", "dbl_loe,,,"),
           "malformed catalog row for 'dbl_loe': missing required field u_value",
           id="optimize-catalog-missing-cell"),
    _probe("optimize", "paper_space.json", _set("wwr", "S", 0, value=1.2),
           "design space wwr.S item 0 must be within [0, 1], got 1.2", id="optimize-space-wwr"),
    _probe("optimize", "paper_space.json", _set("infiltration_ach", 3, value=-0.5),
           "design space infiltration_ach item 3 must be nonnegative and finite, got -0.5",
           id="optimize-space-infiltration"),
    _probe("optimize", "paper_space.json", _set("wall", value=[]),
           "design space wall must be a non-empty list", id="optimize-space-empty"),
    _probe("optimize", "paper_space.json", _set("wall", drop=True),
           "design space is missing wall", id="optimize-space-missing"),
    _probe("optimize", "paper_space.json", lambda doc: doc["lighting_technology"].append("led"),
           "design space lighting_technology item 2 repeats 'led'", id="optimize-space-repeat"),
    _probe("optimize", "catalog.csv",
           lambda text: text + "construction,wall_sip_12in,0.10,,,,,,,,1.0\n",
           "catalog repeats construction id 'wall_sip_12in'", id="optimize-catalog-repeat"),
    _probe("node-sim", "node_demo_trace.csv", _replace("60.0,0.000000,0.0", "60.0,x,0.0"),
           "trace line 3: irradiance_fraction must be a number, got 'x'",
           id="node-sim-trace-cell"),
    _probe("node-sim", "node_demo_trace.csv", _replace("60.0,0.000000,0.0", "60.0,0.0"),
           "trace line 3: rain_reading is missing", id="node-sim-trace-short-row"),
    _probe("node-sim", "node_demo_trace.csv", _replace("rain_reading", "rain"),
           "trace is missing column rain_reading", id="node-sim-trace-column"),
    _probe("pv", "pv_site.json", _set("panel", value=[1, 2]),
           "pv_site.panel must be a JSON object, got [1, 2]", id="pv-panel-not-an-object"),
    _probe("pv", "pv_site.json", _set("panel", drop=True),
           "missing required field pv_site.panel", id="pv-panel-missing"),
    _probe("optimize", "paper_space.json", _rename("code_limits", to="code_limit"),
           "code_limit is not a design space field", id="optimize-space-unknown-key"),
    _probe("optimize", "paper_space.json", _set("wwr", "SW", value=[0.3]),
           "wwr.SW is not a design space field", id="optimize-space-unknown-orientation"),
    *(_probe("node-sim", "node_demo.json", _rename(*path, to=f"{path[-1]}_x"),
             f"node.{dotted(path)}_x is not a node config field")
      for path in _key_paths("node_demo.json")),
    *(_probe("audit", "baseline_school.json", _rename(*path, to=f"{path[-1]}_x"),
             f"{dotted(path)}_x is not a calibration field")
      for path in _key_paths("baseline_school.json", ("calibration",))),
    *(_probe(command, name, _rename(*path, to=f"{path[-1]}_x"),
             f"{what}.{dotted(path)}_x is not a {noun} field")
      for command, name, what, noun in [("audit", "paper_tariff.json", "tariff", "tariff"),
                                        ("calibrate", "baseline_targets.json", "targets",
                                         "targets"),
                                        ("pv", "pv_site.json", "pv_site", "PV site")]
      for path in _key_paths(name)),
    _probe("audit", "baseline_school.json", _set("floor_area_m2", value=-1),
           "error: malformed spec: floor_area_m2 must be > 0 and finite, got -1.0",
           id="audit-spec-floor-area"),
    _probe("audit", "baseline_school.json", _set("orientations", 1, "wwr", value=1.5),
           "error: malformed spec: orientations[1].wwr must be within [0, 1], got 1.5",
           id="audit-spec-wwr"),
    _probe("audit", "baseline_school.json", _set("orientations", 3, drop=True),
           "error: malformed spec: orientations must hold exactly one envelope group per "
           "cardinal orientation, got ['N', 'S', 'E']", id="audit-spec-three-orientations"),
    _probe("audit", "baseline_school.json", _set("floor_area_m2", value="1000.0"),
           "error: malformed spec: floor_area_m2 must be a number, got '1000.0'",
           id="audit-spec-number-as-string"),
    _probe("audit", "paper_tariff.json", _set("electricity_price_cny_kwh", value="0.66"),
           "error: tariff.electricity_price_cny_kwh must be a number, got '0.66'",
           id="audit-tariff-number-as-string"),
    _probe("optimize", "paper_space.json", _set("wwr", "S", 0, value="0.3"),
           "error: design space wwr.S item 0 must be a number, got '0.3'",
           id="optimize-space-number-as-string"),
])
def test_malformed_input_is_one_line_naming_the_field(fixtures, tmp_path, capsys,
                                                       command, name, edit, named):
    text = (fixtures / name).read_text()
    if name.endswith(".json"):
        doc = json.loads(text)
        edited = edit(doc)
        text = json.dumps(doc if edited is None else edited)
    else:
        text = edit(text)
    path = tmp_path / name
    path.write_text(text)
    out = tmp_path / "o"
    code = main(_argv(fixtures, command, **{name: path}) + ["--out", str(out)])
    assert code == 1
    err_lines = [ln for ln in capsys.readouterr().err.splitlines() if ln]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: ") and named in err_lines[0]
    assert not out.exists()


def test_an_error_line_quotes_a_long_value_cut_short(fixtures, tmp_path, capsys):
    """A spec whose floor area is a 300,000-item list is refused in one short line that
    names the field; the line quoted the whole list, 900 KB, before."""
    doc = json.loads((fixtures / "baseline_school.json").read_text())
    doc["floor_area_m2"] = [0] * 300_000
    path = tmp_path / "baseline_school.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(_argv(fixtures, "audit", **{"baseline_school.json": path})
                + ["--out", str(out)]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: malformed spec: floor_area_m2 must be a number, got [0, 0")
    assert len(line.encode()) < 200
    assert not out.exists()


def _every_group(*path, value):
    """Set ``path`` in every envelope group of a spec to ``value``."""
    def edit(doc):
        for group in doc["orientations"]:
            _set(*path, value=value)(group)
    return edit


# A numpy RuntimeWarning would print a line before the error: pytest's warning filter
# (pyproject.toml) fails it.
@pytest.mark.parametrize("name, edit, k, named", [
    pytest.param("baseline_school.json", _every_group("gross_wall_area_m2", value=1e308), "10",
                 "overflow the designs' EUI", id="wall-area"),
    pytest.param("baseline_school.json",
                 lambda d: d.update(conditioned_volume_m3=1e308, infiltration_ach=10), "20736",
                 "overflow the designs' EUI", id="volume"),
    pytest.param("paper_tariff.json", _set("electricity_price_cny_kwh", value=1e306), "10",
                 "overflow the designs' annual cost", id="electricity-price"),
])
def test_optimize_overflow_is_one_line_and_writes_nothing(fixtures, tmp_path, capsys,
                                                          name, edit, k, named):
    """Inputs each finite, whose loads or costs overflow a float, are refused before a
    report is built: before, these gave an IndexError traceback, exit 0 with inf and nan
    cells, and a RuntimeWarning before the error line."""
    doc = json.loads((fixtures / name).read_text())
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    code = main(_argv(fixtures, "optimize", **{name: path}) + ["--k", k, "--out", str(out)])
    assert code == 1
    err_lines = [ln for ln in capsys.readouterr().err.splitlines() if ln]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: ") and named in err_lines[0]
    assert not out.exists()


@pytest.mark.parametrize("hvac, code, named", [
    pytest.param(None, 0, None, id="paper-space"),
    pytest.param(["vav_baseline"], 1, "the tariff's prices or gas energy content overflow the "
                 "designs' annual cost", id="gas-hvac-only"),
])
def test_optimize_tiny_gas_energy_content(fixtures, tmp_path, capsys, hvac, code, named):
    """A gas energy content of 5e-324 kWh/m3 overflows every gas design's volume. On the
    paper space the top designs are electric, so the run succeeds with nothing on stderr
    (before, a numpy RuntimeWarning was printed); where every design burns gas, the kept
    rows' cost is refused with one line."""
    tariff = json.loads((fixtures / "paper_tariff.json").read_text())
    tariff["gas_energy_content_kwh_m3"] = 5e-324
    (tmp_path / "tariff.json").write_text(json.dumps(tariff))
    space = json.loads((fixtures / "paper_space.json").read_text())
    space["hvac"] = hvac or space["hvac"]
    (tmp_path / "space.json").write_text(json.dumps(space))
    out = tmp_path / "o"
    argv = _argv(fixtures, "optimize", **{"paper_tariff.json": tmp_path / "tariff.json",
                                          "paper_space.json": tmp_path / "space.json"})
    assert main(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    if named is None:
        assert err == ""
        assert (out / "results.json").exists()
    else:
        assert err.splitlines() == [f"error: {named}"]
        assert not out.exists()


@pytest.mark.parametrize("command, name, edit, named", [
    pytest.param("pv", "pv_site.json", _set("roof_area_m2", value=1e308),
                 "the site's roof area, panel, capex or consumption, or the tariff's prices, "
                 "overflow its PV economics", id="pv-roof-area"),
    pytest.param("pv", "pv_site.json", _set("capex_per_watt_cny", value=1e308),
                 "overflow its PV economics", id="pv-capex"),
    pytest.param("pv", "pv_site.json", _set("panel", "length_m", value=5e-324),
                 "the roof area over the panel's length and width overflows the panel count",
                 id="pv-panel-length"),
    pytest.param("pv", "pv_site.json",
                 lambda doc: doc["panel"].update(length_m=5e-324, width_m=0.5),
                 "overflows the panel count", id="pv-panel-footprint-zero"),
    # a benefit > 0 whose payback overflows was reported as a null payback, "never"
    pytest.param("pv", "pv_site.json",
                 lambda doc: (doc.update(capex_per_watt_cny=1.7e308),
                              doc["panel"].update(rated_power_w=1e-3)),
                 "overflow its PV economics", id="pv-payback"),
    pytest.param("audit", "paper_tariff.json", _set("electricity_price_cny_kwh", value=1e306),
                 "the tariff's prices or the spec's floor area overflow the annual cost",
                 id="audit-electricity-price"),
    pytest.param("audit", "baseline_school.json", _set("conditioned_volume_m3", value=1e308),
                 "the spec's areas, volume or loads, or the gas energy content, overflow its "
                 "annual end use", id="audit-volume"),
    pytest.param("audit", "baseline_school.json", _every_group("wall", "r_value", value=5e-324),
                 "overflow its annual end use", id="audit-wall-r-value"),
    pytest.param("audit", "baseline_school.json", _set("floor_area_m2", value=1e-320),
                 "the spec's end use over its floor area overflows the EUI", id="audit-floor-area"),
    pytest.param("calibrate", "baseline_school.json",
                 _set("lighting", "lamp_power_w", value=1e308),
                 "overflow its annual end use", id="calibrate-lamp-power"),
    pytest.param("calibrate", "baseline_targets.json", _set("heating_gj", value=5e-324),
                 "the targets' cooling_gj or heating_gj overflows the least squares of the "
                 "internal-gain multiplier", id="calibrate-heating-target"),
    pytest.param("calibrate", "baseline_targets.json", _set("cooling_gj", value=5e-324),
                 "overflows the least squares", id="calibrate-cooling-target"),
    pytest.param("calibrate", "baseline_targets.json", _set("heating_gj", value=1e-160),
                 "overflows the least squares", id="calibrate-heating-target-square"),
    pytest.param("calibrate", "baseline_targets.json", _set("cooling_gj", value=1e300),
                 "overflows the least squares", id="calibrate-cooling-target-huge"),
    pytest.param("node-sim", "node_demo.json",
                 lambda doc: (doc.update(controller_idle_power_w=1e308), doc["sensor_loads"]
                              .append({"name": "x", "power_w": 1e308, "duty_cycle": 1})),
                 "node loads controller_idle_power_w, sensor_loads power_w x duty_cycle and "
                 "alarm_power_w add up to an infinite demand", id="node-sim-loads"),
])
def test_overflow_is_one_line_naming_the_inputs_and_writes_nothing(fixtures, tmp_path, capsys,
                                                                   command, name, edit, named):
    """Inputs each finite, whose end use, EUI, cost, PV economics, calibration least
    squares or node demand overflow a float, are refused where that value is computed:
    before, the report writer refused the inf or nan with a line naming no input, a node
    demand overflow was written as inf, and a zero or subnormal panel footprint, or a tiny
    or huge cooling or heating target, escaped as a ZeroDivisionError or OverflowError
    traceback."""
    doc = json.loads((fixtures / name).read_text())
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    code = main(_argv(fixtures, command, **{name: path}) + ["--out", str(out)])
    assert code == 1
    err_lines = [ln for ln in capsys.readouterr().err.splitlines() if ln]
    assert len(err_lines) == 1
    assert err_lines[0].startswith("error: ") and named in err_lines[0]
    assert not out.exists()



@pytest.mark.parametrize("spec_edit, key", [
    (_set("lighting", "lamp_power_w", value=1e-320), "lighting_gj"),
    (_set("equipment_power_density_w_m2", value=1e-320), "equipment_gj"),
])
def test_calibrate_names_the_targets_whose_multiplier_overflows(fixtures, tmp_path, capsys,
                                                               spec_edit, key):
    """A target of 1e300 GJ over a modelled end use of a 1e-320 W lamp (or W/m2) fits an
    infinite multiplier. Before, the line named the fitted CalibrationParams field."""
    files = {}
    for name, edit in [("baseline_school.json", spec_edit),
                       ("baseline_targets.json", _set(key, value=1e300))]:
        doc = json.loads((fixtures / name).read_text())
        edit(doc)
        files[name] = tmp_path / name
        files[name].write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(_argv(fixtures, "calibrate", **files) + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: the targets' lighting_gj or equipment_gj overflows its multiplier"]
    assert not out.exists()

def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_DROP = object()
_MUTATIONS = [math.nan, math.inf, -math.inf, -1, "x", None, _DROP,
              0, 5e-324, 1e-300, 1e300, 1e308]
#: what replaces a string, a boolean, or a whole object or list
_SHAPE_MUTATIONS = [None, 1, [], {}]


def _mutated_json(text, data):
    doc = json.loads(text)
    path, old = data.draw(st.sampled_from(_values(doc)), label="value path")
    value = data.draw(st.sampled_from(_MUTATIONS if _is_number(old) else _SHAPE_MUTATIONS),
                      label="value")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return json.dumps(doc), value


def _csv_cell(value):
    # a null and a dropped value both leave the cell empty
    return "" if value is None or value is _DROP else str(value)


def _mutated_csv(name, text, data):
    lines = text.splitlines()
    if name == "gd_climate.csv":
        # one '# key=value' header entry holding a number
        header = [i for i, ln in enumerate(lines) if "=" in ln
                  and ln.partition("=")[2].replace(".", "", 1).isdigit()]
        i = data.draw(st.sampled_from(header), label="header line")
        value = data.draw(st.sampled_from(_MUTATIONS), label="value")
        if value is _DROP:
            del lines[i]
        else:
            lines[i] = lines[i].partition("=")[0] + "=" + _csv_cell(value)
        return "\n".join(lines) + "\n", value
    rows = [ln.split(",") for ln in lines]
    cells = [(r, c) for r in range(1, len(rows)) for c, cell in enumerate(rows[r])
             if cell.replace(".", "", 1).isdigit()]
    r, c = data.draw(st.sampled_from(cells), label="cell")
    value = data.draw(st.sampled_from(_MUTATIONS), label="value")
    rows[r][c] = _csv_cell(value)
    return "\n".join(",".join(row) for row in rows) + "\n", value


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"report holds {constant}")
    return json.loads(text, parse_constant=refuse)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(_COMMAND_OF)), data=st.data())
def test_boundary_fuzz_never_escapes_and_never_reports_nan(name, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        source = fixture_path(name)
        text = source.read_text(encoding="utf-8")
        if name.endswith(".json"):
            text, value = _mutated_json(text, data)
        else:
            text, value = _mutated_csv(name, text, data)
        (root / name).write_text(text, encoding="utf-8")
        out = root / "out"
        argv = _argv(source.parent, _COMMAND_OF[name], **{name: root / name})
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv + ["--out", str(out)])
        assert code in (0, 1), err.getvalue()
        if isinstance(value, float) and not math.isfinite(value):
            assert code == 1
        if code == 0:
            for report in out.glob("*.json"):
                _strict_json(report.read_text(encoding="utf-8"))
        else:
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()
            assert not out.exists()
