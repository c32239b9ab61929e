"""Command-line interface: audit, optimize, pv, node-sim and calibrate.

Every run writes machine-readable reports (JSON + CSV) plus a run manifest
into the output directory. Reports for identical inputs are byte-identical;
anything time-dependent lives only in the manifest.

Exit codes: 0 success, 1 domain/validation failure, 2 usage error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from . import energy, node, pv
from .energy import CalibrationError, EndUseTargets
from .model import SpecError, load_catalog, load_climate_profile, load_tariff, \
    parse_building_spec
from .node import TraceError
from .optimize import DesignSpace, legal_positions, optimize as run_optimize, write_results_csv

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_IO = 3

DEFAULT_OUT_ENV = "LOWCARB_OUT"


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _json_dumps(obj) -> str:
    # a NaN or an infinity would make the report invalid JSON: fail the run instead
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_manifest(out_dir: Path, command: str, inputs: dict[str, str]) -> None:
    digests = {}
    for name, path in inputs.items():
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        digests[name] = {"path": str(path), "sha256": digest}
    manifest = {
        "command": command,
        "tool_version": __version__,
        "created_at_utc": datetime.now(timezone.utc).isoformat(),
        "inputs": digests,
        "output_dir": str(out_dir),
    }
    _write_text(out_dir / "run_manifest.json", _json_dumps(manifest))


def _write_reports(out_dir: Path, reports: dict[str, str], command: str,
                   inputs: dict[str, str]) -> None:
    # callers build every text first, so a run that fails on one writes nothing
    for name, text in reports.items():
        _write_text(out_dir / name, text)
    _write_manifest(out_dir, command, inputs)


def _out_dir(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get(DEFAULT_OUT_ENV, "lowcarb_out"))


def _report_csv(report: energy.EnergyReport, heating_fuel) -> str:
    lines = ["end_use,gj,kwh,fuel"]
    for name, gj, kwh, fuel in report.csv_rows(heating_fuel):
        lines.append(f"{name},{gj!r},{kwh!r},{fuel}")
    return "\n".join(lines) + "\n"


def cmd_audit(args) -> int:
    spec_text = _read_text(args.spec)
    climate_text = _read_text(args.climate)
    spec = parse_building_spec(spec_text)
    climate = load_climate_profile(climate_text)
    calib = energy.load_calibration(spec_text)
    tariff = load_tariff(_read_text(args.tariff)) if args.tariff else None

    gas_content = tariff.gas_energy_content if tariff else energy.DEFAULT_GAS_ENERGY_CONTENT_KWH_M3
    report = energy.annual_end_use(spec, climate, calib, gas_energy_content=gas_content)
    eui_value = energy.eui(report, spec.floor_area)

    doc = report.to_dict()
    doc["eui_kwh_m2"] = eui_value
    doc["building"] = spec.name
    if tariff:
        doc["annual_cost_cny_m2"] = energy.annual_cost(report, tariff, spec.floor_area)

    out = _out_dir(args)
    inputs = {"spec": args.spec, "climate": args.climate}
    if args.tariff:
        inputs["tariff"] = args.tariff
    _write_reports(out, {"report.json": _json_dumps(doc),
                         "report.csv": _report_csv(report, spec.hvac.heating_fuel)},
                   "audit", inputs)

    print(f"{spec.name}: total {report.total:.2f} GJ/yr, EUI {eui_value:.2f} kWh/m2/yr")
    if tariff:
        print(f"annual cost {doc['annual_cost_cny_m2']:.2f} CNY/m2/yr")
    print(f"reports written to {out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    spec = parse_building_spec(_read_text(args.spec))
    climate = load_climate_profile(_read_text(args.climate))
    targets = EndUseTargets.from_json(_read_text(args.targets))
    params = energy.calibrate(spec, climate, targets)
    achieved = energy.annual_end_use(spec, climate, params)

    out = _out_dir(args)
    doc = {
        "calibration": {
            "internal_gain_multiplier": params.internal_gain_multiplier,
            "schedule_multiplier": params.schedule_multiplier,
            "equipment_multiplier": params.equipment_multiplier,
        },
        "achieved": achieved.to_dict(),
        "targets": {
            "lighting_gj": targets.lighting_gj,
            "cooling_gj": targets.cooling_gj,
            "heating_gj": targets.heating_gj,
            "equipment_gj": targets.equipment_gj,
        },
    }
    _write_reports(out, {"calibration.json": _json_dumps(doc)}, "calibrate",
                   {"spec": args.spec, "climate": args.climate, "targets": args.targets})
    print(f"calibrated: gain x{params.internal_gain_multiplier:.4f}, "
          f"schedule x{params.schedule_multiplier:.6f}, "
          f"equipment x{params.equipment_multiplier:.6f}")
    print(f"calibration written to {out}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    spec_text = _read_text(args.spec)
    spec = parse_building_spec(spec_text)
    climate = load_climate_profile(_read_text(args.climate))
    catalog = load_catalog(_read_text(args.catalog))
    space, limits = DesignSpace.from_json(_read_text(args.space))
    tariff = load_tariff(_read_text(args.tariff))
    calib = energy.load_calibration(spec_text)

    ranked = run_optimize(spec, climate, catalog, space, limits,
                                   k=args.k, calib=calib, tariff=tariff)

    out = _out_dir(args)
    top = ranked[0]
    evaluated = math.prod(map(len, legal_positions(space, limits)))
    doc = {
        "evaluated_space_size": evaluated,
        "returned": len(ranked),
        "best": {
            "eui_kwh_m2": top.eui,
            "cost_cny_m2": top.cost_per_m2,
            "design": {
                "wwr": {"N": top.design.wwr_n, "S": top.design.wwr_s,
                        "E": top.design.wwr_e, "W": top.design.wwr_w},
                "overhang_ratio": {"N": top.design.overhang_n, "S": top.design.overhang_s,
                                   "E": top.design.overhang_e, "W": top.design.overhang_w},
                "glazing_id": top.design.glazing_id,
                "wall_id": top.design.wall_id,
                "roof_id": top.design.roof_id,
                "infiltration_ach": top.design.infiltration,
                "lighting_technology": top.design.lighting_technology.value,
                "hvac_id": top.design.hvac_id,
            },
        },
    }
    _write_reports(out, {"results.csv": write_results_csv(ranked),
                         "results.json": _json_dumps(doc)}, "optimize",
                   {"spec": args.spec, "climate": args.climate, "catalog": args.catalog,
                    "space": args.space, "tariff": args.tariff})
    print(f"evaluated {evaluated} designs, best EUI {top.eui:.2f} kWh/m2/yr "
          f"at {top.cost_per_m2:.2f} CNY/m2/yr")
    print(f"results written to {out}")
    return EXIT_OK


def cmd_pv(args) -> int:
    site = pv.load_pv_site(_read_text(args.spec))
    climate = load_climate_profile(_read_text(args.climate))
    tariff = load_tariff(_read_text(args.tariff))
    report = pv.site_economics(site, climate.pv_equivalent_full_sun_hours, tariff)

    out = _out_dir(args)
    _write_reports(out, {"pv_report.json": _json_dumps(report.to_dict())}, "pv",
                   {"spec": args.spec, "climate": args.climate, "tariff": args.tariff})
    payback = "never" if report.payback == float("inf") else f"{report.payback:.2f} yr"
    print(f"panels {report.panel_count}  capacity {report.capacity:.1f} kW  "
          f"yield {report.annual_generation:.0f} kWh/yr")
    print(f"benefit {report.total_benefit:.2f} CNY/yr  capex {report.capex:.0f} CNY  "
          f"payback {payback}")
    print(f"report written to {out}")
    return EXIT_OK


def cmd_node_sim(args) -> int:
    config = node.load_node_config(_read_text(args.spec))
    trace = node.load_trace(_read_text(args.trace))
    result = node.simulate(config, trace, dt=args.dt)

    out = _out_dir(args)
    summary = {
        "steps": len(result.soc),
        "dt_s": args.dt,
        "uptime_fraction": result.uptime_fraction,
        "final_soc": float(result.soc[-1]),
        "alarm_steps": int((result.alarm == 1).sum()),
        "ledger_wh": {
            "harvested": result.ledger.harvested,
            "served": result.ledger.served,
            "curtailed": result.ledger.curtailed,
            "delta_stored": result.ledger.delta_stored,
            "residual": result.ledger.residual,
        },
    }
    _write_reports(out, {"states.csv": node.write_state_log(result),
                         "summary.json": _json_dumps(summary)}, "node-sim",
                   {"spec": args.spec, "trace": args.trace})
    print(f"simulated {len(result.soc)} steps: uptime {result.uptime_fraction:.3f}, "
          f"final soc {float(result.soc[-1]):.3f}")
    print(f"logs written to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowcarb",
        description="Building energy audit, retrofit search, PV economics and "
                    "monitoring-node simulation.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, spec_help):
        p.add_argument("--spec", required=True, help=spec_help)
        p.add_argument("--out", "-o", default=None,
                       help=f"output directory (default ${DEFAULT_OUT_ENV} or ./lowcarb_out)")

    p = sub.add_parser("audit", help="annual end-use audit of one building")
    common(p, spec_help="building spec JSON")
    p.add_argument("--climate", required=True, help="climate CSV")
    p.add_argument("--tariff", default=None, help="tariff JSON (adds cost output)")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("calibrate", help="fit calibration multipliers to end-use targets")
    common(p, spec_help="building spec JSON")
    p.add_argument("--climate", required=True, help="climate CSV")
    p.add_argument("--targets", required=True, help="end-use targets JSON (GJ per end use)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("optimize", help="rank retrofit designs by EUI")
    common(p, spec_help="building spec JSON")
    p.add_argument("--climate", required=True, help="climate CSV")
    p.add_argument("--catalog", required=True, help="material/system catalog CSV")
    p.add_argument("--space", required=True, help="design space JSON (with code limits)")
    p.add_argument("--tariff", required=True, help="tariff JSON")
    p.add_argument("--k", type=int, default=10, help="number of designs to return")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("pv", help="rooftop PV sizing and payback")
    common(p, spec_help="PV site JSON")
    p.add_argument("--climate", required=True, help="climate CSV (full-sun hours)")
    p.add_argument("--tariff", required=True, help="tariff JSON")
    p.set_defaults(func=cmd_pv)

    p = sub.add_parser("node-sim", help="simulate the monitoring node over a trace")
    common(p, spec_help="node config JSON")
    p.add_argument("--trace", required=True, help="environment trace CSV")
    p.add_argument("--dt", type=float, default=60.0, help="step length in seconds")
    p.set_defaults(func=cmd_node_sim)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)

    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SpecError as exc:
        if exc.violations:
            for violation in exc.violations:
                print(str(violation), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (CalibrationError, TraceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
