"""Command-line interface: audit, optimize, pv, node-sim and calibrate.

One table, :data:`COMMANDS`, declares each subcommand once (its function, input
files and other options); the parser and the run manifest's inputs come from it.
Every run writes machine-readable reports (JSON + CSV) plus a run manifest into
the output directory. Reports for identical inputs are byte-identical; anything
time-dependent lives only in the manifest.

Exit codes: 0 success, 1 domain/validation failure, 2 usage error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, NamedTuple

from . import __version__
from .model import CalibrationError, SpecError, TraceError, load_catalog, \
    load_climate_profile, load_tariff, parse_building_spec

# Each subcommand imports the other lowcarb modules it runs, and calls into them
# through the module, so a run loads only what it uses.

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
    digests = {name: {"path": str(path),
                      "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest()}
               for name, path in inputs.items()}
    manifest = {
        "command": command,
        "tool_version": __version__,
        "created_at_utc": datetime.now(timezone.utc).isoformat(),
        "inputs": digests,
        "output_dir": str(out_dir),
    }
    _write_text(out_dir / "run_manifest.json", _json_dumps(manifest))


def _write_reports(args: argparse.Namespace, reports: dict[str, str]) -> Path:
    """Write ``reports`` and the run manifest of ``args``' subcommand, which hashes
    each input file given on this run; returns the output directory: ``--out``,
    else ``$LOWCARB_OUT``, else ``./lowcarb_out``."""
    out_dir = Path(args.out or os.environ.get(DEFAULT_OUT_ENV, "lowcarb_out"))
    # callers build every text first, so a run that fails on one writes nothing
    for name, text in reports.items():
        _write_text(out_dir / name, text)
    given = {f: getattr(args, f) for f in COMMANDS[args.command].files}
    _write_manifest(out_dir, args.command, {f: path for f, path in given.items() if path})
    return out_dir


def _report_csv(report, heating_fuel) -> str:
    lines = ["end_use,gj,kwh,fuel"]
    for name, gj, kwh, fuel in report.csv_rows(heating_fuel):
        lines.append(f"{name},{gj!r},{kwh!r},{fuel}")
    return "\n".join(lines) + "\n"


def cmd_audit(args) -> int:
    from . import energy

    spec_text = _read_text(args.spec)
    climate_text = _read_text(args.climate)
    spec = parse_building_spec(spec_text)
    climate = load_climate_profile(climate_text)
    calib = energy.load_calibration(spec_text)
    tariff = load_tariff(_read_text(args.tariff)) if args.tariff else None

    gas_content = tariff.gas_energy_content if tariff else energy.DEFAULT_GAS_ENERGY_CONTENT_KWH_M3
    report = energy.annual_end_use(spec, climate, calib, gas_energy_content=gas_content)
    eui_value = energy.eui(report, spec.floor_area)

    doc = {**report.to_dict(), "eui_kwh_m2": eui_value, "building": spec.name}
    if tariff:
        doc["annual_cost_cny_m2"] = energy.annual_cost(report, tariff, spec.floor_area)

    out = _write_reports(args, {"report.json": _json_dumps(doc),
                                "report.csv": _report_csv(report, spec.hvac.heating_fuel)})

    print(f"{spec.name}: total {report.total:.2f} GJ/yr, EUI {eui_value:.2f} kWh/m2/yr")
    if tariff:
        print(f"annual cost {doc['annual_cost_cny_m2']:.2f} CNY/m2/yr")
    print(f"reports written to {out}")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    from . import energy

    spec = parse_building_spec(_read_text(args.spec))
    climate = load_climate_profile(_read_text(args.climate))
    targets = energy.EndUseTargets.from_json(_read_text(args.targets))
    params = energy.calibrate(spec, climate, targets)
    achieved = energy.annual_end_use(spec, climate, params)

    doc = {"calibration": dataclasses.asdict(params), "achieved": achieved.to_dict(),
           "targets": dataclasses.asdict(targets)}
    out = _write_reports(args, {"calibration.json": _json_dumps(doc)})
    print(f"calibrated: gain x{params.internal_gain_multiplier:.4f}, "
          f"schedule x{params.schedule_multiplier:.6f}, "
          f"equipment x{params.equipment_multiplier:.6f}")
    print(f"calibration written to {out}")
    return EXIT_OK


def run_optimize(*args, **kwargs):
    """:func:`lowcarb.optimize.optimize`, imported on first call; perfbench wraps it."""
    from .optimize import optimize
    return optimize(*args, **kwargs)


def write_results_csv(*args, **kwargs) -> str:
    """:func:`lowcarb.optimize.write_results_csv`, imported on first call; perfbench wraps it."""
    from .optimize import write_results_csv
    return write_results_csv(*args, **kwargs)


def cmd_optimize(args) -> int:
    from . import energy
    from .optimize import DesignSpace, design_doc, legal_space

    spec_text = _read_text(args.spec)
    spec = parse_building_spec(spec_text)
    climate = load_climate_profile(_read_text(args.climate))
    catalog = load_catalog(_read_text(args.catalog))
    space, limits = DesignSpace.from_json(_read_text(args.space))
    tariff = load_tariff(_read_text(args.tariff))
    calib = energy.load_calibration(spec_text)

    ranked = run_optimize(spec, climate, catalog, space, limits,
                          k=args.k, calib=calib, tariff=tariff)

    top = ranked[0]
    evaluated = legal_space(space, limits).size
    doc = {"evaluated_space_size": evaluated, "returned": len(ranked),
           "best": {"eui_kwh_m2": top.eui, "cost_cny_m2": top.cost_per_m2,
                    "design": design_doc(top.design)}}
    out = _write_reports(args, {"results.csv": write_results_csv(ranked),
                                "results.json": _json_dumps(doc)})
    print(f"evaluated {evaluated} designs, best EUI {top.eui:.2f} kWh/m2/yr "
          f"at {top.cost_per_m2:.2f} CNY/m2/yr")
    print(f"results written to {out}")
    return EXIT_OK


def cmd_pv(args) -> int:
    from . import pv

    site = pv.load_pv_site(_read_text(args.spec))
    climate = load_climate_profile(_read_text(args.climate))
    tariff = load_tariff(_read_text(args.tariff))
    report = pv.site_economics(site, climate.pv_equivalent_full_sun_hours, tariff)

    out = _write_reports(args, {"pv_report.json": _json_dumps(report.to_dict())})
    payback = "never" if report.payback == float("inf") else f"{report.payback:.2f} yr"
    print(f"panels {report.panel_count}  capacity {report.capacity:.1f} kW  "
          f"yield {report.annual_generation:.0f} kWh/yr")
    print(f"benefit {report.total_benefit:.2f} CNY/yr  capex {report.capex:.0f} CNY  "
          f"payback {payback}")
    print(f"report written to {out}")
    return EXIT_OK


def cmd_node_sim(args) -> int:
    from . import node

    config = node.load_node_config(_read_text(args.spec))
    trace = node.load_trace(_read_text(args.trace))
    result = node.simulate(config, trace, dt=args.dt)

    steps, final_soc = len(result.soc_col), result.soc_col[-1]
    summary = {"steps": steps, "dt_s": args.dt,
               "uptime_fraction": result.uptime_fraction, "final_soc": final_soc,
               "alarm_steps": result.alarm_col.count(1),
               "ledger_wh": {**dataclasses.asdict(result.ledger),
                             "residual": result.ledger.residual}}
    out = _write_reports(args, {"states.csv": node.write_state_log(result),
                                "summary.json": _json_dumps(summary)})
    print(f"simulated {steps} steps: uptime {result.uptime_fraction:.3f}, "
          f"final soc {final_soc:.3f}")
    print(f"logs written to {out}")
    return EXIT_OK


class Command(NamedTuple):
    """One subcommand: the function that runs it, its flags and their help texts."""

    run: Callable[[argparse.Namespace], int]
    help: str
    files: dict[str, str]  # input file flag, also its manifest key -> help; --spec first
    optional: tuple[str, ...] = ()  # the files that may be left out
    options: tuple[tuple[str, type, Any, str], ...] = ()  # (flag, type, default, help)


#: The subcommands by name, in ``--help`` order.
COMMANDS: dict[str, Command] = {
    "audit": Command(cmd_audit, "annual end-use audit of one building",
                     {"spec": "building spec JSON", "climate": "climate CSV",
                      "tariff": "tariff JSON (adds cost output)"}, optional=("tariff",)),
    "calibrate": Command(cmd_calibrate, "fit calibration multipliers to end-use targets",
                         {"spec": "building spec JSON", "climate": "climate CSV",
                          "targets": "end-use targets JSON (GJ per end use)"}),
    "optimize": Command(cmd_optimize, "rank retrofit designs by EUI",
                        {"spec": "building spec JSON", "climate": "climate CSV",
                         "catalog": "material/system catalog CSV",
                         "space": "design space JSON (with code limits)",
                         "tariff": "tariff JSON"},
                        options=(("k", int, 10, "number of designs to return"),)),
    "pv": Command(cmd_pv, "rooftop PV sizing and payback",
                  {"spec": "PV site JSON", "climate": "climate CSV (full-sun hours)",
                   "tariff": "tariff JSON"}),
    "node-sim": Command(cmd_node_sim, "simulate the monitoring node over a trace",
                        {"spec": "node config JSON", "trace": "environment trace CSV"},
                        options=(("dt", float, 60.0, "step length in seconds"),)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowcarb",
        description="Building energy audit, retrofit search, PV economics and "
                    "monitoring-node simulation.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for i, (flag, text) in enumerate(command.files.items()):
            p.add_argument(f"--{flag}", required=flag not in command.optional, help=text)
            if i == 0:  # --out is second in every --help
                p.add_argument("--out", "-o", help=f"output directory (default "
                                                   f"${DEFAULT_OUT_ENV} or ./lowcarb_out)")
        for flag, kind, default, text in command.options:
            p.add_argument(f"--{flag}", type=kind, default=default, help=text)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)

    try:
        return COMMANDS[args.command].run(args)
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
