"""Command-line interface: audit, optimize, pv, node-sim and calibrate.

One table, :data:`COMMANDS`, declares each subcommand once (its function, input
files and other options); the parser and the run manifest's inputs come from it.
:func:`main` alone touches files: it reads each given input once, then runs the
subcommand, which turns the input texts into report texts and summary lines, then
writes the machine-readable reports (JSON + CSV) plus a run manifest holding the
sha256 of each input's bytes (by the interpreter's own sha256, not OpenSSL) into the
output directory. Reports for identical inputs are byte-identical; anything
time-dependent lives only in the manifest. Unless it is set, :func:`main` (not import)
sets ``OPENBLAS_NUM_THREADS=1``: lowcarb makes no BLAS call, so numpy needs no BLAS threads.

Exit codes: 0 success, 1 domain/validation failure, 2 usage error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, NamedTuple

try:  # the interpreter's own sha256, as random.py does: hashlib maps OpenSSL's libcrypto
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # a build without it
        from hashlib import sha256

from . import __version__
from .model import CalibrationError, load_catalog, load_climate_profile, load_tariff, \
    parse_building_spec, to_doc

# Each subcommand imports the other lowcarb modules it runs, and calls into them
# through the module, so a run loads only what it uses.

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_IO = 3

DEFAULT_OUT_ENV = "LOWCARB_OUT"


def _read_input(flag: str, path: str) -> tuple[str, dict[str, str]]:
    """The file's text, decoded as UTF-8 (a leading BOM dropped) with universal newlines,
    and its manifest entry: the path and the sha256 of the bytes that text came from."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # its own text names no input
        raise ValueError(f"--{flag} {path} is not UTF-8: {exc}") from None
    entry = {"path": str(path), "sha256": sha256(data).hexdigest()}
    return text.replace("\r\n", "\n").replace("\r", "\n"), entry


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _json_dumps(obj) -> str:
    # a NaN or an infinity would make the report invalid JSON: fail the run instead
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_manifest(out_dir: Path, command: str, inputs: dict[str, dict[str, str]]) -> None:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "created_at_utc": datetime.now(timezone.utc).isoformat(),
        "inputs": inputs,
        "output_dir": str(out_dir),
    }
    _write_text(out_dir / "run_manifest.json", _json_dumps(manifest))


def _report_csv(report, heating_fuel) -> str:
    """One row per end use: its GJ, their kWh equivalent and the fuel that serves it."""
    from .energy import KWH_PER_GJ

    lines = ["end_use,gj,kwh,fuel"]
    for use in ("lighting", "cooling", "heating", "equipment"):
        gj = getattr(report, use)
        fuel = heating_fuel.value if use == "heating" else "electricity"
        lines.append(f"{use},{gj!r},{gj * KWH_PER_GJ!r},{fuel}")
    return "\n".join(lines) + "\n"


#: What a subcommand returns: its report texts by file name, then its summary lines. It
#: takes each input text out of ``texts`` as it parses it, so the text can be freed.
Output = tuple[dict[str, str], list[str]]


def cmd_audit(args, texts: dict[str, str]) -> Output:
    from . import energy

    spec_text = texts.pop("spec")
    spec = parse_building_spec(spec_text)
    climate = load_climate_profile(texts.pop("climate"))
    calib = energy.load_calibration(spec_text)
    tariff = load_tariff(texts.pop("tariff")) if "tariff" in texts else None

    gas_content = tariff.gas_energy_content if tariff else energy.DEFAULT_GAS_ENERGY_CONTENT_KWH_M3
    report = energy.annual_end_use(spec, climate, calib, gas_energy_content=gas_content)
    eui_value = energy.eui(report, spec.floor_area)

    doc = {**to_doc(report), "eui_kwh_m2": eui_value, "building": spec.name}
    lines = [f"{spec.name}: total {report.total:.2f} GJ/yr, EUI {eui_value:.2f} kWh/m2/yr"]
    if tariff:
        doc["annual_cost_cny_m2"] = energy.annual_cost(report, tariff, spec.floor_area)
        lines.append(f"annual cost {doc['annual_cost_cny_m2']:.2f} CNY/m2/yr")
    return {"report.json": _json_dumps(doc),
            "report.csv": _report_csv(report, spec.hvac.heating_fuel)}, lines


def cmd_calibrate(args, texts: dict[str, str]) -> Output:
    from . import energy

    spec = parse_building_spec(texts.pop("spec"))
    climate = load_climate_profile(texts.pop("climate"))
    targets = energy.EndUseTargets.from_json(texts.pop("targets"))
    params = energy.calibrate(spec, climate, targets)
    achieved = energy.annual_end_use(spec, climate, params)

    doc = {"calibration": to_doc(params), "achieved": to_doc(achieved),
           "targets": to_doc(targets)}
    return {"calibration.json": _json_dumps(doc)}, [
        f"calibrated: gain x{params.internal_gain_multiplier:.4f}, "
        f"schedule x{params.schedule_multiplier:.6f}, "
        f"equipment x{params.equipment_multiplier:.6f}"]


def run_optimize(*args, **kwargs):
    """:func:`lowcarb.optimize.optimize`, imported on first call; perfbench wraps it."""
    from .optimize import optimize
    return optimize(*args, **kwargs)


def write_results_csv(*args, **kwargs) -> str:
    """:func:`lowcarb.optimize.write_results_csv`, imported on first call; perfbench wraps it."""
    from .optimize import write_results_csv
    return write_results_csv(*args, **kwargs)


def cmd_optimize(args, texts: dict[str, str]) -> Output:
    from . import energy
    from .optimize import DesignSpace, design_doc

    spec_text = texts.pop("spec")
    spec = parse_building_spec(spec_text)
    climate = load_climate_profile(texts.pop("climate"))
    catalog = load_catalog(texts.pop("catalog"))
    space, limits = DesignSpace.from_json(texts.pop("space"))
    tariff = load_tariff(texts.pop("tariff"))
    calib = energy.load_calibration(spec_text)

    ranked = run_optimize(spec, climate, catalog, space, limits,
                          k=args.k, calib=calib, tariff=tariff)

    top, evaluated = ranked[0], ranked.evaluated
    doc = {"evaluated_space_size": evaluated, "returned": len(ranked),
           "best": {"eui_kwh_m2": top.eui, "cost_cny_m2": top.cost_per_m2,
                    "design": design_doc(top.design)}}
    return {"results.csv": write_results_csv(ranked), "results.json": _json_dumps(doc)}, [
        f"evaluated {evaluated} designs, best EUI {top.eui:.2f} kWh/m2/yr "
        f"at {top.cost_per_m2:.2f} CNY/m2/yr"]


def cmd_pv(args, texts: dict[str, str]) -> Output:
    from . import pv

    site = pv.load_pv_site(texts.pop("spec"))
    climate = load_climate_profile(texts.pop("climate"))
    tariff = load_tariff(texts.pop("tariff"))
    report = pv.site_economics(site, climate.pv_equivalent_full_sun_hours, tariff)

    doc = to_doc(report)
    never = report.payback == float("inf")  # no benefit
    if never:
        doc["payback_years"] = None
    payback = "never" if never else f"{report.payback:.2f} yr"
    return {"pv_report.json": _json_dumps(doc)}, [
        f"panels {report.panel_count}  capacity {report.capacity:.1f} kW  "
        f"yield {report.annual_generation:.0f} kWh/yr",
        f"benefit {report.total_benefit:.2f} CNY/yr  capex {report.capex:.0f} CNY  "
        f"payback {payback}"]


def cmd_node_sim(args, texts: dict[str, str]) -> Output:
    from . import node

    config = node.load_node_config(texts.pop("spec"))
    # the samples are freed once the fold has run, before the state log is built
    result = node.simulate(config, node.load_trace(texts.pop("trace")), dt=args.dt)

    steps, final_soc = len(result.soc_col), result.soc_col[-1]
    summary = {"steps": steps, "dt_s": args.dt,
               "uptime_fraction": result.uptime_fraction, "final_soc": final_soc,
               "alarm_steps": result.alarm_col.count(1),
               "ledger_wh": {**dataclasses.asdict(result.ledger),
                             "residual": result.ledger.residual}}
    return {"states.csv": node.write_state_log(result), "summary.json": _json_dumps(summary)}, [
        f"simulated {steps} steps: uptime {result.uptime_fraction:.3f}, "
        f"final soc {final_soc:.3f}"]


class Command(NamedTuple):
    """One subcommand: the function that runs it, its flags and their help texts."""

    run: Callable[[argparse.Namespace, dict[str, str]], Output]  # the texts by file flag
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


@functools.cache  # parsing keeps no state in the parser, so calls can share it
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

    # lowcarb makes no BLAS call, so numpy starts no BLAS thread pool unless one is asked for
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    command = COMMANDS[args.command]
    try:
        texts, inputs = {}, {}
        for flag in command.files:  # every input is read, once, before any is parsed
            if path := getattr(args, flag):
                texts[flag], inputs[flag] = _read_input(flag, path)
        # the command builds every report first, so a run that fails writes nothing
        reports, lines = command.run(args, texts)
        out_dir = Path(args.out or os.environ.get(DEFAULT_OUT_ENV) or "lowcarb_out")
        for name, text in reports.items():
            _write_text(out_dir / name, text)
        _write_manifest(out_dir, args.command, inputs)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_IO
    except (OSError, CalibrationError, ValueError) as exc:  # SpecError, TraceError: ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, OSError) else EXIT_DOMAIN
    print(*lines, f"reports written to {out_dir}", sep="\n")
    return EXIT_OK


def entry_point() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:  # no reader: stdout goes to devnull, so exit flushes no error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_IO
    sys.exit(code)


if __name__ == "__main__":
    entry_point()
