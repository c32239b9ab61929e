"""Seeded inputs, operations and output checks for the benchmark workloads.

Generators use only ``random.Random(seed)`` and fixed formatting, so a seed
gives the same input bytes on every machine and Python version. The seed
changes values, never sizes: every seed of a workload enumerates, rejects
and simulates the same amount of work, so run-to-run spread measures the
program and the machine, not the inputs.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import json
import math
import os
import random
import shutil
import signal
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

WORKLOADS = ("paper_cli", "sweep_large", "sweep_all_k", "trace_long")

ORIENTATIONS = ("N", "S", "E", "W")

# The bundled paper limits: N and E/W upper WWR bounds are strict, S is an
# inclusive range. Generated candidates sit on both sides of each bound and
# exactly on it, so the strict/inclusive distinction is exercised.
CODE_LIMITS = {
    "N": {"max_wwr": 0.45, "strict": True, "max_overhang": 0.25},
    "S": {"max_wwr": 0.70, "strict": False, "max_overhang": 0.6666666666666666},
    "E": {"max_wwr": 0.35, "strict": True, "max_overhang": 0.5},
    "W": {"max_wwr": 0.35, "strict": True, "max_overhang": 0.5},
}

# (candidates, code-legal candidates) per orientation, then list lengths.
# 884,736 designs with a quarter code-legal: under the 1,000,000 cap.
SWEEP_LARGE_SHAPE = {
    "wwr": {"N": (2, 1), "S": (2, 2), "E": (2, 2), "W": (2, 2)},
    "overhang": {"N": (2, 2), "S": (4, 2), "E": (3, 3), "W": (3, 3)},
    "glazing": 4, "wall": 3, "roof": 4, "infiltration": 4, "lighting": 2, "hvac": 2,
}
# 61,440 designs, half code-legal; run with k = the whole space.
SWEEP_ALL_K_SHAPE = {
    "wwr": {"N": (2, 1), "S": (2, 2), "E": (2, 2), "W": (2, 2)},
    "overhang": {"N": (2, 2), "S": (3, 3), "E": (2, 2), "W": (2, 2)},
    "glazing": 2, "wall": 2, "roof": 2, "infiltration": 5, "lighting": 2, "hvac": 2,
}
SHAPES = {"sweep_large": SWEEP_LARGE_SHAPE, "sweep_all_k": SWEEP_ALL_K_SHAPE}
SWEEP_LARGE_K = 10

TRACE_STEPS = 200_000
TRACE_DT_S = 60.0
STEPS_PER_DAY = 1440
DARK_SPELL_DAYS = 4  # the full battery carries the base load for ~34 h

PAPER_FIXTURES = ("baseline_school.json", "gd_climate.csv", "paper_tariff.json",
                  "baseline_targets.json", "catalog.csv", "paper_space.json",
                  "pv_site.json", "node_demo.json", "node_demo_trace.csv")

# Published numbers the paper fixtures must reproduce (README), at 2 dp.
PAPER_AUDIT_EUI = 176.98
PAPER_PV_PAYBACK_YR = 7.46
PAPER_OPTIMIZE_BEST_EUI = 99.43

RESCORE_RTOL = 1e-9
MANIFEST = "run_manifest.json"


def spawn_python(argv: list[str], env: dict, log: Path):
    """Run ``python *argv`` with stdout and stderr in ``log`` and wait for it.

    Returns (exit code, wall seconds from spawn to exit, the child's rusage).
    A child still running when the wait is interrupted is killed first.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(log), flags, 0o644), (os.POSIX_SPAWN_DUP2, 1, 2)]
    t0 = perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # the deadline: stop the child before leaving
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), perf_counter() - t0, usage


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _distinct(rng: random.Random, n: int, draw, taken=()) -> list[float]:
    out: list[float] = []
    while len(out) < n:
        value = draw()
        if value not in out and value not in taken:
            out.append(value)
    return out


def _wwr_candidates(rng, n, legal, limit) -> list[float]:
    top, strict = limit["max_wwr"], limit["strict"]
    fixed_legal = [] if strict else [top]
    fixed_bad = [top] if strict else []
    good = fixed_legal[:legal] + _distinct(
        rng, legal - len(fixed_legal[:legal]),
        lambda: round(rng.uniform(0.10, top - 0.01), 3), fixed_legal)
    n_bad = n - legal
    bad = fixed_bad[:n_bad] + _distinct(
        rng, n_bad - len(fixed_bad[:n_bad]),
        lambda: round(rng.uniform(top + 0.01, top + 0.25), 3), fixed_bad)
    values = good + bad
    rng.shuffle(values)
    return values


def _overhang_candidates(rng, n, legal, limit) -> list[float]:
    top = limit["max_overhang"]
    good = [top] + _distinct(rng, legal - 1,
                             lambda: round(rng.uniform(0.0, top - 0.01), 3), [top])
    bad = _distinct(rng, n - legal, lambda: round(rng.uniform(top + 0.01, top + 0.3), 3))
    values = good + bad
    rng.shuffle(values)
    return values


def generate_space(seed: int, shape: dict) -> tuple[str, str]:
    """A design space and the catalog it names; returns (space JSON, catalog CSV)."""
    rng = random.Random(seed)
    rows = []

    def ids(prefix, n):
        return [f"{prefix}_{i}" for i in range(n)]

    walls, roofs = ids("wall", shape["wall"]), ids("roof", shape["roof"])
    glazings, hvacs = ids("glz", shape["glazing"]), ids("hvac", shape["hvac"])
    for cid in walls:
        rows.append(["construction", cid, f"{rng.uniform(0.4, 3.0):.3f}",
                     "", "", "", "", "", "", "", f"{rng.uniform(1.0, 2.5):.2f}"])
    for cid in roofs:
        rows.append(["construction", cid, f"{rng.uniform(0.3, 2.5):.3f}",
                     "", "", "", "", "", "", "", f"{rng.uniform(1.0, 2.5):.2f}"])
    for cid in glazings:
        rows.append(["glazing", cid, "", f"{rng.uniform(1.2, 5.8):.2f}",
                     f"{rng.uniform(0.25, 0.8):.2f}", f"{rng.uniform(0.5, 0.9):.2f}",
                     "", "", "", "", f"{rng.uniform(1.0, 2.5):.2f}"])
    for i, cid in enumerate(hvacs):
        gas = i % 2 == 0
        eff = rng.uniform(0.80, 0.95) if gas else rng.uniform(2.5, 4.0)
        rows.append(["hvac", cid, "", "", "", "", f"{rng.uniform(2.5, 4.5):.2f}",
                     f"{eff:.3f}", "gas" if gas else "electric", "",
                     f"{rng.uniform(1.0, 2.5):.2f}"])
    technologies = ("incandescent", "led")[:shape["lighting"]]
    for tech in technologies:
        lo, hi = (40.0, 50.0) if tech == "incandescent" else (18.0, 32.0)
        rows.append(["lighting", tech, "", "", "", "", "", "", "",
                     f"{rng.uniform(lo, hi):.2f}", f"{rng.uniform(1.0, 2.5):.2f}"])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "id", "r_value", "u_value", "shgc", "visible_transmittance",
                     "cooling_cop", "heating_efficiency", "heating_fuel", "lamp_power_w",
                     "cost_index"])
    writer.writerows(rows)

    space = {
        "schema_version": 1,
        "name": f"generated_space_{seed}",
        "wwr": {o: _wwr_candidates(rng, *shape["wwr"][o], CODE_LIMITS[o])
                for o in ORIENTATIONS},
        "overhang_ratio": {o: _overhang_candidates(rng, *shape["overhang"][o], CODE_LIMITS[o])
                           for o in ORIENTATIONS},
        "glazing": glazings,
        "wall": walls,
        "roof": roofs,
        "infiltration_ach": _distinct(rng, shape["infiltration"],
                                      lambda: round(rng.uniform(0.3, 1.2), 2)),
        "lighting_technology": list(technologies),
        "hvac": hvacs,
        "code_limits": CODE_LIMITS,
    }
    return json.dumps(space, indent=2, sort_keys=True) + "\n", buf.getvalue()


def space_size(shape: dict) -> int:
    n = math.prod(c for c, _ in shape["wwr"].values())
    n *= math.prod(c for c, _ in shape["overhang"].values())
    for key in ("glazing", "wall", "roof", "infiltration", "lighting", "hvac"):
        n *= shape[key]
    return n


def feasible_size(shape: dict) -> int:
    legal = math.prod(ok for _, ok in shape["wwr"].values())
    legal *= math.prod(ok for _, ok in shape["overhang"].values())
    total = math.prod(c for c, _ in shape["wwr"].values())
    total *= math.prod(c for c, _ in shape["overhang"].values())
    return space_size(shape) // total * legal


def generate_trace(seed: int) -> str:
    """Node trace CSV: diurnal sun with cloudy days, rain events and a dark spell.

    Rain events rise through the alarm threshold (500) and decay through the
    hysteresis band (450-500), where they dither before releasing; some
    events peak inside the band and never raise the alarm. A multi-day dark
    spell drains the battery so the unserved branch runs.
    """
    rng = random.Random(seed)
    days = TRACE_STEPS // STEPS_PER_DAY + 1
    cloud = [rng.uniform(0.25, 1.0) for _ in range(days)]
    dark_start = rng.randrange(20, max(21, days - DARK_SPELL_DAYS - 5)) * STEPS_PER_DAY
    dark_end = dark_start + DARK_SPELL_DAYS * STEPS_PER_DAY

    rain = [0.0] * TRACE_STEPS
    t = rng.randrange(200, 2000)
    while t < TRACE_STEPS:
        rise, hold, fall = rng.randrange(20, 90), rng.randrange(30, 300), rng.randrange(60, 240)
        peak = rng.uniform(540.0, 950.0) if rng.random() < 0.8 else rng.uniform(455.0, 495.0)
        for i in range(rise + hold + fall):
            if t + i >= TRACE_STEPS:
                break
            if i < rise:
                level = peak * (i + 1) / rise
            elif i < rise + hold:
                level = peak
            else:
                level = peak * (1.0 - (i - rise - hold) / fall) ** 2
                if 440.0 <= level <= 510.0:
                    level += rng.uniform(-25.0, 25.0)  # dither across the band
            rain[t + i] = level
        t += rise + hold + fall + rng.randrange(300, 6000)

    lines = ["timestamp_s,irradiance_fraction,rain_reading"]
    for i in range(TRACE_STEPS):
        minute = i % STEPS_PER_DAY
        irr = 0.0
        if not dark_start <= i < dark_end and 360 <= minute < 1080:
            irr = math.sin(math.pi * (minute - 360) / 720.0) * cloud[i // STEPS_PER_DAY]
            irr = min(1.0, max(0.0, irr * rng.uniform(0.85, 1.0)))
        reading = max(0.0, rain[i] + rng.uniform(0.0, 30.0))
        lines.append(f"{i * TRACE_DT_S:.1f},{irr:.6f},{reading:.1f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# workloads: the inputs on disk and the CLI runs that use them
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Op:
    """One CLI run: a label (the subcommand), its argv and its output dir."""

    label: str
    argv: tuple[str, ...]
    out_dir: Path
    units: int  # work items this run does: 1 CLI run, designs or trace steps

    def option(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]  # one round; the benchmark cycles through it
    fresh_process: bool  # True: `python -m lowcarb` per op; False: cli.main in process
    throughput: tuple[str, str]  # name and unit that `units` per second has here
    sizes: dict


def write_inputs(name: str, seed: int, src_root: Path, work: Path) -> None:
    """Write the workload's input files under ``work/inputs``."""
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    data = src_root / "lowcarb" / "data"
    if name == "paper_cli":
        fixtures = PAPER_FIXTURES
    elif name in ("sweep_large", "sweep_all_k"):
        fixtures = ("baseline_school.json", "gd_climate.csv", "paper_tariff.json")
        space_text, catalog_text = generate_space(seed, SHAPES[name])
        (inputs / "space.json").write_text(space_text, encoding="utf-8")
        (inputs / "catalog.csv").write_text(catalog_text, encoding="utf-8")
    elif name == "trace_long":
        fixtures = ("node_demo.json",)
        (inputs / "trace.csv").write_text(generate_trace(seed), encoding="utf-8")
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    for fixture in fixtures:
        shutil.copyfile(data / fixture, inputs / fixture)


def describe(name: str, work: Path) -> Workload:
    """The operations of a workload whose inputs :func:`write_inputs` wrote."""
    i, out = work / "inputs", work / "out"
    spec, climate, tariff = (str(i / "baseline_school.json"), str(i / "gd_climate.csv"),
                             str(i / "paper_tariff.json"))
    if name == "paper_cli":
        argvs = [
            ("audit", ["--spec", spec, "--climate", climate, "--tariff", tariff]),
            ("calibrate", ["--spec", spec, "--climate", climate,
                           "--targets", str(i / "baseline_targets.json")]),
            ("optimize", ["--spec", spec, "--climate", climate,
                          "--catalog", str(i / "catalog.csv"),
                          "--space", str(i / "paper_space.json"),
                          "--tariff", tariff, "--k", "10"]),
            ("pv", ["--spec", str(i / "pv_site.json"), "--climate", climate,
                    "--tariff", tariff]),
            ("node-sim", ["--spec", str(i / "node_demo.json"),
                          "--trace", str(i / "node_demo_trace.csv"), "--dt", "60"]),
        ]
        ops = tuple(Op(label, (label, *argv, "--out", str(out / label)), out / label, 1)
                    for label, argv in argvs)
        return Workload(name, ops, True, ("cli_runs_per_s", "runs/s"),
                        {"cli_runs_per_round": len(ops)})
    if name in SHAPES:
        shape = SHAPES[name]
        total = space_size(shape)
        k = SWEEP_LARGE_K if name == "sweep_large" else total
        argv = ("optimize", "--spec", spec, "--climate", climate,
                "--catalog", str(i / "catalog.csv"), "--space", str(i / "space.json"),
                "--tariff", tariff, "--k", str(k), "--out", str(out / "optimize"))
        sizes = {"designs": total, "feasible": feasible_size(shape), "k": k}
        return Workload(name, (Op("optimize", argv, out / "optimize", total),),
                        False, ("designs_per_s", "designs/s"), sizes)
    if name == "trace_long":
        argv = ("node-sim", "--spec", str(i / "node_demo.json"), "--trace", str(i / "trace.csv"),
                "--dt", str(TRACE_DT_S), "--out", str(out / "node-sim"))
        sizes = {"steps": TRACE_STEPS, "trace_bytes": (i / "trace.csv").stat().st_size}
        return Workload(name, (Op("node-sim", argv, out / "node-sim", TRACE_STEPS),),
                        False, ("steps_per_s", "steps/s"), sizes)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def report_digest(out_dir: Path) -> str:
    """sha256 over every report file (name and bytes) except the run manifest."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        if path.name == MANIFEST:
            continue
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _check_node_rows(out_dir: Path, expected_steps: int) -> list[str]:
    summary = json.loads((out_dir / "summary.json").read_text())
    with open(out_dir / "states.csv", encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    problems = []
    if rows != summary["steps"]:
        problems.append(f"states.csv has {rows} rows, summary.json says {summary['steps']}")
    if summary["steps"] != expected_steps:
        problems.append(f"simulated {summary['steps']} steps, trace has {expected_steps}")
    return problems


def _rescore(op: Op, expected_rows: int) -> list[str]:
    """Re-evaluate every returned design through the scalar engine."""
    # the package re-exports a function named optimize over the submodule
    optimize = importlib.import_module("lowcarb.optimize")
    from lowcarb import energy
    from lowcarb.model import (LightingTechnology, load_catalog, load_climate_profile,
                               load_tariff, parse_building_spec)

    spec_text = Path(op.option("--spec")).read_text(encoding="utf-8")
    spec = parse_building_spec(spec_text)
    calib = energy.load_calibration(spec_text)
    climate = load_climate_profile(Path(op.option("--climate")).read_text(encoding="utf-8"))
    catalog = load_catalog(Path(op.option("--catalog")).read_text(encoding="utf-8"))
    tariff = load_tariff(Path(op.option("--tariff")).read_text(encoding="utf-8"))

    with open(op.out_dir / "results.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"returned {len(rows)} designs, expected {expected_rows}")
    prev = None
    best_cost = math.inf
    for i, row in enumerate(rows):
        design = optimize.DesignVariables(
            **{f"{v}_{o}": float(row[f"{v}_{o}"])
               for v in ("wwr", "overhang") for o in "nsew"},
            glazing_id=row["glazing_id"], wall_id=row["wall_id"], roof_id=row["roof_id"],
            infiltration=float(row["infiltration_ach"]),
            lighting_technology=LightingTechnology(row["lighting_technology"]),
            hvac_id=row["hvac_id"])
        report = energy.annual_end_use(optimize.apply_design(spec, design, catalog), climate,
                                       calib, gas_energy_content=tariff.gas_energy_content)
        eui, cost = float(row["eui_kwh_m2"]), float(row["cost_cny_m2"])
        best_cost = min(best_cost, cost)
        if int(row["rank"]) != i + 1:
            problems.append(f"row {i + 1} has rank {row['rank']}")
        if not _close(eui, energy.eui(report, spec.floor_area), RESCORE_RTOL):
            problems.append(f"rank {i + 1}: EUI {eui!r} does not re-score")
        if not _close(cost, energy.annual_cost(report, tariff, spec.floor_area), RESCORE_RTOL):
            problems.append(f"rank {i + 1}: cost {cost!r} does not re-score")
        if prev is not None and (eui, cost) < prev:
            problems.append(f"rank {i + 1} is out of (EUI, cost) order")
        if int(row["pareto"]) != int(cost <= best_cost):
            problems.append(f"rank {i + 1}: wrong pareto flag")
        prev = (eui, cost)
        if len(problems) > 5:
            break
    return problems


def deep_check(workload: Workload, op: Op) -> list[str]:
    """Check one run's reports against known numbers; returns the problems found."""
    out = op.out_dir
    if workload.name == "paper_cli":
        if op.label == "audit":
            value = json.loads((out / "report.json").read_text())["eui_kwh_m2"]
            return [] if round(value, 2) == PAPER_AUDIT_EUI else [f"audit EUI {value!r}"]
        if op.label == "calibrate":
            fitted = json.loads((out / "calibration.json").read_text())["calibration"]
            published = json.loads(Path(op.option("--spec")).read_text())["calibration"]
            return [f"calibration {k} {fitted[k]!r}" for k in sorted(published)
                    if not _close(fitted[k], published[k], RESCORE_RTOL)]
        if op.label == "optimize":
            best = json.loads((out / "results.json").read_text())["best"]["eui_kwh_m2"]
            problems = [] if round(best, 2) == PAPER_OPTIMIZE_BEST_EUI else [f"best EUI {best!r}"]
            return problems + _rescore(op, 10)
        if op.label == "pv":
            value = json.loads((out / "pv_report.json").read_text())["payback_years"]
            return [] if round(value, 2) == PAPER_PV_PAYBACK_YR else [f"payback {value!r}"]
        if op.label == "node-sim":
            return _check_node_rows(out, 1440)
    if workload.name == "sweep_large":
        return _rescore(op, SWEEP_LARGE_K)
    if workload.name == "sweep_all_k":
        return _rescore(op, workload.sizes["feasible"])
    if workload.name == "trace_long":
        return _check_node_rows(out, TRACE_STEPS)
    raise ValueError(f"no check for {workload.name}/{op.label}")


class Ledger:
    """Counts attempted and failed operations of one process.

    Each label's reference is a report digest and whether it passed
    :func:`deep_check`. Without one given, the first run of the label is
    checked in depth and becomes the reference. Every other run must
    reproduce the reference's bytes, and a reference that failed (a non-zero
    exit or a failed check) fails every later run of its label.
    """

    def __init__(self, workload: Workload, reference: dict | None = None):
        self.workload = workload
        self.reference: dict[str, tuple[str | None, bool]] = {
            label: (digest, ok) for label, (digest, ok) in (reference or {}).items()}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, op: Op, exit_code: int) -> bool:
        self.attempted += 1
        problems = []
        if exit_code != 0:
            problems.append(f"exit code {exit_code}")
            self.reference.setdefault(op.label, (None, False))
        else:
            try:
                digest = report_digest(op.out_dir)
                if op.label not in self.reference:
                    found = deep_check(self.workload, op)
                    self.reference[op.label] = (digest, not found)
                    problems += found
                else:
                    ref, ok = self.reference[op.label]
                    if not ok:
                        problems.append("the reference run of this operation failed")
                    elif digest != ref:
                        problems.append("report bytes differ from the reference run")
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"unreadable reports: {exc!r}")
                self.reference.setdefault(op.label, (None, False))
        if problems:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{op.label}: " + "; ".join(problems[:3]))
        return not problems
