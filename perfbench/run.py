"""End-to-end and per-layer benchmark of the lowcarb CLI.

Usage (from the root of a lowcarb checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (all closed loop, one client, inputs generated from --seed):

- paper_cli: every subcommand on the bundled fixtures in turn, each a fresh
  ``python -m lowcarb`` process, as a user types it. Interpreter start and
  imports dominate; this is where lazy imports must show.
- sweep_large: ``optimize --k 10`` in process over a generated 884,736-design
  space, three quarters rejected by code limits. Enumeration, masking,
  gathering and sorting dominate; this is where a streaming top-k must show.
- sweep_all_k: ``optimize`` in process over a 61,440-design space with k
  covering every feasible design. Design building, ranking and the CSV
  dominate, so a top-k change that only suits small k shows here.
- trace_long: ``node-sim`` in process over a generated 200,000-step trace with
  rain events and a dark spell. Trace parsing, the state-log write and the
  manifest's input hash dominate; this is where columnar trace I/O must show.

BENCHMARK.json gates paper_cli and sweep_large only. sweep_all_k and
trace_long are run by hand: on a shared 2-vCPU machine their run medians,
which are dominated by interpreted code, swung by up to 45% and 28%
IQR/median over 10 seeds, above any bound the gate allows.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics from spans the benchmark wraps around the calls into each
lowcarb module (nothing under src/ is instrumented). The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# Worker spawns per run whose set-up time is measured: about 3-10 s of set-up
# per run, so cheap set-ups get more samples.
SETUP_SAMPLES = {"paper_cli": 9, "sweep_large": 7, "sweep_all_k": 5, "trace_long": 3}
STARTUP_SAMPLES = 5
DEADLINE_S = 170
SUBCOMMANDS = ("audit", "calibrate", "optimize", "pv", "node-sim")


class Deadline(Exception):
    pass


def _stop(signum, frame):
    raise Deadline(f"stopped by signal {signum} (the deadline is {DEADLINE_S} s)")


def spawn_worker(root: Path, name: str, work: Path, *extra: str) -> tuple[float, dict]:
    """Run worker.py; returns (seconds from spawn to its ``ready`` line, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--work", str(work),
           *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        line = proc.stdout.readline()
        ready_s = perf_counter() - t0
        lines = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {name} failed (exit {proc.returncode})")
    return ready_s, json.loads(lines[-1])


def parse_importtime(text: str) -> tuple[float, float]:
    """(numpy, lowcarb excluding numpy) cumulative import seconds from -X importtime."""
    numpy_us = lowcarb_us = 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, package = line[len("import time:"):].split("|")
        name = package.strip()
        top_level = package[1:] == name  # nested imports are indented
        if name == "numpy":
            numpy_us = int(cum)
        elif top_level and name.split(".")[0] == "lowcarb":
            lowcarb_us += int(cum)
    return numpy_us / 1e6, (lowcarb_us - numpy_us) / 1e6


def startup_metrics(src: Path, work: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    log = work / "startup.log"

    def timed(argv):
        code, elapsed, _ = workloads.spawn_python(argv, env, log)
        if code != 0:
            raise RuntimeError(f"{argv} failed: {log.read_text()[-500:]}")
        return elapsed

    bare = [timed(["-c", "pass"]) for _ in range(STARTUP_SAMPLES)]
    numpy_s, lowcarb_s = [], []
    for _ in range(STARTUP_SAMPLES):
        timed(["-X", "importtime", "-c", "import lowcarb.cli"])
        n, lc = parse_importtime(log.read_text())
        numpy_s.append(n)
        lowcarb_s.append(lc)
    return {"startup.interpreter_s": statistics.median(bare),
            "startup.import_numpy_s": statistics.median(numpy_s),
            "startup.import_lowcarb_s": statistics.median(lowcarb_s)}


def git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def save_reference(result: dict, work: Path) -> str:
    """Write a worker's checked report digests for the run's later workers."""
    path = work / "reference.json"
    path.write_text(json.dumps(result["reference"]))
    return str(path)


def end_to_end(name: str, work: Path, root: Path, seconds: float) -> tuple[dict, list]:
    # The first worker runs and checks one whole round in depth; later ones
    # only compare their reports with its bytes, so the measured worker never
    # pays for the checks in time or memory.
    ready_s, first = spawn_worker(root, name, work, "--setup-only")
    setups, others = [ready_s], [first]
    reference = ("--reference", save_reference(first, work))
    for _ in range(SETUP_SAMPLES[name] - 2):
        ready_s, result = spawn_worker(root, name, work, "--setup-only", *reference)
        setups.append(ready_s)
        others.append(result)
    ready_s, main = spawn_worker(root, name, work, "--seconds", str(seconds), *reference)
    setups.append(ready_s)
    times = [t for _, t in main["ops"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "work_per_s": (main["units"] / sum(times), "1/s"),
        "peak_rss_mib": (main["peak_rss_mib"], "MiB"),
    }
    return metrics, [main, *others]


def per_layer(name: str, work: Path, root: Path, src: Path, seconds: float) -> tuple[dict, list]:
    _, first = spawn_worker(root, name, work, "--setup-only")
    _, traced = spawn_worker(root, name, work, "--seconds", str(seconds), "--trace",
                             "--reference", save_reference(first, work))
    values = startup_metrics(src, work)
    for sub in SUBCOMMANDS:
        times = [t for label, t in traced["ops"] if label == sub]
        values[f"cli.{sub}_s"] = statistics.median(times) if times else 0.0
    values.update(traced["layers"])
    values["trace.overhead_s"] = statistics.median(traced["overheads"])
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if values.keys() - units.keys():
        raise RuntimeError(f"undeclared per-layer metrics: {sorted(values.keys() - units)}")
    return {key: (value, units[key]) for key, value in values.items()}, [traced, first]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "lowcarb" / "__init__.py").is_file():
        print("error: run from the root of a lowcarb checkout; src/lowcarb is missing",
              file=sys.stderr)
        return 2

    # on the deadline or a termination request, stop the workers before exiting
    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(DEADLINE_S)
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workloads.write_inputs(args.workload, args.seed, src, work)
        workload = workloads.describe(args.workload, work)
        if args.trace:
            metrics, results = per_layer(args.workload, work, root, src, args.seconds)
        else:
            metrics, results = end_to_end(args.workload, work, root, args.seconds)
    except (Deadline, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    main_result = results[0]
    facts = dict(main_result["facts"], commit=git_commit(root), workload=args.workload,
                 seed=args.seed, seconds=args.seconds, trace=args.trace,
                 sizes=workload.sizes)
    print("# facts " + json.dumps(facts, sort_keys=True))
    print("# report_sha256 " + json.dumps(
        {label: digest for label, (digest, _) in main_result["reference"].items()},
        sort_keys=True))
    for error in errors:
        print(f"# FAILED {error}")
    if not args.trace:
        # the same numbers under the names they have for this workload
        name, unit = workload.throughput
        print(f"# {name} {metrics['work_per_s'][0]:.6g} {unit}")
        times = sorted(t for _, t in main_result["ops"])
        quartiles = statistics.quantiles(times, n=4)
        print("# op_s min/p25/p50/p75/max " + json.dumps([times[0], *quartiles, times[-1]]))
        p90 = (f"{statistics.quantiles(times, n=10)[-1]:.6g} s" if len(times) >= 100
               else "not reported (fewer than 100 operations)")
        print(f"# op_s.p50 over {len(times)} operations; op_s.p90 {p90}")
        print(f"# error_rate {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
