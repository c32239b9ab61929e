"""The measured process: runs one workload's operations in a closed loop.

Started by ``run.py`` from the checkout root with the workload's inputs
already written. It runs the first operation untimed, prints ``ready``
(run.py timestamps that line as the end of set-up) and checks that run.
With ``--setup-only`` it then runs and checks the rest of one round untimed,
so that its report digests can serve later workers as ``--reference``.
Otherwise it times operations one after another for ``--seconds``,
comparing each run's reports with the reference's bytes, and prints one
JSON line with the per-operation times, counts and checks.

``paper_cli`` starts one ``python -m lowcarb`` child per operation, as a
user would; the other workloads call ``lowcarb.cli.main`` in this process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
MIN_OPS = 3

import workloads  # noqa: E402


class InProcess:
    """Runs ``cli.main`` in this process, with or without the tracer's spans."""

    def __init__(self):
        from lowcarb import cli

        self.cli = cli
        self.tracer = None  # installed while tracing

    def set_tracing(self, on: bool, measure_memory: bool = False):
        if self.tracer:
            self.tracer.uninstall()
            self.tracer = None
        if on:
            from tracer import Tracer

            self.tracer = Tracer(measure_memory=measure_memory)
            self.tracer.install()

    def run(self, op):
        shutil.rmtree(op.out_dir, ignore_errors=True)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            t0 = perf_counter()
            try:
                code = self.cli.main(list(op.argv))
            except Exception:  # a traceback is a failed operation, not a harness crash
                traceback.print_exc()
                code = -1
            elapsed = perf_counter() - t0
        if not self.tracer:
            return code, elapsed, None
        return code, elapsed, dict(self.tracer.take(),
                                   peak_traced_bytes=self.tracer.peak_traced_bytes)

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Spawner:
    """Runs each operation as a fresh ``python -m lowcarb`` child, one at a time.

    A child's ``ru_maxrss`` includes this process's own peak (posix_spawn
    shares the parent's memory until exec), so this process never imports
    numpy or lowcarb while children are measured.
    """

    def __init__(self, src: Path, work: Path):
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.log = work / "child.log"
        self.layers_file = work / "child_layers.json"
        self.traced_flags = None  # traced_cli.py flags while tracing
        self.peak_rss_kib = 0

    def set_tracing(self, on: bool, measure_memory: bool = False):
        self.traced_flags = (["--memory"] if measure_memory else []) if on else None

    def run(self, op):
        shutil.rmtree(op.out_dir, ignore_errors=True)
        if self.traced_flags is None:
            argv = ["-m", "lowcarb", *op.argv]
        else:
            self.layers_file.unlink(missing_ok=True)
            argv = [str(HERE / "traced_cli.py"), "--layers", str(self.layers_file),
                    *self.traced_flags, "--", *op.argv]
        code, elapsed, usage = workloads.spawn_python(argv, self.env, self.log)
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        if code != 0:
            sys.stderr.write(self.log.read_text(errors="replace")[-2000:])
        layers = None
        if self.traced_flags is not None:
            layers = (json.loads(self.layers_file.read_text())
                      if self.layers_file.exists() else {})
        return code, elapsed, layers

    def peak_rss_mib(self) -> float:
        return self.peak_rss_kib / 1024


def run_facts() -> dict:
    facts = {"python": platform.python_version(), "nproc": os.cpu_count(),
             "affinity": len(os.sched_getaffinity(0))}
    import numpy

    from lowcarb import _kernels

    facts["numpy"] = numpy.__version__
    try:
        import numba  # noqa: F401

        facts["numba_imports"] = True
    except ImportError:
        facts["numba_imports"] = False
    facts["numba_enabled"] = _kernels.numba_enabled()
    return facts


def closed_loop(workload, runner, ledger, seconds: float, traced: bool = False):
    """Whole rounds of operations, one at a time, until ``seconds`` have passed.

    Returns the (label, seconds) of each operation, the work items done, the
    summed per-layer quantities and the tracing overheads. With ``traced``,
    each operation runs twice in a row, with and without the spans, untraced
    first in even rounds and traced first in odd ones, for an even number of
    rounds. The times returned are of the untraced runs. Each overhead is one
    operation's traced minus untraced time, averaged over a round of each
    order, so that an effect of running first or second cancels.
    """
    ops, units, sums, diffs = [], 0, defaultdict(float), []
    start = perf_counter()
    rounds = 0
    while (len(ops) < MIN_OPS or perf_counter() - start < seconds
           or (traced and rounds % 2)):
        order = ((False, True) if rounds % 2 == 0 else (True, False)) if traced else (False,)
        for op in workload.ops:
            times = {}
            for tracing in order:
                if traced:
                    runner.set_tracing(tracing)
                code, times[tracing], layers = runner.run(op)
                ledger.record(op, code)
                for name, value in (layers or {}).items():
                    sums[name] += value
            ops.append((op.label, times[False]))
            units += op.units
            if traced:
                diffs.append(times[True] - times[False])
        rounds += 1
    if traced:
        runner.set_tracing(False)
    n = len(workload.ops)
    overheads = [(diffs[i] + diffs[i + n]) / 2
                 for r in range(0, len(diffs), 2 * n) for i in range(r, r + n)]
    return ops, units, sums, overheads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reference", type=Path,
                        help="checked report digests from an earlier worker of this run")
    args = parser.parse_args()

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    workload = workloads.describe(args.workload, args.work)
    reference = json.loads(args.reference.read_text()) if args.reference else {}
    missing = [op.label for op in workload.ops if op.label not in reference]
    if missing and not args.setup_only:
        # the measured worker only compares report bytes: the in-depth checks
        # import lowcarb, which would land in this process's time and memory
        parser.error(f"--reference lacks {', '.join(missing)}; make it with --setup-only")
    runner = Spawner(src, args.work) if workload.fresh_process else InProcess()
    ledger = workloads.Ledger(workload, reference)

    first = workload.ops[0]
    code, _, _ = runner.run(first)
    print("ready", flush=True)
    ledger.record(first, code)
    result = {}
    if args.setup_only:
        # untimed: run and check the rest of one round, for the reference
        for op in workload.ops[1:]:
            if op.label not in ledger.reference:
                code, _, _ = runner.run(op)
                ledger.record(op, code)
    else:
        ops, units, sums, overheads = closed_loop(workload, runner, ledger, args.seconds,
                                                  traced=args.trace)
        result.update(ops=ops, units=units, peak_rss_mib=runner.peak_rss_mib())
        if args.trace:
            from tracer import layer_metrics

            peak = 0
            memory_op = next((op for op in workload.ops if op.label == "optimize"), None)
            if memory_op is not None:
                runner.set_tracing(True, measure_memory=True)
                code, _, layers = runner.run(memory_op)
                runner.set_tracing(False)
                ledger.record(memory_op, code)
                peak = (layers or {}).get("peak_traced_bytes", 0)
            result["layers"] = layer_metrics(sums, len(ops) / len(workload.ops), peak)
            result["overheads"] = overheads
        result["facts"] = run_facts()
    result.update(attempted=ledger.attempted, failed=ledger.failed, errors=ledger.errors,
                  reference=ledger.reference)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
