"""Spans around the calls the CLI makes into each lowcarb module.

Nothing inside the program is instrumented. The tracer replaces module
attributes at the point where the caller looks them up (``cli`` calls
``energy.annual_end_use`` through the module, ``optimize`` calls
``_kernels.batch_energy`` the same way, names imported into ``cli`` are
patched in ``cli``), records a span per call in memory, and puts every
original back on :meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import tracemalloc
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

# Additive per-operation quantities; ratios are derived from them afterwards.
ADDITIVE = (
    "model.parse_s", "energy.annual_end_use_s", "energy.calibrate_s", "pv.site_economics_s",
    "optimize.total_s", "optimize.self_s", "optimize.designs_enumerated",
    "optimize.designs_feasible", "optimize.design_build_s", "optimize.design_build_calls",
    "optimize.returned", "optimize.write_results_csv_s",
    "kernels.batch_energy_s", "kernels.batch_energy_calls", "kernels.batch_energy_designs",
    "kernels.batch_energy_bytes_in", "kernels.node_sim_s", "kernels.node_sim_steps",
    "node.load_trace_s", "node.simulate_self_s", "node.write_state_log_s",
    "node.state_log_bytes", "node.unserved_steps", "node.alarm_steps",
    "node.ledger_residual_wh", "cli.write_s", "cli.manifest_s", "cli.report_bytes",
)


class Tracer:
    """In-memory span recorder; one per process, installed around the CLI."""

    def __init__(self, measure_memory: bool = False):
        self.measure_memory = measure_memory
        self.peak_traced_bytes = 0
        self._names: list[str] = []
        self._spans: list[tuple[int, int, int]] = []  # (start, end, parent index)
        self._stack: list[int] = []
        self._counts: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float) -> None:
        self._counts[name] += value

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(args, result, parent)`` adds counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer._names)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._names.append(name)
            tracer._spans.append((0, 0, parent))
            tracer._stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tracer._stack.pop()
                tracer._spans[idx] = (t0, t1, parent)
            if after is not None:
                after(args, result, tracer._names[parent] if parent >= 0 else None)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, after=None, around=None) -> None:
        raw = owner.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        replacement = self.wrap(name, around(fn) if around else fn, after)
        if isinstance(raw, staticmethod):
            replacement = staticmethod(replacement)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from lowcarb import _kernels, cli, energy, node, pv

        # the package re-exports a function named optimize over the submodule
        optimize = importlib.import_module("lowcarb.optimize")

        for attr in ("parse_building_spec", "load_climate_profile", "load_catalog",
                     "load_tariff"):
            self._patch(cli, attr, "model.parse")
        self._patch(optimize.DesignSpace, "from_json", "model.parse")
        self._patch(energy.EndUseTargets, "from_json", "model.parse")
        self._patch(pv, "load_pv_site", "model.parse")
        self._patch(node, "load_node_config", "model.parse")

        self._patch(energy, "annual_end_use", "energy.annual_end_use")
        self._patch(energy, "calibrate", "energy.calibrate")
        self._patch(pv, "site_economics", "pv.site_economics")

        def after_optimize(args, ranked, _parent):
            self.count("optimize.designs_enumerated", args[3].size)
            self.count("optimize.returned", len(ranked))

        self._patch(cli, "run_optimize", "optimize", after_optimize,
                    self._with_tracemalloc if self.measure_memory else None)
        self._patch(optimize, "_design_from_digits", "optimize.design_build")
        self._patch(cli, "write_results_csv", "optimize.write_results_csv")

        def after_batch(args, _result, _parent):
            # the kernel sees only code-legal designs
            self.count("optimize.designs_feasible", len(args[2]))
            self.count("kernels.batch_energy_designs", len(args[2]))
            self.count("kernels.batch_energy_bytes_in",
                       sum(a.nbytes for a in args if isinstance(a, np.ndarray)))

        self._patch(_kernels, "batch_energy", "kernels.batch_energy", after_batch)

        def after_node_sim(args, _result, _parent):
            self.count("kernels.node_sim_steps", len(args[0]))

        self._patch(_kernels, "node_sim", "kernels.node_sim", after_node_sim)
        self._patch(node, "load_trace", "node.load_trace")

        def after_simulate(_args, result, _parent):
            self.count("node.unserved_steps", int(result.served.size
                                                  - np.count_nonzero(result.served)))
            self.count("node.alarm_steps", int((result.alarm == 1).sum()))
            self.count("node.ledger_residual_wh", abs(result.ledger.residual))

        self._patch(node, "simulate", "node.simulate", after_simulate)

        def after_log(_args, text, _parent):
            self.count("node.state_log_bytes", len(text.encode("utf-8")))

        self._patch(node, "write_state_log", "node.write_state_log", after_log)

        def after_write(args, _result, parent):
            if parent != "cli.manifest":
                self.count("cli.report_bytes", len(args[1].encode("utf-8")))

        self._patch(cli, "_write_text", "cli.write", after_write)
        self._patch(cli, "_write_manifest", "cli.manifest")

    def _with_tracemalloc(self, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_traced_bytes = max(self.peak_traced_bytes,
                                             tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return measured

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def take(self) -> dict[str, float]:
        """Additive quantities for the spans recorded since the last call; clears them."""
        names, spans = self._names, self._spans
        child = [0] * len(spans)
        for t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        write_ns = 0
        for i, (name, (t0, t1, parent)) in enumerate(zip(names, spans)):
            total[name] += t1 - t0
            own[name] += t1 - t0 - child[i]
            calls[name] += 1
            if name == "cli.write" and (parent < 0 or names[parent] != "cli.manifest"):
                write_ns += t1 - t0
        out = dict.fromkeys(ADDITIVE, 0.0)
        for metric, name in (("model.parse_s", "model.parse"),
                             ("energy.annual_end_use_s", "energy.annual_end_use"),
                             ("energy.calibrate_s", "energy.calibrate"),
                             ("pv.site_economics_s", "pv.site_economics"),
                             ("optimize.total_s", "optimize"),
                             ("optimize.design_build_s", "optimize.design_build"),
                             ("optimize.write_results_csv_s", "optimize.write_results_csv"),
                             ("kernels.batch_energy_s", "kernels.batch_energy"),
                             ("kernels.node_sim_s", "kernels.node_sim"),
                             ("node.load_trace_s", "node.load_trace"),
                             ("node.write_state_log_s", "node.write_state_log"),
                             ("cli.manifest_s", "cli.manifest")):
            out[metric] = total[name] / 1e9
        out["optimize.self_s"] = own["optimize"] / 1e9
        out["node.simulate_self_s"] = own["node.simulate"] / 1e9
        out["cli.write_s"] = write_ns / 1e9
        out["optimize.design_build_calls"] = calls["optimize.design_build"]
        out["kernels.batch_energy_calls"] = calls["kernels.batch_energy"]
        out.update(self._counts)
        self._names, self._spans = [], []
        self._counts = defaultdict(float)
        return out


def layer_metrics(sums: dict[str, float], rounds: float, peak_traced_bytes: int) -> dict:
    """Per-round means of the additive quantities, plus the derived ratios."""
    m = {name: sums.get(name, 0.0) / rounds for name in ADDITIVE}
    enumerated = m["optimize.designs_enumerated"]
    total = m.pop("optimize.total_s")  # only for ns_per_design
    feasible = m["optimize.designs_feasible"]
    m["optimize.feasible_ratio"] = feasible / enumerated if enumerated else 0.0
    m["optimize.ns_per_design"] = total * 1e9 / enumerated if enumerated else 0.0
    m["optimize.peak_traced_mib"] = peak_traced_bytes / 2**20
    return m
