"""Discrete-time simulator of the solar-powered environmental monitoring node.

An ideal coulomb-counting battery behind a hard full-charge clamp, a constant
sensing load, a rainfall alarm FSM with hysteresis, and a panel harvesting at
its rated power scaled by the irradiance fraction. When the battery empties
and harvest cannot cover the demand, the load goes unserved for the step and
the node counts as down.

:func:`simulate` checks a trace and runs the one trace fold,
:func:`lowcarb._kernels.node_sim`, over it; :func:`step` is :func:`simulate`
on one sample. Both keep the per-step columns in stdlib ``array.array``s and run
without numpy; :class:`SimResult` shows the columns to library callers as numpy
arrays, importing numpy only when one is read.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

from . import _kernels
from .model import (FRACTION, NONNEGATIVE, POSITIVE, SensorFleet, SpecError, TraceError,
                    check, known_keys, number, read_json, string, total)

if TYPE_CHECKING:
    import numpy as np  # imported at run time by the SimResult views, on first read

HOURS_PER_YEAR = 8760.0

#: Rated power must agree with rated voltage x current to within this fraction.
PANEL_RATING_TOLERANCE = 0.05


class AlarmState(str, Enum):
    IDLE = "idle"
    ALARM = "alarm"


@dataclass(frozen=True)
class SensorLoad:
    name: str
    power: float  # W
    duty_cycle: float


@dataclass(frozen=True)
class NodeConfig:
    panel_rated_power: float  # W
    panel_rated_voltage: float  # V
    panel_rated_current: float  # A
    battery_capacity: float  # Wh
    controller_idle_power: float  # W
    sensor_loads: tuple[SensorLoad, ...]
    rain_threshold: float  # sensor units
    alarm_power: float  # W
    hysteresis: float = 0.0  # sensor units
    charge_efficiency: float = 1.0

    @property
    def base_load(self) -> float:
        """Steady demand without the alarm: controller plus duty-cycled sensors."""
        return self.controller_idle_power + total(
            s.power * s.duty_cycle for s in self.sensor_loads)

    def validate(self) -> None:
        for name in ("panel_rated_power", "panel_rated_voltage", "panel_rated_current",
                     "controller_idle_power", "rain_threshold", "alarm_power", "hysteresis"):
            check(getattr(self, name), name, NONNEGATIVE)
        check(self.battery_capacity, "battery_capacity", POSITIVE)
        check(self.charge_efficiency, "charge_efficiency", FRACTION)
        for s in self.sensor_loads:
            check(s.power, f"sensor {s.name!r} power", NONNEGATIVE)
            check(s.duty_cycle, f"sensor {s.name!r} duty_cycle", FRACTION)
        rated = self.panel_rated_voltage * self.panel_rated_current
        if rated > 0 and abs(self.panel_rated_power - rated) > PANEL_RATING_TOLERANCE * rated:
            raise SpecError(
                f"panel rating inconsistent: {self.panel_rated_power} W vs "
                f"{self.panel_rated_voltage} V x {self.panel_rated_current} A = {rated} W")


@dataclass(frozen=True)
class NodeState:
    soc: float  # fraction of capacity
    alarm: AlarmState
    harvest_power: float  # W
    load_power: float  # W (demanded, whether or not served)
    clock: float  # s


@dataclass(frozen=True)
class EnvSample:
    irradiance_fraction: float  # of rated sun, within [0, 1]
    rain_reading: float  # sensor units
    timestamp: float  # s


@dataclass(frozen=True)
class EnergyLedger:
    """Whole-run energy accounting in Wh; closes to numerical precision."""

    harvested: float  # net of charge efficiency
    served: float
    curtailed: float
    delta_stored: float

    @property
    def residual(self) -> float:
        return self.harvested - self.served - self.curtailed - self.delta_stored


def _numpy_view(column: str, dtype: str) -> cached_property:
    """A zero-copy numpy view of the ``array`` attribute ``column``, made (and
    numpy imported) on first read."""
    def view(result) -> np.ndarray:
        import numpy as np

        return np.frombuffer(getattr(result, column), dtype=dtype)
    return cached_property(view)


@dataclass(frozen=True)
class SimResult:
    """A node run: one row per step in each ``*_col`` column, then the totals.

    ``clock_s``, ``soc``, ``alarm``, ``harvest_w``, ``load_w`` and ``served`` are
    zero-copy numpy views of the columns, made (and numpy imported) on first read.
    """

    start_clock: float  # s, before the first step
    dt: float  # s per step
    # repr=False: the repr of a long run would print every step
    soc_col: array = field(repr=False)  # 'd', fraction of capacity at step end
    alarm_col: array = field(repr=False)  # 'b', 0 idle, 1 alarm
    harvest_col: array = field(repr=False)  # 'd', W
    load_col: array = field(repr=False)  # 'd', W demanded
    served_col: array = field(repr=False)  # 'B', 1 where the demand was fully served
    uptime_fraction: float
    ledger: EnergyLedger

    @cached_property
    def clock_col(self) -> array:
        """'d', s at step end: ``start_clock + dt * i`` at step i = 1..n, built on
        first read (the same IEEE operations as ``dt * np.arange(1, n + 1)``)."""
        c0, dt = self.start_clock, self.dt
        return array("d", [c0 + dt * i for i in range(1, len(self.soc_col) + 1)])

    clock_s = _numpy_view("clock_col", "float64")
    soc = _numpy_view("soc_col", "float64")
    alarm = _numpy_view("alarm_col", "int8")
    harvest_w = _numpy_view("harvest_col", "float64")
    load_w = _numpy_view("load_col", "float64")
    served = _numpy_view("served_col", "bool")

    @property
    def final_state(self) -> NodeState:
        return NodeState(
            soc=self.soc_col[-1],
            alarm=AlarmState.ALARM if self.alarm_col[-1] else AlarmState.IDLE,
            harvest_power=self.harvest_col[-1],
            load_power=self.load_col[-1],
            clock=self.clock_col[-1],
        )


def alarm_transition(current: AlarmState, rain_reading: float,
                     threshold: float, hysteresis: float) -> AlarmState:
    """Threshold comparator with hysteresis.

    Turns on at ``reading >= threshold``; releases only below
    ``threshold - hysteresis``. With zero hysteresis it is a pure comparator.
    This is the reference the trace fold in :func:`simulate` is tested
    against; :meth:`NodeConfig.validate` rejects negative settings.
    """
    if current is AlarmState.IDLE:
        return AlarmState.ALARM if rain_reading >= threshold else AlarmState.IDLE
    return AlarmState.IDLE if rain_reading < threshold - hysteresis else AlarmState.ALARM


def step(state: NodeState, config: NodeConfig, env: EnvSample, dt: float) -> NodeState:
    """Advance the node by one step of ``dt`` seconds.

    The alarm FSM fires first (the sensor is read at step start), then the
    battery integrates harvest minus load; the state of charge is clamped to
    [0, 1]. When the battery is empty and harvest cannot carry the load, the
    load goes unserved and the stored energy stays at zero. This is
    :func:`simulate` on the one sample ``env``, so it refuses what that refuses.
    """
    return simulate(config, (env,), dt, initial=state).final_state


def initial_state(config: NodeConfig) -> NodeState:
    return NodeState(soc=1.0, alarm=AlarmState.IDLE,
                     harvest_power=0.0, load_power=0.0, clock=0.0)


def simulate(config: NodeConfig, trace: Sequence[EnvSample], dt: float,
             initial: NodeState | None = None) -> SimResult:
    """Run the node trace fold over a trace, from ``initial`` or a full, idle battery.

    The trace timestamps must be strictly increasing; integration always
    uses ``dt`` seconds per sample. ``uptime_fraction`` counts steps whose
    demand was fully served. A ``dt`` so large that the clock or an energy
    total overflows is refused with :class:`ValueError`.
    """
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be a finite number > 0, got {dt}")
    n = len(trace)
    if n == 0:
        raise TraceError("trace must not be empty")
    config.validate()
    # one pass checks the trace and fills the two input columns
    irr, rain = array("d", bytes(8 * n)), array("d", bytes(8 * n))
    irr_in, rain_in = memoryview(irr), memoryview(rain)
    last = -math.inf
    for i, sample in enumerate(trace):
        t = sample.timestamp
        if not last < t < math.inf:  # False for NaN
            raise TraceError(
                f"trace timestamps must be finite and strictly increasing at t={t}")
        last = t
        fraction, reading = sample.irradiance_fraction, sample.rain_reading
        if not 0.0 <= fraction <= 1.0:
            raise TraceError(f"irradiance_fraction must be within [0, 1], got {fraction}")
        if not -math.inf < reading < math.inf:
            raise TraceError(f"rain_reading must be finite, got {reading} at t={t}")
        irr_in[i], rain_in[i] = fraction, reading

    start = initial if initial is not None else initial_state(config)
    soc, alarm, harvest, load, served, harvested, served_total, curtailed = _kernels.node_sim(
        irr, rain, dt, start.soc, 1 if start.alarm is AlarmState.ALARM else 0,
        config.panel_rated_power, config.base_load, config.alarm_power,
        config.battery_capacity, config.rain_threshold, config.hysteresis,
        config.charge_efficiency)

    delta_stored = (soc[-1] - start.soc) * config.battery_capacity
    end = start.clock + dt * n
    if not all(map(math.isfinite, (end, harvested, served_total, curtailed, delta_stored))):
        raise ValueError(f"dt {dt} s overflows the node clock or energy ledger")
    return SimResult(
        start_clock=start.clock,
        dt=dt,
        soc_col=soc,
        alarm_col=alarm,
        harvest_col=harvest,
        load_col=load,
        served_col=served,
        uptime_fraction=served.count(1) / n,
        ledger=EnergyLedger(
            harvested=harvested,
            served=served_total,
            curtailed=curtailed,
            delta_stored=delta_stored,
        ),
    )


def fleet_annual_energy(fleet: SensorFleet) -> float:
    """Annual energy of a sensor fleet, kWh/yr (8760 h, duty-cycled power)."""
    return total(e.count * e.unit_power * e.duty_cycle * HOURS_PER_YEAR / 1000.0
                 for e in fleet.entries)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def load_node_config(text: str) -> NodeConfig:
    """Parse a node config file; the values must pass :meth:`NodeConfig.validate`,
    and a key that is not read here, at any level, is refused."""
    doc = read_json(text, "node")
    known_keys(doc, ("schema_version", "name", "panel", "battery_capacity_wh",
                     "controller_idle_power_w", "sensor_loads", "rain_threshold",
                     "alarm_power_w", "hysteresis", "charge_efficiency"), "node.", "node config")
    panel = doc.get("panel")
    panel_keys = ("rated_power_w", "rated_voltage_v", "rated_current_a")
    known_keys(panel, panel_keys, "node.panel.", "node config")
    loads = doc.get("sensor_loads", [])
    if not isinstance(loads, list) or not all(isinstance(s, dict) for s in loads):
        raise SpecError("node.sensor_loads must be a list of JSON objects")
    for i, s in enumerate(loads):
        known_keys(s, ("name", "power_w", "duty_cycle"), f"node.sensor_loads[{i}].",
                   "node config")
    config = NodeConfig(
        *(number(panel, key, "node.panel.", NONNEGATIVE) for key in panel_keys),
        battery_capacity=number(doc, "battery_capacity_wh", "node.", POSITIVE),
        controller_idle_power=number(doc, "controller_idle_power_w", "node.", NONNEGATIVE),
        sensor_loads=tuple(
            SensorLoad(string(s, "name", f"node.sensor_loads[{i}]."),
                       number(s, "power_w", f"node.sensor_loads[{i}].", NONNEGATIVE),
                       number(s, "duty_cycle", f"node.sensor_loads[{i}].", FRACTION))
            for i, s in enumerate(loads)),
        rain_threshold=number(doc, "rain_threshold", "node.", NONNEGATIVE),
        alarm_power=number(doc, "alarm_power_w", "node.", NONNEGATIVE),
        hysteresis=number(doc, "hysteresis", "node.", NONNEGATIVE, default=0.0),
        charge_efficiency=number(doc, "charge_efficiency", "node.", FRACTION, default=1.0),
    )
    config.validate()
    return config


TRACE_COLUMNS = ("timestamp_s", "irradiance_fraction", "rain_reading")


def load_trace(text: str) -> list[EnvSample]:
    """Env trace CSV with the :data:`TRACE_COLUMNS`; a missing column, or a cell
    that is not a number, raises :class:`TraceError` naming it (and its line)."""
    reader = csv.DictReader(io.StringIO(text))
    for column in TRACE_COLUMNS:
        if column not in (reader.fieldnames or ()):
            raise TraceError(f"trace is missing column {column}")
    samples = []
    for row in reader:
        try:
            samples.append(EnvSample(
                timestamp=float(row["timestamp_s"]),
                irradiance_fraction=float(row["irradiance_fraction"]),
                rain_reading=float(row["rain_reading"]),
            ))
        except (TypeError, ValueError) as exc:
            raise TraceError(_bad_cell(row, reader.line_num)) from exc
    return samples


def _bad_cell(row: dict, line: int) -> str:
    """The message for the first cell of ``row`` that is not a number."""
    for column in TRACE_COLUMNS:
        raw = row[column]
        try:
            float(raw)
        except (TypeError, ValueError):
            return (f"trace line {line}: {column} is missing" if raw in (None, "") else
                    f"trace line {line}: {column} must be a number, got {raw!r}")


def write_state_log(result: SimResult) -> str:
    columns = (result.clock_col, result.soc_col, result.alarm_col, result.harvest_col,
               result.load_col, result.served_col)
    return "clock_s,soc,alarm,harvest_w,load_w,served\n" + "".join(
        f"{t!r},{soc!r},{'alarm' if alarm else 'idle'},{harvest!r},{load!r},{served:d}\n"
        for t, soc, alarm, harvest, load, served in zip(*columns))
