"""Discrete-time simulator of the solar-powered environmental monitoring node.

An ideal coulomb-counting battery behind a hard full-charge clamp, a constant
sensing load, a rainfall alarm FSM with hysteresis, and a panel harvesting at
its rated power scaled by the irradiance fraction. When the battery empties
and harvest cannot cover the demand, the load goes unserved for the step and
the node counts as down.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import _kernels
from .model import SensorFleet, SpecError

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
        return self.controller_idle_power + sum(
            s.power * s.duty_cycle for s in self.sensor_loads)

    def validate(self) -> None:
        rated = self.panel_rated_voltage * self.panel_rated_current
        if rated > 0 and abs(self.panel_rated_power - rated) > PANEL_RATING_TOLERANCE * rated:
            raise SpecError(
                f"panel rating inconsistent: {self.panel_rated_power} W vs "
                f"{self.panel_rated_voltage} V x {self.panel_rated_current} A = {rated} W")
        if self.battery_capacity <= 0:
            raise SpecError("battery_capacity must be > 0")
        if self.rain_threshold < 0 or self.hysteresis < 0:
            raise SpecError("rain_threshold and hysteresis must be nonnegative")
        for s in self.sensor_loads:
            if not 0 <= s.duty_cycle <= 1:
                raise SpecError(f"sensor {s.name!r} duty_cycle must be within [0, 1]")


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


class TraceError(ValueError):
    pass


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


@dataclass(frozen=True)
class SimResult:
    clock_s: np.ndarray
    soc: np.ndarray
    alarm: np.ndarray  # int8: 0 idle, 1 alarm
    harvest_w: np.ndarray
    load_w: np.ndarray
    served: np.ndarray  # bool per step
    uptime_fraction: float
    ledger: EnergyLedger

    @property
    def final_state(self) -> NodeState:
        i = len(self.soc) - 1
        return NodeState(
            soc=float(self.soc[i]),
            alarm=AlarmState.ALARM if self.alarm[i] else AlarmState.IDLE,
            harvest_power=float(self.harvest_w[i]),
            load_power=float(self.load_w[i]),
            clock=float(self.clock_s[i]),
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
    load goes unserved and the stored energy stays at zero. This is the
    trace fold of :func:`simulate` run on one sample.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    config.validate()
    soc, alarm, harvest, load, *_ = _fold(config, state, np.array([env.irradiance_fraction]),
                                          np.array([env.rain_reading]), dt)
    return NodeState(
        soc=float(soc[0]),
        alarm=AlarmState.ALARM if alarm[0] else AlarmState.IDLE,
        harvest_power=float(harvest[0]),
        load_power=float(load[0]),
        clock=state.clock + dt,
    )


def _fold(config: NodeConfig, start: NodeState, irradiance: np.ndarray,
          rain: np.ndarray, dt: float):
    return _kernels.node_sim(irradiance, rain, dt, start.soc,
                             1 if start.alarm is AlarmState.ALARM else 0,
                             config.panel_rated_power, config.base_load,
                             config.alarm_power, config.battery_capacity,
                             config.rain_threshold, config.hysteresis,
                             config.charge_efficiency)


def initial_state(config: NodeConfig) -> NodeState:
    return NodeState(soc=1.0, alarm=AlarmState.IDLE,
                     harvest_power=0.0, load_power=0.0, clock=0.0)


def simulate(config: NodeConfig, trace: Sequence[EnvSample], dt: float,
             initial: NodeState | None = None) -> SimResult:
    """Fold :func:`step` over a trace from a full, idle battery.

    The trace timestamps must be strictly increasing; integration always
    uses ``dt`` seconds per sample. ``uptime_fraction`` counts steps whose
    demand was fully served.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if len(trace) == 0:
        raise TraceError("trace must not be empty")
    config.validate()
    last = None
    for sample in trace:
        if last is not None and sample.timestamp <= last:
            raise TraceError(
                f"trace timestamps must be strictly increasing at t={sample.timestamp}")
        last = sample.timestamp
        if not 0.0 <= sample.irradiance_fraction <= 1.0:
            raise TraceError(
                f"irradiance_fraction must be within [0, 1], got {sample.irradiance_fraction}")

    start = initial if initial is not None else initial_state(config)
    irr = np.array([s.irradiance_fraction for s in trace])
    rain = np.array([s.rain_reading for s in trace])
    soc, alarm, harvest, load, served, harvested, served_total, curtailed = \
        _fold(config, start, irr, rain, dt)

    clock = start.clock + dt * np.arange(1, len(trace) + 1)
    delta_stored = (float(soc[-1]) - start.soc) * config.battery_capacity
    return SimResult(
        clock_s=clock,
        soc=soc,
        alarm=alarm,
        harvest_w=harvest,
        load_w=load,
        served=served,
        uptime_fraction=float(np.count_nonzero(served)) / len(trace),
        ledger=EnergyLedger(
            harvested=harvested,
            served=served_total,
            curtailed=curtailed,
            delta_stored=delta_stored,
        ),
    )


def fleet_annual_energy(fleet: SensorFleet) -> float:
    """Annual energy of a sensor fleet, kWh/yr (8760 h, duty-cycled power)."""
    return sum(e.count * e.unit_power * e.duty_cycle * HOURS_PER_YEAR / 1000.0
               for e in fleet.entries)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def load_node_config(text: str) -> NodeConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"node config: syntax error at line {exc.lineno}: {exc.msg}") from exc
    try:
        panel = doc["panel"]
        config = NodeConfig(
            panel_rated_power=float(panel["rated_power_w"]),
            panel_rated_voltage=float(panel["rated_voltage_v"]),
            panel_rated_current=float(panel["rated_current_a"]),
            battery_capacity=float(doc["battery_capacity_wh"]),
            controller_idle_power=float(doc["controller_idle_power_w"]),
            sensor_loads=tuple(
                SensorLoad(str(s["name"]), float(s["power_w"]), float(s["duty_cycle"]))
                for s in doc.get("sensor_loads", [])),
            rain_threshold=float(doc["rain_threshold"]),
            alarm_power=float(doc["alarm_power_w"]),
            hysteresis=float(doc.get("hysteresis", 0.0)),
            charge_efficiency=float(doc.get("charge_efficiency", 1.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"malformed node config: {exc}") from exc
    config.validate()
    return config


def load_trace(text: str) -> list[EnvSample]:
    """Env trace CSV: timestamp_s, irradiance_fraction, rain_reading."""
    samples = []
    for row in csv.DictReader(io.StringIO(text)):
        try:
            samples.append(EnvSample(
                timestamp=float(row["timestamp_s"]),
                irradiance_fraction=float(row["irradiance_fraction"]),
                rain_reading=float(row["rain_reading"]),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"malformed trace row {row!r}: {exc}") from exc
    return samples


def write_state_log(result: SimResult) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["clock_s", "soc", "alarm", "harvest_w", "load_w", "served"])
    for i in range(len(result.soc)):
        writer.writerow([
            repr(float(result.clock_s[i])),
            repr(float(result.soc[i])),
            "alarm" if result.alarm[i] else "idle",
            repr(float(result.harvest_w[i])),
            repr(float(result.load_w[i])),
            int(result.served[i]),
        ])
    return buf.getvalue()
