"""Daylight sufficiency classification and lumen-method luminaire sizing."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum

from .energy import MJ_PER_KWH, annual_lighting_kwh
from .model import FRACTION, NONNEGATIVE, POSITIVE, SpecError, number

#: Flat-rate constant of the average daylight-factor formula
#: DF = window_area * VT * 45 / total_room_surface_area (in percent).
DAYLIGHT_FACTOR_CONSTANT = 45.0

#: Minimum average daylight factor (percent) counted as daylit.
SUFFICIENT_DF_PERCENT = 2.0


class DaylightClass(str, Enum):
    SUFFICIENT = "sufficient"
    INSUFFICIENT = "insufficient"


@dataclass(frozen=True)
class Room:
    id: str
    floor_area: float  # m2
    depth_from_window: float  # m
    window_area: float  # m2
    glazing_vt: float
    target_illuminance: float  # lux
    window_head_height: float = 2.4  # m
    ceiling_height: float = 3.0  # m


@dataclass(frozen=True)
class Lamp:
    id: str
    luminous_flux: float  # lumen
    power: float  # W
    utilization_factor: float
    maintenance_factor: float


def daylight_class(room: Room) -> DaylightClass:
    """Classify a room as daylit or needing artificial light.

    Overcast-sky average daylight factor, so the classification is
    climate-independent. A room counts as sufficient when DF >= 2% and no
    point lies deeper than twice the window head height.
    """
    if room.floor_area <= 0:
        raise ValueError(f"room {room.id!r}: floor_area must be > 0")
    width = room.floor_area / room.depth_from_window if room.depth_from_window > 0 else 0.0
    surface_area = (2.0 * room.floor_area
                    + 2.0 * (room.depth_from_window + width) * room.ceiling_height)
    df_percent = 0.0
    if surface_area > 0:
        df_percent = (room.window_area * room.glazing_vt
                      * DAYLIGHT_FACTOR_CONSTANT / surface_area)
    deep = room.depth_from_window > 2.0 * room.window_head_height
    if df_percent >= SUFFICIENT_DF_PERCENT and not deep:
        return DaylightClass.SUFFICIENT
    return DaylightClass.INSUFFICIENT


def luminaire_count(room: Room, lamp: Lamp) -> int:
    """Lumen-method lamp count: ceil(E * A / (flux * UF * MF))."""
    if lamp.luminous_flux <= 0:
        raise ValueError(f"lamp {lamp.id!r}: luminous_flux must be > 0")
    delivered = lamp.luminous_flux * lamp.utilization_factor * lamp.maintenance_factor
    return math.ceil(room.target_illuminance * room.floor_area / delivered)


def annual_lighting_energy(count: int, lamp_power: float, hours: float,
                           daylight_offset: float) -> float:
    """Annual lighting energy in GJ (1 kWh = 3.6 MJ).

    ``count * lamp_power * hours`` watt-hours, reduced by the fraction of
    hours daylight covers.
    """
    return _checked_lighting_kwh(count, lamp_power, hours, daylight_offset) * MJ_PER_KWH / 1000.0


def _checked_lighting_kwh(count: int, lamp_power: float, hours: float,
                          daylight_offset: float) -> float:
    """:func:`lowcarb.energy.annual_lighting_kwh` of arguments checked to be in range."""
    if count < 0 or lamp_power < 0 or hours < 0:
        raise ValueError("count, lamp_power and hours must be nonnegative")
    if not 0 <= daylight_offset <= 1:
        raise ValueError(f"daylight_offset must be within [0, 1], got {daylight_offset}")
    return annual_lighting_kwh(count, lamp_power, hours, daylight_offset)


def load_rooms(text: str) -> list[Room]:
    """Rooms fixture CSV -> Room list (column order free, header required)."""
    rooms = []
    for row in csv.DictReader(io.StringIO(text)):
        rid = _row_id(row, "room")
        ctx = f"room {rid!r}: "
        rooms.append(Room(
            id=rid,
            floor_area=number(row, "floor_area_m2", ctx, POSITIVE),
            depth_from_window=number(row, "depth_from_window_m", ctx, NONNEGATIVE),
            window_area=number(row, "window_area_m2", ctx, NONNEGATIVE),
            glazing_vt=number(row, "glazing_vt", ctx, FRACTION),
            target_illuminance=number(row, "target_illuminance_lux", ctx, NONNEGATIVE),
            window_head_height=number(row, "window_head_height_m", ctx, POSITIVE, default=2.4),
            ceiling_height=number(row, "ceiling_height_m", ctx, POSITIVE, default=3.0),
        ))
    return rooms


def load_lamps(text: str) -> dict[str, Lamp]:
    lamps = {}
    for row in csv.DictReader(io.StringIO(text)):
        lid = _row_id(row, "lamp")
        ctx = f"lamp {lid!r}: "
        lamps[lid] = Lamp(
            id=lid,
            luminous_flux=number(row, "luminous_flux_lm", ctx, POSITIVE),
            power=number(row, "power_w", ctx, NONNEGATIVE),
            utilization_factor=number(row, "utilization_factor", ctx, POSITIVE),
            maintenance_factor=number(row, "maintenance_factor", ctx, POSITIVE),
        )
    return lamps


def _row_id(row: dict, kind: str) -> str:
    rid = (row.get("id") or "").strip()
    if not rid:
        raise SpecError(f"{kind} row missing id: {row!r}")
    return rid


def write_lighting_report(rooms: list[Room], lamp: Lamp, annual_hours: float,
                          daylight_offset: float = 0.0) -> str:
    """Per-room sizing report CSV: lamp count, installed W, annual kWh."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["room_id", "daylight", "lamps", "installed_w", "annual_kwh"])
    total_n = 0
    total_w = 0.0
    total_kwh = 0.0
    for room in rooms:
        n = luminaire_count(room, lamp)
        installed = n * lamp.power
        kwh = _checked_lighting_kwh(n, lamp.power, annual_hours, daylight_offset)
        writer.writerow([room.id, daylight_class(room).value, n,
                         f"{installed:.1f}", f"{kwh:.1f}"])
        total_n += n
        total_w += installed
        total_kwh += kwh
    writer.writerow(["total", "", total_n, f"{total_w:.1f}", f"{total_kwh:.1f}"])
    return buf.getvalue()
