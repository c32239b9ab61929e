"""Daylight sufficiency classification and lumen-method luminaire sizing.

The rooms and lamps files are CSVs with a header row, read through the field
declarations (:func:`lowcarb.model.spec`) of :class:`Room` and :class:`Lamp`; each
row is named by its ``id``, which must not repeat.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum

from .energy import MJ_PER_KWH, annual_lighting_kwh
from .model import (FRACTION, INTEGER, NONNEGATIVE, POSITIVE, Record, SpecError, _read, check,
                    spec)

#: Flat-rate constant of the average daylight-factor formula
#: DF = window_area * VT * 45 / total_room_surface_area (in percent).
DAYLIGHT_FACTOR_CONSTANT = 45.0

#: Minimum average daylight factor (percent) counted as daylit.
SUFFICIENT_DF_PERCENT = 2.0


class DaylightClass(str, Enum):
    SUFFICIENT = "sufficient"
    INSUFFICIENT = "insufficient"


@dataclass(frozen=True)
class Room(Record):
    id: str = spec("id")
    floor_area: float = spec("floor_area_m2", POSITIVE)  # m2
    depth_from_window: float = spec("depth_from_window_m", NONNEGATIVE)  # m
    window_area: float = spec("window_area_m2", NONNEGATIVE)  # m2
    glazing_vt: float = spec("glazing_vt", FRACTION)
    target_illuminance: float = spec("target_illuminance_lux", NONNEGATIVE)  # lux
    window_head_height: float = spec("window_head_height_m", POSITIVE, default=2.4)  # m
    ceiling_height: float = spec("ceiling_height_m", POSITIVE, default=3.0)  # m


@dataclass(frozen=True)
class Lamp(Record):
    id: str = spec("id")
    luminous_flux: float = spec("luminous_flux_lm", POSITIVE)  # lumen
    power: float = spec("power_w", NONNEGATIVE)  # W
    utilization_factor: float = spec("utilization_factor", POSITIVE)
    maintenance_factor: float = spec("maintenance_factor", POSITIVE)


def daylight_class(room: Room) -> DaylightClass:
    """Classify a room as daylit or needing artificial light.

    Overcast-sky average daylight factor, so the classification is
    climate-independent. A room counts as sufficient when DF >= 2% and no
    point lies deeper than twice the window head height.
    """
    width = room.floor_area / room.depth_from_window if room.depth_from_window > 0 else 0.0
    surface_area = (2.0 * room.floor_area
                    + 2.0 * (room.depth_from_window + width) * room.ceiling_height)
    df_percent = 0.0
    if surface_area > 0:
        df_percent = (room.window_area * room.glazing_vt
                      * DAYLIGHT_FACTOR_CONSTANT / surface_area)
    if not (math.isfinite(surface_area) and math.isfinite(df_percent)):
        raise ValueError(f"room {room.id!r}: the floor_area, depth_from_window, ceiling_height, "
                         "window_area and glazing_vt overflow the daylight factor")
    deep = room.depth_from_window > 2.0 * room.window_head_height
    if df_percent >= SUFFICIENT_DF_PERCENT and not deep:
        return DaylightClass.SUFFICIENT
    return DaylightClass.INSUFFICIENT


def luminaire_count(room: Room, lamp: Lamp) -> int:
    """Lumen-method lamp count: ceil(E * A / (flux * UF * MF))."""
    delivered = lamp.luminous_flux * lamp.utilization_factor * lamp.maintenance_factor
    count = room.target_illuminance * room.floor_area / delivered if delivered > 0 else math.inf
    if not math.isfinite(count):
        raise ValueError(f"room {room.id!r} and lamp {lamp.id!r}: the target_illuminance and "
                         "floor_area over the luminous_flux, utilization_factor and "
                         "maintenance_factor overflow the luminaire count")
    return math.ceil(count)


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
    check(count, "count", INTEGER)
    for name, value in (("lamp_power", lamp_power), ("hours", hours)):
        check(value, name, NONNEGATIVE)
    check(daylight_offset, "daylight_offset", FRACTION)
    kwh = annual_lighting_kwh(count, lamp_power, hours, daylight_offset)
    if not math.isfinite(kwh * MJ_PER_KWH):
        raise ValueError("count, lamp_power and hours overflow the annual lighting energy")
    return kwh


def load_rooms(text: str) -> list[Room]:
    """Rooms fixture CSV -> Room list (column order free, header required)."""
    return list(_read_rows(Room, text, "room").values())


def load_lamps(text: str) -> dict[str, Lamp]:
    """Lamps CSV -> Lamp by id (column order free, header required)."""
    return _read_rows(Lamp, text, "lamp")


def _read_rows(cls: type, text: str, kind: str) -> dict:
    """Each CSV row's ``cls`` record by its stripped id, in file order; a bad cell is
    named after the ``kind`` and id of its row."""
    records = {}
    for row in csv.DictReader(io.StringIO(text)):
        rid = (row.get("id") or "").strip()
        if not rid:
            raise SpecError(f"{kind} row missing id: {row!r}")
        if rid in records:
            raise SpecError(f"{kind} id {rid!r} repeats an earlier row")
        records[rid] = _read(cls, {**row, "id": rid}, f"{kind} {rid!r}: ")
    return records


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
