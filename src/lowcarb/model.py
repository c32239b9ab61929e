"""Domain model: buildings, climates, construction catalogs, tariffs, sensor fleets.

All types are frozen dataclasses and safe to share between threads. Parsing
is strict: spec files carry every thermal coefficient explicitly, and the
only defaulted fields are schedule-related (``daylight_offset``) plus the
geometric ``overhang_ratio`` and relative ``cost_index``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Mapping

SCHEMA_VERSION = 1

#: Canonical orientation order used everywhere loads are accumulated, so that
#: results do not depend on the order envelope groups appear in a spec file.
ORIENTATION_ORDER = ("N", "S", "E", "W")


class Orientation(str, Enum):
    N = "N"
    S = "S"
    E = "E"
    W = "W"


class LightingTechnology(str, Enum):
    INCANDESCENT = "incandescent"
    LED = "led"


class HeatingFuel(str, Enum):
    GAS = "gas"
    ELECTRIC = "electric"


class SpecError(ValueError):
    """A spec file could not be parsed into a valid domain object.

    Carries the list of violations when the failure is semantic rather
    than syntactic, so callers can report them one per line.
    """

    def __init__(self, message: str, violations: list["Violation"] | None = None):
        super().__init__(message)
        self.violations = violations or []


@dataclass(frozen=True)
class Violation:
    """One broken invariant: which field, the offending value, the rule."""

    field: str
    value: Any
    rule: str

    def __str__(self) -> str:
        return f"{self.field}={self.value!r} violates rule: {self.rule}"


@dataclass(frozen=True)
class OpaqueConstruction:
    id: str
    r_value: float  # (m2.K)/W
    cost_index: float = 1.0


@dataclass(frozen=True)
class GlazingOption:
    id: str
    u_value: float  # W/(m2.K)
    shgc: float
    visible_transmittance: float
    cost_index: float = 1.0


@dataclass(frozen=True)
class EnvelopeGroup:
    orientation: Orientation
    gross_wall_area: float  # m2
    wwr: float
    wall: OpaqueConstruction
    glazing: GlazingOption
    overhang_ratio: float = 0.0  # overhang depth / window height


@dataclass(frozen=True)
class Roof:
    construction: OpaqueConstruction
    area: float  # m2


@dataclass(frozen=True)
class LightingSystem:
    technology: LightingTechnology
    lamp_power: float  # W per lamp
    lamp_count: int
    annual_hours: float  # h/yr
    daylight_offset: float = 0.0  # fraction of hours covered by daylight


@dataclass(frozen=True)
class HvacSystem:
    cooling_cop: float
    heating_efficiency: float
    heating_fuel: HeatingFuel


@dataclass(frozen=True)
class BuildingSpec:
    name: str
    floor_area: float  # m2
    conditioned_volume: float  # m3
    storeys: int
    orientations: tuple[EnvelopeGroup, ...]
    roof: Roof
    infiltration: float  # air changes per hour
    occupancy_hours: float  # h/yr
    equipment_power_density: float  # W/m2
    lighting: LightingSystem
    hvac: HvacSystem

    def envelope(self, orientation: Orientation | str) -> EnvelopeGroup:
        key = Orientation(orientation)
        for group in self.orientations:
            if group.orientation is key:
                return group
        raise ValueError(f"orientation {key.value} not present in spec {self.name!r}")


@dataclass(frozen=True)
class ClimateProfile:
    """Monthly degree days plus the seasonal solar quantities the engine needs.

    Degree-day bases are a property of the data, not the engine; the bundled
    Guangdong fixture uses base 26 C for cooling and 18 C for heating.
    """

    cooling_degree_days: tuple[float, ...]  # K.day, 12 entries
    heating_degree_days: tuple[float, ...]  # K.day, 12 entries
    irradiation: Mapping[str, float]  # kWh/m2/yr incident per orientation
    summer_design_sun_altitude: float  # degrees
    winter_design_sun_altitude: float  # degrees
    pv_equivalent_full_sun_hours: float  # h/yr

    @property
    def annual_cdd(self) -> float:
        return sum(self.cooling_degree_days)

    @property
    def annual_hdd(self) -> float:
        return sum(self.heating_degree_days)


@dataclass(frozen=True)
class Tariff:
    electricity_price: float  # CNY/kWh
    gas_price: float  # CNY/m3
    gas_energy_content: float  # kWh/m3
    feed_in_price: float  # CNY/kWh


@dataclass(frozen=True)
class SensorEntry:
    kind: str
    count: int
    unit_power: float  # W
    duty_cycle: float


@dataclass(frozen=True)
class SensorFleet:
    entries: tuple[SensorEntry, ...]


@dataclass(frozen=True)
class Catalog:
    """Candidate materials and systems for the retrofit design space."""

    constructions: Mapping[str, OpaqueConstruction]
    glazings: Mapping[str, GlazingOption]
    hvac_systems: Mapping[str, HvacSystem]
    lamp_powers: Mapping[str, float]  # lighting technology id -> W per lamp
    cost_indices: Mapping[str, float]


# ---------------------------------------------------------------------------
# input boundary: every loader reads through read_json and number
# ---------------------------------------------------------------------------

Rule = tuple[Callable[[float], bool], str]

#: Range rules as (test, text) pairs. Every test is False for NaN and +-inf.
FINITE: Rule = (math.isfinite, "must be finite")
POSITIVE: Rule = (lambda v: 0 < v < math.inf, "must be > 0 and finite")
NONNEGATIVE: Rule = (lambda v: 0 <= v < math.inf, "must be nonnegative and finite")
FRACTION: Rule = (lambda v: 0 <= v <= 1, "must be within [0, 1]")
SCHEMA: Rule = (lambda v: v == SCHEMA_VERSION, f"must be {SCHEMA_VERSION}")


def read_json(text: str, what: str) -> dict:
    """Parse one input file that must hold a JSON object.

    Raises :class:`SpecError` on a syntax error (with its position), on a
    document that is not an object, and on a ``schema_version`` that breaks
    :data:`SCHEMA`.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"{what}: syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise SpecError(f"{what} document must be a JSON object")
    number(doc, "schema_version", f"{what}.", SCHEMA, default=SCHEMA_VERSION)
    return doc


def check(value: float, field: str, rule: Rule) -> float:
    """``value`` if it passes ``rule``; else :class:`SpecError` naming ``field``."""
    test, text = rule
    if not test(value):
        raise SpecError(f"{field} {text}, got {value!r}")
    return value


def number(doc: Any, key: Any, context: str, rule: Rule,
           default: float | None = None) -> float:
    """``doc[key]`` (a JSON object, a list or a CSV row) as a float passing ``rule``.

    An absent key, a null or an empty CSV cell gives ``default`` when one is
    set. Otherwise it, a non-number, NaN, +-inf or a rule failure raises
    :class:`SpecError` naming ``context + key``.
    """
    try:
        raw = doc[key]
    except (KeyError, IndexError, TypeError):
        raw = None
    if raw is None or raw == "":
        if default is None:
            raise SpecError(f"missing required field {context}{key}")
        return default
    try:
        value = float(raw)
    except (OverflowError, TypeError, ValueError):
        value = None
    if value is None or isinstance(raw, bool):
        raise SpecError(f"{context}{key} must be a number, got {raw!r}")
    return check(value, f"{context}{key}", rule)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_spec(spec: BuildingSpec) -> list[Violation]:
    """Check every type invariant; returns an empty list iff all hold."""
    out: list[Violation] = []

    def holds(value: Any, fieldname: str, rule: Rule) -> None:
        if not rule[0](value):
            out.append(Violation(fieldname, value, rule[1]))

    holds(spec.floor_area, "floor_area", POSITIVE)
    holds(spec.conditioned_volume, "conditioned_volume", POSITIVE)
    holds(spec.storeys, "storeys", (lambda v: v >= 1, "must be >= 1"))
    holds(spec.infiltration, "infiltration", NONNEGATIVE)
    holds(spec.occupancy_hours, "occupancy_hours",
          (lambda v: 0 <= v <= 8760, "must be within [0, 8760]"))
    holds(spec.equipment_power_density, "equipment_power_density", NONNEGATIVE)
    holds([g.orientation.value for g in spec.orientations], "orientations",
          (lambda v: sorted(v) == sorted(ORIENTATION_ORDER),
           "exactly one envelope group per cardinal orientation"))

    for g in spec.orientations:
        prefix = f"orientations[{g.orientation.value}]"
        holds(g.gross_wall_area, f"{prefix}.gross_wall_area", NONNEGATIVE)
        holds(g.wwr, f"{prefix}.wwr", FRACTION)
        holds(g.overhang_ratio, f"{prefix}.overhang_ratio", NONNEGATIVE)
        holds(g.wall.r_value, f"{prefix}.wall.r_value", POSITIVE)
        holds(g.wall.cost_index, f"{prefix}.wall.cost_index", POSITIVE)
        holds(g.glazing.u_value, f"{prefix}.glazing.u_value", POSITIVE)
        holds(g.glazing.shgc, f"{prefix}.glazing.shgc", FRACTION)
        holds(g.glazing.visible_transmittance, f"{prefix}.glazing.visible_transmittance",
              FRACTION)
        holds(g.glazing.cost_index, f"{prefix}.glazing.cost_index", POSITIVE)

    holds(spec.roof.construction.r_value, "roof.construction.r_value", POSITIVE)
    holds(spec.roof.construction.cost_index, "roof.construction.cost_index", POSITIVE)
    holds(spec.roof.area, "roof.area", NONNEGATIVE)

    holds(spec.lighting.lamp_power, "lighting.lamp_power", NONNEGATIVE)
    holds(spec.lighting.lamp_count, "lighting.lamp_count", NONNEGATIVE)
    holds(spec.lighting.annual_hours, "lighting.annual_hours", NONNEGATIVE)
    holds(spec.lighting.daylight_offset, "lighting.daylight_offset", FRACTION)

    holds(spec.hvac.cooling_cop, "hvac.cooling_cop", POSITIVE)
    holds(spec.hvac.heating_efficiency, "hvac.heating_efficiency", POSITIVE)

    return out


def glazed_area(spec: BuildingSpec, orientation: Orientation | str) -> float:
    """Glazed area (m2) for one orientation: gross wall area times WWR."""
    group = spec.envelope(orientation)
    return group.gross_wall_area * group.wwr


# ---------------------------------------------------------------------------
# building spec file (JSON)
# ---------------------------------------------------------------------------

def _require(doc: Mapping[str, Any], key: str, context: str) -> Any:
    if key not in doc:
        raise SpecError(f"missing required field {context}{key!r}")
    return doc[key]


def _construction_from_doc(doc: Mapping[str, Any], context: str) -> OpaqueConstruction:
    return OpaqueConstruction(
        id=str(_require(doc, "id", context)),
        r_value=float(_require(doc, "r_value", context)),
        cost_index=float(doc.get("cost_index", 1.0)),
    )


def _glazing_from_doc(doc: Mapping[str, Any], context: str) -> GlazingOption:
    return GlazingOption(
        id=str(_require(doc, "id", context)),
        u_value=float(_require(doc, "u_value", context)),
        shgc=float(_require(doc, "shgc", context)),
        visible_transmittance=float(_require(doc, "visible_transmittance", context)),
        cost_index=float(doc.get("cost_index", 1.0)),
    )


def parse_building_spec(text: str) -> BuildingSpec:
    """Parse a building spec document into a validated :class:`BuildingSpec`.

    Raises
    ------
    SpecError
        On JSON syntax errors (with position), missing required fields,
        unsupported schema versions, or invariant violations.
    """
    doc = read_json(text, "spec")
    _require(doc, "schema_version", "")
    try:
        spec = _spec_from_doc(doc)
    except (AttributeError, OverflowError, TypeError) as exc:
        # a field of the wrong JSON type, or an infinite storey or lamp count
        raise SpecError(f"malformed spec: {exc}") from exc

    violations = validate_spec(spec)
    if violations:
        raise SpecError(
            "spec violates invariants:\n" + "\n".join(str(v) for v in violations),
            violations,
        )
    return spec


def _spec_from_doc(doc: Mapping[str, Any]) -> BuildingSpec:
    groups = []
    for i, gdoc in enumerate(_require(doc, "orientations", "")):
        ctx = f"orientations[{i}]."
        try:
            orientation = Orientation(_require(gdoc, "orientation", ctx))
        except ValueError as exc:
            raise SpecError(f"{ctx}orientation must be one of N, S, E, W") from exc
        groups.append(EnvelopeGroup(
            orientation=orientation,
            gross_wall_area=float(_require(gdoc, "gross_wall_area_m2", ctx)),
            wwr=float(_require(gdoc, "wwr", ctx)),
            wall=_construction_from_doc(_require(gdoc, "wall", ctx), ctx + "wall."),
            glazing=_glazing_from_doc(_require(gdoc, "glazing", ctx), ctx + "glazing."),
            overhang_ratio=float(gdoc.get("overhang_ratio", 0.0)),
        ))

    roof_doc = _require(doc, "roof", "")
    roof = Roof(
        construction=_construction_from_doc(
            _require(roof_doc, "construction", "roof."), "roof.construction."),
        area=float(_require(roof_doc, "area_m2", "roof.")),
    )

    light_doc = _require(doc, "lighting", "")
    try:
        technology = LightingTechnology(_require(light_doc, "technology", "lighting."))
    except ValueError as exc:
        raise SpecError("lighting.technology must be 'incandescent' or 'led'") from exc
    lighting = LightingSystem(
        technology=technology,
        lamp_power=float(_require(light_doc, "lamp_power_w", "lighting.")),
        lamp_count=int(_require(light_doc, "lamp_count", "lighting.")),
        annual_hours=float(_require(light_doc, "annual_hours", "lighting.")),
        daylight_offset=float(light_doc.get("daylight_offset", 0.0)),
    )

    hvac_doc = _require(doc, "hvac", "")
    try:
        fuel = HeatingFuel(_require(hvac_doc, "heating_fuel", "hvac."))
    except ValueError as exc:
        raise SpecError("hvac.heating_fuel must be 'gas' or 'electric'") from exc
    hvac = HvacSystem(
        cooling_cop=float(_require(hvac_doc, "cooling_cop", "hvac.")),
        heating_efficiency=float(_require(hvac_doc, "heating_efficiency", "hvac.")),
        heating_fuel=fuel,
    )

    return BuildingSpec(
        name=str(_require(doc, "name", "")),
        floor_area=float(_require(doc, "floor_area_m2", "")),
        conditioned_volume=float(_require(doc, "conditioned_volume_m3", "")),
        storeys=int(_require(doc, "storeys", "")),
        orientations=tuple(groups),
        roof=roof,
        infiltration=float(_require(doc, "infiltration_ach", "")),
        occupancy_hours=float(_require(doc, "occupancy_hours", "")),
        equipment_power_density=float(_require(doc, "equipment_power_density_w_m2", "")),
        lighting=lighting,
        hvac=hvac,
    )


def serialize_building_spec(spec: BuildingSpec) -> str:
    """Inverse of :func:`parse_building_spec`; round-trips every valid spec."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "name": spec.name,
        "floor_area_m2": spec.floor_area,
        "conditioned_volume_m3": spec.conditioned_volume,
        "storeys": spec.storeys,
        "infiltration_ach": spec.infiltration,
        "occupancy_hours": spec.occupancy_hours,
        "equipment_power_density_w_m2": spec.equipment_power_density,
        "orientations": [
            {
                "orientation": g.orientation.value,
                "gross_wall_area_m2": g.gross_wall_area,
                "wwr": g.wwr,
                "overhang_ratio": g.overhang_ratio,
                "wall": {"id": g.wall.id, "r_value": g.wall.r_value,
                         "cost_index": g.wall.cost_index},
                "glazing": {"id": g.glazing.id, "u_value": g.glazing.u_value,
                            "shgc": g.glazing.shgc,
                            "visible_transmittance": g.glazing.visible_transmittance,
                            "cost_index": g.glazing.cost_index},
            }
            for g in spec.orientations
        ],
        "roof": {
            "area_m2": spec.roof.area,
            "construction": {"id": spec.roof.construction.id,
                             "r_value": spec.roof.construction.r_value,
                             "cost_index": spec.roof.construction.cost_index},
        },
        "lighting": {
            "technology": spec.lighting.technology.value,
            "lamp_power_w": spec.lighting.lamp_power,
            "lamp_count": spec.lighting.lamp_count,
            "annual_hours": spec.lighting.annual_hours,
            "daylight_offset": spec.lighting.daylight_offset,
        },
        "hvac": {
            "cooling_cop": spec.hvac.cooling_cop,
            "heating_efficiency": spec.hvac.heating_efficiency,
            "heating_fuel": spec.hvac.heating_fuel.value,
        },
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# climate file (CSV with a '#' key=value header block)
# ---------------------------------------------------------------------------

def load_climate_profile(text: str) -> ClimateProfile:
    """Parse a climate file: '#' header block, then 12 rows of month,CDD,HDD."""
    header: dict[str, str] = {}
    rows: list[str] = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if "=" in body:
                key, _, value = body.partition("=")
                header[key.strip()] = value.strip()
        else:
            rows.append(stripped)
    number(header, "schema_version", "climate.", SCHEMA, default=SCHEMA_VERSION)

    cdd = [0.0] * 12
    hdd = [0.0] * 12
    seen_months: set[float] = set()
    for row in csv.DictReader(io.StringIO("\n".join(rows))):
        month = number(row, "month", "climate.", FINITE)
        if month not in range(1, 13) or month in seen_months:
            raise SpecError(f"invalid or duplicate month {month}")
        seen_months.add(month)
        ctx = f"climate month {month:g}: "
        cdd[int(month) - 1] = number(row, "cooling_degree_days_K_day", ctx, NONNEGATIVE)
        hdd[int(month) - 1] = number(row, "heating_degree_days_K_day", ctx, NONNEGATIVE)
    if len(seen_months) != 12:
        raise SpecError(f"climate file must supply all 12 months, got {len(seen_months)}")

    irradiation = {o: number(header, f"irradiation_kwh_m2_{o}", "climate.", NONNEGATIVE)
                   for o in ORIENTATION_ORDER}
    altitude = (lambda v: 0 < v < 90, "must lie in (0, 90) degrees")
    alt_summer = number(header, "summer_sun_altitude_deg", "climate.", altitude)
    alt_winter = number(header, "winter_sun_altitude_deg", "climate.", altitude)
    sun_hours = number(header, "pv_full_sun_hours", "climate.", NONNEGATIVE)

    return ClimateProfile(
        cooling_degree_days=tuple(cdd),
        heating_degree_days=tuple(hdd),
        irradiation=irradiation,
        summer_design_sun_altitude=alt_summer,
        winter_design_sun_altitude=alt_winter,
        pv_equivalent_full_sun_hours=sun_hours,
    )


# ---------------------------------------------------------------------------
# catalog file (CSV)
# ---------------------------------------------------------------------------

def load_catalog(text: str) -> Catalog:
    """Parse the material/system catalog CSV.

    Rows are typed by their ``kind`` column: construction, glazing, hvac or
    lighting. Unused cells stay empty.

    Raises
    ------
    SpecError
        On a malformed row; an ``r_value``, ``u_value``, ``cooling_cop``,
        ``heating_efficiency``, ``lamp_power_w`` or ``cost_index`` that is
        not a finite number > 0; or an ``shgc`` or ``visible_transmittance``
        outside [0, 1]. An empty ``cost_index`` reads as 1.
    """
    constructions: dict[str, OpaqueConstruction] = {}
    glazings: dict[str, GlazingOption] = {}
    hvac_systems: dict[str, HvacSystem] = {}
    lamp_powers: dict[str, float] = {}
    cost_indices: dict[str, float] = {}

    reader = csv.DictReader(io.StringIO(text))
    for row in reader:
        kind = (row.get("kind") or "").strip()
        cid = (row.get("id") or "").strip()
        if not kind or not cid:
            raise SpecError(f"catalog row missing kind or id: {row!r}")
        ctx = f"malformed catalog row for {cid!r}: "
        cost = cost_indices[cid] = number(row, "cost_index", ctx, POSITIVE, default=1.0)
        if kind == "construction":
            constructions[cid] = OpaqueConstruction(
                cid, number(row, "r_value", ctx, POSITIVE), cost)
        elif kind == "glazing":
            glazings[cid] = GlazingOption(
                cid, number(row, "u_value", ctx, POSITIVE), number(row, "shgc", ctx, FRACTION),
                number(row, "visible_transmittance", ctx, FRACTION), cost)
        elif kind == "hvac":
            fuel = (row.get("heating_fuel") or "").strip()
            if fuel not in {f.value for f in HeatingFuel}:
                raise SpecError(f"{ctx}heating_fuel must be 'gas' or 'electric'")
            hvac_systems[cid] = HvacSystem(
                number(row, "cooling_cop", ctx, POSITIVE),
                number(row, "heating_efficiency", ctx, POSITIVE), HeatingFuel(fuel))
        elif kind == "lighting":
            lamp_powers[cid] = number(row, "lamp_power_w", ctx, POSITIVE)
        else:
            raise SpecError(f"unknown catalog kind {kind!r}")

    return Catalog(constructions, glazings, hvac_systems, lamp_powers, cost_indices)


# ---------------------------------------------------------------------------
# tariff and sensor fleet files (JSON)
# ---------------------------------------------------------------------------

def load_tariff(text: str) -> Tariff:
    """Parse a tariff file; every price and the gas energy content must be > 0."""
    doc = read_json(text, "tariff")
    return Tariff(*(number(doc, key, "tariff.", POSITIVE) for key in (
        "electricity_price_cny_kwh", "gas_price_cny_m3", "gas_energy_content_kwh_m3",
        "feed_in_price_cny_kwh")))


def load_sensor_fleet(text: str) -> SensorFleet:
    """Parse a sensor-fleet file: a list of entries with kind, count, power and duty."""
    entries = read_json(text, "fleet").get("entries")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise SpecError("fleet.entries must be a list of JSON objects")
    return SensorFleet(tuple(
        SensorEntry(
            kind=str(_require(edoc, "kind", f"entries[{i}].")),
            count=int(number(edoc, "count", f"entries[{i}].", NONNEGATIVE)),
            unit_power=number(edoc, "unit_power_w", f"entries[{i}].", NONNEGATIVE),
            duty_cycle=number(edoc, "duty_cycle", f"entries[{i}].", FRACTION),
        )
        for i, edoc in enumerate(entries)))


# ---------------------------------------------------------------------------
# bundled fixtures
# ---------------------------------------------------------------------------

def fixture_path(name: str) -> Path:
    """Path to a bundled data fixture, e.g. ``fixture_path('baseline_school.json')``."""
    ref = resources.files("lowcarb.data").joinpath(name)
    with resources.as_file(ref) as path:
        return Path(path)


def read_fixture(name: str) -> str:
    return resources.files("lowcarb.data").joinpath(name).read_text(encoding="utf-8")
