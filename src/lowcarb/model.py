"""Domain model: buildings, climates, construction catalogs, tariffs, sensor fleets.

All types are frozen dataclasses and safe to share between threads. Parsing
is strict. One table, :data:`SPEC_FORMAT`, declares the building-spec format,
and parse, validate and serialize all walk it; a key it does not list (besides
the top-level ``schema_version`` and ``calibration``) is refused by its path.
Spec files carry every thermal coefficient explicitly: the only defaulted
fields are ``daylight_offset``, ``overhang_ratio`` and ``cost_index``, and a
null or absent one takes its default. Spec numbers pass the same boundary as
every other input (:func:`number`), so a malformed one is named by its JSON
path; ``name``, ids and enums are required strings (:func:`string`).
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
from typing import Any, Callable, Collection, Mapping, NamedTuple

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


class CalibrationError(RuntimeError):
    """Calibration could not reach the target tolerance."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


class TraceError(ValueError):
    """An environment trace is malformed or cannot be simulated."""


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


# ---------------------------------------------------------------------------
# input boundary: every loader reads through read_json, number and string
# ---------------------------------------------------------------------------

Rule = tuple[Callable[[float], bool], str]

#: Value rules as (test, text) pairs. Every test is False for NaN and +-inf.
FINITE: Rule = (math.isfinite, "must be finite")
POSITIVE: Rule = (lambda v: 0 < v < math.inf, "must be > 0 and finite")
NONNEGATIVE: Rule = (lambda v: 0 <= v < math.inf, "must be nonnegative and finite")
FRACTION: Rule = (lambda v: 0 <= v <= 1, "must be within [0, 1]")
INTEGER: Rule = (lambda v: v >= 0 and float(v).is_integer(), "must be a whole number >= 0")
BOOLEAN: Rule = (lambda v: isinstance(v, bool), "must be true or false")
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


def known_keys(doc: Any, keys: Collection[str], context: str, what: str) -> None:
    """Raise :class:`SpecError` naming ``context + key`` for a key of the JSON object
    ``doc`` that is not in ``keys``; a ``doc`` that is no object passes."""
    for key in doc if isinstance(doc, dict) else ():
        if key not in keys:
            raise SpecError(f"{context}{key} is not a {what} field")


def _get(doc: Any, key: Any) -> Any:
    try:
        return doc[key]
    except (KeyError, IndexError, TypeError):
        return None


def number(doc: Any, key: Any, context: str, rule: Rule | None,
           default: float | None = None) -> float:
    """``doc[key]`` (a JSON object, a list or a CSV row) as a float passing ``rule``.

    An absent key, a null or an empty CSV cell gives ``default`` when one is
    set. Otherwise it, a non-number or a rule failure raises
    :class:`SpecError` naming ``context + key``; so do NaN and +-inf, unless
    ``rule`` is None, which accepts every float.
    """
    raw = _get(doc, key)
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
    return value if rule is None else check(value, f"{context}{key}", rule)


def string(doc: Any, key: Any, context: str, choices: type[Enum] | None = None) -> Any:
    """``doc[key]`` as a string, or as the member of the Enum ``choices`` it names.

    An absent key, a null, a value that is not a string or one that names no
    member of ``choices`` raises :class:`SpecError` naming ``context + key``.
    """
    raw = _get(doc, key)
    if raw is None:
        raise SpecError(f"missing required field {context}{key}")
    if isinstance(raw, str) and (choices is None or raw in {m.value for m in choices}):
        return raw if choices is None else choices(raw)
    wanted = ("a string" if choices is None
              else "one of " + ", ".join(repr(member.value) for member in choices))
    raise SpecError(f"{context}{key} must be {wanted}, got {raw!r}")


def glazed_area(spec: BuildingSpec, orientation: Orientation | str) -> float:
    """Glazed area (m2) for one orientation: gross wall area times WWR."""
    group = spec.envelope(orientation)
    return group.gross_wall_area * group.wwr


# ---------------------------------------------------------------------------
# building spec file (JSON): one format table drives parse, validate, serialize
# ---------------------------------------------------------------------------

class Field(NamedTuple):
    """One field of a spec record. Only a field with a ``default`` may be absent or null."""

    attr: str
    key: str  # in the JSON document
    kind: Any  # float, int, str, an Enum, a record type, or [record type] for a list
    rule: Rule | None = None
    default: Any = None


#: The building-spec format: the fields of each record type, in file order. The
#: records of a list are named by their first field (an Enum), and the list's
#: rule tests those names.
SPEC_FORMAT: dict[type, tuple[Field, ...]] = {
    OpaqueConstruction: (
        Field("id", "id", str),
        Field("r_value", "r_value", float, POSITIVE),
        Field("cost_index", "cost_index", float, POSITIVE, 1.0),
    ),
    GlazingOption: (
        Field("id", "id", str),
        Field("u_value", "u_value", float, POSITIVE),
        Field("shgc", "shgc", float, FRACTION),
        Field("visible_transmittance", "visible_transmittance", float, FRACTION),
        Field("cost_index", "cost_index", float, POSITIVE, 1.0),
    ),
    EnvelopeGroup: (
        Field("orientation", "orientation", Orientation),
        Field("gross_wall_area", "gross_wall_area_m2", float, NONNEGATIVE),
        Field("wwr", "wwr", float, FRACTION),
        Field("overhang_ratio", "overhang_ratio", float, NONNEGATIVE, 0.0),
        Field("wall", "wall", OpaqueConstruction),
        Field("glazing", "glazing", GlazingOption),
    ),
    Roof: (
        Field("construction", "construction", OpaqueConstruction),
        Field("area", "area_m2", float, NONNEGATIVE),
    ),
    LightingSystem: (
        Field("technology", "technology", LightingTechnology),
        Field("lamp_power", "lamp_power_w", float, NONNEGATIVE),
        Field("lamp_count", "lamp_count", int, NONNEGATIVE),
        Field("annual_hours", "annual_hours", float, NONNEGATIVE),
        Field("daylight_offset", "daylight_offset", float, FRACTION, 0.0),
    ),
    HvacSystem: (
        Field("cooling_cop", "cooling_cop", float, POSITIVE),
        Field("heating_efficiency", "heating_efficiency", float, POSITIVE),
        Field("heating_fuel", "heating_fuel", HeatingFuel),
    ),
    BuildingSpec: (
        Field("name", "name", str),
        Field("floor_area", "floor_area_m2", float, POSITIVE),
        Field("conditioned_volume", "conditioned_volume_m3", float, POSITIVE),
        Field("storeys", "storeys", int, (lambda v: v >= 1, "must be >= 1")),
        Field("infiltration", "infiltration_ach", float, NONNEGATIVE),
        Field("occupancy_hours", "occupancy_hours", float,
              (lambda v: 0 <= v <= 8760, "must be within [0, 8760]")),
        Field("equipment_power_density", "equipment_power_density_w_m2", float, NONNEGATIVE),
        Field("orientations", "orientations", [EnvelopeGroup],
              (lambda v: sorted(v) == sorted(ORIENTATION_ORDER),
               "exactly one envelope group per cardinal orientation")),
        Field("roof", "roof", Roof),
        Field("lighting", "lighting", LightingSystem),
        Field("hvac", "hvac", HvacSystem),
    ),
}


def _read(cls: type, doc: Any, context: str, row: bool = False) -> Any:
    """A ``cls`` record from ``doc``, whose fields are named ``context + key``: a spec's
    JSON object, which may hold no other key and whose rules :func:`validate_spec`
    checks, or if ``row`` a catalog CSV row, whose rules are checked here."""
    where = context.removesuffix(".")
    if not isinstance(doc, dict):
        raise SpecError(f"missing required field {where}" if doc is None
                        else f"{where} must be a JSON object, got {doc!r}")
    if not row:
        known_keys(doc, [f.key for f in SPEC_FORMAT[cls]], context, "spec")
    values = {}
    for f in SPEC_FORMAT[cls]:
        name = context + f.key
        if isinstance(f.kind, list):
            items = doc.get(f.key)
            if not isinstance(items, list):
                raise SpecError(f"missing required field {name}" if items is None
                                else f"{name} must be a JSON list, got {items!r}")
            value = tuple(_read(f.kind[0], item, f"{name}[{i}].")
                          for i, item in enumerate(items))
        elif f.kind in SPEC_FORMAT:
            value = _read(f.kind, doc.get(f.key), name + ".")
        elif f.kind is float or f.kind is int:
            value = f.kind(number(doc, f.key, context, INTEGER if f.kind is int else None,
                                  f.default))
            value = check(value, name, f.rule) if row else value
        else:
            value = string(doc, f.key, context, None if f.kind is str else f.kind)
        values[f.attr] = value
    return cls(**values)


def validate_spec(spec: BuildingSpec) -> list[Violation]:
    """Check every rule of :data:`SPEC_FORMAT`; returns an empty list iff all hold."""
    out: list[Violation] = []

    def walk(record: Any, prefix: str) -> None:
        for f in SPEC_FORMAT[type(record)]:
            value, name = getattr(record, f.attr), prefix + f.attr
            if isinstance(f.kind, list):
                first = SPEC_FORMAT[f.kind[0]][0].attr
                items, value = value, [getattr(item, first).value for item in value]
            if f.rule is not None and not f.rule[0](value):
                out.append(Violation(name, value, f.rule[1]))
            if isinstance(f.kind, list):
                for key, item in zip(value, items):
                    walk(item, f"{name}[{key}].")
            elif f.kind in SPEC_FORMAT:
                walk(value, name + ".")

    walk(spec, "")
    return out


def parse_building_spec(text: str) -> BuildingSpec:
    """Parse a building spec document into a validated :class:`BuildingSpec`.

    Raises
    ------
    SpecError
        On JSON syntax errors (with position), a missing or mistyped field,
        an unsupported schema version, or invariant violations.
    """
    doc = read_json(text, "spec")
    try:
        number(doc, "schema_version", "", SCHEMA)  # read_json lets an absent one pass
        # the other top-level keys: the version, checked above, and load_calibration's block
        spec = _read(BuildingSpec, {key: value for key, value in doc.items()
                                    if key not in ("schema_version", "calibration")}, "")
    except SpecError as exc:
        raise SpecError(f"malformed spec: {exc}") from exc

    violations = validate_spec(spec)
    if violations:
        raise SpecError("spec violates invariants:\n" + "\n".join(map(str, violations)),
                        violations)
    return spec


def serialize_building_spec(spec: BuildingSpec) -> str:
    """Inverse of :func:`parse_building_spec`; round-trips every valid spec."""
    def dump(record: Any) -> Any:
        if isinstance(record, tuple):
            return [dump(item) for item in record]
        if type(record) not in SPEC_FORMAT:
            return record.value if isinstance(record, Enum) else record
        return {f.key: dump(getattr(record, f.attr)) for f in SPEC_FORMAT[type(record)]}

    return json.dumps({"schema_version": SCHEMA_VERSION, **dump(spec)}, indent=2) + "\n"


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
        On a malformed row; a second row of the same kind and id; an ``r_value``,
        ``u_value``, ``cooling_cop``, ``heating_efficiency``, ``lamp_power_w`` or
        ``cost_index`` that is not a finite number > 0; or an ``shgc`` or
        ``visible_transmittance`` outside [0, 1]. An empty ``cost_index`` reads as 1.
    """
    readers = {
        "construction": lambda row: _read(OpaqueConstruction, row, "", row=True),
        "glazing": lambda row: _read(GlazingOption, row, "", row=True),
        "hvac": lambda row: _read(HvacSystem, row, "", row=True),
        "lighting": lambda row: number(row, "lamp_power_w", "", POSITIVE),
    }
    tables: dict[str, dict] = {kind: {} for kind in readers}

    for row in csv.DictReader(io.StringIO(text)):
        row = {key: cell.strip() if isinstance(cell, str) else cell for key, cell in row.items()}
        kind, cid = row.get("kind"), row.get("id")
        if not kind or not cid:
            raise SpecError(f"catalog row missing kind or id: {row!r}")
        if cid in tables.get(kind, ()):
            raise SpecError(f"catalog repeats {kind} id {cid!r}")
        try:
            # hvac and lighting rows keep no cost index, but theirs must be valid too
            number(row, "cost_index", "", POSITIVE, default=1.0)
            if kind not in readers:
                raise SpecError(f"unknown catalog kind {kind!r}")
            tables[kind][cid] = readers[kind](row)
        except SpecError as exc:
            raise SpecError(f"malformed catalog row for {cid!r}: {exc}") from exc

    return Catalog(*tables.values())


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
            kind=string(edoc, "kind", f"fleet.entries[{i}]."),
            count=int(number(edoc, "count", f"fleet.entries[{i}].", INTEGER)),
            unit_power=number(edoc, "unit_power_w", f"fleet.entries[{i}].", NONNEGATIVE),
            duty_cycle=number(edoc, "duty_cycle", f"fleet.entries[{i}].", FRACTION),
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
