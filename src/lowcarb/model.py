"""Domain model: buildings, climates, construction catalogs, tariffs, sensor fleets.

All types are frozen dataclasses and safe to share between threads. Parsing
is strict. Each field of a record read from a file declares its key, rule and
default once, on its class, through :func:`spec`; :func:`record_format` collects
them. A record whose fields declare rules is a :class:`Record`: building one, in code
or from a file, tests each of its own fields' rules and raises :class:`RuleError`
(a :class:`SpecError`) naming ``Class.attr`` for the first one broken, so a record
that exists is valid. Every file that maps one key to one field is read through that
format by :func:`_read`, which refuses a missing or mistyped value as it reads it and
names a broken rule by its path in the file: the building spec, the tariff, targets,
PV site, sensor fleet and node config files, the spec's ``calibration`` block, the
design space's code limits, and the catalog, rooms and lamps rows. :func:`to_doc`
writes a record under the same keys: the building spec's serialize and the reports
use it. A JSON key no field declares is refused by its path, but for a top-level
``schema_version`` and ``name`` (:func:`read_record`) or the spec's ``calibration``.
Spec files carry every thermal coefficient explicitly: the only defaulted fields are
``daylight_offset``, ``overhang_ratio`` and ``cost_index``, and a null or absent one
takes its default. Spec numbers pass the same boundary as every other input
(:func:`number`), so a malformed one is named by its JSON path; ``name``, ids and
enums are required strings (:func:`string`).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
import reprlib
import types
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import (Any, Callable, Collection, Iterable, Mapping, NamedTuple, get_args,
                    get_origin, get_type_hints)

SCHEMA_VERSION = 1

#: Canonical orientation order used everywhere loads are accumulated, so that
#: results do not depend on the order envelope groups appear in a spec file.
ORIENTATION_ORDER = ("N", "S", "E", "W")


def total(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0: the same bits on every Python, where
    the builtin ``sum()`` compensates float rounding from 3.12 on."""
    return functools.reduce(operator.add, values, 0.0)


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
    """An input, or a record built in code, is malformed; the message names the field."""


class CalibrationError(RuntimeError):
    """Calibration could not reach the target tolerance."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


class TraceError(ValueError):
    """An environment trace is malformed or cannot be simulated."""


# ---------------------------------------------------------------------------
# record formats: each field of a record read from a file declares its key and rule
# ---------------------------------------------------------------------------

class Rule:
    """A value rule: ``test(value)`` is True iff the value passes, and a refusal quotes
    ``text`` ("must be true or false")."""

    def __init__(self, test: Callable[[Any], bool], text: str):
        self.test, self.text = test, text


class Interval(Rule):
    """The numbers from ``low`` to ``high``; an end is in it where ``ends`` has a bracket:
    ``Interval(0, 1, "(]")`` is (0, 1]. Its test is two comparisons, False for NaN and at
    an open infinite end, and its text is formed from the ends."""

    def __init__(self, low: float, high: float, ends: str = "[]"):
        self.low, self.high, self.ends = low, high, ends
        above, below = (operator.le if end in "[]" else operator.lt for end in ends)
        super().__init__(lambda v: above(low, v) and below(v, high), (
            f"must be within {ends[0]}{low}, {high}{ends[1]}" if high < math.inf
            else "must be finite" if low == -math.inf
            else "must be nonnegative and finite" if low == 0 and ends[0] == "["
            else f"must be {'>=' if ends[0] == '[' else '>'} {low} and finite"))


#: Every value rule is False for NaN and +-inf.
FINITE = Interval(-math.inf, math.inf, "()")
POSITIVE = Interval(0, math.inf, "()")
NONNEGATIVE = Interval(0, math.inf, "[)")
FRACTION = Interval(0, 1)
ALTITUDE = Interval(0, 90, "()")  # degrees
INTEGER = Rule(lambda v: v >= 0 and float(v).is_integer(), "must be a whole number >= 0")
POSITIVE_INTEGER = Rule(lambda v: v >= 1 and float(v).is_integer(), "must be a whole number >= 1")
BOOLEAN = Rule(lambda v: isinstance(v, bool), "must be true or false")
SCHEMA = Rule(lambda v: v == SCHEMA_VERSION, f"must be {SCHEMA_VERSION}")
ONE_PER_ORIENTATION = Rule(lambda v: sorted(v) == sorted(ORIENTATION_ORDER),
                           "must hold exactly one envelope group per cardinal orientation")


def spec(key: str, rule: Rule | None = None, **default: Any) -> Any:
    """A record field stored under ``key`` in its file, whose value must pass ``rule``;
    ``default=`` lets the key be absent, and null unless the field is a bool or a record."""
    return field(metadata={"key": key, "rule": rule}, **default)


class Field(NamedTuple):
    """One field of a record. Only a field with a ``default`` may be absent or null (a bool
    or a record only absent); an absent or null ``float | None`` field reads as None."""

    attr: str
    key: str  # in the JSON document or CSV row
    kind: Any  # float, float | None, int, bool, str, an Enum, a record type, (record type,), ...
    rule: Rule | None
    default: Any
    record: bool  # kind is a record type


@functools.cache
def record_format(cls: type) -> tuple[Field, ...]:
    """The fields of the record type ``cls`` in class order, as its :func:`spec` calls
    declare them. The records of a tuple-of-records field are named by their first field
    (an Enum), and the field's rule tests those names (:func:`_names`)."""
    hints = get_type_hints(cls)
    out = []
    for f in fields(cls):
        kind = hints[f.name]
        if get_origin(kind) is tuple and is_dataclass(get_args(kind)[0]):
            kind = get_args(kind)[:1]  # tuple[X, ...] of records -> (X,)
        default = None if f.default is MISSING else f.default
        out.append(Field(f.name, f.metadata["key"], kind, f.metadata["rule"], default,
                         is_dataclass(kind)))
    return tuple(out)


def _names(f: Field, items: tuple) -> list:
    """The tuple field ``f``'s records ``items`` by their first field, an Enum's value."""
    first = record_format(f.kind[0])[0].attr
    return [getattr(key, "value", key) for key in (getattr(item, first) for item in items)]


class RuleError(SpecError):
    """A record refused at build time: ``value``, in its field ``field``, breaks the rule."""

    def __init__(self, cls: type, field: Field, value: Any):
        super().__init__(f"{cls.__name__}.{field.attr} {field.rule.text}, got {shown(value)}")
        self.field, self.value = field, value


class Record:
    """A record whose fields declare rules: building one tests each of its own fields' rule
    in class order, and raises :class:`RuleError` for the first one broken. A nested record
    was tested when it was built; a tuple-of-records field's rule tests its records'
    :func:`_names`, and an unset ``float | None`` field passes."""

    def __post_init__(self) -> None:
        for f in record_format(type(self)):
            value = getattr(self, f.attr)
            if f.rule is None or value is None and isinstance(f.kind, types.UnionType):
                continue
            if isinstance(f.kind, tuple):
                value = _names(f, value)
            if not f.rule.test(value):
                raise RuleError(type(self), f, value)


@dataclass(frozen=True)
class OpaqueConstruction(Record):
    id: str = spec("id")
    r_value: float = spec("r_value", POSITIVE)  # (m2.K)/W
    cost_index: float = spec("cost_index", POSITIVE, default=1.0)

    @property
    def u_value(self) -> float:  # W/(m2.K)
        return 1.0 / self.r_value


@dataclass(frozen=True)
class GlazingOption(Record):
    id: str = spec("id")
    u_value: float = spec("u_value", POSITIVE)  # W/(m2.K)
    shgc: float = spec("shgc", FRACTION)
    visible_transmittance: float = spec("visible_transmittance", FRACTION)
    cost_index: float = spec("cost_index", POSITIVE, default=1.0)


@dataclass(frozen=True)
class EnvelopeGroup(Record):
    orientation: Orientation = spec("orientation")
    gross_wall_area: float = spec("gross_wall_area_m2", NONNEGATIVE)  # m2
    wwr: float = spec("wwr", FRACTION)
    wall: OpaqueConstruction = spec("wall")
    glazing: GlazingOption = spec("glazing")
    overhang_ratio: float = spec("overhang_ratio", NONNEGATIVE, default=0.0)  # depth/height


@dataclass(frozen=True)
class Roof(Record):
    construction: OpaqueConstruction = spec("construction")
    area: float = spec("area_m2", NONNEGATIVE)  # m2


@dataclass(frozen=True)
class LightingSystem(Record):
    technology: LightingTechnology = spec("technology")
    lamp_power: float = spec("lamp_power_w", NONNEGATIVE)  # W per lamp
    lamp_count: int = spec("lamp_count", INTEGER)
    annual_hours: float = spec("annual_hours", NONNEGATIVE)  # h/yr
    daylight_offset: float = spec("daylight_offset", FRACTION, default=0.0)  # daylit share


@dataclass(frozen=True)
class HvacSystem(Record):
    cooling_cop: float = spec("cooling_cop", POSITIVE)
    heating_efficiency: float = spec("heating_efficiency", POSITIVE)
    heating_fuel: HeatingFuel = spec("heating_fuel")


@dataclass(frozen=True)
class BuildingSpec(Record):
    name: str = spec("name")
    floor_area: float = spec("floor_area_m2", POSITIVE)  # m2
    conditioned_volume: float = spec("conditioned_volume_m3", POSITIVE)  # m3
    storeys: int = spec("storeys", POSITIVE_INTEGER)
    orientations: tuple[EnvelopeGroup, ...] = spec("orientations", ONE_PER_ORIENTATION)
    roof: Roof = spec("roof")
    infiltration: float = spec("infiltration_ach", NONNEGATIVE)  # air changes per hour
    occupancy_hours: float = spec("occupancy_hours", Interval(0, 8760))  # h/yr
    equipment_power_density: float = spec("equipment_power_density_w_m2", NONNEGATIVE)  # W/m2
    lighting: LightingSystem = spec("lighting")
    hvac: HvacSystem = spec("hvac")

    def envelope(self, orientation: Orientation | str) -> EnvelopeGroup:
        key = Orientation(orientation)  # a spec holds one group per orientation
        return next(group for group in self.orientations if group.orientation is key)


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
        return total(self.cooling_degree_days)

    @property
    def annual_hdd(self) -> float:
        return total(self.heating_degree_days)


@dataclass(frozen=True)
class Tariff(Record):
    electricity_price: float = spec("electricity_price_cny_kwh", POSITIVE)  # CNY/kWh
    gas_price: float = spec("gas_price_cny_m3", POSITIVE)  # CNY/m3
    gas_energy_content: float = spec("gas_energy_content_kwh_m3", POSITIVE)  # kWh/m3
    feed_in_price: float = spec("feed_in_price_cny_kwh", POSITIVE)  # CNY/kWh


@dataclass(frozen=True)
class SensorEntry(Record):
    kind: str = spec("kind")
    count: int = spec("count", INTEGER)
    unit_power: float = spec("unit_power_w", NONNEGATIVE)  # W
    duty_cycle: float = spec("duty_cycle", FRACTION)


@dataclass(frozen=True)
class SensorFleet(Record):
    entries: tuple[SensorEntry, ...] = spec("entries")


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

class JsonObject(dict):
    """A JSON object from :func:`read_json`, whose strings :func:`number` reads no number from."""


class _Shown(reprlib.Repr):
    repr_JsonObject = reprlib.Repr.repr_dict  # not the repr of the whole object, cut after


#: A value as an error line quotes it: [0, 0, 0, 0, 0, 0, ...]
shown = _Shown().repr


def read_json(text: str, what: str) -> dict:
    """Parse one input file that must hold a JSON object, each object a :class:`JsonObject`.

    Raises :class:`SpecError` on a syntax error (with its position), on a
    document that is not an object, and on a ``schema_version`` that breaks
    :data:`SCHEMA`.
    """
    try:
        doc = json.loads(text, object_pairs_hook=JsonObject)
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"{what}: syntax error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:  # its own text names no input
        raise SpecError(f"{what}: JSON nested too deeply") from None
    if not isinstance(doc, dict):
        raise SpecError(f"{what} document must be a JSON object")
    number(doc, "schema_version", f"{what}.", SCHEMA, default=SCHEMA_VERSION)
    return doc


def check(value: Any, field: str, rule: Rule | None) -> Any:
    """``value`` if it passes ``rule`` (any value passes None); else :class:`SpecError`
    naming ``field``."""
    if rule is not None and not rule.test(value):
        raise SpecError(f"{field} {rule.text}, got {shown(value)}")
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
    set. Otherwise it, a non-number (in JSON, a string too) or a rule failure raises
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
    if value is None or isinstance(raw, bool) or isinstance(raw, str) and isinstance(
            doc, (JsonObject, list)):
        raise SpecError(f"{context}{key} must be a number, got {shown(raw)}")
    return check(value, f"{context}{key}", rule)


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
    raise SpecError(f"{context}{key} must be {wanted}, got {shown(raw)}")


def glazed_area(spec: BuildingSpec, orientation: Orientation | str) -> float:
    """Glazed area (m2) for one orientation: gross wall area times WWR."""
    group = spec.envelope(orientation)
    return group.gross_wall_area * group.wwr


# ---------------------------------------------------------------------------
# records read through record_format, and the building spec file (JSON)
# ---------------------------------------------------------------------------

def _read(cls: type, doc: Any, context: str, what: str | None = None) -> Any:
    """A ``cls`` record from the JSON object or CSV row ``doc``, whose fields are named
    ``context + key``. A value that is missing or of the wrong kind is refused as it is
    read, and nested records are read (and so checked) alike; the record's own rules are
    tested when it is built, a broken one named by its key. If ``what`` is set, a key that
    no field declares is refused as not a ``what`` field."""
    where = context.removesuffix(".")
    if not isinstance(doc, dict):
        raise SpecError(f"missing required field {where}" if doc is None
                        else f"{where} must be a JSON object, got {shown(doc)}")
    if what:
        known_keys(doc, [f.key for f in record_format(cls)], context, what)
    values = {}
    for f in record_format(cls):
        name = context + f.key
        if isinstance(f.kind, tuple):
            items = doc.get(f.key)
            if not isinstance(items, list):
                raise SpecError(f"missing required field {name}" if items is None
                                else f"{name} must be a JSON list, got {shown(items)}")
            value = tuple(_read(f.kind[0], item, f"{name}[{i}].", what)
                          for i, item in enumerate(items))
        elif f.record:  # absent reads as the default, if there is one
            value = _read(f.kind, doc.get(f.key, to_doc(f.default)), name + ".", what)
        elif isinstance(f.kind, types.UnionType):  # float | None: absent or null is None
            value = None if _get(doc, f.key) is None else number(doc, f.key, context, None)
        elif f.kind is bool:  # absent is the default, null breaks the rule
            value = doc.get(f.key, f.default)
        elif f.kind in (float, int):  # a fraction stays a float, for the int rule to refuse
            value = number(doc, f.key, context, None, f.default)
            value = int(value) if f.kind is int and value.is_integer() else value
        else:
            value = string(doc, f.key, context, None if f.kind is str else f.kind)
        values[f.attr] = value
    try:
        return cls(**values)
    except RuleError as exc:  # shown as read: an int field's value as its float
        f, value = exc.field, exc.value
        raise SpecError(f"{context}{f.key} {f.rule.text}, got "
                        f"{shown(float(value) if f.kind is int else value)}") from exc


def read_record(cls: type, text: str, what: str, noun: str) -> Any:
    """A ``cls`` record from the JSON file ``text``, its fields named ``what.key``. A key no
    field declares is not a ``noun`` field, save a top-level ``schema_version`` or ``name``."""
    doc = read_json(text, what)
    return _read(cls, JsonObject(item for item in doc.items()
                                 if item[0] not in ("schema_version", "name")), f"{what}.", noun)


def parse_building_spec(text: str) -> BuildingSpec:
    """Parse a building spec document into a validated :class:`BuildingSpec`.

    Raises
    ------
    SpecError
        On JSON syntax errors (with position), an unsupported schema version, or a
        field that is missing, mistyped or breaks its rule. Missing and mistyped fields,
        and nested blocks with a broken rule, are found as the file is read, in class
        order; a record's own rules are tested once its fields are read.
    """
    doc = read_json(text, "spec")
    try:
        number(doc, "schema_version", "", SCHEMA)  # read_json lets an absent one pass
        # the other top-level keys: the version, checked above, and load_calibration's block
        return _read(BuildingSpec, JsonObject(item for item in doc.items() if item[0] not in
                                              ("schema_version", "calibration")), "", "spec")
    except SpecError as exc:
        raise SpecError(f"malformed spec: {exc}") from exc


def to_doc(record: Any) -> Any:
    """``record`` as a JSON value: a record becomes a dict keyed by its fields' declared
    keys in class order, a tuple a list and an Enum its value; :func:`_read` inverts it."""
    if isinstance(record, tuple):
        return [to_doc(item) for item in record]
    if not is_dataclass(record):
        return record.value if isinstance(record, Enum) else record
    return {f.key: to_doc(getattr(record, f.attr)) for f in record_format(type(record))}


def serialize_building_spec(spec: BuildingSpec) -> str:
    """Inverse of :func:`parse_building_spec`; round-trips every valid spec."""
    return json.dumps({"schema_version": SCHEMA_VERSION, **to_doc(spec)}, indent=2) + "\n"


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
    alt_summer = number(header, "summer_sun_altitude_deg", "climate.", ALTITUDE)
    alt_winter = number(header, "winter_sun_altitude_deg", "climate.", ALTITUDE)
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
        "construction": lambda row: _read(OpaqueConstruction, row, ""),
        "glazing": lambda row: _read(GlazingOption, row, ""),
        "hvac": lambda row: _read(HvacSystem, row, ""),
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
    return read_record(Tariff, text, "tariff", "tariff")


def load_sensor_fleet(text: str) -> SensorFleet:
    """Parse a sensor-fleet file: a list of entries with kind, count, power and duty."""
    return read_record(SensorFleet, text, "fleet", "sensor fleet")


# ---------------------------------------------------------------------------
# bundled fixtures
# ---------------------------------------------------------------------------

def fixture_path(name: str) -> Path:
    """Path to a bundled data fixture, e.g. ``fixture_path('baseline_school.json')``."""
    from importlib import resources  # only here and in read_fixture: the CLI needs neither
    ref = resources.files("lowcarb.data").joinpath(name)
    with resources.as_file(ref) as path:
        return Path(path)


def read_fixture(name: str) -> str:
    from importlib import resources
    return resources.files("lowcarb.data").joinpath(name).read_text(encoding="utf-8")
