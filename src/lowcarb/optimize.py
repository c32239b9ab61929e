"""Retrofit design-space enumeration, code checks and exhaustive search.

One table, :data:`VARIABLES`, names each design variable in code, in the space
file and in the results reports, and gives the interval or kind of its candidates.
The space file, validation, enumeration and the reports all walk it, so a bad
candidate is named by its path in the file (``design space wwr.S item 0``).

The search is exact: its ranking is the one that scoring every code-legal point
of the Cartesian product through the energy engine gives, by EUI with the
annual cost per m2 as tie-break and the enumeration index as the final, total
tie-break, so it is invariant under any evaluation order.

Code limits act on single candidate values, so the code-legal designs form
a Cartesian product of their own (:func:`legal_space`). It is scored a whole
design group at a time (its ``width`` orientation designs), in ascending order
of a lower bound on the group's EUI (:func:`_group_bounds`). A kernel call takes
as many groups as fit in :data:`CHUNK_SIZE` designs, and at least one. When
every group fits in one call, one call scores them all; otherwise the first call
takes the ``ceil(k / width)`` groups that can hold k rows and each later call
twice as many, up to a chunk. Rows above the k-th least EUI held are dropped
and groups whose bound lies above it are skipped, so memory is bounded by the
largest call made (max(CHUNK_SIZE designs, one group)), ``k`` and the facade
table (8 floats per (glazing, wall) pair and orientation design), not by the
size of the space; the kept rows are ranked once.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple, Sequence

from . import _kernels
from .energy import (
    CalibrationParams,
    annual_equipment_kwh,
    core_loads,
    cost_per_m2,
    end_use,
    facade_loads,
    scheduled_lighting_kwh,
    season_terms,
    seasonal_shading,
    thermal_balance,
)
from .model import (
    BOOLEAN,
    FINITE,
    FRACTION,
    NONNEGATIVE,
    ORIENTATION_ORDER,
    POSITIVE,
    BuildingSpec,
    Catalog,
    ClimateProfile,
    HeatingFuel,
    Interval,
    LightingTechnology,
    Orientation,
    SpecError,
    Tariff,
    _read,
    check,
    check_record,
    known_keys,
    number,
    read_json,
    spec,
    string,
)

if TYPE_CHECKING:
    import numpy as np  # imported at run time by the functions that use it

#: Cap on the code-legal designs :func:`optimize` scores; the space itself may be larger.
DEFAULT_ENUMERATION_CAP = 1_000_000

#: Code-legal designs per kernel call, in whole groups (more only if one group has more).
CHUNK_SIZE = 1 << 15


class DesignSpaceTooLarge(ValueError):
    pass


class NoFeasibleDesignError(ValueError):
    pass


@dataclass(frozen=True)
class DesignVariables:
    """One point of the retrofit space. Orientation fields are N, S, E, W."""

    wwr_n: float
    wwr_s: float
    wwr_e: float
    wwr_w: float
    overhang_n: float
    overhang_s: float
    overhang_e: float
    overhang_w: float
    glazing_id: str
    wall_id: str
    roof_id: str
    infiltration: float
    lighting_technology: LightingTechnology
    hvac_id: str

    def wwr(self, orientation: Orientation | str) -> float:
        return getattr(self, f"wwr_{Orientation(orientation).value.lower()}")

    def overhang(self, orientation: Orientation | str) -> float:
        return getattr(self, f"overhang_{Orientation(orientation).value.lower()}")


class Variable(NamedTuple):
    """One design variable under each of its names, and the kind of its values."""

    attr: str  # DesignVariables field
    column: str  # results.csv column
    space_attr: str  # DesignSpace field, a mapping by orientation when one is set
    orientation: str | None
    key: str  # in the design-space file, and in results.json when per orientation
    kind: Any  # an Interval of numbers, str, or LightingTechnology
    limit: str | None = None  # the OrientationLimit interval ("wwr" or "overhang") it obeys

    def place(self, doc: dict, key: str, value: Any) -> None:
        """Set ``doc[key]``, or ``doc[key][orientation]`` for a per-orientation variable."""
        if self.orientation:
            doc.setdefault(key, {})[self.orientation] = value
        else:
            doc[key] = value


#: The retrofit design variables in enumeration order, the field order of
#: :class:`DesignVariables`.
VARIABLES: tuple[Variable, ...] = (
    *(Variable(f"wwr_{o.lower()}", f"wwr_{o.lower()}", "wwr", o, "wwr", FRACTION, "wwr")
      for o in ORIENTATION_ORDER),
    *(Variable(f"overhang_{o.lower()}", f"overhang_{o.lower()}", "overhang_ratio", o,
               "overhang_ratio", NONNEGATIVE, "overhang") for o in ORIENTATION_ORDER),
    Variable("glazing_id", "glazing_id", "glazing_ids", None, "glazing", str),
    Variable("wall_id", "wall_id", "wall_ids", None, "wall", str),
    Variable("roof_id", "roof_id", "roof_ids", None, "roof", str),
    Variable("infiltration", "infiltration_ach", "infiltration", None, "infiltration_ach",
             NONNEGATIVE),
    Variable("lighting_technology", "lighting_technology", "lighting_technologies", None,
             "lighting_technology", LightingTechnology),
    Variable("hvac_id", "hvac_id", "hvac_ids", None, "hvac", str),
)

#: Per-orientation variables lead; one value of each one after them is a design *group*.
_ORIENTED = sum(v.orientation is not None for v in VARIABLES)


@dataclass(frozen=True)
class DesignSpace:
    """Per-variable candidate lists; the product must be finite and non-empty."""

    wwr: Mapping[str, tuple[float, ...]]
    overhang_ratio: Mapping[str, tuple[float, ...]]
    glazing_ids: tuple[str, ...]
    wall_ids: tuple[str, ...]
    roof_ids: tuple[str, ...]
    infiltration: tuple[float, ...]
    lighting_technologies: tuple[LightingTechnology, ...]
    hvac_ids: tuple[str, ...]

    def candidate_lists(self) -> list[tuple[str, tuple]]:
        """(variable name, candidates) pairs in enumeration order."""
        return [(v.attr, getattr(self, v.space_attr)[v.orientation] if v.orientation
                 else getattr(self, v.space_attr)) for v in VARIABLES]

    @property
    def size(self) -> int:
        return math.prod(len(values) for _, values in self.candidate_lists())

    def validate(self) -> None:
        """Raise :class:`SpecError` on an empty candidate list or a value that is
        not of its variable's kind in :data:`VARIABLES` (a real number other than
        a bool, where the kind is an interval) or lies outside it."""
        for v, (name, values) in zip(VARIABLES, self.candidate_lists()):
            if len(values) == 0:
                raise SpecError(f"design space variable {name!r} has no candidates")
            numeric = isinstance(v.kind, Interval)
            kind, wanted = (numbers.Real, "numeric") if numeric else (v.kind, v.kind.__name__)
            for value in values:
                if isinstance(value, bool) or not isinstance(value, kind):
                    raise SpecError(f"design space variable {name!r} must hold "
                                    f"{wanted} values, got {value!r}")
                if numeric:
                    check(value, f"design space variable {name!r}", v.kind)

    @staticmethod
    def from_json(text: str) -> tuple["DesignSpace", "CodeLimits"]:
        """Parse a design-space file; returns the space and its code limits.

        Raises :class:`SpecError` on a key it does not read, a missing, empty or non-list
        candidate entry, a candidate that fails its variable's kind or repeats one (named
        by its path, e.g. ``wwr.S item 0``), or malformed code limits."""
        doc = read_json(text, "design space")
        known_keys(doc, ["schema_version", "name", "code_limits", *(v.key for v in VARIABLES)],
                   "", "design space")
        fields: dict = {}
        for v in VARIABLES:
            values, path = doc.get(v.key), v.key
            if v.orientation:
                known_keys(values, ORIENTATION_ORDER, f"{v.key}.", "design space")
                values = values.get(v.orientation) if isinstance(values, dict) else None
                path = f"{v.key}.{v.orientation}"
            if not (isinstance(values, list) and values):
                raise SpecError(f"design space is missing {path!r}" if values is None
                                else f"design space {path!r} must be a non-empty list")
            read, rule = (number, v.kind) if isinstance(v.kind, Interval) else (
                string, None if v.kind is str else v.kind)
            v.place(fields, v.space_attr, tuple(
                read(values, i, f"design space {path} item ", rule) for i in range(len(values))))
            for i, value in enumerate(values):
                if value in values[:i]:
                    raise SpecError(f"design space {path} item {i} repeats {value!r}")
        return DesignSpace(**fields), CodeLimits.from_doc(doc.get("code_limits", {}))


def design_doc(design: DesignVariables) -> dict:
    """One design as results.json names it: per-orientation values grouped under
    their space-file key, the rest under their results column."""
    doc: dict = {}
    for v in VARIABLES:
        v.place(doc, v.key if v.orientation else v.column, getattr(design, v.attr))
    return doc


@dataclass(frozen=True)
class OrientationLimit:
    """Code limits for one orientation, each under its key in a ``code_limits`` block;
    an unset bound sets no limit.

    ``strict`` upper bounds exclude the bound itself (the "< 0.35" style);
    non-strict bounds are inclusive ranges. Overhang bounds are inclusive.
    """

    max_wwr: float | None = spec("max_wwr", FINITE, default=None)
    strict: bool = spec("strict", BOOLEAN, default=True)
    min_wwr: float | None = spec("min_wwr", FINITE, default=None)
    max_overhang: float | None = spec("max_overhang", FINITE, default=None)
    min_overhang: float | None = spec("min_overhang", FINITE, default=None)

    def interval(self, var: str) -> Interval:
        """The ``var`` values ("wwr" or "overhang") allowed; an unset bound is an infinite end."""
        low, high = getattr(self, f"min_{var}"), getattr(self, f"max_{var}")
        return Interval(-math.inf if low is None else low, math.inf if high is None else high,
                        "[)" if var == "wwr" and self.strict else "[]")

    def wwr_ok(self, value: float) -> bool:
        return self.interval("wwr").test(value)

    def overhang_ok(self, value: float) -> bool:
        return self.interval("overhang").test(value)


@dataclass(frozen=True)
class CodeLimits:
    """Per-orientation limits; the fields follow :data:`ORIENTATION_ORDER`."""

    north: OrientationLimit = OrientationLimit()
    south: OrientationLimit = OrientationLimit()
    east: OrientationLimit = OrientationLimit()
    west: OrientationLimit = OrientationLimit()

    def limit(self, orientation: Orientation | str) -> OrientationLimit:
        index = ORIENTATION_ORDER.index(Orientation(orientation).value)
        return getattr(self, dataclasses.fields(self)[index].name)

    @staticmethod
    def from_doc(doc: Mapping) -> "CodeLimits":
        """Per-orientation blocks read through :class:`OrientationLimit`'s fields; an
        absent orientation or bound sets no limit, and an unknown orientation or bound,
        or a block that is not a JSON object, raises :class:`SpecError` naming it."""
        if not isinstance(doc, dict):
            raise SpecError("code_limits must map orientations to JSON objects")
        for o in doc:
            if o not in ORIENTATION_ORDER:
                raise SpecError(f"code_limits.{o} is not an orientation: use N, S, E or W")
        return CodeLimits(*(_read(OrientationLimit, doc.get(o, {}), f"code_limits.{o}.",
                                  "code limit") for o in ORIENTATION_ORDER))


def _design_from_digits(lists: Sequence[tuple], digits: Sequence[int]) -> DesignVariables:
    """The design at ``digits``, one position per candidate list in enumeration order."""
    return DesignVariables(*map(operator.getitem, lists, digits))


def legal_space(space: DesignSpace, limits: CodeLimits) -> DesignSpace:
    """``space`` holding only its code-legal candidates, in their order."""
    fields: dict = {}
    for v, (_, values) in zip(VARIABLES, space.candidate_lists()):
        ok = v.limit and limits.limit(v.orientation).interval(v.limit).test
        v.place(fields, v.space_attr, tuple(value for value in values if not ok or ok(value)))
    return DesignSpace(**fields)


def apply_design(spec: BuildingSpec, design: DesignVariables,
                 catalog: Catalog) -> BuildingSpec:
    """Substitute one design point into a building spec."""
    try:
        glazing = catalog.glazings[design.glazing_id]
        wall = catalog.constructions[design.wall_id]
        roof_con = catalog.constructions[design.roof_id]
        hvac = catalog.hvac_systems[design.hvac_id]
        lamp_power = catalog.lamp_powers[design.lighting_technology.value]
    except KeyError as exc:
        raise SpecError(f"design references unknown catalog id: {exc}") from exc

    groups = tuple(dataclasses.replace(g, wwr=design.wwr(g.orientation),
                                       overhang_ratio=design.overhang(g.orientation),
                                       wall=wall, glazing=glazing) for g in spec.orientations)
    return dataclasses.replace(
        spec,
        orientations=groups,
        roof=dataclasses.replace(spec.roof, construction=roof_con),
        infiltration=design.infiltration,
        lighting=dataclasses.replace(spec.lighting, technology=design.lighting_technology,
                                     lamp_power=lamp_power),
        hvac=hvac,
    )


@dataclass(frozen=True)
class RankedDesign:
    rank: int
    design: DesignVariables
    eui: float  # kWh/m2/yr
    cost_per_m2: float  # CNY/m2/yr
    electricity: float  # kWh/yr
    gas: float  # m3/yr
    pareto: bool  # not dominated on (EUI, cost)


class Ranking(list):
    """The :class:`RankedDesign` rows :func:`optimize` returns, best first, and
    ``evaluated``, the number of code-legal designs they were ranked from."""

    def __init__(self, rows, evaluated: int):
        super().__init__(rows)
        self.evaluated = evaluated


def _resolve(table: Mapping, ids, kind: str) -> list:
    missing = [i for i in dict.fromkeys(ids) if i not in table]
    if missing:
        raise SpecError(f"design space names {kind} ids missing from the catalog: "
                        + ", ".join(map(repr, missing)))
    if kind == "lighting":  # bare lamp powers, held to the catalog file's rule
        return [check(table[i], f"catalog {i!r}: lamp_power", POSITIVE) for i in ids]
    for i in ids:
        check_record(table[i], f"catalog {i!r}: ")
    return [table[i] for i in ids]


def _load_tables(space: DesignSpace, catalog: Catalog, spec: BuildingSpec,
                 climate: ClimateProfile, calib: CalibrationParams) -> tuple:
    """The kernel inputs of the space's designs, in enumeration order: ``facade``, shape
    (8, glazing x wall pairs, orientation designs), each design's :func:`facade_loads`
    cooling terms N, S, E, W, then its heating terms; and ``group``, shape (6, groups),
    each group's :func:`core_loads` pair, lighting kWh and HVAC (COP, heating efficiency,
    gas flag as 0/1).

    Raises :class:`SpecError` for an id the catalog lacks or a record that breaks its rules.
    """
    import numpy as np

    glz = _resolve(catalog.glazings, space.glazing_ids, "glazing")
    walls = _resolve(catalog.constructions, space.wall_ids, "wall")
    roofs = _resolve(catalog.constructions, space.roof_ids, "roof")
    lamp_w = _resolve(catalog.lamp_powers,
                      [t.value for t in space.lighting_technologies], "lighting")
    hvacs = _resolve(catalog.hvac_systems, space.hvac_ids, "hvac")
    dims = [len(candidates) for _, candidates in space.candidate_lists()]
    season = season_terms(climate)

    def grid(shape):  # each variable's candidate position at each point of their product
        return np.unravel_index(np.arange(math.prod(shape)), shape)

    def at(values, positions):
        return np.array(values, dtype=float)[positions]

    positions = grid(dims[:_ORIENTED])  # wwr N, S, E, W, then overhang N, S, E, W
    glz_u, shgc = (np.array(c, dtype=float)[:, None, None]
                   for c in zip(*((g.u_value, g.shgc) for g in glz)))
    wall_u = np.array([c.u_value for c in walls], dtype=float)[:, None]
    facade = np.empty((8, len(glz), len(walls), len(positions[0])))
    for i, o in enumerate(ORIENTATION_ORDER):  # cooling rows N, S, E, W, then heating rows
        facade[i], facade[4 + i] = facade_loads(
            spec.envelope(o).gross_wall_area, at(space.wwr[o], positions[i]), wall_u, glz_u,
            shgc, climate.irradiation[o], *(at(f, positions[4 + i]) for f in zip(*(
                seasonal_shading(v, climate) for v in space.overhang_ratio[o]))), *season)
    _, _, roof, infiltration, lamp, hvac = grid(dims[_ORIENTED:])
    light = at([scheduled_lighting_kwh(spec, w, calib) for w in lamp_w], lamp)
    core = core_loads(spec.roof.area, at([c.u_value for c in roofs], roof),
                      at(space.infiltration, infiltration), spec.conditioned_volume, light,
                      annual_equipment_kwh(spec, calib), calib.internal_gain_multiplier, *season)
    fuel = [at(c, hvac) for c in zip(*((h.cooling_cop, h.heating_efficiency,
                                        h.heating_fuel is HeatingFuel.GAS) for h in hvacs))]
    return facade.reshape(8, len(glz) * len(walls), -1), np.stack([*core, light, *fuel])


def _group_bounds(facade, group, shared: tuple) -> tuple[np.ndarray, float]:
    """Per group, in enumeration order, the EUI of its facades' least terms; and the
    greatest EUI of any group's greatest terms. Every design's EUI lies between the two.

    A group fixes every input but each orientation's wwr and overhang, so both run
    :func:`thermal_balance` over one term per facade, then :func:`end_use`. Each such sum
    is some design's own sum, in the same order; a rounded sum never falls when a term
    rises, and the EUI never falls as a load rises. So no design lies outside the two,
    to the bit, and if both are finite no design's loads or EUI overflow."""
    import numpy as np

    equip, floor_area, gas_kwh_m3 = shared
    # each facade row's least, then greatest term per (glazing, wall) pair, against the
    # groups of that pair: glazing and wall lead a group's digits
    terms = np.stack([facade.min(-1), facade.max(-1)], 1)[..., None]
    cool, heat, light, *hvac = group.reshape(len(group), facade.shape[1], -1)
    loads = thermal_balance((cool, heat), zip(terms[:4], terms[4:]))
    eui = end_use(*loads, light, equip, *hvac, floor_area, gas_kwh_m3)[0]
    return eui[0].ravel(), float(eui[1].max())


def optimize(spec: BuildingSpec, climate: ClimateProfile, catalog: Catalog,
             space: DesignSpace, limits: CodeLimits, k: int,
             calib: CalibrationParams, tariff: Tariff) -> Ranking:
    """Rank every code-legal design by EUI, ascending.

    Ties break by ascending annual cost per m2, then by enumeration order.
    ``k`` larger than the feasible count returns all feasible designs. The
    ranking's ``evaluated`` is the feasible count.

    Raises
    ------
    NoFeasibleDesignError
        When no design passes the code limits.
    DesignSpaceTooLarge
        When the code-legal designs number more than :data:`DEFAULT_ENUMERATION_CAP`.
    SpecError
        When the space names an id the catalog lacks, or a record breaks a rule of its fields.
    ValueError
        When the spec's loads, or the tariff's prices or gas energy content, overflow a
        design's EUI or cost.
    """
    import numpy as np

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    space.validate()
    for record, prefix in ((spec, ""), (calib, "calibration."), (tariff, "tariff."),
                           *((limits.limit(o), f"code_limits.{o}.") for o in ORIENTATION_ORDER)):
        check_record(record, prefix)
    legal = legal_space(space, limits)
    lists = [candidates for _, candidates in legal.candidate_lists()]
    dims = list(map(len, lists))
    feasible = math.prod(dims)
    if feasible == 0:
        raise NoFeasibleDesignError("no design in the space passes the code limits")
    if feasible > DEFAULT_ENUMERATION_CAP:
        raise DesignSpaceTooLarge(
            f"{feasible} code-legal designs exceed the cap of {DEFAULT_ENUMERATION_CAP}")
    shared = (annual_equipment_kwh(spec, calib), spec.floor_area, tariff.gas_energy_content)
    # Bounds first: computed after the block is allocated, their small arrays
    # raised the peak RSS of repeated all-k sweeps by ~1 MiB.
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        facade, group = _load_tables(legal, catalog, spec, climate, calib)
        bound, greatest = _group_bounds(facade, group, shared)
    if not (math.isfinite(greatest) and np.isfinite(bound).all()):  # then no design overflows
        raise ValueError("the spec's areas, volume or loads overflow the designs' EUI")
    # A group is scored whole: its `width` orientation designs, whose facade rows are its
    # (glazing, wall) pair's. A call takes up to `per_call` groups. One call when every
    # group fits in it; otherwise the first call takes the ceil(k / width) groups that can
    # hold k rows and each later one twice as many, up to `per_call`, so the k-th EUI
    # prunes groups before a whole chunk is scored. The block is sized to the call and
    # reallocated only when the call grows: memory is bounded by the largest call made,
    # and reusing the block keeps glibc from returning pages the next call faults in.
    width, groups = facade.shape[2], group.shape[1]
    per_pair = groups // facade.shape[1]  # (glazing, wall) lead a group's digits
    per_call = min(max(1, CHUNK_SIZE // width), groups)
    size = per_call if per_call == groups else min(-(-k // width), per_call)
    block = np.empty((len(facade) + len(group), size, width))

    def evaluate(units: np.ndarray) -> tuple[np.ndarray, ...]:
        np.take(facade, units // per_pair, axis=1, out=block[:8, :units.size],
                mode="clip")  # "raise" would buffer `out`
        block[8:, :units.size] = group[:, units, None]
        cols = block.reshape(len(block), -1)[:, :units.size * width]
        # orientation variables lead, so a design's position in the legal space (which
        # orders designs as their enumeration index does) is its orientation design's
        # index times `groups` plus its group's
        position = (units[:, None] + np.arange(width) * groups).ravel()
        return (*_kernels.batch_energy(cols[:4], cols[4:8], *cols[8:], *shared), position)

    # Groups go in ascending order of their bound (stable: ties keep enumeration
    # order), `limit` holding those bounds; the ranking is total, so the order
    # changes no result.
    order = np.argsort(bound, kind="stable")
    limit = bound[order]
    held, first, stop = [], 0, groups
    # a tiny gas energy content overflows a gas design's volume: refused below if kept
    with np.errstate(over="ignore", invalid="ignore"):
        while first < stop:
            if block.shape[1] < size:
                block = np.empty((len(block), size, width))
            held.append(evaluate(order[first:min(first + size, stop)]))
            first += size
            size = min(2 * size, per_call)
            if sum(part[0].size for part in held) >= k:
                # a row with EUI above the k-th least held trails k rows; rows tied
                # with it stay, since cost and position order them
                cut = np.partition(np.concatenate([part[0] for part in held]), k - 1)[k - 1]
                held = [tuple(c[keep] for c in part) for part in held for keep in [part[0] <= cut]]
                # no design of a group whose bound exceeds the cut can rank
                stop = np.searchsorted(limit, cut, "right")

        # free the chunk's inputs, then the held rows, before the designs are built
        del block
        eui, elec, gas, position = map(np.concatenate, zip(*held))
        del held
        # the cost of the kept rows only, then their first k in rank order
        cost = cost_per_m2(elec, gas, tariff, spec.floor_area)
    if not np.isfinite(cost).all():
        raise ValueError("the tariff's prices or gas energy content overflow the designs' "
                         "annual cost")
    order = np.lexsort((position, cost, eui))[:k]
    eui, cost, elec, gas, position = (c[order] for c in (eui, cost, elec, gas, position))
    # Pareto frontier on (EUI, cost): a design is on it when no design ranked
    # before it is cheaper. Ranks before a returned one are all returned.
    pareto = cost <= np.minimum.accumulate(cost)
    digits = np.stack(np.unravel_index(position, dims), 1).tolist()
    rows = zip(digits, *(c.tolist() for c in (eui, cost, elec, gas, pareto)))
    return Ranking((RankedDesign(rank, _design_from_digits(lists, d), *row)
                    for rank, (d, *row) in enumerate(rows, 1)), feasible)


def write_results_csv(ranked: list[RankedDesign]) -> str:
    """Ranked results table; one row per returned design, violations always 0."""
    import csv as _csv
    import io as _io

    buf = _io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["rank", "eui_kwh_m2", "cost_cny_m2", "electricity_kwh", "gas_m3",
                     *(v.column for v in VARIABLES), "violations", "pareto"])
    # a str Enum writes as its value, so every design cell is the field itself
    design_cells = operator.attrgetter(*(v.attr for v in VARIABLES))
    for r in ranked:
        writer.writerow([r.rank, repr(r.eui), repr(r.cost_per_m2), repr(r.electricity),
                         repr(r.gas), *design_cells(r.design), 0, int(r.pareto)])
    return buf.getvalue()
