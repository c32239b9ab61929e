"""Retrofit design-space enumeration, code checks and exhaustive search.

One table, :data:`VARIABLES`, names each design variable in code, in the space
file and in the results reports, and gives the rule or kind of its candidates.
The space file, validation, enumeration and the reports all walk it, so a bad
candidate is named by its path in the file (``design space wwr.S item 0``).

The search is exact: its ranking is the one that scoring every code-legal point
of the Cartesian product through the energy engine gives, by EUI with the
annual cost per m2 as tie-break and the enumeration index as the final, total
tie-break, so it is invariant under any evaluation order.

Code limits act on single candidate values, so the code-legal designs form
a Cartesian product of their own (:func:`legal_space`). It is scored in
chunks, group by group in ascending order of a lower bound on the group's EUI
(:func:`_group_bounds`). Rows above the k-th least EUI held are dropped and
groups whose bound lies above it (plus a rounding margin) are skipped, so memory
is bounded by the chunk and ``k``, not by the size of the space; the kept rows
are ranked once.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, NamedTuple, Sequence

from . import _kernels
from .energy import (
    CalibrationParams,
    annual_equipment_kwh,
    cost_per_m2,
    end_use,
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
    BuildingSpec,
    Catalog,
    ClimateProfile,
    HeatingFuel,
    LightingTechnology,
    Orientation,
    SpecError,
    Tariff,
    Violation,
    check,
    known_keys,
    number,
    read_json,
    string,
)

if TYPE_CHECKING:
    import numpy as np  # imported at run time by the functions that use it

#: Cap on the code-legal designs a sweep evaluates and on :func:`enumerate_designs`.
DEFAULT_ENUMERATION_CAP = 1_000_000

#: Code-legal designs per kernel call (more only if the last orientation variable has more).
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
    kind: Any  # a value Rule, str, or LightingTechnology
    limit: str | None = None  # the OrientationLimit bounds ("wwr" or "overhang") it obeys

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
        a bool, where the kind is a rule) or breaks its rule."""
        for v, (name, values) in zip(VARIABLES, self.candidate_lists()):
            if len(values) == 0:
                raise SpecError(f"design space variable {name!r} has no candidates")
            numeric = isinstance(v.kind, tuple)
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
            read, rule = (number, v.kind) if isinstance(v.kind, tuple) else (
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
    """Code limits for one orientation.

    ``strict`` upper bounds exclude the bound itself (the "< 0.35" style);
    non-strict bounds are inclusive ranges. Overhang bounds are inclusive.
    """

    max_wwr: float | None = None
    strict: bool = True
    min_wwr: float | None = None
    max_overhang: float | None = None
    min_overhang: float | None = None

    def bounds(self, var: str) -> list[tuple[str, float]]:
        """The (operator, bound) pairs a ``var`` value ("wwr" or "overhang") must meet."""
        upper = "<" if var == "wwr" and self.strict else "<="
        pairs = ((upper, getattr(self, f"max_{var}")), (">=", getattr(self, f"min_{var}")))
        return [(op, bound) for op, bound in pairs if bound is not None]

    def ok(self, var: str, value: float) -> bool:
        return all(_OPERATORS[op](value, bound) for op, bound in self.bounds(var))

    def wwr_ok(self, value: float) -> bool:
        return self.ok("wwr", value)

    def overhang_ok(self, value: float) -> bool:
        return self.ok("overhang", value)


_OPERATORS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge}


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
        """Per-orientation bounds; an absent or null bound sets no limit, and an
        unknown orientation or bound raises :class:`SpecError` naming it."""
        if not (isinstance(doc, dict) and all(isinstance(b, dict) for b in doc.values())):
            raise SpecError("code_limits must map orientations to JSON objects")
        keys = [f.name for f in dataclasses.fields(OrientationLimit)]
        for o, block in doc.items():
            if o not in ORIENTATION_ORDER:
                raise SpecError(f"code_limits.{o} is not an orientation: use N, S, E or W")
            for key in block:
                if key not in keys:
                    raise SpecError(f"code_limits.{o}.{key} is not a code limit: use "
                                    + ", ".join(keys))

        def parse(o: str) -> OrientationLimit:
            block = doc.get(o, {})
            bounds = {key: None if block.get(key) is None
                      else number(block, key, f"code_limits.{o}.", FINITE)
                      for key in keys if key != "strict"}
            strict = check(block.get("strict", True), f"code_limits.{o}.strict", BOOLEAN)
            return OrientationLimit(strict=strict, **bounds)

        return CodeLimits(*map(parse, ORIENTATION_ORDER))


def _design_from_digits(lists: Sequence[tuple], digits: Sequence[int]) -> DesignVariables:
    """The design at ``digits``, one position per candidate list in enumeration order."""
    return DesignVariables(*map(operator.getitem, lists, digits))


def enumerate_designs(space: DesignSpace) -> list[DesignVariables]:
    """Full Cartesian product in lexicographic order of the variable order; raises
    :class:`DesignSpaceTooLarge` when it exceeds :data:`DEFAULT_ENUMERATION_CAP` designs."""
    space.validate()
    if space.size > DEFAULT_ENUMERATION_CAP:
        raise DesignSpaceTooLarge(
            f"{space.size} designs exceed the cap of {DEFAULT_ENUMERATION_CAP}")
    return list(itertools.starmap(DesignVariables, itertools.product(
        *(candidates for _, candidates in space.candidate_lists()))))


def legal_space(space: DesignSpace, limits: CodeLimits) -> DesignSpace:
    """``space`` holding only its code-legal candidates, in their order."""
    fields: dict = {}
    for v, (_, values) in zip(VARIABLES, space.candidate_lists()):
        v.place(fields, v.space_attr, tuple(value for value in values if v.limit is None
                                            or limits.limit(v.orientation).ok(v.limit, value)))
    return DesignSpace(**fields)


def code_check(design: DesignVariables, limits: CodeLimits) -> list[Violation]:
    """One violation per exceeded bound; empty when the design is code-legal."""
    out: list[Violation] = []
    for o in ORIENTATION_ORDER:
        lim = limits.limit(o)
        for var in ("wwr", "overhang"):
            value = getattr(design, var)(o)
            if not lim.ok(var, value):
                rule = " and ".join(f"{var} {op} {bound}" for op, bound in lim.bounds(var))
                out.append(Violation(f"{var}[{o}]", value, rule))
    return out


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


def _resolve(table: Mapping, ids, kind: str) -> list:
    missing = [i for i in dict.fromkeys(ids) if i not in table]
    if missing:
        raise SpecError(f"design space names {kind} ids missing from the catalog: "
                        + ", ".join(map(repr, missing)))
    return [table[i] for i in ids]


def _candidate_tables(space: DesignSpace, catalog: Catalog, spec: BuildingSpec,
                      climate: ClimateProfile, calib: CalibrationParams) -> list[tuple]:
    """Per variable, in enumeration order, the kernel inputs of each candidate.

    An overhang's are its :func:`seasonal_shading` pair. All are float64 (the
    gas flag as 0/1), so one block holds them.

    Raises :class:`SpecError` when the space names an id the catalog lacks.
    """
    import numpy as np

    glz = _resolve(catalog.glazings, space.glazing_ids, "glazing")
    walls = _resolve(catalog.constructions, space.wall_ids, "wall")
    roofs = _resolve(catalog.constructions, space.roof_ids, "roof")
    lamp_w = _resolve(catalog.lamp_powers,
                      [t.value for t in space.lighting_technologies], "lighting")
    hvacs = _resolve(catalog.hvac_systems, space.hvac_ids, "hvac")
    return [
        *((np.array(space.wwr[o], dtype=float),) for o in ORIENTATION_ORDER),
        *(tuple(np.array([seasonal_shading(v, climate) for v in space.overhang_ratio[o]],
                         dtype=float).T) for o in ORIENTATION_ORDER),
        (np.array([g.u_value for g in glz]), np.array([g.shgc for g in glz])),
        *((np.array([c.u_value for c in constructions]),) for constructions in (walls, roofs)),
        (np.array(space.infiltration, dtype=float),),
        (np.array([scheduled_lighting_kwh(spec, w, calib) for w in lamp_w]),),
        (np.array([h.cooling_cop for h in hvacs]),
         np.array([h.heating_efficiency for h in hvacs]),
         np.array([h.heating_fuel is HeatingFuel.GAS for h in hvacs], dtype=float)),
    ]


def _fill(rows: np.ndarray, tables: list[tuple[np.ndarray, ...]], digits) -> None:
    """Per variable, write each table ``t`` at its digits ``d`` into the next row, broadcast."""
    rows = iter(rows)
    for ts, d in zip(tables, digits):
        for t in ts:
            next(rows)[...] = t[d]


def _group_bounds(tables: list[tuple[np.ndarray, ...]],
                  shared: tuple) -> tuple[np.ndarray, float]:
    """Per group, in enumeration order, a lower bound on its designs' EUI; and a
    scale that bounds the summed magnitudes of any design's EUI summands.

    In a group each load is a constant plus one term per orientation, set by its
    wwr and overhang alone; EUI never falls as a load grows, so the summed
    per-orientation minima bound the group. Negating ``w_heat`` makes every
    summand >= 0, and the same sum of maxima gives the scale."""
    import numpy as np

    gross, irr, roof_area, volume, *season, equip, gain_mult, floor_area, gas_kwh_m3 = shared

    def at(table, axis):  # 0: loads, magnitudes; 1-6: the group; 7, 8: wwr, overhang
        return table.reshape([-1 if i == axis else 1 for i in range(9)])

    def only(o, value):  # per orientation: `value` on o, 0 on the others
        return [value if i == o else 0.0 for i in range(4)]

    season[3] = at(np.array([season[3], -season[3]]), 0)
    (glz_u, shgc), (wall_u,), (roof_u,), (ach,), (light,), hvac = (
        [at(t, axis) for t in ts] for axis, ts in enumerate(tables[_ORIENTED:], start=1))
    parts = [thermal_balance(only(o, gross[o]), only(o, at(*tables[o], 7)), only(o, wall_u),
                             only(o, glz_u), only(o, shgc), irr,
                             *(only(o, at(t, 8)) for t in tables[4 + o]), 0.0, 0.0, 0.0,
                             volume, 0.0, 0.0, 0.0, *season) for o in range(4)]
    parts.append(thermal_balance(*[(0.0,) * 4] * 8, roof_area, roof_u, ach, volume,
                                 light, equip, gain_mult, *season))
    l_cool, l_heat = (sum(np.concatenate([x[:1].min((7, 8), keepdims=True),
                                          x[-1:].max((7, 8), keepdims=True)]) for x in loads)
                      for loads in zip(*parts))
    eui = end_use(l_cool, l_heat, light, equip, *hvac, floor_area, gas_kwh_m3)[0]
    return eui[0].ravel(), float(eui[1].max())


def optimize(spec: BuildingSpec, climate: ClimateProfile, catalog: Catalog,
             space: DesignSpace, limits: CodeLimits, k: int,
             calib: CalibrationParams, tariff: Tariff) -> list[RankedDesign]:
    """Rank every code-legal design by EUI, ascending.

    Ties break by ascending annual cost per m2, then by enumeration order.
    ``k`` larger than the feasible count returns all feasible designs.

    Raises
    ------
    NoFeasibleDesignError
        When no design passes :func:`code_check`.
    DesignSpaceTooLarge
        When the code-legal designs number more than :data:`DEFAULT_ENUMERATION_CAP`.
    SpecError
        When the space names an id the catalog lacks.
    ValueError
        When the spec's loads or the tariff's prices overflow a design's EUI or cost.
    """
    import numpy as np

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    space.validate()
    legal = legal_space(space, limits)
    lists = [candidates for _, candidates in legal.candidate_lists()]
    dims = list(map(len, lists))
    feasible = math.prod(dims)
    if feasible == 0:
        raise NoFeasibleDesignError("no design in the space passes the code limits")
    if feasible > DEFAULT_ENUMERATION_CAP:
        raise DesignSpaceTooLarge(
            f"{feasible} code-legal designs exceed the cap of {DEFAULT_ENUMERATION_CAP}")
    tables = _candidate_tables(legal, catalog, spec, climate, calib)
    shared = (np.array([spec.envelope(o).gross_wall_area for o in ORIENTATION_ORDER]),
              np.array([climate.irradiation[o] for o in ORIENTATION_ORDER]),
              spec.roof.area, spec.conditioned_volume, *season_terms(climate),
              annual_equipment_kwh(spec, calib), calib.internal_gain_multiplier,
              spec.floor_area, tariff.gas_energy_content)

    # Bounds first: computed after the block is allocated, their small arrays
    # raised the peak RSS of repeated all-k sweeps by ~1 MiB.
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        bound, scale = _group_bounds(tables, shared)
    if not math.isfinite(scale):  # then every design's EUI is finite
        raise ValueError("the spec's areas, volume or loads overflow the designs' EUI")
    # A unit is one group times a block of the longest run of trailing orientation
    # variables whose legal product fits in a chunk (at least the last); a call
    # takes `per_call` units. The block's rows are filled once and each unit's
    # other rows broadcast over it. Reusing one array keeps glibc from returning
    # pages that the next call would fault in again.
    groups = math.prod(dims[_ORIENTED:])
    suffix = [math.prod(dims[i:_ORIENTED]) for i in range(_ORIENTED)]
    split = next((i for i, n in enumerate(suffix) if n <= CHUNK_SIZE), _ORIENTED - 1)
    width = suffix[split]
    per_call = min(max(1, CHUNK_SIZE // width), feasible // width)
    lead_rows, oriented_rows = (sum(map(len, tables[:n])) for n in (split, _ORIENTED))
    block = np.empty((sum(map(len, tables)), per_call, width))
    _fill(block[lead_rows:oriented_rows], tables[split:_ORIENTED],
          np.unravel_index(np.arange(width), dims[split:_ORIENTED]))

    def evaluate(units: np.ndarray) -> tuple[np.ndarray, ...]:
        rows = itertools.chain(block[:lead_rows, :units.size], block[oriented_rows:, :units.size])
        _fill(rows, tables[:split] + tables[_ORIENTED:],  # a unit: leading digits, group digits
              np.unravel_index(units[:, None], dims[:split] + dims[_ORIENTED:]))
        lead, group = np.divmod(units[:, None], groups)
        # A design's position in the legal space orders designs as its enumeration
        # index does, because legal_space keeps each variable's candidates in order.
        position = ((lead * width + np.arange(width)) * groups + group).ravel()
        cols = block.reshape(len(block), -1)[:, :position.size]
        return (*_kernels.batch_energy(cols[:4], cols[4:12].reshape(4, 2, -1), *cols[12:],
                                       *shared), position)

    # Units go in ascending order of their group's bound (stable: ties keep
    # enumeration order), `limit` holding those bounds; the ranking is total, so
    # the order changes no result.
    unit_bound = np.tile(bound, feasible // width // groups)
    order = np.argsort(unit_bound, kind="stable")
    limit = unit_bound[order]
    # Rounding (u = 2^-53): a float EUI, and a float bound, lies within ~35u times
    # its summed summand magnitudes (<= scale) of its real value, and a real bound
    # is <= the real EUIs of its group; so no EUI is below its group's float bound
    # by more than ~70u * scale, far inside the margin. The margin follows `scale`,
    # not the k-th EUI: an EUI near 0, where gains cancel the heating losses,
    # still carries the rounding of its large summands.
    margin = 1e-9 * scale
    held, first, stop = [], 0, order.size
    while first < stop:
        held.append(evaluate(order[first:min(first + per_call, stop)]))
        first += per_call
        if sum(part[0].size for part in held) >= k:
            # a row with EUI above the k-th least held trails k rows; rows tied
            # with it stay, since cost and position order them
            cut = np.partition(np.concatenate([part[0] for part in held]), k - 1)[k - 1]
            held = [tuple(c[keep] for c in part) for part in held for keep in [part[0] <= cut]]
            # no design of a unit whose group bound exceeds the cut by the margin can rank
            stop = np.searchsorted(limit, cut + margin, "right")

    # free the chunk's inputs, then the held rows, before the designs are built
    del block
    eui, elec, gas, position = map(np.concatenate, zip(*held))
    del held
    # the cost of the kept rows only, then their first k in rank order
    with np.errstate(over="ignore", invalid="ignore"):
        cost = cost_per_m2(elec, gas, tariff, spec.floor_area)
    if not np.isfinite(cost).all():
        raise ValueError("the tariff's prices overflow the designs' annual cost")
    order = np.lexsort((position, cost, eui))[:k]
    eui, cost, elec, gas, position = (c[order] for c in (eui, cost, elec, gas, position))
    # Pareto frontier on (EUI, cost): a design is on it when no design ranked
    # before it is cheaper. Ranks before a returned one are all returned.
    pareto = cost <= np.minimum.accumulate(cost)
    digits = np.stack(np.unravel_index(position, dims), 1).tolist()
    return [RankedDesign(rank, _design_from_digits(lists, d), *row) for rank, (d, *row) in
            enumerate(zip(digits, *(c.tolist() for c in (eui, cost, elec, gas, pareto))), 1)]


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
