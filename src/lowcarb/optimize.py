"""Retrofit design-space enumeration, code checks and exhaustive search.

The search is an exact grid sweep: every code-legal point of the Cartesian
product is evaluated through the energy engine and ranked by EUI with the
annual cost per m2 as tie-break and the enumeration index as the final,
total tie-break. The ranking is therefore invariant under any evaluation
order, including parallel evaluation.

Code limits act on single candidate values, so the code-legal designs form
a Cartesian product of their own (:func:`legal_positions`); only it is
evaluated, in chunks of whole blocks of its trailing variables with a running
top-k, so memory is bounded by the chunk and ``k``, not by the size of the space.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from . import _kernels
from .energy import (
    CalibrationParams,
    annual_equipment_kwh,
    annual_lighting_kwh,
    season_terms,
    shading_factor,
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
    LightingSystem,
    LightingTechnology,
    Orientation,
    SpecError,
    Tariff,
    Violation,
    check,
    number,
    read_json,
)

if TYPE_CHECKING:
    import numpy as np  # imported at run time by the functions that use it

#: Cap on the code-legal designs a sweep evaluates and on :func:`enumerate_designs`.
DEFAULT_ENUMERATION_CAP = 1_000_000

#: Code-legal designs per kernel call (more only if the last variable has more).
CHUNK_SIZE = 1 << 16


#: Per candidate variable (by name prefix): the rule every value must pass.
_CANDIDATE_RULES = {"wwr": FRACTION, "overhang": NONNEGATIVE, "infiltration": NONNEGATIVE}


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
        return [
            ("wwr_n", self.wwr["N"]),
            ("wwr_s", self.wwr["S"]),
            ("wwr_e", self.wwr["E"]),
            ("wwr_w", self.wwr["W"]),
            ("overhang_n", self.overhang_ratio["N"]),
            ("overhang_s", self.overhang_ratio["S"]),
            ("overhang_e", self.overhang_ratio["E"]),
            ("overhang_w", self.overhang_ratio["W"]),
            ("glazing_id", self.glazing_ids),
            ("wall_id", self.wall_ids),
            ("roof_id", self.roof_ids),
            ("infiltration", self.infiltration),
            ("lighting_technology", self.lighting_technologies),
            ("hvac_id", self.hvac_ids),
        ]

    @property
    def size(self) -> int:
        return math.prod(len(values) for _, values in self.candidate_lists())

    def validate(self) -> None:
        """Raise :class:`SpecError` on an empty candidate list, a wwr outside
        [0, 1], or an overhang or infiltration that is negative or not finite."""
        for name, values in self.candidate_lists():
            if len(values) == 0:
                raise SpecError(f"design space variable {name!r} has no candidates")
            rule = _CANDIDATE_RULES.get(name.split("_")[0])
            for value in values if rule else ():
                check(value, f"design space variable {name!r}", rule)

    @staticmethod
    def from_json(text: str) -> tuple["DesignSpace", "CodeLimits"]:
        """Parse a design-space file; returns the space and its code limits.

        Raises :class:`SpecError` on a missing key, a candidate entry that is
        not a list, a candidate that is not a finite number or not a lighting
        technology, malformed code limits, or a value :meth:`validate` rejects.
        """
        doc = read_json(text, "design space")

        def listed(*keys: str) -> list:
            value = doc
            for key in keys:
                if not isinstance(value, dict) or key not in value:
                    raise SpecError(f"design space is missing {'.'.join(keys)!r}")
                value = value[key]
            if not isinstance(value, list):
                raise SpecError(f"design space {'.'.join(keys)!r} must be a list")
            return value

        def floats(*keys: str) -> tuple[float, ...]:
            values = listed(*keys)
            return tuple(number(values, i, f"design space {'.'.join(keys)} item ", FINITE)
                         for i in range(len(values)))

        technologies = listed("lighting_technology")
        known = {t.value for t in LightingTechnology}
        if not all(isinstance(t, str) and t in known for t in technologies):
            raise SpecError("design space lighting_technology must list 'incandescent' "
                            "or 'led'")
        space = DesignSpace(
            wwr={o: floats("wwr", o) for o in ORIENTATION_ORDER},
            overhang_ratio={o: floats("overhang_ratio", o) for o in ORIENTATION_ORDER},
            glazing_ids=tuple(map(str, listed("glazing"))),
            wall_ids=tuple(map(str, listed("wall"))),
            roof_ids=tuple(map(str, listed("roof"))),
            infiltration=floats("infiltration_ach"),
            lighting_technologies=tuple(map(LightingTechnology, technologies)),
            hvac_ids=tuple(map(str, listed("hvac"))),
        )
        limits = CodeLimits.from_doc(doc.get("code_limits", {}))
        space.validate()
        return space, limits


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

    def wwr_ok(self, value: float) -> bool:
        if self.max_wwr is not None:
            if self.strict and value >= self.max_wwr:
                return False
            if not self.strict and value > self.max_wwr:
                return False
        if self.min_wwr is not None and value < self.min_wwr:
            return False
        return True

    def overhang_ok(self, value: float) -> bool:
        if self.max_overhang is not None and value > self.max_overhang:
            return False
        if self.min_overhang is not None and value < self.min_overhang:
            return False
        return True


@dataclass(frozen=True)
class CodeLimits:
    north: OrientationLimit = OrientationLimit()
    south: OrientationLimit = OrientationLimit()
    east: OrientationLimit = OrientationLimit()
    west: OrientationLimit = OrientationLimit()

    def limit(self, orientation: Orientation | str) -> OrientationLimit:
        key = Orientation(orientation)
        return {"N": self.north, "S": self.south,
                "E": self.east, "W": self.west}[key.value]

    @staticmethod
    def from_doc(doc: Mapping) -> "CodeLimits":
        """Per-orientation bounds; an absent or null bound sets no limit."""
        if not (isinstance(doc, dict)
                and all(isinstance(doc.get(o, {}), dict) for o in ORIENTATION_ORDER)):
            raise SpecError("code_limits must map orientations to JSON objects")

        def parse(o: str) -> OrientationLimit:
            block = doc.get(o, {})
            bounds = {key: None if block.get(key) is None
                      else number(block, key, f"code_limits.{o}.", FINITE)
                      for key in ("max_wwr", "min_wwr", "max_overhang", "min_overhang")}
            strict = check(block.get("strict", True), f"code_limits.{o}.strict", BOOLEAN)
            return OrientationLimit(strict=strict, **bounds)

        return CodeLimits(north=parse("N"), south=parse("S"),
                          east=parse("E"), west=parse("W"))


def _design_from_digits(space: DesignSpace, digits: Sequence[int]) -> DesignVariables:
    values = {}
    for (name, candidates), digit in zip(space.candidate_lists(), digits):
        values[name] = candidates[digit]
    return DesignVariables(**values)


def enumerate_designs(space: DesignSpace,
                      cap: int = DEFAULT_ENUMERATION_CAP) -> list[DesignVariables]:
    """Full Cartesian product in lexicographic order of the variable order.

    Raises :class:`DesignSpaceTooLarge` when the product exceeds ``cap``.
    """
    space.validate()
    if space.size > cap:
        raise DesignSpaceTooLarge(f"{space.size} designs exceed the cap of {cap}")
    lists = space.candidate_lists()
    names = [name for name, _ in lists]
    return [DesignVariables(**dict(zip(names, values)))
            for values in itertools.product(*(candidates for _, candidates in lists))]


def legal_positions(space: DesignSpace, limits: CodeLimits) -> list[list[int]]:
    """Per variable, in enumeration order, the positions of its code-legal candidates."""
    legal = [list(range(len(values))) for _, values in space.candidate_lists()]
    for i, o in enumerate(ORIENTATION_ORDER):
        lim = limits.limit(o)
        legal[i] = [j for j, v in enumerate(space.wwr[o]) if lim.wwr_ok(v)]
        legal[i + 4] = [j for j, v in enumerate(space.overhang_ratio[o]) if lim.overhang_ok(v)]
    return legal


def code_check(design: DesignVariables, limits: CodeLimits) -> list[Violation]:
    """One violation per exceeded bound; empty when the design is code-legal."""
    out: list[Violation] = []
    for o in ORIENTATION_ORDER:
        lim = limits.limit(o)
        wwr = design.wwr(o)
        if not lim.wwr_ok(wwr):
            bound = "<" if lim.strict else "<="
            rule_parts = []
            if lim.max_wwr is not None:
                rule_parts.append(f"wwr {bound} {lim.max_wwr}")
            if lim.min_wwr is not None:
                rule_parts.append(f"wwr >= {lim.min_wwr}")
            out.append(Violation(f"wwr[{o}]", wwr, " and ".join(rule_parts)))
        ov = design.overhang(o)
        if not lim.overhang_ok(ov):
            rule_parts = []
            if lim.max_overhang is not None:
                rule_parts.append(f"overhang <= {lim.max_overhang}")
            if lim.min_overhang is not None:
                rule_parts.append(f"overhang >= {lim.min_overhang}")
            out.append(Violation(f"overhang[{o}]", ov, " and ".join(rule_parts)))
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

    groups = []
    for g in spec.orientations:
        groups.append(dataclasses.replace(
            g,
            wwr=design.wwr(g.orientation),
            overhang_ratio=design.overhang(g.orientation),
            wall=wall,
            glazing=glazing,
        ))
    lighting = LightingSystem(
        technology=design.lighting_technology,
        lamp_power=lamp_power,
        lamp_count=spec.lighting.lamp_count,
        annual_hours=spec.lighting.annual_hours,
        daylight_offset=spec.lighting.daylight_offset,
    )
    return dataclasses.replace(
        spec,
        orientations=tuple(groups),
        roof=dataclasses.replace(spec.roof, construction=roof_con),
        infiltration=design.infiltration,
        lighting=lighting,
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

    An overhang's are its summer and winter :func:`shading_factor`. All are
    float64 (the gas flag as 0/1), so one block holds them.

    Raises :class:`SpecError` when the space names an id the catalog lacks.
    """
    import numpy as np

    glz = _resolve(catalog.glazings, space.glazing_ids, "glazing")
    walls = _resolve(catalog.constructions, space.wall_ids, "wall")
    roofs = _resolve(catalog.constructions, space.roof_ids, "roof")
    lamp_w = _resolve(catalog.lamp_powers,
                      [t.value for t in space.lighting_technologies], "lighting")
    hvacs = _resolve(catalog.hvac_systems, space.hvac_ids, "hvac")
    light_kwh = [
        annual_lighting_kwh(spec.lighting.lamp_count, w, spec.lighting.annual_hours,
                            spec.lighting.daylight_offset) * calib.schedule_multiplier
        for w in lamp_w
    ]
    altitudes = (climate.summer_design_sun_altitude, climate.winter_design_sun_altitude)
    return [
        *((np.array(space.wwr[o], dtype=float),) for o in ORIENTATION_ORDER),
        *(tuple(np.array([shading_factor(v, a) for v in space.overhang_ratio[o]], dtype=float)
                for a in altitudes) for o in ORIENTATION_ORDER),
        (np.array([g.u_value for g in glz]), np.array([g.shgc for g in glz])),
        (np.array([1.0 / w.r_value for w in walls]),),
        (np.array([1.0 / r.r_value for r in roofs]),),
        (np.array(space.infiltration, dtype=float),),
        (np.array(light_kwh),),
        (np.array([h.cooling_cop for h in hvacs]),
         np.array([h.heating_efficiency for h in hvacs]),
         np.array([h.heating_fuel is HeatingFuel.GAS for h in hvacs], dtype=float)),
    ]


def _ranked(cols: tuple[np.ndarray, ...], k: int | None = None) -> tuple[np.ndarray, ...]:
    """Rows of (eui, cost, electricity, gas, position) in rank order, first ``k`` kept."""
    import numpy as np

    eui, cost, _, _, position = cols
    order = np.lexsort((position, cost, eui))[:k]
    return tuple(c[order] for c in cols)


def _fill(rows: np.ndarray, tables: list[tuple[np.ndarray, ...]], digits) -> None:
    """Per variable, write each table ``t`` at its digits ``d`` into the next row, broadcast."""
    rows = iter(rows)
    for ts, d in zip(tables, digits):
        for t in ts:
            next(rows)[...] = t[d]


def optimize(spec: BuildingSpec, climate: ClimateProfile, catalog: Catalog,
             space: DesignSpace, limits: CodeLimits, k: int,
             calib: CalibrationParams, tariff: Tariff,
             cap: int = DEFAULT_ENUMERATION_CAP) -> list[RankedDesign]:
    """Rank every code-legal design by EUI, ascending.

    Ties break by ascending annual cost per m2, then by enumeration order.
    ``k`` larger than the feasible count returns all feasible designs.

    Raises
    ------
    NoFeasibleDesignError
        When no design passes :func:`code_check`.
    DesignSpaceTooLarge
        When the code-legal designs number more than ``cap``.
    SpecError
        When the space names an id the catalog lacks.
    """
    import numpy as np

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    space.validate()
    legal = legal_positions(space, limits)
    dims = [len(p) for p in legal]
    feasible = math.prod(dims)
    if feasible == 0:
        raise NoFeasibleDesignError("no design in the space passes the code limits")
    if feasible > cap:
        raise DesignSpaceTooLarge(f"{feasible} code-legal designs exceed the cap of {cap}")
    tables = [tuple(t[p] for t in ts)
              for ts, p in zip(_candidate_tables(space, catalog, spec, climate, calib), legal)]
    shared = (np.array([spec.envelope(o).gross_wall_area for o in ORIENTATION_ORDER]),
              np.array([climate.irradiation[o] for o in ORIENTATION_ORDER]),
              spec.roof.area, spec.conditioned_volume, *season_terms(climate),
              annual_equipment_kwh(spec) * calib.equipment_multiplier,
              calib.internal_gain_multiplier, spec.floor_area, tariff.gas_energy_content)

    # The longest run of trailing variables whose legal product fits in a chunk
    # (at least the last) spans blocks of `width` designs. Their rows are filled
    # once and tiled; a call takes `per_call` whole blocks. Reusing one array
    # keeps glibc from returning pages that the next chunk would fault in again.
    suffix = [math.prod(dims[i:]) for i in range(len(dims))]
    split = next((i for i, n in enumerate(suffix) if n <= CHUNK_SIZE), len(dims) - 1)
    width = suffix[split]
    blocks = feasible // width
    per_call = min(max(1, CHUNK_SIZE // width), blocks)
    lead_rows = sum(map(len, tables[:split]))
    block = np.empty((sum(map(len, tables)), per_call, width))
    _fill(block[lead_rows:], tables[split:],
          np.unravel_index(np.arange(width), dims[split:]))

    def evaluate(first: int) -> tuple[np.ndarray, ...]:
        count = min(per_call, blocks - first)
        if split:
            _fill(block[:lead_rows, :count], tables[:split],
                  np.unravel_index(np.arange(first, first + count)[:, None], dims[:split]))
        # A design's position in the legal sub-product orders designs as its
        # enumeration index does, because each variable's legal positions increase.
        position = np.arange(first * width, (first + count) * width)
        cols = block.reshape(len(block), -1)[:, :position.size]
        eui, elec, gas = _kernels.batch_energy(cols[:4], cols[4:12].reshape(4, 2, -1),
                                               *cols[12:], *shared)
        cost = (elec * tariff.electricity_price + gas * tariff.gas_price) / spec.floor_area
        return eui, cost, elec, gas, position

    chunks = (evaluate(first) for first in range(0, blocks, per_call))
    if k >= feasible:
        top = _ranked(tuple(map(np.concatenate, zip(*chunks))))
    else:
        top = None
        for cols in chunks:
            if cols[0].size > k:
                # a row with EUI above the chunk's k-th smallest trails k rows;
                # rows tied with it stay, since cost and position order them
                keep = cols[0] <= np.partition(cols[0], k - 1)[k - 1]
                cols = tuple(c[keep] for c in cols)
            if top is not None:
                cols = tuple(map(np.concatenate, zip(top, cols)))
            top = _ranked(cols, k)

    del block  # free the chunk's inputs before the designs are built
    eui, cost, elec, gas, position = top
    # Pareto frontier on (EUI, cost): a design is on it when no design ranked
    # before it is cheaper. Ranks before a returned one are all returned.
    pareto = cost <= np.minimum.accumulate(cost)
    digits = np.stack([np.take(p, d) for p, d in zip(legal, np.unravel_index(position, dims))], 1)
    return [
        RankedDesign(rank=rank, design=_design_from_digits(space, d), eui=e,
                     cost_per_m2=c, electricity=el, gas=g, pareto=f)
        for rank, (d, e, c, el, g, f) in enumerate(
            zip(digits.tolist(), eui.tolist(), cost.tolist(), elec.tolist(), gas.tolist(),
                pareto.tolist()), start=1)
    ]


def write_results_csv(ranked: list[RankedDesign]) -> str:
    """Ranked results table; one row per returned design, violations always 0."""
    import csv as _csv
    import io as _io

    buf = _io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow([
        "rank", "eui_kwh_m2", "cost_cny_m2", "electricity_kwh", "gas_m3",
        "wwr_n", "wwr_s", "wwr_e", "wwr_w",
        "overhang_n", "overhang_s", "overhang_e", "overhang_w",
        "glazing_id", "wall_id", "roof_id", "infiltration_ach",
        "lighting_technology", "hvac_id", "violations", "pareto",
    ])
    for r in ranked:
        d = r.design
        writer.writerow([
            r.rank, repr(r.eui), repr(r.cost_per_m2), repr(r.electricity), repr(r.gas),
            d.wwr_n, d.wwr_s, d.wwr_e, d.wwr_w,
            d.overhang_n, d.overhang_s, d.overhang_e, d.overhang_w,
            d.glazing_id, d.wall_id, d.roof_id, d.infiltration,
            d.lighting_technology.value, d.hvac_id, 0, int(r.pareto),
        ])
    return buf.getvalue()
