"""Retrofit design-space enumeration, code checks and exhaustive search.

The search is an exact grid sweep: every code-legal point of the Cartesian
product is evaluated through the energy engine and ranked by EUI with the
annual cost per m2 as tie-break and the enumeration index as the final,
total tie-break. The ranking is therefore invariant under any evaluation
order, including parallel evaluation.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _kernels
from .energy import (
    CalibrationParams,
    annual_equipment_kwh,
    annual_lighting_kwh,
    season_terms,
)
from .model import (
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
)

#: Guard against accidentally enormous Cartesian products.
DEFAULT_ENUMERATION_CAP = 1_000_000


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
        n = 1
        for _, values in self.candidate_lists():
            n *= len(values)
        return n

    def validate(self) -> None:
        for name, values in self.candidate_lists():
            if len(values) == 0:
                raise SpecError(f"design space variable {name!r} has no candidates")

    @staticmethod
    def from_json(text: str) -> tuple["DesignSpace", "CodeLimits"]:
        """Parse a design-space file; returns the space and its code limits."""
        doc = json.loads(text)
        wwr = {o: tuple(float(v) for v in doc["wwr"][o]) for o in ORIENTATION_ORDER}
        overhang = {o: tuple(float(v) for v in doc["overhang_ratio"][o])
                    for o in ORIENTATION_ORDER}
        space = DesignSpace(
            wwr=wwr,
            overhang_ratio=overhang,
            glazing_ids=tuple(doc["glazing"]),
            wall_ids=tuple(doc["wall"]),
            roof_ids=tuple(doc["roof"]),
            infiltration=tuple(float(v) for v in doc["infiltration_ach"]),
            lighting_technologies=tuple(LightingTechnology(v)
                                        for v in doc["lighting_technology"]),
            hvac_ids=tuple(doc["hvac"]),
        )
        space.validate()
        limits = CodeLimits.from_doc(doc.get("code_limits", {}))
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
        def parse(o: str) -> OrientationLimit:
            block = doc.get(o, {})
            return OrientationLimit(
                max_wwr=None if block.get("max_wwr") is None else float(block["max_wwr"]),
                strict=bool(block.get("strict", True)),
                min_wwr=None if block.get("min_wwr") is None else float(block["min_wwr"]),
                max_overhang=(None if block.get("max_overhang") is None
                              else float(block["max_overhang"])),
                min_overhang=(None if block.get("min_overhang") is None
                              else float(block["min_overhang"])),
            )

        return CodeLimits(north=parse("N"), south=parse("S"),
                          east=parse("E"), west=parse("W"))


def _design_from_digits(space: DesignSpace, digits: Sequence[int]) -> DesignVariables:
    values = {}
    for (name, candidates), digit in zip(space.candidate_lists(), digits):
        values[name] = candidates[digit]
    return DesignVariables(**values)


def _checked_size(space: DesignSpace, cap: int) -> int:
    """Size of a validated space; raises :class:`DesignSpaceTooLarge` above ``cap``."""
    space.validate()
    total = space.size
    if total > cap:
        raise DesignSpaceTooLarge(
            f"design space holds {total} candidates, above the cap of {cap}")
    return total


def enumerate_designs(space: DesignSpace,
                      cap: int = DEFAULT_ENUMERATION_CAP) -> list[DesignVariables]:
    """Full Cartesian product in lexicographic order of the variable order.

    Raises :class:`DesignSpaceTooLarge` when the product exceeds ``cap``.
    """
    _checked_size(space, cap)
    lists = space.candidate_lists()
    names = [name for name, _ in lists]
    return [DesignVariables(**dict(zip(names, values)))
            for values in itertools.product(*(candidates for _, candidates in lists))]


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


def _candidate_arrays(space: DesignSpace, catalog: Catalog, spec: BuildingSpec,
                      calib: CalibrationParams):
    """Resolve candidate lists into per-variable value arrays."""
    glz = [catalog.glazings[g] for g in space.glazing_ids]
    walls = [catalog.constructions[w] for w in space.wall_ids]
    roofs = [catalog.constructions[r] for r in space.roof_ids]
    hvacs = [catalog.hvac_systems[h] for h in space.hvac_ids]
    light_kwh = [
        annual_lighting_kwh(spec.lighting.lamp_count, catalog.lamp_powers[t.value],
                            spec.lighting.annual_hours, spec.lighting.daylight_offset)
        * calib.schedule_multiplier
        for t in space.lighting_technologies
    ]
    return {
        "glz_u": np.array([g.u_value for g in glz]),
        "glz_shgc": np.array([g.shgc for g in glz]),
        "wall_u": np.array([1.0 / w.r_value for w in walls]),
        "roof_u": np.array([1.0 / r.r_value for r in roofs]),
        "cop": np.array([h.cooling_cop for h in hvacs]),
        "heat_eff": np.array([h.heating_efficiency for h in hvacs]),
        "heat_is_gas": np.array([h.heating_fuel is HeatingFuel.GAS for h in hvacs]),
        "lighting_kwh": np.array(light_kwh),
        "infiltration": np.array(space.infiltration, dtype=float),
    }


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
        When the Cartesian product exceeds ``cap``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    total = _checked_size(space, cap)

    lists = space.candidate_lists()
    dims = [len(values) for _, values in lists]
    idx = np.arange(total)
    digits = np.unravel_index(idx, dims)
    digit_by_name = {name: dig for (name, _), dig in zip(lists, digits)}

    # feasibility per candidate value, combined through the digit arrays
    mask = np.ones(total, dtype=bool)
    for o, low in (("N", "n"), ("S", "s"), ("E", "e"), ("W", "w")):
        lim = limits.limit(o)
        wwr_ok = np.array([lim.wwr_ok(v) for v in space.wwr[o]])
        ov_ok = np.array([lim.overhang_ok(v) for v in space.overhang_ratio[o]])
        mask &= wwr_ok[digit_by_name[f"wwr_{low}"]]
        mask &= ov_ok[digit_by_name[f"overhang_{low}"]]
    if not mask.any():
        raise NoFeasibleDesignError("no design in the space passes the code limits")

    cand = _candidate_arrays(space, catalog, spec, calib)
    wwr = np.stack([np.array(space.wwr[o], dtype=float)[digit_by_name[f"wwr_{o.lower()}"]]
                    for o in ORIENTATION_ORDER])
    overhang = np.stack([
        np.array(space.overhang_ratio[o], dtype=float)[digit_by_name[f"overhang_{o.lower()}"]]
        for o in ORIENTATION_ORDER])

    equip_kwh = annual_equipment_kwh(spec) * calib.equipment_multiplier

    eui_arr, elec, gas = _kernels.batch_energy(
        wwr[:, mask], overhang[:, mask],
        cand["glz_u"][digit_by_name["glazing_id"][mask]],
        cand["glz_shgc"][digit_by_name["glazing_id"][mask]],
        cand["wall_u"][digit_by_name["wall_id"][mask]],
        cand["roof_u"][digit_by_name["roof_id"][mask]],
        cand["infiltration"][digit_by_name["infiltration"][mask]],
        cand["lighting_kwh"][digit_by_name["lighting_technology"][mask]],
        cand["cop"][digit_by_name["hvac_id"][mask]],
        cand["heat_eff"][digit_by_name["hvac_id"][mask]],
        cand["heat_is_gas"][digit_by_name["hvac_id"][mask]],
        np.array([spec.envelope(o).gross_wall_area for o in ORIENTATION_ORDER]),
        np.array([climate.irradiation[o] for o in ORIENTATION_ORDER]),
        spec.roof.area,
        spec.conditioned_volume,
        math.tan(math.radians(climate.summer_design_sun_altitude)),
        math.tan(math.radians(climate.winter_design_sun_altitude)),
        *season_terms(climate),
        equip_kwh,
        calib.internal_gain_multiplier,
        spec.floor_area,
        tariff.gas_energy_content,
    )
    cost = (elec * tariff.electricity_price + gas * tariff.gas_price) / spec.floor_area
    feasible_idx = idx[mask]

    order = np.lexsort((feasible_idx, cost, eui_arr))
    # Pareto frontier on (EUI, cost) over the whole feasible set: a design is
    # on the frontier when no cheaper design has equal-or-better EUI.
    sorted_cost = cost[order]
    best_cost_so_far = np.minimum.accumulate(sorted_cost)
    pareto_sorted = sorted_cost <= best_cost_so_far

    masked_digits = [dig[mask] for dig in digits]
    k_eff = min(k, len(feasible_idx))
    out = []
    for rank in range(k_eff):
        pos = order[rank]
        design = _design_from_digits(space, [int(md[pos]) for md in masked_digits])
        out.append(RankedDesign(
            rank=rank + 1,
            design=design,
            eui=float(eui_arr[pos]),
            cost_per_m2=float(cost[pos]),
            electricity=float(elec[pos]),
            gas=float(gas[pos]),
            pareto=bool(pareto_sorted[rank]),
        ))
    return out


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
