import dataclasses
import importlib
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import Phase, event, given, settings, strategies as st

from lowcarb import (
    DesignSpace,
    NoFeasibleDesignError,
    annual_end_use,
    annual_cost,
    apply_design,
    eui,
    optimize,
)
from lowcarb import _kernels
from lowcarb.energy import CalibrationParams
from lowcarb.model import HeatingFuel, LightingTechnology, SpecError
from lowcarb.optimize import VARIABLES, CodeLimits, DesignSpaceTooLarge, DesignVariables, \
    OrientationLimit, legal_space, write_results_csv
from reference_model import code_check, enumerate_designs

# the package exports the function optimize under the submodule's name
optimize_module = importlib.import_module("lowcarb.optimize")
energy_module = importlib.import_module("lowcarb.energy")


def _small_space(**overrides) -> DesignSpace:
    base = dict(
        wwr={"N": (0.30,), "S": (0.24,), "E": (0.25,), "W": (0.25,)},
        overhang_ratio={"N": (0.0,), "S": (0.0,), "E": (0.0,), "W": (0.0,)},
        glazing_ids=("sgl_clr",),
        wall_ids=("wall_uninsulated",),
        roof_ids=("roof_concrete",),
        infiltration=(1.0,),
        lighting_technologies=(LightingTechnology.INCANDESCENT,),
        hvac_ids=("vav_baseline",),
    )
    base.update(overrides)
    return DesignSpace(**base)


NO_LIMITS = CodeLimits()


def test_variables_are_the_design_fields_in_order():
    """Designs are built positionally from the table, so its order is the field order."""
    assert [v.attr for v in VARIABLES] == [f.name for f in dataclasses.fields(DesignVariables)]


class TestEnumerate:
    def test_single_variable(self):
        space = _small_space(glazing_ids=("a", "b"))
        designs = enumerate_designs(space)
        assert [d.glazing_id for d in designs] == ["a", "b"]

    def test_two_variables_lexicographic(self):
        space = _small_space(glazing_ids=("a", "b"),
                             wall_ids=("x", "y", "z"))
        designs = enumerate_designs(space)
        assert [(d.glazing_id, d.wall_id) for d in designs] == [
            ("a", "x"), ("a", "y"), ("a", "z"),
            ("b", "x"), ("b", "y"), ("b", "z"),
        ]

    def test_bundled_space_count_is_list_product(self, paper_space):
        space, _ = paper_space
        expected = 1
        for _, values in space.candidate_lists():
            expected *= len(values)
        assert space.size == expected
        assert len(enumerate_designs(space)) == expected


@pytest.mark.parametrize("field, values, name", [
    ("lighting_technologies", ("led",), "lighting_technology"),
    ("glazing_ids", (1,), "glazing_id"),
    ("infiltration", ("x",), "infiltration"),
    ("infiltration", (True,), "infiltration"),
    ("wwr", {"N": (0.3,), "S": (None,), "E": (0.25,), "W": (0.25,)}, "wwr_s"),
])
def test_validate_refuses_a_candidate_of_the_wrong_kind(field, values, name):
    space = _small_space(**{field: values})
    with pytest.raises(SpecError, match=f"design space variable '{name}' must hold"):
        space.validate()


def test_validate_accepts_int_candidates_of_a_numeric_variable():
    _small_space(infiltration=(0, 2), overhang_ratio={"N": (0,), "S": (1,), "E": (0.5,),
                                                      "W": (0,)}).validate()


def test_optimize_refuses_a_lighting_technology_given_as_a_string(
        paper_space, baseline_spec, climate, catalog, baseline_calibration, tariff):
    space, limits = paper_space
    space = dataclasses.replace(space, lighting_technologies=("led",))
    with pytest.raises(SpecError, match="lighting_technology"):
        optimize(baseline_spec, climate, catalog, space, limits, k=1,
                 calib=baseline_calibration, tariff=tariff)


class TestCodeCheck:
    def test_east_wwr_over_strict_limit(self):
        design = enumerate_designs(_small_space(wwr={
            "N": (0.30,), "S": (0.24,), "E": (0.5,), "W": (0.25,)}))[0]
        limits = CodeLimits(east=OrientationLimit(max_wwr=0.35, strict=True))
        violations = code_check(design, limits)
        assert len(violations) == 1
        assert violations[0].field == "wwr[E]"
        assert str(violations[0]) == "wwr[E]=0.5 violates rule: wwr < 0.35"

    def test_north_under_strict_limit_is_clean(self):
        design = enumerate_designs(_small_space(wwr={
            "N": (0.44,), "S": (0.24,), "E": (0.25,), "W": (0.25,)}))[0]
        limits = CodeLimits(north=OrientationLimit(max_wwr=0.45, strict=True))
        assert code_check(design, limits) == []

    def test_south_inclusive_range_boundary(self):
        design = enumerate_designs(_small_space(wwr={
            "N": (0.30,), "S": (0.7,), "E": (0.25,), "W": (0.25,)}))[0]
        limits = CodeLimits(south=OrientationLimit(max_wwr=0.70, strict=False,
                                                   min_wwr=0.40))
        assert code_check(design, limits) == []

    def test_south_inclusive_range_rule_text(self):
        design = enumerate_designs(_small_space(wwr={
            "N": (0.30,), "S": (0.75,), "E": (0.25,), "W": (0.25,)}))[0]
        limits = CodeLimits(south=OrientationLimit(max_wwr=0.70, strict=False,
                                                   min_wwr=0.40))
        assert list(map(str, code_check(design, limits))) == [
            "wwr[S]=0.75 violates rule: wwr <= 0.7 and wwr >= 0.4"]

    def test_strict_boundary_violates(self):
        design = enumerate_designs(_small_space(wwr={
            "N": (0.30,), "S": (0.24,), "E": (0.35,), "W": (0.25,)}))[0]
        limits = CodeLimits(east=OrientationLimit(max_wwr=0.35, strict=True))
        assert len(code_check(design, limits)) == 1

    def test_overhang_bounds(self):
        design = enumerate_designs(_small_space(overhang_ratio={
            "N": (0.0,), "S": (0.8,), "E": (0.0,), "W": (0.0,)}))[0]
        limits = CodeLimits(south=OrientationLimit(max_overhang=2.0 / 3.0))
        violations = code_check(design, limits)
        assert [v.field for v in violations] == ["overhang[S]"]
        assert str(violations[0]) == ("overhang[S]=0.8 violates rule: "
                                      "overhang <= 0.6666666666666666")

    def test_every_exceeded_bound_in_orientation_order(self):
        design = enumerate_designs(_small_space(
            wwr={"N": (0.5,), "S": (0.24,), "E": (0.25,), "W": (0.25,)},
            overhang_ratio={"N": (0.1,), "S": (0.0,), "E": (0.0,), "W": (0.9,)}))[0]
        limits = CodeLimits(north=OrientationLimit(max_wwr=0.45, min_overhang=0.2),
                            west=OrientationLimit(min_wwr=0.3, max_overhang=0.5,
                                                  min_overhang=0.25))
        assert list(map(str, code_check(design, limits))) == [
            "wwr[N]=0.5 violates rule: wwr < 0.45",
            "overhang[N]=0.1 violates rule: overhang >= 0.2",
            "wwr[W]=0.25 violates rule: wwr >= 0.3",
            "overhang[W]=0.9 violates rule: overhang <= 0.5 and overhang >= 0.25"]


class TestOptimize:
    def test_singleton_space_returns_that_design(self, baseline_spec, climate,
                                                 catalog, baseline_calibration,
                                                 tariff):
        space = _small_space()
        ranked = optimize(baseline_spec, climate, catalog, space, NO_LIMITS, k=5,
                          calib=baseline_calibration, tariff=tariff)
        assert len(ranked) == 1
        applied = apply_design(baseline_spec, ranked[0].design, catalog)
        report = annual_end_use(applied, climate, baseline_calibration)
        assert ranked[0].eui == pytest.approx(eui(report, baseline_spec.floor_area),
                                              rel=1e-12)

    def test_lower_south_wwr_wins(self, baseline_spec, climate, catalog,
                                  baseline_calibration, tariff):
        space = _small_space(wwr={"N": (0.30,), "S": (0.24, 0.40),
                                  "E": (0.25,), "W": (0.25,)})
        ranked = optimize(baseline_spec, climate, catalog, space, NO_LIMITS, k=2,
                          calib=baseline_calibration, tariff=tariff)
        assert ranked[0].design.wwr_s == pytest.approx(0.24)
        assert ranked[1].design.wwr_s == pytest.approx(0.40)

    def test_matches_scalar_engine_under_shuffled_evaluation(
            self, baseline_spec, climate, catalog, baseline_calibration, tariff):
        """Rank equals a shuffled scalar-engine evaluation sorted by the same key."""
        space = _small_space(
            glazing_ids=("sgl_clr", "dbl_clr", "dbl_loe"),
            infiltration=(1.0, 0.6),
            hvac_ids=("vav_baseline", "heat_pump"),
            overhang_ratio={"N": (0.0,), "S": (0.0, 1.0 / 3.0), "E": (0.0,), "W": (0.0,)},
        )
        designs = list(enumerate_designs(space))
        indexed = list(enumerate(designs))
        random.Random(7).shuffle(indexed)
        scored = []
        for idx, design in indexed:
            applied = apply_design(baseline_spec, design, catalog)
            report = annual_end_use(applied, climate, baseline_calibration,
                                    gas_energy_content=tariff.gas_energy_content)
            scored.append((eui(report, baseline_spec.floor_area),
                           annual_cost(report, tariff, baseline_spec.floor_area),
                           idx, design))
        scored.sort(key=lambda t: (t[0], t[1], t[2]))

        ranked = optimize(baseline_spec, climate, catalog, space, NO_LIMITS,
                          k=len(designs), calib=baseline_calibration, tariff=tariff)
        assert [r.design for r in ranked] == [t[3] for t in scored]
        for r, t in zip(ranked, scored):
            assert r.eui == pytest.approx(t[0], rel=1e-12)
            assert r.cost_per_m2 == pytest.approx(t[1], rel=1e-12)

    def test_every_returned_design_is_code_legal(self, baseline_spec, climate,
                                                 catalog, baseline_calibration,
                                                 tariff, paper_space):
        space, limits = paper_space
        ranked = optimize(baseline_spec, climate, catalog, space, limits, k=25,
                          calib=baseline_calibration, tariff=tariff)
        assert len(ranked) == 25
        for r in ranked:
            assert code_check(r.design, limits) == []

    def test_k_beyond_feasible_returns_all(self, baseline_spec, climate, catalog,
                                           baseline_calibration, tariff):
        space = _small_space(glazing_ids=("sgl_clr", "dbl_loe"))
        ranked = optimize(baseline_spec, climate, catalog, space, NO_LIMITS, k=99,
                          calib=baseline_calibration, tariff=tariff)
        assert len(ranked) == 2
        assert ranked[0].eui <= ranked[1].eui

    def test_adding_a_candidate_never_hurts(self, baseline_spec, climate, catalog,
                                            baseline_calibration, tariff):
        small = _small_space(infiltration=(1.0, 0.8))
        grown = _small_space(infiltration=(1.0, 0.8, 0.4))
        best_small = optimize(baseline_spec, climate, catalog, small, NO_LIMITS,
                              k=1, calib=baseline_calibration, tariff=tariff)[0]
        best_grown = optimize(baseline_spec, climate, catalog, grown, NO_LIMITS,
                              k=1, calib=baseline_calibration, tariff=tariff)[0]
        assert best_grown.eui <= best_small.eui + 1e-12

    def test_empty_feasible_set(self, baseline_spec, climate, catalog,
                                baseline_calibration, tariff):
        limits = CodeLimits(south=OrientationLimit(max_wwr=0.1, strict=True))
        with pytest.raises(NoFeasibleDesignError):
            optimize(baseline_spec, climate, catalog, _small_space(), limits, k=1,
                     calib=baseline_calibration, tariff=tariff)

    def test_k_must_be_positive(self, baseline_spec, climate, catalog,
                                baseline_calibration, tariff):
        with pytest.raises(ValueError, match="k must be"):
            optimize(baseline_spec, climate, catalog, _small_space(), NO_LIMITS,
                     k=0, calib=baseline_calibration, tariff=tariff)


def test_results_csv_shape(baseline_spec, climate, catalog, baseline_calibration,
                           tariff):
    space = _small_space(glazing_ids=("sgl_clr", "dbl_loe"))
    ranked = optimize(baseline_spec, climate, catalog, space, NO_LIMITS, k=2,
                      calib=baseline_calibration, tariff=tariff)
    text = write_results_csv(ranked)
    lines = text.strip().splitlines()
    assert lines[0].startswith("rank,eui_kwh_m2,cost_cny_m2")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "1"
    # violations column is always zero for returned designs
    assert all(line.split(",")[-2] == "0" for line in lines[1:])


def _score_alone(design, spec, climate, catalog, calib, tariff):
    """(EUI, cost) of one design, from a space holding only that design."""
    alone = _small_space(
        wwr={o: (design.wwr(o),) for o in "NSEW"},
        overhang_ratio={o: (design.overhang(o),) for o in "NSEW"},
        glazing_ids=(design.glazing_id,), wall_ids=(design.wall_id,),
        roof_ids=(design.roof_id,), infiltration=(design.infiltration,),
        lighting_technologies=(design.lighting_technology,), hvac_ids=(design.hvac_id,))
    (ranked,) = optimize(spec, climate, catalog, alone, NO_LIMITS, k=1, calib=calib,
                         tariff=tariff)
    return ranked.eui, ranked.cost_per_m2


@st.composite
def _tied_spaces(draw):
    """Small spaces whose candidate lists repeat values, so equal EUIs occur."""
    wide = draw(st.sets(st.integers(0, 13), min_size=2, max_size=6))
    # the first wwr and overhang values pass every limit _orientation_limits draws
    pools = [[0.3, 0.2, 0.4, 0.5]] * 4 + [[0.25, 0.0, 0.5, 1.0]] * 4 + [
        ["sgl_clr", "dbl_clr", "dbl_loe"], ["wall_uninsulated", "wall_sip_12in"],
        ["roof_concrete", "roof_sip_10in"], [0.4, 0.8, 1.0],
        list(LightingTechnology), ["vav_baseline", "heat_pump"]]
    lists = [tuple(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
             for i, pool in enumerate(pools) for n in [3 if i in wide else 1]]
    return DesignSpace(
        wwr=dict(zip("NSEW", lists[0:4])), overhang_ratio=dict(zip("NSEW", lists[4:8])),
        glazing_ids=lists[8], wall_ids=lists[9], roof_ids=lists[10], infiltration=lists[11],
        lighting_technologies=lists[12], hvac_ids=lists[13])


# bounds sit on pool values, so strict and inclusive limits differ
_orientation_limits = st.builds(
    OrientationLimit,
    max_wwr=st.sampled_from([None, None, 0.4, 0.5]), strict=st.booleans(),
    min_wwr=st.sampled_from([None, None, 0.3]),
    max_overhang=st.sampled_from([None, None, 0.5]),
    min_overhang=st.sampled_from([None, None, 0.25]))

_code_limits = st.builds(CodeLimits, _orientation_limits, _orientation_limits,
                         _orientation_limits, _orientation_limits)


@st.composite
def _limits_keeping_a_design(draw, space):
    """Code limits whose bounds are ``space``'s own wwr and overhang candidates, so
    strict and inclusive limits differ, set so that one drawn wwr and one drawn overhang
    of each orientation stay legal: some design of the space is code-legal."""
    def limit(orientation):
        wwrs, overhangs = space.wwr[orientation], space.overhang_ratio[orientation]
        wwr, overhang = draw(st.sampled_from(wwrs)), draw(st.sampled_from(overhangs))
        strict = draw(st.booleans())

        def bound(values):
            return draw(st.sampled_from([None, *values]))

        return OrientationLimit(
            max_wwr=bound([v for v in wwrs if v > wwr or v == wwr and not strict]),
            strict=strict, min_wwr=bound([v for v in wwrs if v <= wwr]),
            max_overhang=bound([v for v in overhangs if v >= overhang]),
            min_overhang=bound([v for v in overhangs if v <= overhang]))

    return CodeLimits(*map(limit, "NSEW"))


def _kernel_calls(mp) -> list[int]:
    """Patch the batch kernel to record the designs of each call in the list returned."""
    calls, kernel = [], _kernels.batch_energy
    mp.setattr(_kernels, "batch_energy", lambda f_cool, *a: calls.append(f_cool.shape[1])
               or kernel(f_cool, *a))
    return calls


def _label(space, legal: int, calls: list[int]) -> None:
    """Label a feasible example with whether its limits rejected any design, and with
    the kernel calls its sweep made."""
    event(f"code-legal: {'all' if legal == space.size else 'some'} of the space")
    event(f"kernel calls: {len(calls)}")


# Shrinking a failing example reruns optimize and the oracle for every candidate it
# tries, which took minutes; the tests that score whole spaces report it as drawn.
_NO_SHRINK = [phase for phase in Phase if phase is not Phase.shrink]


@settings(max_examples=60, deadline=None, phases=_NO_SHRINK)
@given(space=_tied_spaces(), limits=_code_limits)
def test_legal_space_enumerates_the_code_legal_designs_in_order(space, limits):
    """The legal space's designs are the space's designs that pass code_check, in
    enumeration order; an empty legal space means no design passes."""
    legal = legal_space(space, limits)
    passing = [d for d in enumerate_designs(space) if not code_check(d, limits)]
    assert (enumerate_designs(legal) if legal.size else []) == passing


def _draw_chunk(data, space, limits):
    """A chunk below one group of the legal space, of 2-3 groups, or of the whole space."""
    lists = [candidates for _, candidates in legal_space(space, limits).candidate_lists()]
    group = max(1, math.prod(map(len, lists[:8])))  # the code-legal orientation designs
    return data.draw(st.one_of(st.integers(1, max(1, group - 1)),
                               st.integers(2 * group, 4 * group - 1),
                               st.just(max(1, math.prod(map(len, lists))))))


@settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
@given(space=_tied_spaces(), k_kind=st.sampled_from(["one", "middle", "beyond"]),
       data=st.data())
def test_streamed_top_k_matches_a_full_sort(space, k_kind, data, baseline_spec,
                                            climate, catalog, baseline_calibration, tariff):
    """Chunked top-k equals enumerate, score, sort by (EUI, cost, index), running min.

    The limits keep some design legal (test_empty_feasible_set covers the case where
    none is). A kernel call scores whole groups: a chunk below one group still takes one
    group per call, one of 2-3 groups takes up to 2-3, and one of the whole space takes
    every group in one call.
    """
    limits = data.draw(_limits_keeping_a_design(space))
    legal = [(i, d) for i, d in enumerate(enumerate_designs(space))
             if not code_check(d, limits)]
    k = {"one": 1, "middle": len(legal) // 2 + 1, "beyond": len(legal) + 3}[k_kind]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize_module, "CHUNK_SIZE", _draw_chunk(data, space, limits))
        calls = _kernel_calls(mp)
        ranked = optimize(baseline_spec, climate, catalog, space, limits, k=k,
                          calib=baseline_calibration, tariff=tariff)
    _label(space, len(legal), calls)

    scored = sorted((*_score_alone(d, baseline_spec, climate, catalog,
                                   baseline_calibration, tariff), i, d) for i, d in legal)
    expected = scored[:k]
    best_cost = float("inf")
    for r, (e, c, _, d) in zip(ranked, expected, strict=True):
        best_cost = min(best_cost, c)
        assert (r.design, r.eui, r.cost_per_m2, r.pareto) == (d, e, c, c <= best_cost)
    assert [r.rank for r in ranked] == list(range(1, len(expected) + 1))


def test_sweep_memory_is_bounded_by_the_chunk(baseline_spec, climate, catalog,
                                              baseline_calibration, tariff):
    """tracemalloc peak stays far below what whole-space arrays of 884,736 designs need."""
    grid = {o: (0.2, 0.3, 0.4, 0.5) for o in "NSEW"}
    space = DesignSpace(
        wwr=grid, overhang_ratio={"N": (0.0, 0.25, 0.5), "S": (0.0, 0.25, 0.5),
                                  "E": (0.0, 0.5), "W": (0.0, 0.5)},
        glazing_ids=("sgl_clr", "dbl_clr", "dbl_loe"),
        wall_ids=("wall_uninsulated", "wall_sip_12in"),
        roof_ids=("roof_concrete", "roof_sip_10in"), infiltration=(0.4, 1.0),
        lighting_technologies=tuple(LightingTechnology),
        hvac_ids=("vav_baseline", "heat_pump"))
    limits = CodeLimits(*[OrientationLimit(max_wwr=0.45, strict=True)] * 4)
    assert space.size == 884_736
    tracemalloc.start()
    try:
        ranked = optimize(baseline_spec, climate, catalog, space, limits, k=10,
                          calib=baseline_calibration, tariff=tariff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ranked) == 10
    assert peak < 64 * 2**20


_CLIMATES = {"bundled": {}, "no cooling": {"cooling_degree_days": (0.0,) * 12},
             "no heating": {"heating_degree_days": (0.0,) * 12}}


@settings(max_examples=40, deadline=None)
@given(space=_tied_spaces(), climate_kind=st.sampled_from(sorted(_CLIMATES)),
       gain=st.sampled_from([0.0, 1.0, 30.0, 300.0]), schedule=st.sampled_from([0.0, 1.0]),
       equipment=st.sampled_from([0.0, 1.0]))
def test_group_bound_is_at_most_the_group_minimum(space, climate_kind, gain, schedule,
                                                  equipment, baseline_spec, climate, catalog,
                                                  tariff):
    """Every group's bound is at most the least EUI of its designs, and the scale at
    least the greatest EUI, to the bit.

    At full lighting and equipment, an internal-gain multiplier of 30 makes the
    heating clamp bind for some designs and not for others, and 300 for all.
    """
    climate = dataclasses.replace(climate, **_CLIMATES[climate_kind])
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        bounds = optimize_module._group_bounds
        mp.setattr(optimize_module, "_group_bounds",
                   lambda *a: seen.append(bounds(*a)) or seen[-1])
        ranked = optimize(baseline_spec, climate, catalog, space, NO_LIMITS, k=space.size,
                          calib=CalibrationParams(gain, schedule, equipment), tariff=tariff)
    ((bound, scale),) = seen
    shared = [v.attr for v in VARIABLES if v.orientation is None]
    least: dict = {}
    for r in ranked:  # ascending EUI, so the first design of a group is its least
        least.setdefault(tuple(getattr(r.design, a) for a in shared), r.eui)
    lists = [candidates for name, candidates in space.candidate_lists() if name in shared]
    for b, group in zip(bound, itertools.product(*lists), strict=True):
        assert b <= least[group]
    assert ranked[-1].eui <= scale


def test_the_overflow_guard_holds_at_any_gain_utilization(baseline_spec, climate, catalog,
                                                          baseline_calibration, tariff):
    """With every winter gain offsetting heating and 5e305 kWh/m2 on each facade, an
    unshaded facade's heating term is so negative that some designs' heating sums
    overflow to -inf, while every fully shaded design stays finite. The space is refused,
    rather than ranked without the overflowed designs; at the bundled utilization the
    same space is ranked."""
    climate = dataclasses.replace(climate, cooling_degree_days=(0.0,) * 12,
                                  irradiation={o: 5e305 for o in "NSEW"})
    space = _small_space(wwr={o: (0.5,) for o in "NSEW"},
                         overhang_ratio={o: (0.0, 3.0) for o in "NSEW"},
                         lighting_technologies=(LightingTechnology.LED,),
                         hvac_ids=("heat_pump",))

    def best():
        return optimize(baseline_spec, climate, catalog, space, NO_LIMITS, k=1,
                        calib=baseline_calibration, tariff=tariff)[0]

    assert math.isfinite(best().eui)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy_module, "HEATING_GAIN_UTILIZATION", 1.0)
        with pytest.raises(ValueError, match="^the spec's areas, volume or loads overflow "
                                             "the designs' EUI$"):
            best()


@pytest.mark.parametrize("k", [1, 2])
def test_a_space_whose_greatest_loads_alone_overflow_is_refused(k, baseline_spec, climate,
                                                                catalog, baseline_calibration,
                                                                tariff):
    """A south wall of 5e306 m2 overflows the cooling load through all-glass glazing, not
    through an opaque wall: every group's bound is finite and only the greatest terms'
    EUI is not. The space is refused, rather than ranking the opaque design alone at
    k = 1 or blaming the tariff for the overflowed design's cost at k = 2."""
    spec = dataclasses.replace(baseline_spec, orientations=tuple(
        dataclasses.replace(g, gross_wall_area=5e306) if g.orientation == "S" else g
        for g in baseline_spec.orientations))
    climate = dataclasses.replace(climate, irradiation={**climate.irradiation, "S": 0.0})
    space = _small_space(wwr={"N": (0.30,), "S": (0.0, 1.0), "E": (0.25,), "W": (0.25,)})
    with pytest.raises(ValueError, match="^the spec's areas, volume or loads overflow "
                                         "the designs' EUI$"):
        optimize(spec, climate, catalog, space, NO_LIMITS, k=k, calib=baseline_calibration,
                 tariff=tariff)


def _fields(ranked):
    return [(r.rank, r.design, r.pareto, *map(float.hex, (r.eui, r.cost_per_m2, r.electricity,
                                                           r.gas))) for r in ranked]


@st.composite
def _near_tied_spaces(draw):
    """Tied spaces whose infiltration candidates may be nudged by 1e-12 ach, so
    some EUIs nearly tie."""
    space = draw(_tied_spaces())
    return dataclasses.replace(space, infiltration=tuple(
        v + draw(st.sampled_from([0.0, 1e-12])) for v in space.infiltration))


@settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
@given(space=_near_tied_spaces(),
       k_kind=st.sampled_from(["one", "middle", "all but one"]), data=st.data())
def test_pruned_top_k_equals_a_full_score_and_sort(space, k_kind, data, baseline_spec,
                                                   climate, catalog, baseline_calibration,
                                                   tariff):
    """Every field of a pruned top k is bitwise the head of the full ranking, whose
    length is the count of designs that pass the reference code check.

    The limits keep some design legal. The chunk is drawn against the space's group
    size. Below one group each call scores one group; at 2-3 groups the calls can grow
    from ceil(k / group size) groups by a doubling, pruned by the k-th EUI held; at the
    whole space one call scores every group."""
    limits = data.draw(_limits_keeping_a_design(space))
    feasible = sum(not code_check(d, limits) for d in enumerate_designs(space))
    k = {"one": 1, "middle": feasible // 2 + 1, "all but one": max(1, feasible - 1)}[k_kind]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize_module, "CHUNK_SIZE", _draw_chunk(data, space, limits))
        full = optimize(baseline_spec, climate, catalog, space, limits, k=space.size,
                        calib=baseline_calibration, tariff=tariff)
        calls = _kernel_calls(mp)
        ranked = optimize(baseline_spec, climate, catalog, space, limits, k=k,
                          calib=baseline_calibration, tariff=tariff)
    _label(space, feasible, calls)
    assert len(full) == feasible
    assert _fields(ranked) == _fields(full[:k])


def _scored_designs(k, space, limits, *context):
    """The designs optimize hands to the kernel, summed over its calls; the
    returned designs are not built."""
    with pytest.MonkeyPatch.context() as mp:
        counts = _kernel_calls(mp)
        mp.setattr(optimize_module, "_design_from_digits", lambda lists, digits: None)
        optimize(*context[:3], space, limits, k, *context[3:])
    return sum(counts)


@pytest.mark.parametrize("k", [108, 300])
def test_calls_grow_from_k_by_doubling_up_to_a_chunk(k, paper_space, baseline_spec, climate,
                                                     catalog, baseline_calibration, tariff):
    """With chunks of 432 designs the paper space's 20,736 code-legal designs are 192
    groups of 108, at most 4 per call. The first call takes the ceil(k / 108) groups
    that can hold k rows, each later one twice as many up to 4; the last stops at the
    last group that can rank. Scoring from the fewest groups up changes no field of
    the ranking."""
    space, limits = paper_space
    context = (baseline_spec, climate, catalog, baseline_calibration, tariff)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize_module, "CHUNK_SIZE", 432)
        units = _kernel_calls(mp)
        ranked = optimize(*context[:3], space, limits, k, *context[3:])
    units = [designs / 108 for designs in units]
    full = optimize(*context[:3], space, limits, 20_736, *context[3:])
    schedule = [min(math.ceil(k / 108) << i, 4) for i in range(len(units))]
    assert len(units) >= 3
    assert units[:-1] == schedule[:-1] and 1 <= units[-1] <= schedule[-1]
    assert _fields(ranked) == _fields(full[:k])


@pytest.mark.parametrize("chunk", [3, 40, 100])
def test_a_chunk_below_one_group_scores_one_whole_group_per_call(
        chunk, paper_space, baseline_spec, climate, catalog, baseline_calibration, tariff):
    """A group of the paper space is its 108 code-legal orientation designs. A chunk
    smaller than that still takes one whole group per kernel call, never part of one."""
    space, limits = paper_space
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize_module, "CHUNK_SIZE", chunk)
        counts = _kernel_calls(mp)
        mp.setattr(optimize_module, "_design_from_digits", lambda lists, digits: None)
        optimize(baseline_spec, climate, catalog, space, limits, 20_736, baseline_calibration,
                 tariff)
    assert counts == [108] * 192


def test_pruning_scores_fewer_designs_only_when_k_is_below_the_feasible_count(
        baseline_spec, climate, catalog, baseline_calibration, tariff):
    """The space of test_sweep_memory_is_bounded_by_the_chunk: 279,936 code-legal
    designs, units of 2,916, up to 11 per kernel call. At k = 10 the first call is one
    unit, and its 10th least EUI prunes every other unit. At k = 20,000 the calls
    after the first stop at the last unit that can rank, so fewer than two whole
    calls are scored."""
    grid = {o: (0.2, 0.3, 0.4, 0.5) for o in "NSEW"}
    space = DesignSpace(
        wwr=grid, overhang_ratio={"N": (0.0, 0.25, 0.5), "S": (0.0, 0.25, 0.5),
                                  "E": (0.0, 0.5), "W": (0.0, 0.5)},
        glazing_ids=("sgl_clr", "dbl_clr", "dbl_loe"),
        wall_ids=("wall_uninsulated", "wall_sip_12in"),
        roof_ids=("roof_concrete", "roof_sip_10in"), infiltration=(0.4, 1.0),
        lighting_technologies=tuple(LightingTechnology),
        hvac_ids=("vav_baseline", "heat_pump"))
    limits = CodeLimits(*[OrientationLimit(max_wwr=0.45, strict=True)] * 4)
    context = (baseline_spec, climate, catalog, baseline_calibration, tariff)
    assert _scored_designs(10, space, limits, *context) == 2_916
    assert _scored_designs(20_000, space, limits, *context) < 2 * 32_076
    assert _scored_designs(279_936, space, limits, *context) == 279_936


def test_a_group_tied_with_the_kth_eui_is_still_scored(baseline_spec, climate, catalog,
                                                       baseline_calibration, tariff):
    """Two one-design groups of equal EUI; the second is cheaper (gas heating).

    Its bound equals its EUI, which is the k-th EUI once the first group is
    scored, so only a cut that keeps bounds equal to it keeps it from being pruned. A
    second group of clearly higher EUI (the VAV system) is pruned as soon as the
    first call holds k rows.
    """
    gas_pump = dataclasses.replace(catalog.hvac_systems["heat_pump"], heating_fuel=HeatingFuel.GAS)
    catalog = dataclasses.replace(catalog,
                                  hvac_systems={**catalog.hvac_systems, "gas_pump": gas_pump})
    space = _small_space(
        wwr={"N": (0.25,), "S": (0.1,), "E": (0.5,), "W": (0.1,)},
        overhang_ratio={"N": (0.5,), "S": (0.0,), "E": (0.0,), "W": (0.0,)},
        glazing_ids=("dbl_loe",), infiltration=(0.4,),
        lighting_technologies=(LightingTechnology.LED,), hvac_ids=("heat_pump", "gas_pump"))
    context = (baseline_spec, climate, catalog, baseline_calibration, tariff)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimize_module, "CHUNK_SIZE", 1)  # one group per kernel call
        assert _scored_designs(1, space, NO_LIMITS, *context) == 2
        worse = dataclasses.replace(space, hvac_ids=("heat_pump", "vav_baseline"))
        assert _scored_designs(1, worse, NO_LIMITS, *context) == 1
        first, second = optimize(*context[:3], space, NO_LIMITS, 2, *context[3:])
        (best,) = optimize(*context[:3], space, NO_LIMITS, 1, *context[3:])
    assert first.eui == second.eui and first.cost_per_m2 < second.cost_per_m2
    assert best.design.hvac_id == "gas_pump"


def _capped_space(max_wwr_n: float) -> tuple[DesignSpace, CodeLimits]:
    """4,194,304 enumerated designs; 524,288 code-legal per N wwr below ``max_wwr_n``."""
    grid = (0.2, 0.3, 0.4, 0.5)
    space = DesignSpace(
        wwr={"N": (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8), "S": grid, "E": grid, "W": grid},
        overhang_ratio={o: (0.0, 0.25, 0.5, 1.0) for o in "NSEW"},
        glazing_ids=("sgl_clr", "dbl_clr", "dbl_loe", "sgl_clr"),
        wall_ids=("wall_uninsulated", "wall_sip_12in"), roof_ids=("roof_concrete",),
        infiltration=(0.4, 1.0), lighting_technologies=tuple(LightingTechnology),
        hvac_ids=("vav_baseline",))
    return space, CodeLimits(north=OrientationLimit(max_wwr=max_wwr_n, strict=True))


@pytest.mark.parametrize("max_wwr_n, legal", [(0.15, 524_288), (0.25, 1_048_576)])
def test_the_cap_counts_code_legal_designs(max_wwr_n, legal, baseline_spec, climate, catalog,
                                           baseline_calibration, tariff):
    """The cap applies to the designs the sweep evaluates, not to the enumerated space."""
    space, limits = _capped_space(max_wwr_n)
    assert space.size == 4_194_304 > optimize_module.DEFAULT_ENUMERATION_CAP

    def sweep():
        return optimize(baseline_spec, climate, catalog, space, limits, k=3,
                        calib=baseline_calibration, tariff=tariff)

    if legal <= optimize_module.DEFAULT_ENUMERATION_CAP:
        ranked = sweep()
        assert [r.rank for r in ranked] == [1, 2, 3]
        assert not any(code_check(r.design, limits) for r in ranked)
    else:
        with pytest.raises(DesignSpaceTooLarge, match=f"{legal} code-legal designs"):
            sweep()


@pytest.mark.parametrize("doc, limits", [
    pytest.param({"S": {"max_wwr": None, "min_wwr": 0.2, "max_overhang": None}},
                 CodeLimits(south=OrientationLimit(min_wwr=0.2)), id="null-bound-sets-no-limit"),
    pytest.param({"E": {"max_wwr": 0.35}},
                 CodeLimits(east=OrientationLimit(max_wwr=0.35, strict=True)),
                 id="absent-strict-is-true"),
    pytest.param({"N": {"max_wwr": 0.45, "strict": False}},
                 CodeLimits(north=OrientationLimit(max_wwr=0.45, strict=False)),
                 id="absent-orientation-sets-no-limits"),
])
def test_code_limits_read_their_defaults(doc, limits):
    assert CodeLimits.from_doc(doc) == limits


@pytest.mark.parametrize("limit, message", [
    (OrientationLimit(max_wwr=math.nan), "code_limits.N.max_wwr must be finite, got nan"),
    (OrientationLimit(min_overhang=math.inf),
     "code_limits.N.min_overhang must be finite, got inf"),
])
def test_optimize_names_a_code_limit_built_in_code_that_breaks_its_rule(
        limit, message, baseline_spec, climate, catalog, baseline_calibration, tariff):
    """A bound that is not a finite number is named as a file's bound is; before, it
    rejected every candidate and was reported as an empty feasible set."""
    with pytest.raises(SpecError) as err:
        optimize(baseline_spec, climate, catalog, _small_space(), CodeLimits(north=limit),
                 k=1, calib=baseline_calibration, tariff=tariff)
    assert str(err.value) == message
