import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lowcarb import (
    CalibrationError,
    CalibrationParams,
    EnergyReport,
    SpecError,
    annual_cost,
    annual_end_use,
    calibrate,
    eui,
    shading_factor,
)
from lowcarb.energy import MJ_PER_KWH, EndUseTargets, end_use, season_terms, thermal_balance
from lowcarb.model import ClimateProfile

from test_model import _make_spec

KWH_PER_GJ = 1000.0 / 3.6


# ---------------------------------------------------------------------------
# shading_factor
# ---------------------------------------------------------------------------

class TestShadingFactor:
    def test_no_overhang_transmits_everything(self):
        assert shading_factor(0.0, 43.0) == 1.0

    def test_high_summer_sun_fully_shaded(self):
        # 1/3 * tan(87) = 6.36 >= 1
        assert shading_factor(1.0 / 3.0, 87.0) == 0.0

    def test_winter_sun_partially_transmitted(self):
        expected = 1.0 - math.tan(math.radians(43.0)) / 3.0  # 0.6891616...
        assert shading_factor(1.0 / 3.0, 43.0) == pytest.approx(expected, rel=1e-12)
        assert shading_factor(1.0 / 3.0, 43.0) == pytest.approx(0.689, abs=5e-4)

    @pytest.mark.parametrize("altitude", [0.0, 90.0, -5.0, 120.0])
    def test_domain_error_outside_open_interval(self, altitude):
        with pytest.raises(ValueError):
            shading_factor(0.5, altitude)

    def test_negative_ratio_rejected(self):
        with pytest.raises(ValueError):
            shading_factor(-0.1, 45.0)

    @pytest.mark.parametrize("ratio", [math.nan, math.inf, -1.0])
    def test_nonfinite_or_negative_ratio_rejected(self, ratio):
        """A NaN or infinite overhang used to give 0.0, full shade."""
        with pytest.raises(ValueError, match="overhang_ratio must be nonnegative and finite"):
            shading_factor(ratio, 45.0)

    @given(ratio=st.floats(0, 3, allow_nan=False),
           alt=st.floats(1, 89, allow_nan=False),
           d_ratio=st.floats(0, 1, allow_nan=False),
           d_alt=st.floats(0, 10, allow_nan=False))
    def test_bounded_and_monotone(self, ratio, alt, d_ratio, d_alt):
        base = shading_factor(ratio, alt)
        assert 0.0 <= base <= 1.0
        assert shading_factor(ratio + d_ratio, alt) <= base + 1e-12
        if alt + d_alt < 90:
            assert shading_factor(ratio, alt + d_alt) <= base + 1e-12


# ---------------------------------------------------------------------------
# end_use
# ---------------------------------------------------------------------------

# -0.0, the least subnormals, and loads of either sign up to 2^1000
_heating_loads = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324]),
                           st.floats(-2.0 ** 1000, 2.0 ** 1000, exclude_min=True,
                                     exclude_max=True))


@settings(max_examples=500)
@given(l_cool=st.floats(0.0, 1e12), l_heat=_heating_loads, lighting=st.floats(0.0, 1e9),
       equipment=st.floats(0.0, 1e9), cop=st.floats(0.1, 10.0), heat_eff=st.floats(0.1, 10.0),
       gas=st.booleans(), floor_area=st.floats(1.0, 1e6), gas_content=st.floats(1.0, 20.0))
def test_end_use_gives_the_same_bits_for_floats_and_arrays(
        l_cool, l_heat, lighting, equipment, cop, heat_eff, gas, floor_area, gas_content):
    """Scalar and one-element float64 inputs agree to the bit; the clamp is
    ``max(0.0, l_heat)`` and never gives -0.0; the fuel split is the if/else one."""
    args = (l_cool, l_heat, lighting, equipment, cop, heat_eff, gas, floor_area, gas_content)
    scalar = end_use(*args)
    array = end_use(*(np.array([float(a)]) for a in args))
    assert [x.hex() for x in scalar] == [float(x[0]).hex() for x in array]

    heating = max(0.0, l_heat) / heat_eff
    electricity = lighting + equipment + l_cool / cop
    gas_m3 = 0.0
    if gas:
        gas_m3 = heating / gas_content
    else:
        electricity += heating
    assert scalar[5].hex() == (heating * MJ_PER_KWH / 1000.0).hex()
    assert math.copysign(1.0, scalar[5]) == 1.0
    assert (scalar[1].hex(), scalar[2].hex()) == (electricity.hex(), gas_m3.hex())


# finite load terms of either sign, -0.0 and the least subnormals; five of them
# cannot overflow a sum
_terms = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324]), st.floats(-1e300, 1e300))


@settings(max_examples=500)
@given(core=st.tuples(_terms, _terms),
       facades=st.lists(st.tuples(_terms, _terms), min_size=4, max_size=4),
       which=st.integers(0, 3), lower=st.tuples(_terms, _terms))
def test_lowering_a_facade_term_never_raises_the_loads(core, facades, which, lower):
    """A rounded sum never grows when one of its terms shrinks: the sweep's group
    bounds, which add each facade's least terms, rest on this to the bit."""
    lowered = list(facades)
    lowered[which] = tuple(map(min, facades[which], lower))
    for low, high in zip(thermal_balance(core, lowered), thermal_balance(core, facades)):
        assert low <= high


@settings(max_examples=500)
@given(cool=st.tuples(_heating_loads, _heating_loads),
       heat=st.tuples(_heating_loads, _heating_loads), lighting=st.floats(0.0, 1e9),
       equipment=st.floats(0.0, 1e9), cop=st.floats(0.1, 10.0), heat_eff=st.floats(0.1, 10.0),
       gas=st.booleans(), floor_area=st.floats(1.0, 1e6), gas_content=st.floats(1.0, 20.0))
def test_end_use_eui_never_falls_as_a_load_rises(cool, heat, lighting, equipment, cop,
                                                 heat_eff, gas, floor_area, gas_content):
    """Also across the heating clamp: a group's bound, from its least loads, is at
    most the EUI of each of its designs."""
    def eui_at(l_cool, l_heat):
        return end_use(l_cool, l_heat, lighting, equipment, cop, heat_eff, gas, floor_area,
                       gas_content)[0]

    (c_low, c_high), (h_low, h_high) = sorted(cool), sorted(heat)
    assert eui_at(c_low, h_low) <= eui_at(c_low, h_high) <= eui_at(c_high, h_high)
    assert eui_at(c_low, h_low) <= eui_at(c_high, h_low) <= eui_at(c_high, h_high)


# ---------------------------------------------------------------------------
# annual_end_use
# ---------------------------------------------------------------------------

class TestAnnualEndUse:
    def test_calibrated_baseline_matches_published_split(
            self, baseline_spec, climate, baseline_calibration):
        report = annual_end_use(baseline_spec, climate, baseline_calibration)
        assert report.total == pytest.approx(1664.82, rel=0.005)
        shares = {
            "lighting": 10.23, "cooling": 68.94, "heating": 7.52, "equipment": 13.3,
        }
        for name, expected in shares.items():
            share = getattr(report, name) / report.total * 100.0
            assert share == pytest.approx(expected, abs=0.5)

    def test_degenerate_building_is_all_zero(self, climate):
        spec = _make_spec(infiltration=0.0, south_wwr=0.0)
        spec = dataclasses.replace(
            spec,
            orientations=tuple(dataclasses.replace(g, gross_wall_area=0.0, wwr=0.0)
                               for g in spec.orientations),
            roof=dataclasses.replace(spec.roof, area=0.0),
            equipment_power_density=0.0,
            lighting=dataclasses.replace(spec.lighting, lamp_power=0.0),
        )
        report = annual_end_use(spec, climate)
        assert report.lighting == 0.0
        assert report.cooling == 0.0
        assert report.heating == 0.0
        assert report.equipment == 0.0
        assert report.total == 0.0

    def test_retrofit_package_lands_near_105(self, retrofit_spec, climate,
                                             baseline_calibration):
        report = annual_end_use(retrofit_spec, climate, baseline_calibration)
        assert eui(report, retrofit_spec.floor_area) == pytest.approx(105.0, abs=5.0)

    def test_invalid_spec_cannot_be_built(self, baseline_spec):
        with pytest.raises(SpecError, match="^BuildingSpec.storeys "):
            dataclasses.replace(baseline_spec, storeys=0)

    def test_deterministic_bit_identical(self, baseline_spec, climate,
                                         baseline_calibration):
        a = annual_end_use(baseline_spec, climate, baseline_calibration)
        b = annual_end_use(baseline_spec, climate, baseline_calibration)
        assert a == b  # dataclass equality is exact float equality

    def test_orientation_file_order_is_irrelevant(self, baseline_spec, climate,
                                                  baseline_calibration):
        shuffled = dataclasses.replace(
            baseline_spec, orientations=tuple(reversed(baseline_spec.orientations)))
        assert annual_end_use(shuffled, climate, baseline_calibration) \
            == annual_end_use(baseline_spec, climate, baseline_calibration)

    def test_total_is_exact_component_sum(self, baseline_spec, climate,
                                          baseline_calibration):
        r = annual_end_use(baseline_spec, climate, baseline_calibration)
        assert r.total == r.lighting + r.cooling + r.heating + r.equipment

    def test_heating_zero_when_no_hdd(self, baseline_spec, baseline_calibration, climate):
        no_heat = ClimateProfile(
            cooling_degree_days=climate.cooling_degree_days,
            heating_degree_days=(0.0,) * 12,
            irradiation=climate.irradiation,
            summer_design_sun_altitude=climate.summer_design_sun_altitude,
            winter_design_sun_altitude=climate.winter_design_sun_altitude,
            pv_equivalent_full_sun_hours=climate.pv_equivalent_full_sun_hours,
        )
        report = annual_end_use(baseline_spec, no_heat, baseline_calibration)
        assert report.heating == 0.0
        assert report.gas == 0.0

    def test_climate_without_degree_days(self, baseline_spec, baseline_calibration, climate):
        # season_terms' guard: no degree-day mass gives no season shares, not 0/0
        mild = dataclasses.replace(climate, cooling_degree_days=(0.0,) * 12,
                                   heating_degree_days=(0.0,) * 12)
        assert season_terms(mild) == (0.0, 0.0, 0.0, 0.0)
        report = annual_end_use(baseline_spec, mild, baseline_calibration)
        assert all(map(math.isfinite, dataclasses.astuple(report)))
        assert (report.cooling, report.heating) == (0.0, 0.0)

    def test_fuel_attribution_gas_baseline(self, baseline_spec, climate,
                                           baseline_calibration, tariff):
        r = annual_end_use(baseline_spec, climate, baseline_calibration,
                           gas_energy_content=tariff.gas_energy_content)
        # lighting + equipment + cooling are electric; heating burns gas
        expected_elec = (r.lighting + r.cooling + r.equipment) * KWH_PER_GJ
        assert r.electricity == pytest.approx(expected_elec, rel=1e-12)
        assert r.gas == pytest.approx(r.heating * KWH_PER_GJ / tariff.gas_energy_content,
                                      rel=1e-12)

    def test_fuel_attribution_electric_retrofit(self, retrofit_spec, climate,
                                                baseline_calibration):
        r = annual_end_use(retrofit_spec, climate, baseline_calibration)
        assert r.gas == 0.0
        assert r.electricity == pytest.approx(r.total * KWH_PER_GJ, rel=1e-12)


class TestEngineMonotonicity:
    """Structural monotonicity of the thermal balance on the bundled climate."""

    @given(wwr_low=st.floats(0, 1, allow_nan=False),
           bump=st.floats(0, 1, allow_nan=False),
           orientation=st.sampled_from(["N", "S", "E", "W"]),
           glazing_id=st.sampled_from(["sgl_clr", "dbl_clr", "dbl_loe"]),
           wall_id=st.sampled_from(["wall_uninsulated", "wall_sip_12in"]))
    def test_thermal_energy_nondecreasing_in_wwr(
            self, wwr_low, bump, orientation, glazing_id, wall_id,
            baseline_spec, climate, baseline_calibration, catalog):
        """More unshaded glazing never lowers cooling+heating energy.

        Overhangs stay at zero here, matching the all-orientations sweep the
        claim comes from; lighting and equipment are fixed by construction.
        """
        wwr_high = min(1.0, wwr_low + bump)
        glazing = catalog.glazings[glazing_id]
        wall = catalog.constructions[wall_id]

        def thermal(wwr_value):
            groups = tuple(
                dataclasses.replace(
                    g, glazing=glazing, wall=wall, overhang_ratio=0.0,
                    wwr=wwr_value if g.orientation.value == orientation else g.wwr)
                for g in baseline_spec.orientations)
            spec = dataclasses.replace(baseline_spec, orientations=groups)
            r = annual_end_use(spec, climate, baseline_calibration)
            return r.cooling + r.heating

        assert thermal(wwr_high) >= thermal(wwr_low) - 1e-9

    @given(r_low=st.floats(0.2, 5, allow_nan=False),
           bump=st.floats(1e-6, 5, allow_nan=False))
    def test_conduction_strictly_decreasing_in_r(self, r_low, bump, baseline_spec,
                                                 climate, baseline_calibration):
        def total_thermal(r_value):
            wall = dataclasses.replace(baseline_spec.orientations[0].wall,
                                       r_value=r_value)
            groups = tuple(dataclasses.replace(g, wall=wall)
                           for g in baseline_spec.orientations)
            spec = dataclasses.replace(baseline_spec, orientations=groups)
            rep = annual_end_use(spec, climate, baseline_calibration)
            return rep.cooling + rep.heating

        assert total_thermal(r_low + bump) < total_thermal(r_low)


# ---------------------------------------------------------------------------
# eui / annual_cost
# ---------------------------------------------------------------------------

def _report_from_kwh(electricity_kwh=0.0, gas_m3=0.0, total_kwh=None):
    if total_kwh is None:
        total_kwh = electricity_kwh
    total_gj = total_kwh / KWH_PER_GJ
    return EnergyReport(lighting=0.0, cooling=0.0, heating=0.0, equipment=0.0,
                        total=total_gj, electricity=electricity_kwh, gas=gas_m3)


class TestEui:
    def test_case_study_totals(self):
        report = _report_from_kwh(total_kwh=1664.82 * KWH_PER_GJ)
        assert eui(report, 2612.7) == pytest.approx(462450.0 / 2612.7, rel=1e-12)
        assert eui(report, 2612.7) == pytest.approx(177.0, abs=0.01)

    def test_zero_energy(self):
        assert eui(_report_from_kwh(total_kwh=0.0), 123.0) == 0.0

    def test_lighting_only(self):
        report = _report_from_kwh(total_kwh=108.01 * KWH_PER_GJ)
        assert eui(report, 2612.7) == pytest.approx(11.48, abs=0.005)

    def test_identity_with_total(self, baseline_spec, climate, baseline_calibration):
        r = annual_end_use(baseline_spec, climate, baseline_calibration)
        area = baseline_spec.floor_area
        assert eui(r, area) * area == pytest.approx(r.total * KWH_PER_GJ, rel=1e-9)

    def test_nonpositive_area_rejected(self):
        with pytest.raises(ValueError):
            eui(_report_from_kwh(total_kwh=1.0), 0.0)


class TestAnnualCost:
    def test_all_electric_at_posted_rate(self, tariff):
        report = _report_from_kwh(electricity_kwh=177.0 * 2612.7)
        assert annual_cost(report, tariff, 2612.7) == pytest.approx(116.82, rel=1e-9)

    def test_zero_energy(self, tariff):
        assert annual_cost(_report_from_kwh(), tariff, 100.0) == 0.0

    def test_mixed_fuel_hand_arithmetic(self, tariff):
        report = _report_from_kwh(electricity_kwh=100_000.0, gas_m3=5_000.0)
        expected = (100_000 * 0.66 + 5_000 * 3.41) / 2612.7  # 31.787...
        assert annual_cost(report, tariff, 2612.7) == pytest.approx(expected, rel=1e-12)
        assert annual_cost(report, tariff, 2612.7) == pytest.approx(31.79, abs=0.005)

    def test_nonpositive_area_rejected(self, tariff):
        with pytest.raises(ValueError, match="floor_area must be > 0"):
            annual_cost(_report_from_kwh(electricity_kwh=1.0), tariff, 0.0)


def test_model_formulas_are_applied_only_in_energy():
    # the sweep and the group bound pass candidate values to lowcarb.energy, which
    # applies the calibration multipliers, the design sun altitudes, the prices and
    # the internal-gain product; a second copy in optimize or _kernels fails here
    import lowcarb

    read = {"schedule_multiplier", "equipment_multiplier", "summer_design_sun_altitude",
            "winter_design_sun_altitude", "electricity_price", "gas_price"}
    multiplied = {"gain_mult", "internal_gain_multiplier"}
    sites = []
    for module in ("optimize", "_kernels"):
        path = Path(lowcarb.__file__).parent / f"{module}.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in read:
                sites.append((module, node.lineno, node.attr))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                sites += [(module, node.lineno, ast.unparse(node))
                          for operand in (node.left, node.right)
                          if getattr(operand, "id", getattr(operand, "attr", None)) in multiplied]
    assert sites == []


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

class TestCalibrate:
    def test_reproduces_published_targets(self, baseline_spec, climate, baseline_targets):
        params = calibrate(baseline_spec, climate, baseline_targets)
        report = annual_end_use(baseline_spec, climate, params)
        assert report.lighting == pytest.approx(baseline_targets.lighting_gj, rel=0.005)
        assert report.cooling == pytest.approx(baseline_targets.cooling_gj, rel=0.005)
        assert report.heating == pytest.approx(baseline_targets.heating_gj, rel=0.005)
        assert report.equipment == pytest.approx(baseline_targets.equipment_gj, rel=0.005)

    def test_matches_frozen_fixture_values(self, baseline_spec, climate,
                                           baseline_targets, baseline_calibration):
        params = calibrate(baseline_spec, climate, baseline_targets)
        assert params.internal_gain_multiplier == pytest.approx(
            baseline_calibration.internal_gain_multiplier, rel=1e-9)
        assert params.schedule_multiplier == pytest.approx(
            baseline_calibration.schedule_multiplier, rel=1e-9)
        assert params.equipment_multiplier == pytest.approx(
            baseline_calibration.equipment_multiplier, rel=1e-9)

    def test_fixed_point_at_own_output(self, baseline_spec, climate):
        base = annual_end_use(baseline_spec, climate, CalibrationParams())
        targets = EndUseTargets(base.lighting, base.cooling, base.heating,
                                base.equipment)
        params = calibrate(baseline_spec, climate, targets)
        assert params.internal_gain_multiplier == pytest.approx(1.0, rel=1e-9)
        assert params.schedule_multiplier == pytest.approx(1.0, rel=1e-9)
        assert params.equipment_multiplier == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_target_built_in_code_is_named_with_its_value(self, value):
        with pytest.raises(SpecError) as err:
            EndUseTargets(170.0, value, 300.0, 200.0)
        assert str(err.value) == f"EndUseTargets.cooling_gj must be > 0 and finite, got {value!r}"

    def test_unreachable_targets_raise_with_residual(self, baseline_spec, climate):
        # gains cannot push heating up, so a huge heating target cannot be met
        targets = EndUseTargets(170.33, 1147.7, 5000.0, 221.4)
        with pytest.raises(CalibrationError) as err:
            calibrate(baseline_spec, climate, targets)
        assert err.value.best_residual > 0.005
