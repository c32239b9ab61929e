"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s`` or in the
captured stdout of failures); assertions carry the tolerances, so a red test
is a failed criterion.
"""

import dataclasses
import random

import numpy as np
import pytest
from conftest import alarm_columns

from lowcarb import (
    EnvSample,
    PanelSpec,
    annual_cost,
    annual_end_use,
    annual_generation,
    annual_lighting_energy,
    apply_design,
    calibrate,
    economics,
    eui,
    fleet_annual_energy,
    luminaire_count,
    optimize,
    panel_count,
    parse_building_spec,
    read_fixture,
    serialize_building_spec,
    shading_factor,
    simulate,
)
from lowcarb.lighting import load_lamps, load_rooms
from lowcarb.node import AlarmState, NodeConfig, NodePanel
from lowcarb.optimize import DesignVariables
from reference_model import enumerate_designs

KWH_PER_GJ = 1000.0 / 3.6


def test_criterion_1_pv_chain(tariff):
    panel = PanelSpec(length=1.6, width=1.0, rated_power=300.0)
    count = panel_count(700.0, panel, 0.8)
    assert count == 350
    capacity_kw = count * panel.rated_power / 1000.0
    assert capacity_kw == pytest.approx(105.0)
    generation = annual_generation(capacity_kw, 1200.0)
    assert generation == pytest.approx(126_000.0)
    report = economics(generation, 30_283.0, tariff, 3.8, capacity_kw,
                       panel_count=count)
    assert report.bill_savings == pytest.approx(19_986.78, abs=0.005)
    assert report.surplus == pytest.approx(95_717.0)
    assert report.feed_in_revenue == pytest.approx(33_500.95, abs=0.005)
    assert report.total_benefit == pytest.approx(53_487.73, abs=0.01)
    assert report.capex == pytest.approx(399_000.0)
    assert report.payback == pytest.approx(7.46, abs=0.01)
    print(f"\nACCEPTANCE 1 PASS: pv chain 350 panels / 105 kW / 126,000 kWh / "
          f"payback {report.payback:.4f} yr")


def test_criterion_2_sensor_budget(fleet, tariff):
    total = fleet_annual_energy(fleet)
    assert total == pytest.approx(280.0, rel=1e-9)
    cost = total * tariff.electricity_price
    assert cost == pytest.approx(184.80, abs=0.005)
    assert abs(cost - 185.0) <= 1.0
    print(f"\nACCEPTANCE 2 PASS: sensor fleet {total:.6f} kWh/yr, "
          f"cost {cost:.2f} CNY (CNY 185 published)")


def test_criterion_3_lighting(retrofit_spec, baseline_spec):
    retrofit = annual_lighting_energy(500, 30.0, 2000.2, 0.0)
    baseline = annual_lighting_energy(500, 47.31, 2000.2, 0.0)
    assert retrofit == pytest.approx(108.01, rel=0.001)
    assert baseline == pytest.approx(170.33, rel=0.001)
    reduction_pct = (1.0 - retrofit / baseline) * 100.0
    assert reduction_pct == pytest.approx(36.59, abs=0.05)

    rooms = load_rooms(read_fixture("rooms.csv"))
    lamp = load_lamps(read_fixture("lamps.csv"))["led_linear_3600"]
    total_lamps = sum(luminaire_count(room, lamp) for room in rooms)
    assert total_lamps == pytest.approx(500, rel=0.10)
    print(f"\nACCEPTANCE 3 PASS: lighting {baseline:.4f} -> {retrofit:.4f} GJ "
          f"({reduction_pct:.4f}% cut), {total_lamps} luminaires")


def test_criterion_4_baseline_calibration(baseline_spec, climate, baseline_targets):
    params = calibrate(baseline_spec, climate, baseline_targets)
    report = annual_end_use(baseline_spec, climate, params)
    assert report.total == pytest.approx(1664.82, rel=0.005)
    shares = {name: getattr(report, name) / report.total * 100.0
              for name in ("lighting", "cooling", "heating", "equipment")}
    assert shares["lighting"] == pytest.approx(10.23, abs=0.5)
    assert shares["cooling"] == pytest.approx(68.94, abs=0.5)
    assert shares["heating"] == pytest.approx(7.52, abs=0.5)
    assert shares["equipment"] == pytest.approx(13.3, abs=0.5)
    baseline_eui = eui(report, 2612.7)
    assert baseline_eui == pytest.approx(177.0, abs=1.0)
    print(f"\nACCEPTANCE 4 PASS: baseline {report.total:.2f} GJ, shares "
          f"({shares['lighting']:.2f}, {shares['cooling']:.2f}, "
          f"{shares['heating']:.2f}, {shares['equipment']:.2f})%, "
          f"EUI {baseline_eui:.3f}")


def test_criterion_5_retrofit_endpoint(baseline_spec, retrofit_spec, climate,
                                       baseline_calibration, catalog):
    base_report = annual_end_use(baseline_spec, climate, baseline_calibration)
    base_eui = eui(base_report, baseline_spec.floor_area)

    retro_report = annual_end_use(retrofit_spec, climate, baseline_calibration)
    retro_eui = eui(retro_report, retrofit_spec.floor_area)
    assert retro_eui == pytest.approx(105.0, abs=5.0)

    saving_pct = (base_eui - retro_eui) / base_eui * 100.0
    assert saving_pct == pytest.approx(40.68, abs=3.0)

    # envelope measures alone: retrofit fabric, baseline lighting and HVAC
    envelope_only = DesignVariables(
        wwr_n=0.30, wwr_s=0.50, wwr_e=0.25, wwr_w=0.25,
        overhang_n=0.0, overhang_s=1.0 / 3.0, overhang_e=0.0, overhang_w=0.0,
        glazing_id="dbl_loe", wall_id="wall_sip_12in", roof_id="roof_sip_10in",
        infiltration=0.6, lighting_technology=baseline_spec.lighting.technology,
        hvac_id="vav_baseline")
    env_spec = apply_design(baseline_spec, envelope_only, catalog)
    env_report = annual_end_use(env_spec, climate, baseline_calibration)
    env_saving = base_eui - eui(env_report, baseline_spec.floor_area)
    assert env_saving == pytest.approx(29.0, abs=4.0)
    print(f"\nACCEPTANCE 5 PASS: retrofit EUI {retro_eui:.3f} "
          f"({saving_pct:.2f}% saving), envelope-only cut {env_saving:.2f} kWh/m2")


def test_criterion_5_optimizer_endpoint(baseline_spec, climate, catalog,
                                        baseline_calibration, tariff, paper_space):
    space, limits = paper_space
    ranked = optimize(baseline_spec, climate, catalog, space, limits,
                      k=space.size, calib=baseline_calibration, tariff=tariff)
    assert ranked[0].eui <= 110.0
    worst = ranked[-1].design
    baseline_point = DesignVariables(
        wwr_n=0.30, wwr_s=0.24, wwr_e=0.25, wwr_w=0.25,
        overhang_n=0.0, overhang_s=0.0, overhang_e=0.0, overhang_w=0.0,
        glazing_id="sgl_clr", wall_id="wall_uninsulated", roof_id="roof_concrete",
        infiltration=1.0, lighting_technology=baseline_spec.lighting.technology,
        hvac_id="vav_baseline")
    assert worst == baseline_point  # the do-nothing package ranks last
    print(f"\nACCEPTANCE 5 PASS (search): best of {space.size} designs "
          f"EUI {ranked[0].eui:.2f} <= 110, baseline design ranked last")


def test_criterion_6_cost_soft_check(baseline_spec, retrofit_spec, climate,
                                     baseline_calibration, tariff):
    """Soft check only: computed costs are reported next to the published
    102.8 -> 71.7 CNY/m2/yr pair, which no single fuel split reproduces."""
    base = annual_end_use(baseline_spec, climate, baseline_calibration,
                          gas_energy_content=tariff.gas_energy_content)
    retro = annual_end_use(retrofit_spec, climate, baseline_calibration,
                           gas_energy_content=tariff.gas_energy_content)
    cost_before = annual_cost(base, tariff, baseline_spec.floor_area)
    cost_after = annual_cost(retro, tariff, retrofit_spec.floor_area)
    assert cost_before > 0 and cost_after > 0
    assert cost_after < cost_before
    print(f"\nACCEPTANCE 6 (soft): cost {cost_before:.2f} -> {cost_after:.2f} "
          f"CNY/m2/yr (published 102.8 -> 71.7; informational only)")


class TestCriterion7Properties:
    """Deterministic spot versions of the property suites; the fuzzed
    versions live in the module test files."""

    def test_wwr_monotonicity(self, baseline_spec, climate, baseline_calibration):
        last = None
        for wwr in np.linspace(0.0, 1.0, 11):
            groups = tuple(dataclasses.replace(g, wwr=float(wwr), overhang_ratio=0.0)
                           for g in baseline_spec.orientations)
            spec = dataclasses.replace(baseline_spec, orientations=groups)
            report = annual_end_use(spec, climate, baseline_calibration)
            thermal = report.cooling + report.heating
            if last is not None:
                assert thermal >= last - 1e-9
            last = thermal

    def test_conduction_monotonicity_in_r(self, baseline_spec, climate,
                                          baseline_calibration):
        previous = None
        for r_value in (0.3, 0.5, 1.0, 2.0, 4.0):
            wall = dataclasses.replace(baseline_spec.orientations[0].wall,
                                       r_value=r_value)
            groups = tuple(dataclasses.replace(g, wall=wall)
                           for g in baseline_spec.orientations)
            spec = dataclasses.replace(baseline_spec, orientations=groups)
            report = annual_end_use(spec, climate, baseline_calibration)
            thermal = report.cooling + report.heating
            if previous is not None:
                assert thermal < previous
            previous = thermal

    def test_shading_factor_bounds_and_monotonicity(self):
        ratios = np.linspace(0, 2, 21)
        for alt in (5.0, 43.0, 60.0, 87.0):
            values = [shading_factor(float(r), alt) for r in ratios]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_report_sum_and_eui_identity(self, baseline_spec, climate,
                                         baseline_calibration):
        r = annual_end_use(baseline_spec, climate, baseline_calibration)
        assert r.total == r.lighting + r.cooling + r.heating + r.equipment
        area = baseline_spec.floor_area
        assert eui(r, area) * area == pytest.approx(r.total * KWH_PER_GJ, rel=1e-9)

    def test_optimizer_determinism_under_permutation(
            self, baseline_spec, climate, catalog, baseline_calibration, tariff):
        from lowcarb.optimize import CodeLimits, DesignSpace
        from lowcarb.model import LightingTechnology
        space = DesignSpace(
            wwr={"N": (0.30,), "S": (0.24, 0.4), "E": (0.25,), "W": (0.25,)},
            overhang_ratio={"N": (0.0,), "S": (0.0, 0.5), "E": (0.0,), "W": (0.0,)},
            glazing_ids=("sgl_clr", "dbl_loe"),
            wall_ids=("wall_uninsulated",),
            roof_ids=("roof_concrete",),
            infiltration=(1.0, 0.6),
            lighting_technologies=(LightingTechnology.INCANDESCENT,),
            hvac_ids=("vav_baseline", "heat_pump"),
        )
        designs = enumerate_designs(space)
        indexed = list(enumerate(designs))
        shuffled = []
        for seed in (0, 11, 99):
            perm = indexed[:]
            random.Random(seed).shuffle(perm)
            scored = []
            for idx, design in perm:
                applied = apply_design(baseline_spec, design, catalog)
                report = annual_end_use(applied, climate, baseline_calibration,
                                        gas_energy_content=tariff.gas_energy_content)
                scored.append((eui(report, baseline_spec.floor_area),
                               annual_cost(report, tariff, baseline_spec.floor_area),
                               idx))
            scored.sort()
            shuffled.append(tuple(t[2] for t in scored))
        assert shuffled[0] == shuffled[1] == shuffled[2]
        ranked = optimize(baseline_spec, climate, catalog, space, CodeLimits(),
                          k=len(designs), calib=baseline_calibration, tariff=tariff)
        assert tuple(designs.index(r.design) for r in ranked) == shuffled[0]

    def test_node_soc_bounds_on_fuzzed_trace(self):
        rng = np.random.default_rng(2024)
        samples = [EnvSample(float(v), float(r), float(i + 1) * 60.0)
                   for i, (v, r) in enumerate(zip(rng.random(2000),
                                                  rng.uniform(0, 1000, 2000)))]
        config = NodeConfig(NodePanel(6.0, 12.0, 0.5), 16.28, 0.8, (), 500.0, 0.5, 50.0)
        result = simulate(config, samples, dt=60.0)
        assert float(result.soc.min()) >= 0.0
        assert float(result.soc.max()) <= 1.0

    def test_node_ledger_closure(self):
        rng = np.random.default_rng(7)
        samples = [EnvSample(float(v), float(r), float(i + 1) * 60.0)
                   for i, (v, r) in enumerate(zip(rng.random(1440),
                                                  rng.uniform(0, 1000, 1440)))]
        config = NodeConfig(NodePanel(6.0, 12.0, 0.5), 16.28, 0.6, (), 500.0, 0.4, 25.0)
        result = simulate(config, samples, dt=60.0)
        assert abs(result.ledger.residual) < 1e-9

    def test_battery_only_runtime(self):
        config = NodeConfig(NodePanel(6.0, 12.0, 0.5), 16.28, 0.5, (), 1e9, 0.0)
        samples = [EnvSample(0.0, 0.0, float(i + 1) * 60.0) for i in range(2400)]
        result = simulate(config, samples, dt=60.0)
        first_down = int(np.nonzero(~result.served)[0][0])
        runtime_h = first_down * 60.0 / 3600.0
        assert runtime_h == pytest.approx(32.6, abs=0.1)

    def test_alarm_fsm_threshold_and_hysteresis(self):
        """simulate and the oracle fire at the threshold 500 and release below 500 - 50,
        one reading at a time and over the four readings in a row."""
        idle, alarm = AlarmState.IDLE, AlarmState.ALARM
        for start, reading, after in [(idle, 500.0, alarm), (idle, 499.9, idle),
                                      (alarm, 460.0, alarm), (alarm, 449.9, idle)]:
            assert alarm_columns([reading], 500.0, 50.0, start) == ([after], [after])
        assert alarm_columns([500.0, 499.9, 460.0, 449.9], 500.0, 50.0) == (
            [alarm, alarm, alarm, idle],) * 2

    def test_spec_file_roundtrip(self, baseline_spec, retrofit_spec):
        for spec in (baseline_spec, retrofit_spec):
            assert parse_building_spec(serialize_building_spec(spec)) == spec

    def test_summary_line(self):
        print("\nACCEPTANCE 7 PASS: property suites "
              "(monotonicity, identities, determinism, node bounds/ledger/runtime, "
              "alarm FSM, round-trip)")
