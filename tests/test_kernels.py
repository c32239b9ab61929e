"""The batch sweep and the node trace fold agree with their scalar references."""

import dataclasses

import pytest
from conftest import building_specs
from hypothesis import given, settings, strategies as st

from lowcarb import (
    AlarmState,
    DesignSpace,
    EnvSample,
    annual_cost,
    annual_end_use,
    apply_design,
    eui,
    optimize,
    simulate,
    step,
)
from lowcarb import _kernels
from lowcarb.energy import CalibrationParams
from lowcarb.model import LightingTechnology
from lowcarb.node import NodeConfig, NodePanel, initial_state
from lowcarb.optimize import CodeLimits
from reference_model import alarm_transition


def assert_sweep_matches_scalar_engine(space, spec, climate, catalog, calib, tariff,
                                       slice_=None):
    """Returns the scalar engine's reports, one per design.

    With ``slice_`` set the kernel gathers and scores that many designs per pass, so
    the sweep spans many slices, the last one short; its ranking must equal the one
    that the default slice gives, to the bit."""
    def sweep():
        return optimize(spec, climate, catalog, space, CodeLimits(),
                        k=space.size, calib=calib, tariff=tariff)

    ranked = sweep()
    if slice_ is not None:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_kernels, "_SLICE", slice_)
            assert list(map(dataclasses.astuple, sweep())) == list(map(dataclasses.astuple,
                                                                       ranked))
    assert len(ranked) == space.size
    reports = []
    for r in ranked:
        applied = apply_design(spec, r.design, catalog)
        report = annual_end_use(applied, climate, calib,
                                gas_energy_content=tariff.gas_energy_content)
        assert r.eui == eui(report, spec.floor_area)
        assert r.electricity == report.electricity
        assert r.gas == report.gas
        assert r.cost_per_m2 == annual_cost(report, tariff, spec.floor_area)
        reports.append(report)
    return reports


@pytest.mark.parametrize("slice_", [None, 1, 7], ids=["default-slice", "slice-1", "slice-7"])
@pytest.mark.parametrize("gain, clamped", [(None, 0), (30.0, 184), (300.0, 256)],
                         ids=["baseline", "gain-30", "gain-300"])
def test_batch_energy_matches_scalar_engine(baseline_spec, climate, catalog,
                                            baseline_calibration, tariff, gain, clamped,
                                            slice_, monkeypatch):
    """The vectorized sweep and the reference engine are the same model, also
    where the heating clamp binds: for ``clamped`` of the 256 designs at an
    internal-gain multiplier of 30, and for all at 300. Both fuels are in the space.
    The kernel gets the 256 positions in one call, in bound order, not ascending; at a
    slice of 1 or 7 designs they span 256 or 37 passes.
    """
    calib = baseline_calibration if gain is None else dataclasses.replace(
        baseline_calibration, internal_gain_multiplier=gain)
    space = DesignSpace(
        wwr={"N": (0.30, 0.2), "S": (0.24, 0.5), "E": (0.25,), "W": (0.25,)},
        overhang_ratio={"N": (0.0,), "S": (0.0, 1.0 / 3.0), "E": (0.0,), "W": (0.25,)},
        glazing_ids=("sgl_clr", "dbl_loe"),
        wall_ids=("wall_uninsulated", "wall_sip_12in"),
        roof_ids=("roof_concrete",),
        infiltration=(1.0, 0.6),
        lighting_technologies=(LightingTechnology.INCANDESCENT, LightingTechnology.LED),
        hvac_ids=("vav_baseline", "heat_pump"),
    )
    calls, kernel = [], _kernels.batch_energy
    monkeypatch.setattr(_kernels, "batch_energy", lambda facade, group, position, *a:
                        calls.append(position.tolist()) or kernel(facade, group, position, *a))
    reports = assert_sweep_matches_scalar_engine(space, baseline_spec, climate, catalog,
                                                 calib, tariff, slice_)
    assert sum(r.heating == 0.0 for r in reports) == clamped
    assert len(calls[0]) == 256 and calls[0] != sorted(calls[0])


def _candidates(elements):
    return st.lists(elements, min_size=1, max_size=2, unique=True).map(tuple)


@st.composite
def design_spaces(draw, catalog):
    fraction = st.floats(0.0, 1.0, allow_nan=False)
    overhang = st.floats(0.0, 3.0, allow_nan=False)
    return DesignSpace(
        wwr={o: draw(_candidates(fraction)) for o in "NSEW"},
        overhang_ratio={o: draw(_candidates(overhang)) for o in "NSEW"},
        glazing_ids=draw(_candidates(st.sampled_from(sorted(catalog.glazings)))),
        wall_ids=draw(_candidates(st.sampled_from(sorted(catalog.constructions)))),
        roof_ids=draw(_candidates(st.sampled_from(sorted(catalog.constructions)))),
        infiltration=draw(_candidates(st.floats(0.0, 3.0, allow_nan=False))),
        lighting_technologies=draw(_candidates(st.sampled_from(
            [LightingTechnology(t) for t in sorted(catalog.lamp_powers)]))),
        hvac_ids=draw(_candidates(st.sampled_from(sorted(catalog.hvac_systems)))),
    )


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batch_energy_matches_scalar_engine_on_random_spaces(
        data, climate, catalog, tariff):
    space = data.draw(design_spaces(catalog))
    spec = data.draw(building_specs())
    multiplier = st.floats(0.0, 20.0)
    calib = CalibrationParams(data.draw(multiplier), data.draw(multiplier), data.draw(multiplier))
    assert_sweep_matches_scalar_engine(space, spec, climate, catalog, calib, tariff,
                                       data.draw(st.sampled_from([None, 1, 7])))


# small integer readings and settings land on the threshold and on the edge
# of the hysteresis band often
@settings(max_examples=50, deadline=None)
@given(
    samples=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 20).map(float)),
                     min_size=1, max_size=60),
    threshold=st.integers(0, 20).map(float),
    hysteresis=st.integers(0, 10).map(float),
    load_w=st.floats(0.0, 8.0),
    alarm_w=st.floats(0.0, 4.0),
    dt=st.floats(1.0, 7200.0),
)
def test_step_fold_reproduces_simulate(samples, threshold, hysteresis, load_w, alarm_w, dt):
    config = NodeConfig(NodePanel(6.0, 12.0, 0.5), 16.28, load_w, (), threshold, alarm_w,
                        hysteresis=hysteresis, charge_efficiency=0.9)
    trace = [EnvSample(irr, rain, (i + 1) * dt) for i, (irr, rain) in enumerate(samples)]
    result = simulate(config, trace, dt=dt)

    state = initial_state(config)
    alarm = AlarmState.IDLE
    for i, sample in enumerate(trace):
        state = step(state, config, sample, dt)
        alarm = alarm_transition(alarm, sample.rain_reading, threshold, hysteresis)
        assert state.soc == result.soc[i]
        assert state.alarm is (AlarmState.ALARM if result.alarm[i] else AlarmState.IDLE)
        assert state.harvest_power == result.harvest_w[i]
        assert state.load_power == result.load_w[i]
        assert alarm is state.alarm

