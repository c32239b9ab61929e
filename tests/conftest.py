import dataclasses
import itertools
import math

import pytest
from hypothesis import strategies as st
from reference_model import alarm_transition

from lowcarb import (
    BuildingSpec,
    DesignSpace,
    EnvelopeGroup,
    GlazingOption,
    HvacSystem,
    LightingSystem,
    OpaqueConstruction,
    Orientation,
    load_catalog,
    load_climate_profile,
    load_sensor_fleet,
    load_tariff,
    parse_building_spec,
    read_fixture,
)
from lowcarb.energy import EndUseTargets, load_calibration
from lowcarb.model import HeatingFuel, LightingTechnology, Roof
from lowcarb.node import AlarmState, EnvSample, NodeConfig, NodePanel, initial_state, simulate


@pytest.fixture(scope="session")
def baseline_text():
    return read_fixture("baseline_school.json")


@pytest.fixture(scope="session")
def baseline_spec(baseline_text):
    return parse_building_spec(baseline_text)


@pytest.fixture(scope="session")
def baseline_calibration(baseline_text):
    return load_calibration(baseline_text)


@pytest.fixture(scope="session")
def retrofit_text():
    return read_fixture("retrofit_package.json")


@pytest.fixture(scope="session")
def retrofit_spec(retrofit_text):
    return parse_building_spec(retrofit_text)


@pytest.fixture(scope="session")
def climate():
    return load_climate_profile(read_fixture("gd_climate.csv"))


@pytest.fixture(scope="session")
def catalog():
    return load_catalog(read_fixture("catalog.csv"))


@pytest.fixture(scope="session")
def tariff():
    return load_tariff(read_fixture("paper_tariff.json"))


@pytest.fixture(scope="session")
def fleet():
    return load_sensor_fleet(read_fixture("sensor_fleet.json"))


@pytest.fixture(scope="session")
def paper_space():
    return DesignSpace.from_json(read_fixture("paper_space.json"))


@pytest.fixture(scope="session")
def baseline_targets():
    return EndUseTargets.from_json(read_fixture("baseline_targets.json"))


# ---------------------------------------------------------------------------
# random valid building specs
# ---------------------------------------------------------------------------

_positive = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False,
                      allow_infinity=False)
_fraction = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def building_specs(draw):
    wall = OpaqueConstruction(draw(st.text("abcw", min_size=1, max_size=6)),
                              draw(st.floats(0.05, 10.0)), draw(st.floats(0.1, 5.0)))
    glazing = GlazingOption(draw(st.text("defg", min_size=1, max_size=6)),
                            draw(st.floats(0.5, 7.0)), draw(_fraction),
                            draw(_fraction), draw(st.floats(0.1, 5.0)))
    groups = tuple(
        EnvelopeGroup(Orientation(o), draw(st.floats(0, 2000.0)), draw(_fraction),
                      wall, glazing, draw(st.floats(0, 2.0)))
        for o in ("N", "S", "E", "W"))
    return BuildingSpec(
        name=draw(st.text(min_size=1, max_size=12)),
        floor_area=draw(_positive),
        conditioned_volume=draw(_positive),
        storeys=draw(st.integers(1, 40)),
        orientations=groups,
        roof=Roof(OpaqueConstruction("roof", draw(st.floats(0.05, 10.0))),
                  draw(st.floats(0, 5000.0))),
        infiltration=draw(st.floats(0, 5.0)),
        occupancy_hours=draw(st.floats(0, 8760.0)),
        equipment_power_density=draw(st.floats(0, 50.0)),
        lighting=LightingSystem(draw(st.sampled_from(list(LightingTechnology))),
                                draw(st.floats(0, 200.0)), draw(st.integers(0, 5000)),
                                draw(st.floats(0, 8760.0)), draw(_fraction)),
        hvac=HvacSystem(draw(st.floats(0.5, 8.0)), draw(st.floats(0.3, 6.0)),
                        draw(st.sampled_from(list(HeatingFuel)))),
    )


def alarm_columns(readings, threshold, hysteresis, start=AlarmState.IDLE):
    """The alarm state after each of ``readings`` from ``start``, as simulate's alarm column
    gives it and as reference_model.alarm_transition folds it: a pair of lists."""
    config = NodeConfig(NodePanel(6.0, 12.0, 0.5), 16.28, 0.5, (), threshold, 0.5, hysteresis)
    trace = [EnvSample(0.0, reading, i + 1.0) for i, reading in enumerate(readings)]
    result = simulate(config, trace, 60.0, dataclasses.replace(initial_state(config), alarm=start))
    folded = itertools.accumulate(
        readings, lambda alarm, reading: alarm_transition(alarm, reading, threshold, hysteresis),
        initial=start)
    return [AlarmState.ALARM if a else AlarmState.IDLE for a in result.alarm_col], [*folded][1:]


def dotted(path):
    """A key path as the loaders name it, e.g. ``sensor_loads[0].name``."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)[1:]


def outside(rule):
    """Values just outside the interval ``rule``: the next float past each closed finite
    end, each open finite end itself, then -inf, inf and NaN."""
    ends = [(rule.low, rule.ends[0] == "[", -math.inf), (rule.high, rule.ends[1] == "]", math.inf)]
    return [math.nextafter(end, away) if closed else float(end)
            for end, closed, away in ends if math.isfinite(end)] + [-math.inf, math.inf, math.nan]
