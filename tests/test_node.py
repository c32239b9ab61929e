import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lowcarb import (
    AlarmState,
    EnvSample,
    NodeConfig,
    alarm_transition,
    fleet_annual_energy,
    read_fixture,
    simulate,
    step,
)
from lowcarb.model import SensorEntry, SensorFleet, SpecError
from lowcarb.node import TraceError, initial_state, load_node_config, load_trace

BATTERY_WH = 16.28  # 2.2 Ah x 7.4 V


def make_config(load_w=0.5, alarm_w=0.0, threshold=1e9, hysteresis=0.0,
                capacity=BATTERY_WH) -> NodeConfig:
    return NodeConfig(
        panel_rated_power=6.0, panel_rated_voltage=12.0, panel_rated_current=0.5,
        battery_capacity=capacity, controller_idle_power=load_w, sensor_loads=(),
        rain_threshold=threshold, alarm_power=alarm_w, hysteresis=hysteresis)


def make_trace(hours, irradiance=0.0, rain=0.0, dt=3600.0):
    n = int(hours * 3600 / dt)
    irr = irradiance if callable(irradiance) else (lambda t: irradiance)
    rn = rain if callable(rain) else (lambda t: rain)
    return [EnvSample(irradiance_fraction=irr(i * dt), rain_reading=rn(i * dt),
                      timestamp=(i + 1) * dt)
            for i in range(n)]


class TestStep:
    def test_full_battery_stays_clamped_in_sun(self):
        config = make_config(load_w=0.0)
        state = initial_state(config)
        nxt = step(state, config, EnvSample(1.0, 0.0, 60.0), dt=3600.0)
        assert nxt.soc == 1.0
        assert nxt.harvest_power == pytest.approx(6.0)

    def test_one_dark_hour_at_half_watt(self):
        config = make_config(load_w=0.5)
        state = initial_state(config)
        nxt = step(state, config, EnvSample(0.0, 0.0, 60.0), dt=3600.0)
        assert nxt.soc == pytest.approx(1.0 - 0.5 / BATTERY_WH, rel=1e-12)
        assert nxt.soc == pytest.approx(0.9693, abs=5e-5)

    def test_charging_in_full_sun(self):
        import dataclasses
        config = make_config(load_w=0.5)
        state = dataclasses.replace(initial_state(config), soc=0.5)
        nxt = step(state, config, EnvSample(1.0, 0.0, 120.0), dt=3600.0)
        assert nxt.soc == pytest.approx(0.5 + 5.5 / BATTERY_WH, rel=1e-12)
        assert nxt.soc == pytest.approx(0.8378, abs=5e-5)

    def test_nonpositive_dt_rejected(self):
        config = make_config()
        with pytest.raises(ValueError, match="dt"):
            step(initial_state(config), config, EnvSample(0.0, 0.0, 1.0), dt=0.0)


class TestAlarmTransition:
    def test_fires_exactly_at_threshold(self):
        assert alarm_transition(AlarmState.IDLE, 500.0, 500.0, 0.0) is AlarmState.ALARM

    def test_idle_below_threshold(self):
        assert alarm_transition(AlarmState.IDLE, 0.0, 500.0, 0.0) is AlarmState.IDLE

    def test_hysteresis_holds_alarm(self):
        # reading = threshold - hysteresis/2 stays inside the holding band
        assert alarm_transition(AlarmState.ALARM, 475.0, 500.0, 50.0) is AlarmState.ALARM

    def test_releases_below_band(self):
        assert alarm_transition(AlarmState.ALARM, 449.0, 500.0, 50.0) is AlarmState.IDLE

    def test_negative_threshold_rejected(self):
        config = make_config(threshold=-1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            step(initial_state(config), config, EnvSample(0.0, 1.0, 60.0), dt=60.0)

    @given(reading=st.floats(0, 1000, allow_nan=False),
           threshold=st.floats(0, 1000, allow_nan=False))
    def test_zero_hysteresis_is_pure_comparator(self, reading, threshold):
        out_idle = alarm_transition(AlarmState.IDLE, reading, threshold, 0.0)
        out_alarm = alarm_transition(AlarmState.ALARM, reading, threshold, 0.0)
        expected = AlarmState.ALARM if reading >= threshold else AlarmState.IDLE
        assert out_idle is expected
        assert out_alarm is expected


class TestSimulate:
    def test_sunny_day_full_uptime(self):
        config = make_config(load_w=0.5)
        trace = make_trace(24, irradiance=lambda t: 1.0 if 6 * 3600 <= t < 18 * 3600 else 0.0)
        result = simulate(config, trace, dt=3600.0)
        assert result.uptime_fraction == 1.0
        # night draw 0.5 W x 12 h = 6 Wh, well inside a 16.28 Wh battery
        assert result.soc.min() >= 1.0 - 6.0 / BATTERY_WH - 1e-9

    def test_battery_only_runtime(self):
        config = make_config(load_w=0.5)
        trace = make_trace(40, irradiance=0.0, dt=60.0)
        result = simulate(config, trace, dt=60.0)
        unserved = np.nonzero(~result.served)[0]
        assert len(unserved) > 0
        runtime_h = unserved[0] * 60.0 / 3600.0
        assert runtime_h == pytest.approx(16.28 / 0.5, abs=0.1)  # 32.56 h
        assert runtime_h == pytest.approx(32.6, abs=0.1)

    def test_zero_load_never_drops(self):
        config = make_config(load_w=0.0)
        trace = make_trace(24, irradiance=lambda t: 0.5 if t < 12 * 3600 else 0.0)
        result = simulate(config, trace, dt=3600.0)
        assert result.uptime_fraction == 1.0
        assert np.all(np.diff(result.soc) >= -1e-15)

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError):
            simulate(make_config(), [], dt=60.0)

    def test_nonincreasing_timestamps_rejected(self):
        samples = [EnvSample(0.0, 0.0, 60.0), EnvSample(0.0, 0.0, 60.0)]
        with pytest.raises(TraceError, match="strictly increasing"):
            simulate(make_config(), samples, dt=60.0)

    def test_malformed_trace_row_rejected(self):
        text = "timestamp_s,irradiance_fraction,rain_reading\n60,not_a_number,0\n"
        with pytest.raises(TraceError, match="malformed trace row"):
            load_trace(text)

    def test_out_of_range_irradiance_rejected(self):
        samples = [EnvSample(1.4, 0.0, 60.0)]
        with pytest.raises(TraceError, match="irradiance_fraction"):
            simulate(make_config(), samples, dt=60.0)

    def test_alarm_drains_faster(self):
        quiet = make_trace(10, irradiance=0.0, rain=0.0)
        rainy = make_trace(10, irradiance=0.0, rain=900.0)
        config = make_config(load_w=0.5, alarm_w=0.5, threshold=500.0)
        soc_quiet = simulate(config, quiet, dt=3600.0).soc[-1]
        soc_rainy = simulate(config, rainy, dt=3600.0).soc[-1]
        assert soc_rainy < soc_quiet

    def test_split_and_resume_is_identity(self):
        config = make_config(load_w=0.4, alarm_w=0.3, threshold=500.0, hysteresis=50.0)
        rng = np.random.default_rng(42)
        n = 500
        samples = [EnvSample(float(irr), float(rain), float(i + 1) * 60.0)
                   for i, (irr, rain) in enumerate(zip(rng.random(n),
                                                       rng.uniform(0, 1000, n)))]
        full = simulate(config, samples, dt=60.0)
        first = simulate(config, samples[:200], dt=60.0)
        second = simulate(config, samples[200:], dt=60.0, initial=first.final_state)
        stitched = np.concatenate([first.soc, second.soc])
        assert np.array_equal(stitched, full.soc)
        stitched_alarm = np.concatenate([first.alarm, second.alarm])
        assert np.array_equal(stitched_alarm, full.alarm)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), load=st.floats(0, 3, allow_nan=False),
           capacity=st.floats(0.5, 50, allow_nan=False))
    def test_soc_stays_in_unit_interval(self, seed, load, capacity):
        rng = np.random.default_rng(seed)
        n = 200
        samples = [EnvSample(float(v), float(r), float(i + 1) * 60.0)
                   for i, (v, r) in enumerate(zip(rng.random(n),
                                                  rng.uniform(0, 1000, n)))]
        config = make_config(load_w=load, alarm_w=0.5, threshold=600.0,
                             capacity=capacity)
        result = simulate(config, samples, dt=60.0)
        assert float(result.soc.min()) >= 0.0
        assert float(result.soc.max()) <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_energy_ledger_closes(self, seed):
        rng = np.random.default_rng(seed)
        n = 300
        samples = [EnvSample(float(v), float(r), float(i + 1) * 60.0)
                   for i, (v, r) in enumerate(zip(rng.random(n),
                                                  rng.uniform(0, 1000, n)))]
        config = make_config(load_w=0.7, alarm_w=0.4, threshold=500.0, hysteresis=25.0)
        result = simulate(config, samples, dt=60.0)
        assert abs(result.ledger.residual) < 1e-9


class TestFleetAnnualEnergy:
    def test_bundled_fixture_totals_280(self, fleet):
        total = fleet_annual_energy(fleet)
        assert total == pytest.approx(280.0, rel=1e-9)

    def test_empty_fleet(self):
        assert fleet_annual_energy(SensorFleet(())) == 0.0

    def test_single_always_on_sensor(self):
        fleet = SensorFleet((SensorEntry("cam", 1, 10.0, 1.0),))
        assert fleet_annual_energy(fleet) == pytest.approx(87.6, rel=1e-12)


class TestNodeFiles:
    def test_demo_config_loads(self):
        config = load_node_config(read_fixture("node_demo.json"))
        assert config.panel_rated_power == pytest.approx(6.0)
        assert config.battery_capacity == pytest.approx(16.28)
        assert config.base_load == pytest.approx(0.25 + 0.10 + 0.05 + 0.075)

    def test_inconsistent_panel_rating_rejected(self):
        text = read_fixture("node_demo.json").replace('"rated_power_w": 6.0',
                                                      '"rated_power_w": 9.0')
        with pytest.raises(SpecError, match="panel rating"):
            load_node_config(text)

    def test_demo_trace_alarm_sequence(self):
        config = load_node_config(read_fixture("node_demo.json"))
        trace = load_trace(read_fixture("node_demo_trace.csv"))
        result = simulate(config, trace, dt=60.0)
        assert result.uptime_fraction == 1.0
        alarm = result.alarm.astype(bool)
        # alarm comes on at 13:00, holds through the 480-unit tail (hysteresis),
        # and releases only when the reading falls to 300
        assert not alarm[:13 * 60].any()
        assert alarm[13 * 60:14 * 60 + 30].all()
        assert not alarm[14 * 60 + 30:].any()
