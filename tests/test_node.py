import dataclasses
import warnings

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
from lowcarb.node import SensorLoad, TraceError, initial_state, load_node_config, load_trace

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

    def test_harvest_after_charge_efficiency_serves_the_load(self):
        """Empty 10 Wh battery, 6 W panel in full sun for 1 h at charge efficiency
        0.5: 3 Wh stored, of which the 2 W load takes 2 Wh, leaving soc 0.1."""
        import dataclasses
        config = dataclasses.replace(make_config(load_w=2.0, capacity=10.0),
                                     charge_efficiency=0.5)
        empty = dataclasses.replace(initial_state(config), soc=0.0)
        result = simulate(config, [EnvSample(1.0, 0.0, 3600.0)], dt=3600.0, initial=empty)
        assert (result.ledger.harvested, result.ledger.served) == (3.0, 2.0)
        assert result.served.tolist() == [True]
        assert result.soc.tolist() == [0.1]

    def test_nonpositive_dt_rejected(self):
        config = make_config()
        with pytest.raises(ValueError, match="dt"):
            step(initial_state(config), config, EnvSample(0.0, 0.0, 1.0), dt=0.0)

    @pytest.mark.parametrize("env", [EnvSample(1.4, 0.0, 60.0), EnvSample(0.5, np.nan, 60.0)],
                             ids=["irradiance-above-1", "nan-rain"])
    def test_refuses_the_samples_simulate_refuses(self, env):
        config = make_config()
        with pytest.raises(TraceError):
            simulate(config, [env], dt=60.0)
        with pytest.raises(TraceError):
            step(initial_state(config), config, env, dt=60.0)


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
        with pytest.raises(TraceError, match="^trace line 2: irradiance_fraction must be a "
                                             "number, got 'not_a_number'$"):
            load_trace(text)

    @pytest.mark.parametrize("rows, message", [
        ("0,0.5,0\n60,0.5\n", "trace line 3: rain_reading is missing"),
        ("0,0.5,0\n60,0.5,\n", "trace line 3: rain_reading is missing"),
        ("0,0.5,0\n\n60, ,0\n", "trace line 4: irradiance_fraction must be a number, "
                                 "got ' '"),
    ])
    def test_malformed_trace_row_names_line_and_column(self, rows, message):
        text = "timestamp_s,irradiance_fraction,rain_reading\n" + rows
        with pytest.raises(TraceError) as err:
            load_trace(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("header", ["timestamp_s,irradiance_fraction", ""])
    def test_trace_missing_column_rejected(self, header):
        with pytest.raises(TraceError, match="^trace is missing column"):
            load_trace(header + "\n0,0.5\n")

    @pytest.mark.parametrize("hours, irradiance", [(1, 1.0), (3, 0.0)],
                             ids=["ledger", "clock"])
    def test_dt_that_overflows_rejected(self, hours, irradiance):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^dt 1e\+308 s overflows"):
                simulate(make_config(), make_trace(hours, irradiance), dt=1e308)

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

    def test_resumed_clock_matches_the_numpy_formula_bit_for_bit(self):
        import dataclasses
        config = make_config(load_w=0.4, alarm_w=0.3, threshold=500.0, hysteresis=50.0)
        dt = 0.1 + 1.0 / 3.0  # not a dyadic fraction, so every product rounds
        samples = [EnvSample(0.5, 800.0 * (i % 3 == 0), 60.0 * (i + 1)) for i in range(2000)]
        start = dataclasses.replace(initial_state(config), clock=1234.5678)
        first = simulate(config, samples[:1000], dt=dt, initial=start)
        second = simulate(config, samples[1000:], dt=dt, initial=first.final_state)
        for state, result in ((start, first), (first.final_state, second)):
            expected = state.clock + dt * np.arange(1, 1001)
            assert result.clock_s.tobytes() == expected.tobytes()
        assert second.clock_s[0] == first.clock_s[-1] + dt

    def test_numpy_views_share_the_stdlib_columns(self):
        samples = [EnvSample(0.5, 800.0 * (i % 2), 60.0 * (i + 1)) for i in range(7)]
        result = simulate(make_config(alarm_w=0.5, threshold=500.0), samples, dt=60.0)
        views = {"clock_s": ("clock_col", np.float64), "soc": ("soc_col", np.float64),
                 "alarm": ("alarm_col", np.int8), "harvest_w": ("harvest_col", np.float64),
                 "load_w": ("load_col", np.float64), "served": ("served_col", np.bool_)}
        for view_name, (column_name, dtype) in views.items():
            view, column = getattr(result, view_name), getattr(result, column_name)
            assert view.dtype == dtype and len(view) == len(column) == 7
            assert view.tolist() == column.tolist()
            assert view.ctypes.data == column.buffer_info()[0]  # zero-copy
        assert result.alarm.tolist() == [0, 1, 0, 1, 0, 1, 0]

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


def test_base_load_adds_the_sensors_left_to_right():
    """The same bits on every Python: from 3.12 the builtin sum() would give 0.6."""
    config = dataclasses.replace(make_config(load_w=0.0), sensor_loads=tuple(
        SensorLoad(f"s{i}", power, 1.0) for i, power in enumerate((0.1, 0.2, 0.3))))
    assert config.base_load == 0.6000000000000001


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
