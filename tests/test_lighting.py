import pytest
from conftest import outside
from hypothesis import given, strategies as st

from lowcarb import (
    DaylightClass,
    Lamp,
    Room,
    annual_lighting_energy,
    daylight_class,
    luminaire_count,
    read_fixture,
)
from lowcarb.energy import annual_lighting_kwh
from lowcarb.lighting import load_lamps, load_rooms, write_lighting_report
from lowcarb.model import POSITIVE, SpecError

LED = Lamp("led_linear_3600", 3600.0, 30.0, 0.52, 0.8)


@pytest.fixture(scope="module")
def rooms():
    return load_rooms(read_fixture("rooms.csv"))


@pytest.fixture(scope="module")
def lamps():
    return load_lamps(read_fixture("lamps.csv"))


class TestDaylightClass:
    def test_atrium_is_sufficient(self, rooms):
        atrium = next(r for r in rooms if r.id == "atrium")
        assert daylight_class(atrium) is DaylightClass.SUFFICIENT

    def test_windowless_room_is_insufficient(self):
        room = Room("cave", 30.0, 4.0, 0.0, 0.8, 300.0)
        assert daylight_class(room) is DaylightClass.INSUFFICIENT

    def test_deep_classroom_is_insufficient(self, rooms):
        # depth 8 m > 2 x 2.4 m head height, regardless of window size
        classroom = next(r for r in rooms if r.id == "classroom_01")
        assert classroom.depth_from_window == 8.0
        assert daylight_class(classroom) is DaylightClass.INSUFFICIENT

    @pytest.mark.parametrize("area", outside(POSITIVE))
    def test_floor_area_outside_its_rule_is_refused(self, area):
        """A NaN or infinite floor area used to classify the room INSUFFICIENT; now such a
        room cannot be built."""
        with pytest.raises(SpecError) as err:
            Room("r", area, 5.0, 5.0, 0.7, 300.0)
        assert str(err.value) == f"Room.floor_area {POSITIVE.text}, got {area!r}"


class TestLuminaireCount:
    def test_hand_evaluated_lumen_method(self):
        room = Room("r", 60.0, 6.0, 10.0, 0.7, 500.0)
        # ceil(500*60 / (3600*0.52*0.8)) = ceil(30000/1497.6) = 21
        assert luminaire_count(room, LED) == 21

    def test_zero_target_needs_no_lamps(self):
        room = Room("r", 60.0, 6.0, 10.0, 0.7, 0.0)
        assert luminaire_count(room, LED) == 0

    @pytest.mark.parametrize("flux", outside(POSITIVE))
    def test_flux_outside_its_rule_is_refused(self, flux):
        """An infinite flux used to need 0 lamps, and a NaN one raised "cannot convert
        float NaN to integer"; now such a lamp cannot be built."""
        with pytest.raises(SpecError) as err:
            Lamp("x", flux, 30.0, 0.5, 0.8)
        assert str(err.value) == f"Lamp.luminous_flux {POSITIVE.text}, got {flux!r}"

    def test_whole_building_total_near_500(self, rooms, lamps):
        total = sum(luminaire_count(room, lamps["led_linear_3600"]) for room in rooms)
        assert total == pytest.approx(500, rel=0.10)

    @given(lux=st.floats(0, 2000, allow_nan=False),
           extra_lux=st.floats(0, 500, allow_nan=False),
           area=st.floats(1, 500, allow_nan=False),
           extra_area=st.floats(0, 200, allow_nan=False))
    def test_monotone_in_demand(self, lux, extra_lux, area, extra_area):
        base = luminaire_count(Room("r", area, 5.0, 5.0, 0.7, lux), LED)
        more_lux = luminaire_count(Room("r", area, 5.0, 5.0, 0.7, lux + extra_lux), LED)
        more_area = luminaire_count(Room("r", area + extra_area, 5.0, 5.0, 0.7, lux), LED)
        assert more_lux >= base
        assert more_area >= base

    @given(lux=st.floats(1, 2000, allow_nan=False),
           area=st.floats(1, 500, allow_nan=False),
           flux=st.floats(100, 10_000, allow_nan=False),
           uf=st.floats(0.1, 1.0, allow_nan=False),
           mf=st.floats(0.1, 1.0, allow_nan=False))
    def test_installed_flux_meets_target(self, lux, area, flux, uf, mf):
        """The ceil contract: delivered lumens cover the target exactly or better."""
        lamp = Lamp("x", flux, 10.0, uf, mf)
        n = luminaire_count(Room("r", area, 5.0, 5.0, 0.7, lux), lamp)
        assert n * flux * uf * mf >= lux * area - 1e-6


class TestAnnualLightingEnergy:
    def test_retrofit_total(self):
        # 500 lamps x 30 W x 2000.2 h = 30,003 kWh = 108.0108 GJ
        assert annual_lighting_energy(500, 30.0, 2000.2, 0.0) \
            == pytest.approx(108.0108, rel=1e-12)

    def test_zero_count(self):
        assert annual_lighting_energy(0, 30.0, 2000.2, 0.0) == 0.0

    def test_half_daylight_offset(self):
        assert annual_lighting_energy(500, 30.0, 2000.2, 0.5) \
            == pytest.approx(54.0054, rel=1e-12)
        assert annual_lighting_energy(500, 30.0, 2000.2, 0.5) \
            == pytest.approx(54.0, abs=0.01)

    def test_quarter_daylight_offset(self):
        # 500 lamps x 30 W x 2000.2 h x (1 - 0.25) = 22,502.25 kWh = 81.0081 GJ;
        # an offset read as 1 - offset would give 7,500.75 kWh
        assert annual_lighting_kwh(500, 30.0, 2000.2, 0.25) \
            == pytest.approx(22502.25, rel=1e-12)
        assert annual_lighting_energy(500, 30.0, 2000.2, 0.25) \
            == pytest.approx(81.0081, rel=1e-12)

    def test_baseline_incandescent_total(self):
        assert annual_lighting_energy(500, 47.31, 2000.2, 0.0) \
            == pytest.approx(170.33, rel=1e-3)

    @given(count=st.integers(0, 2000), power=st.floats(0, 100, allow_nan=False),
           hours=st.floats(0, 8760, allow_nan=False),
           offset=st.floats(0, 1, allow_nan=False),
           scale=st.integers(2, 5))
    def test_linear_in_count(self, count, power, hours, offset, scale):
        one = annual_lighting_energy(count, power, hours, offset)
        many = annual_lighting_energy(count * scale, power, hours, offset)
        assert many == pytest.approx(one * scale, rel=1e-9, abs=1e-12)

    def test_invalid_offset_rejected(self):
        with pytest.raises(ValueError):
            annual_lighting_energy(10, 30.0, 100.0, 1.2)


def test_lighting_report_csv(rooms, lamps):
    text = write_lighting_report(rooms, lamps["led_linear_3600"], 2000.2)
    lines = text.strip().splitlines()
    assert lines[0] == "room_id,daylight,lamps,installed_w,annual_kwh"
    assert len(lines) == len(rooms) + 2  # header + rooms + total
    total_row = lines[-1].split(",")
    assert total_row[0] == "total"
    assert int(total_row[2]) == sum(luminaire_count(r, lamps["led_linear_3600"])
                                    for r in rooms)


def test_lighting_report_bytes_on_a_small_room_set():
    # 21 lamps x 30 W x 2000.2 h x 0.75 = 945.0945 kWh for class_1; the bytes are
    # those the report gave when it still converted kWh to GJ and back
    rooms = [Room("class_1", 60.0, 7.2, 9.0, 0.7, 500.0),
             Room("atrium", 120.0, 4.0, 40.0, 0.8, 300.0),
             Room("store", 12.5, 0.0, 0.0, 0.0, 150.0)]
    assert write_lighting_report(rooms, LED, 2000.2, 0.25) == (
        "room_id,daylight,lamps,installed_w,annual_kwh\n"
        "class_1,insufficient,21,630.0,945.1\n"
        "atrium,sufficient,25,750.0,1125.1\n"
        "store,insufficient,2,60.0,90.0\n"
        "total,,48,1440.0,2160.2\n")


@pytest.mark.parametrize("hours, offset", [(-1.0, 0.0), (2000.2, 1.2), (2000.2, -0.1)])
def test_lighting_report_refuses_out_of_range_arguments(hours, offset):
    with pytest.raises(ValueError):
        write_lighting_report([Room("r", 60.0, 7.2, 9.0, 0.7, 500.0)], LED, hours, offset)


@pytest.mark.parametrize("name, load, kind", [("rooms.csv", load_rooms, "room"),
                                              ("lamps.csv", load_lamps, "lamp")])
def test_a_repeated_id_is_refused(name, load, kind):
    """Before, a second lamp row of an id replaced the first and a second room row
    was kept beside it; the id is compared after stripping, as it is stored."""
    text = read_fixture(name)
    rid, rest = text.splitlines()[1].split(",", 1)
    with pytest.raises(SpecError) as err:
        load(f"{text}{rid} ,{rest}\n")
    assert str(err.value) == f"{kind} id {rid!r} repeats an earlier row"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: luminaire_count(Room("r", 1e308, 6.0, 10.0, 0.7, 1e308), LED),
                 "room 'r' and lamp 'led_linear_3600': the target_illuminance and floor_area "
                 "over the luminous_flux, utilization_factor and maintenance_factor overflow "
                 "the luminaire count", id="luminaire-count-area-and-target"),
    pytest.param(lambda: luminaire_count(Room("r", 60.0, 6.0, 10.0, 0.7, 500.0),
                                         Lamp("dim", 5e-324, 30.0, 0.52, 0.8)),
                 "room 'r' and lamp 'dim': the target_illuminance and floor_area over the "
                 "luminous_flux, utilization_factor and maintenance_factor overflow the "
                 "luminaire count", id="luminaire-count-subnormal-flux"),
    pytest.param(lambda: daylight_class(Room("r", 1e308, 1e-300, 10.0, 0.7, 500.0)),
                 "room 'r': the floor_area, depth_from_window, ceiling_height, window_area "
                 "and glazing_vt overflow the daylight factor", id="daylight-class-width"),
    pytest.param(lambda: annual_lighting_energy(1e308, 1e308, 1, 0),
                 "count, lamp_power and hours overflow the annual lighting energy",
                 id="lighting-energy"),
])
def test_finite_arguments_that_overflow_a_result_are_one_value_error(call, message):
    """Before, these raised OverflowError or ZeroDivisionError, classified a room of
    infinite width, or returned inf."""
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message
