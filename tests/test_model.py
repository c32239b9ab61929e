import ast
import csv
import dataclasses
import io
import json
import math
import re
import types
from pathlib import Path

import pytest
from conftest import building_specs, dotted, outside
from hypothesis import given, strategies as st

import lowcarb
import lowcarb.model as model
import lowcarb.pv as pv
from lowcarb import (
    BuildingSpec,
    EnvelopeGroup,
    GlazingOption,
    HvacSystem,
    LightingSystem,
    OpaqueConstruction,
    Orientation,
    SpecError,
    glazed_area,
    parse_building_spec,
    serialize_building_spec,
)
from lowcarb.cli import main
from lowcarb.energy import CalibrationParams, EndUseTargets, load_calibration
from lowcarb.lighting import Lamp, Room, load_lamps, load_rooms
from lowcarb.model import (
    BOOLEAN,
    FRACTION,
    INTEGER,
    POSITIVE,
    POSITIVE_INTEGER,
    HeatingFuel,
    Interval,
    JsonObject,
    LightingTechnology,
    Roof,
    SensorEntry,
    SensorFleet,
    RuleError,
    Tariff,
    _read,
    load_climate_profile,
    load_sensor_fleet,
    load_tariff,
    number,
    read_fixture,
    read_json,
    record_format,
    shown,
    to_doc,
)
from lowcarb.node import NodeConfig, NodePanel, SensorLoad, load_node_config
from lowcarb.optimize import CodeLimits, OrientationLimit
from lowcarb.pv import PvSite, load_pv_site
from reference_model import RULES


# ---------------------------------------------------------------------------
# parse_building_spec
# ---------------------------------------------------------------------------

class TestParseBuildingSpec:
    def test_baseline_fixture_floor_area(self, baseline_spec):
        # 1,664.82 GJ / 3.6 MJ/kWh / 177 kWh/m2/yr pins the floor area
        assert baseline_spec.floor_area == pytest.approx(2612.7)

    def test_baseline_fixture_south_wwr(self, baseline_spec):
        assert baseline_spec.envelope("S").wwr == pytest.approx(0.24)

    def test_syntax_error_reports_position(self):
        with pytest.raises(SpecError, match=r"syntax error at line 2"):
            parse_building_spec('{\n  "name": }')

    def test_unsupported_schema_version(self, baseline_text):
        doc = json.loads(baseline_text)
        doc["schema_version"] = 99
        with pytest.raises(SpecError, match="schema_version"):
            parse_building_spec(json.dumps(doc))

    def test_roundtrip_on_bundled_fixtures(self, baseline_spec, retrofit_spec):
        for spec in (baseline_spec, retrofit_spec):
            assert parse_building_spec(serialize_building_spec(spec)) == spec


# ---------------------------------------------------------------------------
# Record: a spec built in code tests its rules when it is built
# ---------------------------------------------------------------------------

class TestSpecRules:
    def test_baseline_fixture_rebuilds(self, baseline_spec):
        assert dataclasses.replace(baseline_spec) == baseline_spec

    def test_zero_storeys(self, baseline_spec):
        with pytest.raises(RuleError) as err:
            dataclasses.replace(baseline_spec, storeys=0)
        assert str(err.value) == "BuildingSpec.storeys must be a whole number >= 1, got 0"
        assert (err.value.field.attr, err.value.value) == ("storeys", 0)

    def test_duplicate_orientation(self, baseline_spec):
        groups = list(baseline_spec.orientations)
        groups[0] = dataclasses.replace(groups[0], orientation=Orientation.S)
        with pytest.raises(SpecError, match=r"^BuildingSpec\.orientations must hold exactly "
                                            r"one envelope group per cardinal orientation, "
                                            r"got \['S', 'S', 'E', 'W'\]$"):
            dataclasses.replace(baseline_spec, orientations=tuple(groups))


#: The bundled input files of each subcommand whose spec holds storeys, by flag.
_RUNS = {
    "audit": {"spec": "baseline_school.json", "climate": "gd_climate.csv",
              "tariff": "paper_tariff.json"},
    "calibrate": {"spec": "baseline_school.json", "climate": "gd_climate.csv",
                  "targets": "baseline_targets.json"},
    "optimize": {"spec": "baseline_school.json", "climate": "gd_climate.csv",
                 "catalog": "catalog.csv", "space": "paper_space.json",
                 "tariff": "paper_tariff.json"},
}


@pytest.mark.parametrize("command", _RUNS)
def test_a_run_tests_the_storeys_rule_once(command, monkeypatch, tmp_path):
    """storeys, the one field under POSITIVE_INTEGER, is tested once, as the spec is built
    from its file. Before, library calls walked the spec's rules again: audit tested
    storeys 2 times, calibrate 4 and optimize 2."""
    tested, test = [], POSITIVE_INTEGER.test
    monkeypatch.setattr(POSITIVE_INTEGER, "test", lambda v: tested.append(v) or test(v))
    files = [arg for flag, name in _RUNS[command].items()
             for arg in (f"--{flag}", str(model.fixture_path(name)))]
    assert main([command, *files, "--out", str(tmp_path)]) == 0
    assert tested == [3]


@pytest.mark.parametrize("change, message", [
    pytest.param(lambda doc: doc["orientations"][1].update(wwr=1.5),
                 "orientations[1].wwr must be within [0, 1], got 1.5", id="nested-rule"),
    pytest.param(lambda doc: doc.pop("hvac"), "missing required field hvac", id="missing"),
    pytest.param(lambda doc: doc.update(infiltration_ach=-2.0),
                 "storeys must be a whole number >= 1, got 0.0", id="own-rules-in-class-order"),
])
def test_a_file_is_refused_as_it_is_read_then_as_its_record_is_built(change, message,
                                                                     baseline_text):
    """With storeys 0 and a second broken field, a broken nested block or a missing field
    is named first, as the file is read; the spec's own rules are tested, in class order,
    when it is built from what was read. Before, storeys, first in class order, was named
    in all three."""
    doc = json.loads(baseline_text)
    doc["storeys"] = 0
    change(doc)
    with pytest.raises(SpecError) as err:
        parse_building_spec(json.dumps(doc))
    assert str(err.value) == f"malformed spec: {message}"


def test_an_error_line_quotes_a_json_object_as_a_dict(baseline_text, tmp_path, capsys):
    """A JSON object is quoted as reprlib quotes a dict: its first items, each cut short.
    Before, the whole object was formatted (~22 ms for 300,000 items) and then cut to
    ``{'a': [0, 0, ..., 0, 0, 0, 0]}``."""
    big = JsonObject(a=[0] * 300_000)
    assert shown(big) == "{'a': [0, 0, 0, 0, 0, 0, ...]}"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**json.loads(baseline_text), "floor_area_m2": big}))
    assert main(["audit", "--spec", str(spec), "--climate",
                 str(model.fixture_path("gd_climate.csv")), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == ("error: malformed spec: floor_area_m2 must be a number, "
                                       "got {'a': [0, 0, 0, 0, 0, 0, ...]}\n")


# ---------------------------------------------------------------------------
# glazed_area
# ---------------------------------------------------------------------------

def _make_spec(infiltration=0.5, south_wwr=0.4, south_area=100.0) -> BuildingSpec:
    wall = OpaqueConstruction("w", 1.0)
    glazing = GlazingOption("g", 2.0, 0.5, 0.7)
    groups = tuple(
        EnvelopeGroup(Orientation(o), south_area if o == "S" else 50.0,
                      south_wwr if o == "S" else 0.2, wall, glazing, 0.0)
        for o in ("N", "S", "E", "W"))
    return BuildingSpec(
        name="synthetic", floor_area=200.0, conditioned_volume=600.0, storeys=2,
        orientations=groups, roof=Roof(OpaqueConstruction("r", 1.0), 100.0),
        infiltration=infiltration, occupancy_hours=2000.0, equipment_power_density=5.0,
        lighting=LightingSystem(LightingTechnology.LED, 30.0, 10, 2000.0, 0.0),
        hvac=HvacSystem(3.0, 0.9, HeatingFuel.GAS),
    )


class TestGlazedArea:
    def test_definition(self):
        spec = _make_spec(south_wwr=0.4, south_area=100.0)
        assert glazed_area(spec, "S") == pytest.approx(40.0)

    def test_zero_wwr(self):
        spec = _make_spec(south_wwr=0.0)
        assert glazed_area(spec, "S") == 0.0

    def test_quarter_wwr_product(self):
        spec = _make_spec(south_wwr=0.24, south_area=250.0)
        assert glazed_area(spec, "S") == pytest.approx(60.0)

    @given(wwr=st.floats(0, 1, allow_nan=False), area=st.floats(0, 1e4, allow_nan=False),
           scale=st.floats(0.1, 10, allow_nan=False))
    def test_linear_in_both_factors(self, wwr, area, scale):
        base = glazed_area(_make_spec(south_wwr=wwr, south_area=area), "S")
        assert glazed_area(_make_spec(south_wwr=wwr, south_area=area * scale), "S") \
            == pytest.approx(base * scale, rel=1e-9, abs=1e-12)

    def test_missing_orientation(self, baseline_spec):
        """A spec without an E group, which glazed_area refused, cannot be built."""
        groups = tuple(g for g in baseline_spec.orientations
                       if g.orientation is not Orientation.E)
        with pytest.raises(SpecError, match=r"^BuildingSpec\.orientations .*\['N', 'S', 'W'\]$"):
            dataclasses.replace(baseline_spec, orientations=groups)


# ---------------------------------------------------------------------------
# round-trip property
# ---------------------------------------------------------------------------

@given(spec=building_specs())
def test_parse_serialize_roundtrip(spec):
    assert parse_building_spec(serialize_building_spec(spec)) == spec


# ---------------------------------------------------------------------------
# climate file
# ---------------------------------------------------------------------------

class TestClimateFile:
    def test_bundled_fixture(self, climate):
        assert climate.annual_cdd == pytest.approx(550.0)
        assert climate.annual_hdd == pytest.approx(176.2)
        assert climate.irradiation["S"] == pytest.approx(600.0)
        assert climate.summer_design_sun_altitude == pytest.approx(87.0)
        assert climate.winter_design_sun_altitude == pytest.approx(43.0)
        assert climate.pv_equivalent_full_sun_hours == pytest.approx(1200.0)

    def test_degree_days_add_left_to_right(self, climate):
        """The same bits on every Python: from 3.12 the builtin sum() would give
        1.2000000000000002."""
        assert dataclasses.replace(climate, cooling_degree_days=(0.1,) * 12).annual_cdd == 1.2

    def test_missing_month_rejected(self):
        text = read_fixture("gd_climate.csv")
        lines = [ln for ln in text.splitlines() if not ln.startswith("12,")]
        with pytest.raises(SpecError, match="12 months"):
            load_climate_profile("\n".join(lines))

    def test_missing_header_key_rejected(self):
        text = read_fixture("gd_climate.csv")
        lines = [ln for ln in text.splitlines() if "pv_full_sun_hours" not in ln]
        with pytest.raises(SpecError, match="pv_full_sun_hours"):
            load_climate_profile("\n".join(lines))

    def test_altitude_range_enforced(self):
        text = read_fixture("gd_climate.csv").replace(
            "summer_sun_altitude_deg=87", "summer_sun_altitude_deg=95")
        with pytest.raises(SpecError, match="altitude"):
            load_climate_profile(text)


class TestCatalogFile:
    def test_bundled_entries(self, catalog):
        assert catalog.glazings["dbl_loe"].u_value == pytest.approx(1.8)
        assert catalog.constructions["wall_sip_12in"].r_value == pytest.approx(2.0)
        assert catalog.constructions["wall_sip_12in"].u_value == 1.0 / 2.0
        assert catalog.hvac_systems["heat_pump"].heating_fuel is HeatingFuel.ELECTRIC
        assert catalog.lamp_powers["led"] == pytest.approx(30.0)

    def test_unknown_kind_rejected(self):
        text = "kind,id,r_value,cost_index\nwidget,x,1.0,1.0\n"
        with pytest.raises(SpecError, match="unknown catalog kind"):
            from lowcarb import load_catalog
            load_catalog(text)


class TestTariffAndFleetFiles:
    def test_tariff_values(self, tariff):
        assert tariff.electricity_price == pytest.approx(0.66)
        assert tariff.gas_price == pytest.approx(3.41)
        assert tariff.feed_in_price == pytest.approx(0.35)

    @pytest.mark.parametrize("field, value", [("kind", 5), ("count", 1.5)])
    def test_fleet_entry_errors_name_the_fleet(self, field, value):
        from lowcarb import load_sensor_fleet
        entry = {"kind": "x", "count": 1, "unit_power_w": 1.0, "duty_cycle": 0.5, field: value}
        with pytest.raises(SpecError, match=rf"^fleet\.entries\[0\]\.{field}"):
            load_sensor_fleet(json.dumps({"entries": [entry]}))

    @pytest.mark.parametrize("path", [("name",), ("entries", 0, "unit_power_w")])
    def test_fleet_key_that_no_field_declares_is_named(self, path):
        """The top-level name may stand beside the entries; a misspelt key may not."""
        doc = json.loads(read_fixture("sensor_fleet.json"))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[f"{path[-1]}_x"] = parent[path[-1]]
        with pytest.raises(SpecError) as err:
            load_sensor_fleet(json.dumps(doc))
        assert str(err.value) == f"fleet.{dotted(path)}_x is not a sensor fleet field"


def _field_paths(cls, keys=(), attrs=()):
    """(key path, attribute path, Field) of every field of the record type ``cls`` and
    of its nested records; a tuple field's records through its first item."""
    for f in record_format(cls):
        yield keys + (f.key,), attrs + (f.attr,), f
        if f.record or isinstance(f.kind, tuple):
            item = (0,) if isinstance(f.kind, tuple) else ()
            yield from _field_paths(f.kind[0] if item else f.kind, keys + (f.key, *item),
                                    attrs + (f.attr, *item))


#: (bundled file, field context, loader, record type, path of the record in the file) of
#: each file that maps one key to one field. A CSV stands for its first row alone, whose
#: id names it: the id itself is checked by the row reader (see tests/test_lighting.py).
_FLAT_FILES = [("paper_tariff.json", "tariff.", load_tariff, Tariff, ()),
               ("baseline_targets.json", "targets.", EndUseTargets.from_json, EndUseTargets, ()),
               ("pv_site.json", "pv_site.", load_pv_site, PvSite, ()),
               ("sensor_fleet.json", "fleet.", load_sensor_fleet, SensorFleet, ()),
               ("node_demo.json", "node.", load_node_config, NodeConfig, ()),
               ("baseline_school.json", "", load_calibration, CalibrationParams, ("calibration",)),
               ("rooms.csv", "room 'classroom_01': ", lambda text: load_rooms(text)[0], Room, ()),
               ("lamps.csv", "lamp 'led_linear_3600': ",
                lambda text: load_lamps(text)["led_linear_3600"], Lamp, ()),
               ("baseline_school.json", "", parse_building_spec, BuildingSpec, ())]


@pytest.mark.parametrize("name, context, load, keys, attrs, f, value", [
    pytest.param(name, context, load, below + keys, attrs, f, value,
                 id=f"{context}{dotted(below + keys)}-{'drop' if value is None else value!r}")
    for name, context, load, cls, below in _FLAT_FILES
    for keys, attrs, f in _field_paths(cls)
    if not (name.endswith(".csv") and keys == ("id",))
    for value in [None, *(outside(f.rule) if isinstance(f.rule, Interval) else [math.nan])]])
def test_flat_file_errors_name_the_field(name, context, load, keys, attrs, f, value):
    """A dropped required key is named as missing; a value outside an interval rule is
    refused with the text its ends form, and another field's NaN by its kind."""
    if name.endswith(".csv"):
        doc = next(csv.DictReader(io.StringIO(read_fixture(name))))
    else:
        doc = json.loads(read_fixture(name))
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if value is None:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    if name.endswith(".csv"):
        out = io.StringIO()
        writer = csv.DictWriter(out, list(doc))
        writer.writeheader()
        writer.writerow(doc)
        text = out.getvalue()
    else:
        text = json.dumps(doc)
    field = context + dotted(keys)
    if value is None and f.default is not None:  # a dropped defaulted key reads as its default
        record = load(text)
        for attr in attrs:
            record = record[attr] if isinstance(attr, int) else getattr(record, attr)
        assert record == f.default
        return
    with pytest.raises(SpecError) as err:
        load(text)
    read = "malformed spec: " if load is parse_building_spec else ""  # the spec's read errors
    if value is None:
        assert str(err.value) == f"{read}missing required field {field}"
    elif isinstance(f.rule, Interval):
        assert str(err.value) == f"{read}{field} {f.rule.text}, got {value!r}"
    else:
        assert str(err.value).startswith(f"{read}{field} must be ")


def test_a_record_built_in_code_names_its_class_and_field():
    with pytest.raises(SpecError) as err:
        SensorLoad("rainfall", -1.0, 1.0)
    assert str(err.value) == "SensorLoad.power must be nonnegative and finite, got -1.0"
    with pytest.raises(SpecError) as err:
        NodePanel(6.0, 12.0, math.nan)
    assert str(err.value) == "NodePanel.rated_current must be nonnegative and finite, got nan"


_ROOM = Room("r", 60.0, 6.0, 10.0, 0.7, 500.0)
_REPORT = lowcarb.EnergyReport(1.0, 1.0, 1.0, 1.0, 4.0, 1000.0, 10.0)


@pytest.mark.parametrize("call, named", [
    pytest.param(lambda tariff: lowcarb.annual_lighting_energy(math.nan, 30.0, 2000.2, 0.0),
                 "count", id="lighting-count-nan"),
    pytest.param(lambda tariff: lowcarb.annual_lighting_energy(0.5, 30.0, 2000.0, 0.0),
                 "count", id="lighting-count-half"),
    pytest.param(lambda tariff: lowcarb.annual_lighting_energy(2.5, 30.0, 2000.0, 0.0),
                 "count", id="lighting-count-fraction"),
    pytest.param(lambda tariff: lowcarb.annual_lighting_energy(10, math.inf, 2000.2, 0.0),
                 "lamp_power", id="lighting-lamp-power-inf"),
    pytest.param(lambda tariff: lowcarb.eui(_REPORT, math.inf), "floor_area", id="eui-inf"),
    pytest.param(lambda tariff: lowcarb.annual_cost(_REPORT, tariff, math.inf), "floor_area",
                 id="annual-cost-inf"),
    pytest.param(lambda tariff: lowcarb.eui(_REPORT, math.nan), "floor_area", id="eui-nan"),
    pytest.param(lambda tariff: lowcarb.annual_generation(math.nan, 1200.0), "capacity",
                 id="generation-nan"),
    pytest.param(lambda tariff: lowcarb.economics(math.nan, 1.0, tariff, 3.8, 1.0),
                 "generation", id="economics-nan"),
    pytest.param(lambda tariff: lowcarb.panel_count(
        math.nan, lowcarb.PanelSpec(1.6, 1.0, 300.0), 0.8), "roof_area", id="panel-count-nan"),
])
def test_library_functions_refuse_nan_and_infinity_naming_the_argument(call, named, tariff):
    """Library functions check their arguments through the rules of the fields that hold
    those quantities. Before, these calls returned nan, inf or 0.0 (the lighting energy,
    EUI, annual cost, yield, benefit and daylight class), or raised an error that named
    no argument: "overflows the EUI", "overflows the panel count", OverflowError and
    "cannot convert float NaN to integer". A lamp count is a whole number: 0.5 and 2.5
    lamps gave 0.108 and 0.54 GJ."""
    with pytest.raises(ValueError, match=rf"^{re.escape(named)}\b"):
        call(tariff)


def _optimize(f, catalog):
    space, limits = f("paper_space")
    return lowcarb.optimize(f("baseline_spec"), f("climate"), catalog, space, limits, 1,
                            f("baseline_calibration"), f("tariff"))


def _with_catalog_entry(f, table, key, change):
    """The bundled catalog with ``table[key]`` replaced by ``change`` of it."""
    catalog = f("catalog")
    entries = dict(getattr(catalog, table))
    entries[key] = change(entries[key])
    return dataclasses.replace(catalog, **{table: entries})


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda f: dataclasses.replace(f("baseline_spec"), floor_area=-100.0),
                 "BuildingSpec.floor_area must be > 0 and finite, got -100.0", id="floor-area"),
    pytest.param(lambda f: CalibrationParams(-5.0, 1.0, 1.0),
                 "CalibrationParams.internal_gain_multiplier must be nonnegative and finite, "
                 "got -5.0", id="calibration"),
    pytest.param(lambda f: dataclasses.replace(f("tariff"), electricity_price=-1.0),
                 "Tariff.electricity_price must be > 0 and finite, got -1.0", id="tariff"),
    pytest.param(lambda f: dataclasses.replace(f("tariff"), feed_in_price=math.nan),
                 "Tariff.feed_in_price must be > 0 and finite, got nan", id="tariff-feed-in-nan"),
    pytest.param(lambda f: dataclasses.replace(
        f("catalog").hvac_systems["heat_pump"], cooling_cop=-3.0),
        "HvacSystem.cooling_cop must be > 0 and finite, got -3.0", id="catalog-hvac"),
    pytest.param(lambda f: dataclasses.replace(f("catalog").glazings["dbl_loe"], shgc=5.0),
                 "GlazingOption.shgc must be within [0, 1], got 5.0", id="catalog-glazing"),
    pytest.param(lambda f: dataclasses.replace(f("baseline_spec"), storeys=1.5),
                 "BuildingSpec.storeys must be a whole number >= 1, got 1.5",
                 id="storeys-fraction"),
    pytest.param(lambda f: dataclasses.replace(f("baseline_spec"), storeys=math.inf),
                 "BuildingSpec.storeys must be a whole number >= 1, got inf", id="storeys-inf"),
    pytest.param(lambda f: dataclasses.replace(f("baseline_spec").lighting, lamp_count=0.5),
                 "LightingSystem.lamp_count must be a whole number >= 0, got 0.5",
                 id="lamp-count-fraction"),
    pytest.param(lambda f: SensorEntry("rainfall", -3, 1.0, 1.0),
                 "SensorEntry.count must be a whole number >= 0, got -3", id="fleet-count"),
    pytest.param(lambda f: SensorEntry("rainfall", 3, 1.0, 5.0),
                 "SensorEntry.duty_cycle must be within [0, 1], got 5.0", id="fleet-duty-cycle"),
    pytest.param(lambda f: dataclasses.replace(_ROOM, target_illuminance=math.inf),
                 "Room.target_illuminance must be nonnegative and finite, got inf",
                 id="room-target-inf"),
    pytest.param(lambda f: dataclasses.replace(_ROOM, floor_area=math.nan),
                 "Room.floor_area must be > 0 and finite, got nan", id="room-area-nan"),
    pytest.param(lambda f: dataclasses.replace(_ROOM, glazing_vt=math.nan),
                 "Room.glazing_vt must be within [0, 1], got nan", id="room-vt-nan"),
    pytest.param(lambda f: OrientationLimit(min_wwr=math.nan),
                 "OrientationLimit.min_wwr must be finite, got nan", id="limit-nan"),
])
def test_a_record_built_in_code_that_breaks_its_rules_is_refused(build, message, request):
    """A spec, calibration, tariff, catalog, fleet, room or code-limit record built in code
    is checked by the rules its fields declare when it is built, as a file's would be, and
    refused in one line naming its class and field, so no library function sees it.
    Before these records were checked, library calls ranked negative EUIs or costs,
    ranked a glazing of SHGC 5, reported a negative cooling energy, cost, benefit,
    payback or fleet energy (-26.28 kWh/yr for a count of -3, 131.4 for a duty cycle of
    5.0) or lighting energy (0.17 GJ/yr for half a lamp), took infinite storeys, returned
    nan for a daylight class or a luminaire count, or blamed a NaN feed-in price on an
    overflow."""
    with pytest.raises(RuleError) as err:
        build(request.getfixturevalue)
    assert str(err.value) == message


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda f: _optimize(f, _with_catalog_entry(
        f, "lamp_powers", "led", lambda w: -w)),
                 "catalog 'led': lamp_power must be > 0 and finite, got -30.0",
                 id="optimize-catalog-lamp-power"),
    *(pytest.param(lambda f, content=content: lowcarb.annual_end_use(
        f("baseline_spec"), f("climate"), f("baseline_calibration"), content),
        f"gas_energy_content must be > 0 and finite, got {content!r}",
        id=f"annual-end-use-gas-energy-content-{content}")
      for content in (-10.0, 0.0, math.nan, math.inf)),
])
def test_library_functions_refuse_a_bare_value_that_breaks_its_rule(call, message, request):
    """A catalog's bare lamp power, or a gas energy content passed alone, is checked by the
    rule the file's field declares. Before, these calls reported a negative gas volume
    (-3477 m3 at -10.0), raised ZeroDivisionError for a gas energy content of 0.0,
    reported no gas at inf or blamed a NaN gas energy content on an overflow."""
    with pytest.raises(SpecError) as err:
        call(request.getfixturevalue)
    assert str(err.value) == message


def test_unset_optional_field_passes_its_rule():
    """A ``float | None`` field left None passes its rule; before, the rule's test
    raised TypeError on the None."""
    assert OrientationLimit().min_wwr is None


@pytest.mark.parametrize("name, context, load, cls", [
    pytest.param(name, context, load, cls, id=cls.__name__) for name, context, load, cls, _
    in _FLAT_FILES if name.endswith(".json")])
def test_bundled_records_round_trip_through_their_keys(name, context, load, cls):
    """Each JSON record the CLI reads is written back by to_doc under the keys it
    was read from."""
    record = load(read_fixture(name))
    assert _read(cls, to_doc(record), context) == record


def _passing(rule):
    """Values that pass ``rule``: the finite floats of an interval, drawn from its ends,
    or the values of a kind rule."""
    if not isinstance(rule, Interval):
        return {INTEGER: st.integers(0, 2 ** 53), BOOLEAN: st.booleans()}[rule]
    low, high = (end if math.isfinite(end) else None for end in (rule.low, rule.high))
    return st.floats(low, high, allow_nan=False, allow_infinity=False,
                     exclude_min=low is not None and rule.ends[0] == "(",
                     exclude_max=high is not None and rule.ends[1] == ")")


def _records(cls):
    """Records of type ``cls`` whose every field passes its rule, drawn from its
    record_format. A node panel is rated at its voltage x current, and a node config
    whose loads add up to an infinite demand is left out: NodeConfig refuses both."""
    if cls is NodePanel:
        return st.builds(lambda v, a: NodePanel(v * a, v, a), *[st.floats(0, 1e3)] * 2)

    def values(f):
        if isinstance(f.kind, tuple):
            return st.lists(_records(f.kind[0]), max_size=3).map(tuple)
        if f.record:
            return _records(f.kind)
        if f.kind is str:
            return st.text(max_size=8)
        drawn = _passing(f.rule)
        return st.none() | drawn if isinstance(f.kind, types.UnionType) else drawn

    drawn = st.fixed_dictionaries({f.attr: values(f) for f in record_format(cls)})
    if cls is NodeConfig:
        return drawn.map(_config_or_none).filter(lambda config: config is not None)
    return drawn.map(lambda kwargs: cls(**kwargs))


def _config_or_none(kwargs):
    """The NodeConfig of ``kwargs``, or None where its loads add up to an infinite demand."""
    try:
        return NodeConfig(**kwargs)
    except SpecError as exc:
        assert "infinite demand" in str(exc)
        return None


@pytest.mark.parametrize("value", [0.0, 5e-324, -5e-324, 1.0, 90.0, 8760.0, math.inf,
                                   -math.inf, math.nan])
def test_rules_accept_what_they_accepted_before(value):
    """Each value rule accepts what its lambda in reference_model.RULES accepted, except
    that an int field of a record built in code now refuses what is not a whole number
    (before, ``storeys`` took inf and ``lighting.lamp_count`` 5e-324)."""
    fields = {".".join(map(str, attrs)): f for _, attrs, f in _field_paths(BuildingSpec)}
    for name, accepted in RULES.items():
        f = fields.get(name)
        rule = f.rule if f else getattr(pv if name == "PACKING" else model, name)
        whole = f is not None and f.kind is int
        assert rule.test(value) == (accepted(value) and (not whole or value % 1 == 0)), name


@pytest.mark.parametrize("cls", [Tariff, EndUseTargets, PvSite, SensorFleet, NodeConfig,
                                 CalibrationParams, OrientationLimit, CodeLimits, BuildingSpec],
                         ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_drawn_records_round_trip_through_their_keys(cls, data):
    """Records within every field's rule (specs as conftest's building_specs draws
    them) read back from to_doc's dict as themselves."""
    record = data.draw(building_specs() if cls is BuildingSpec else _records(cls))
    assert _read(cls, to_doc(record), "") == record


# ---------------------------------------------------------------------------
class TestInputBoundary:
    @pytest.mark.parametrize("doc, key", [({}, "x"), ({"x": None}, "x"), ({"x": ""}, "x"),
                                          (5, "x"), ([], 0)])
    def test_absent_value_gives_the_default_or_names_the_field(self, doc, key):
        assert number(doc, key, "file.", POSITIVE, default=2.5) == 2.5
        with pytest.raises(SpecError, match=rf"missing required field file\.{key}"):
            number(doc, key, "file.", POSITIVE)

    @pytest.mark.parametrize("raw", ["x", True, [1], {"a": 1}, 10 ** 400])
    def test_non_number_names_field_and_raw_value(self, raw):
        with pytest.raises(SpecError, match=r"^file\.x must be a number, got "):
            number({"x": raw}, "x", "file.", POSITIVE)

    def test_csv_cell_and_json_number_read_alike(self):
        assert number({"x": "0.25"}, "x", "", FRACTION) == number({"x": 0.25}, "x", "", FRACTION)

    @pytest.mark.parametrize("text, message", [
        ('{"a": }', r"^tariff: syntax error at line 1 column 7"),
        ("[1]", r"^tariff document must be a JSON object"),
        ('{"schema_version": 2}', r"^tariff\.schema_version must be 1, got 2"),
    ])
    def test_read_json_rejects_what_is_not_a_current_object(self, text, message):
        with pytest.raises(SpecError, match=message):
            read_json(text, "tariff")

    def test_rules_are_declared_once(self):
        # a spec(...) rule is a name bound to a Rule, an Interval of numbers or the
        # Candidates of a design variable named by its key; Rule(...) is called only at
        # model's top level, and no (lambda, text) tuple is left
        kinds = []
        for path in sorted(Path(lowcarb.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            top = {id(stmt.value) for stmt in tree.body if isinstance(stmt, ast.Assign)}
            for node in ast.walk(tree):
                assert not (isinstance(node, ast.Tuple)
                            and any(isinstance(item, ast.Lambda) for item in node.elts))
                func = ast.unparse(node.func) if isinstance(node, ast.Call) else ""
                kinds += [(path.stem, id(node) in top)] if func == "Rule" else []
                rules = node.args[1:2] + [k.value for k in node.keywords if k.arg == "rule"] \
                    if func == "spec" else []
                for rule in rules:
                    named = isinstance(rule, ast.Name) and isinstance(
                        getattr(pv, rule.id, getattr(model, rule.id, None)), model.Rule)
                    interval = (isinstance(rule, ast.Call)
                                and ast.unparse(rule.func) in ("Interval", "Candidates")
                                and all(isinstance(arg, ast.Constant) for arg in rule.args))
                    assert named or interval, ast.unparse(rule)
        assert kinds and set(kinds) == {("model", True)}

    def test_json_is_parsed_only_in_read_json(self):
        # every loader reads JSON through model.read_json; a hand-rolled
        # json.loads or JSONDecodeError handler elsewhere fails this test
        import lowcarb

        sites = set()
        for path in sorted(Path(lowcarb.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            owner = {}  # node -> innermost enclosing function; ast.walk visits outer ones first
            for func in ast.walk(tree):
                if isinstance(func, ast.FunctionDef):
                    owner.update(dict.fromkeys(ast.walk(func), func.name))
            for node in ast.walk(tree):
                calls_loads = (isinstance(node, ast.Call)
                               and ast.unparse(node.func) in ("json.loads", "loads"))
                catches = (isinstance(node, ast.ExceptHandler) and node.type is not None
                           and "JSONDecodeError" in ast.unparse(node.type))
                if calls_loads or catches:
                    sites.add((path.stem, owner.get(node, "<module>"), type(node)))
        assert {(module, name) for module, name, _ in sites} == {("model", "read_json")}
        assert {kind for _, _, kind in sites} == {ast.Call, ast.ExceptHandler}
