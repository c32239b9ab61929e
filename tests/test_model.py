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
    validate_spec,
)
from lowcarb.energy import CalibrationParams, EndUseTargets, load_calibration
from lowcarb.lighting import Lamp, Room, load_lamps, load_rooms
from lowcarb.model import (
    BOOLEAN,
    FRACTION,
    INTEGER,
    POSITIVE,
    HeatingFuel,
    Interval,
    LightingTechnology,
    Roof,
    SensorEntry,
    SensorFleet,
    Tariff,
    _read,
    check_record,
    load_climate_profile,
    load_sensor_fleet,
    load_tariff,
    number,
    read_fixture,
    read_json,
    record_format,
    to_doc,
)
from lowcarb.node import NodeConfig, NodePanel, SensorLoad, load_node_config
from lowcarb.optimize import OrientationLimit
from lowcarb.pv import PvSite, load_pv_site, site_economics
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
# validate_spec
# ---------------------------------------------------------------------------

class TestValidateSpec:
    def test_baseline_fixture_is_clean(self, baseline_spec):
        assert validate_spec(baseline_spec) == []

    def test_zero_storeys(self, baseline_spec):
        bad = dataclasses.replace(baseline_spec, storeys=0)
        violations = validate_spec(bad)
        assert [v.field for v in violations] == ["storeys"]

    def test_duplicate_orientation(self, baseline_spec):
        groups = list(baseline_spec.orientations)
        groups[0] = dataclasses.replace(groups[0], orientation=Orientation.S)
        bad = dataclasses.replace(baseline_spec, orientations=tuple(groups))
        assert any(v.field == "orientations" for v in validate_spec(bad))


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
        groups = tuple(g for g in baseline_spec.orientations
                       if g.orientation is not Orientation.E)
        spec = dataclasses.replace(baseline_spec, orientations=groups)
        with pytest.raises(ValueError, match="orientation E"):
            glazed_area(spec, "E")


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


def test_check_record_names_a_library_built_field():
    config = load_node_config(read_fixture("node_demo.json"))
    bad = dataclasses.replace(config, sensor_loads=(SensorLoad("rainfall", -1.0, 1.0),))
    with pytest.raises(SpecError) as err:
        bad.validate()
    assert str(err.value) == ("sensor_loads[rainfall].power must be nonnegative and finite, "
                              "got -1.0")
    bad = dataclasses.replace(config, panel=NodePanel(6.0, 12.0, math.nan))
    with pytest.raises(SpecError) as err:
        check_record(bad, "node.")
    assert str(err.value) == "node.panel.rated_current must be nonnegative and finite, got nan"


_ROOM = Room("r", 60.0, 6.0, 10.0, 0.7, 500.0)
_LAMP = Lamp("l", 3600.0, 30.0, 0.5, 0.8)
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
    pytest.param(lambda tariff: lowcarb.luminaire_count(
        dataclasses.replace(_ROOM, target_illuminance=math.inf), _LAMP),
        "room 'r': target_illuminance", id="luminaire-count-target-inf"),
    pytest.param(lambda tariff: lowcarb.luminaire_count(
        dataclasses.replace(_ROOM, floor_area=math.nan), _LAMP),
        "room 'r': floor_area", id="luminaire-count-area-nan"),
    pytest.param(lambda tariff: lowcarb.daylight_class(
        dataclasses.replace(_ROOM, glazing_vt=math.nan)), "room 'r': glazing_vt",
        id="daylight-class-vt-nan"),
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


def _optimize(f, spec=None, calib=None, tariff=None, catalog=None):
    space, limits = f("paper_space")
    return lowcarb.optimize(spec or f("baseline_spec"), f("climate"), catalog or f("catalog"),
                            space, limits, 1, calib or f("baseline_calibration"),
                            tariff or f("tariff"))


def _with_catalog_entry(f, table, key, change):
    """The bundled catalog with ``table[key]`` replaced by ``change`` of it."""
    catalog = f("catalog")
    entries = dict(getattr(catalog, table))
    entries[key] = change(entries[key])
    return dataclasses.replace(catalog, **{table: entries})


def _site_economics(f, **prices):
    return site_economics(load_pv_site(read_fixture("pv_site.json")),
                          f("climate").pv_equivalent_full_sun_hours,
                          dataclasses.replace(f("tariff"), **prices))


_NEGATIVE_GAIN = CalibrationParams(-5.0, 1.0, 1.0)
_GAIN_RULE = "calibration.internal_gain_multiplier must be nonnegative and finite, got -5.0"
_PRICE_RULE = "tariff.electricity_price must be > 0 and finite, got -1.0"
_FLOOR_RULE = "floor_area must be > 0 and finite, got -100.0"


def _negative_floor(f):
    return dataclasses.replace(f("baseline_spec"), floor_area=-100.0)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda f: _optimize(f, spec=_negative_floor(f)), _FLOOR_RULE,
                 id="optimize-floor-area"),
    pytest.param(lambda f: lowcarb.annual_end_use(_negative_floor(f), f("climate")),
                 _FLOOR_RULE, id="annual-end-use-floor-area"),
    pytest.param(lambda f: lowcarb.calibrate(_negative_floor(f), f("climate"),
                                             f("baseline_targets")),
                 _FLOOR_RULE, id="calibrate-floor-area"),
    pytest.param(lambda f: _optimize(f, calib=_NEGATIVE_GAIN), _GAIN_RULE,
                 id="optimize-calibration"),
    pytest.param(lambda f: _optimize(f, tariff=dataclasses.replace(
        f("tariff"), electricity_price=-1.0)), _PRICE_RULE, id="optimize-tariff"),
    pytest.param(lambda f: _optimize(f, catalog=_with_catalog_entry(
        f, "hvac_systems", "heat_pump", lambda r: dataclasses.replace(r, cooling_cop=-3.0))),
        "catalog 'heat_pump': cooling_cop must be > 0 and finite, got -3.0",
        id="optimize-catalog-hvac"),
    pytest.param(lambda f: _optimize(f, catalog=_with_catalog_entry(
        f, "glazings", "dbl_loe", lambda r: dataclasses.replace(r, shgc=5.0))),
        "catalog 'dbl_loe': shgc must be within [0, 1], got 5.0", id="optimize-catalog-glazing"),
    pytest.param(lambda f: _optimize(f, catalog=_with_catalog_entry(
        f, "lamp_powers", "led", lambda w: -w)),
                 "catalog 'led': lamp_power must be > 0 and finite, got -30.0",
                 id="optimize-catalog-lamp-power"),
    pytest.param(lambda f: lowcarb.annual_end_use(f("baseline_spec"), f("climate"),
                                                  _NEGATIVE_GAIN),
                 _GAIN_RULE, id="annual-end-use-calibration"),
    *(pytest.param(lambda f, change=change: lowcarb.annual_end_use(
        change(f("baseline_spec")), f("climate")), message, id=name) for name, change, message in [
            ("storeys-fraction", lambda s: dataclasses.replace(s, storeys=1.5),
             "storeys must be a whole number >= 1, got 1.5"),
            ("storeys-inf", lambda s: dataclasses.replace(s, storeys=math.inf),
             "storeys must be a whole number >= 1, got inf"),
            ("lamp-count-fraction", lambda s: dataclasses.replace(
                s, lighting=dataclasses.replace(s.lighting, lamp_count=0.5)),
             "lighting.lamp_count must be a whole number >= 0, got 0.5")]),
    *(pytest.param(lambda f, content=content: lowcarb.annual_end_use(
        f("baseline_spec"), f("climate"), f("baseline_calibration"), content),
        f"gas_energy_content must be > 0 and finite, got {content!r}",
        id=f"annual-end-use-gas-energy-content-{content}")
      for content in (-10.0, 0.0, math.nan, math.inf)),
    pytest.param(lambda f: lowcarb.fleet_annual_energy(SensorFleet((
        SensorEntry("rainfall", -3, 1.0, 1.0),))),
        "fleet.entries[rainfall].count must be a whole number >= 0, got -3",
        id="fleet-count"),
    pytest.param(lambda f: lowcarb.fleet_annual_energy(SensorFleet((
        SensorEntry("rainfall", 3, 1.0, 5.0),))),
        "fleet.entries[rainfall].duty_cycle must be within [0, 1], got 5.0",
        id="fleet-duty-cycle"),
    pytest.param(lambda f: lowcarb.annual_cost(_REPORT, dataclasses.replace(
        f("tariff"), electricity_price=-1.0), 2612.7), _PRICE_RULE, id="annual-cost-tariff"),
    pytest.param(lambda f: _site_economics(f, electricity_price=-1.0), _PRICE_RULE,
                 id="site-economics-price"),
    pytest.param(lambda f: _site_economics(f, feed_in_price=math.nan),
                 "tariff.feed_in_price must be > 0 and finite, got nan",
                 id="site-economics-feed-in-nan"),
])
def test_library_functions_refuse_a_record_built_in_code_that_breaks_its_rules(
        call, message, request):
    """A spec, calibration, tariff, catalog or fleet record built in code, or a gas energy
    content passed alone, is checked by the rules its fields declare, as a file's would
    be, and an invalid spec is refused in one line, whichever function gets it. Before,
    these calls ranked negative EUIs or costs, ranked a glazing of SHGC 5, reported a
    negative cooling energy, cost, benefit, payback, gas volume (-3477 m3 at -10.0) or
    fleet energy (-26.28 kWh/yr for a count of -3, 131.4 for a duty cycle of 5.0) or
    lighting energy (0.17 GJ/yr for half a lamp), took infinite storeys,
    raised ZeroDivisionError for a gas energy content of 0.0, reported no gas at inf,
    blamed a NaN feed-in price or gas energy content on an overflow, or refused the
    spec in several lines (annual_end_use) or without naming the field (calibrate)."""
    with pytest.raises(SpecError) as err:
        call(request.getfixturevalue)
    assert str(err.value) == message


def test_unset_optional_field_passes_its_rule():
    """A ``float | None`` field left None passes its rule; before, the rule's test
    raised TypeError on the None."""
    assert validate_spec(OrientationLimit()) == []
    (violation,) = validate_spec(OrientationLimit(min_wwr=math.nan))
    assert (violation.field, violation.rule) == ("min_wwr", "must be finite")


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
    record_format."""
    def values(f):
        if isinstance(f.kind, tuple):
            return st.lists(_records(f.kind[0]), max_size=3).map(tuple)
        if f.record:
            return _records(f.kind)
        if f.kind is str:
            return st.text(max_size=8)
        drawn = _passing(f.rule)
        return st.none() | drawn if isinstance(f.kind, types.UnionType) else drawn

    return st.builds(cls, **{f.attr: values(f) for f in record_format(cls)})


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
                                 CalibrationParams, OrientationLimit, BuildingSpec],
                         ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_drawn_records_round_trip_through_their_keys(cls, data):
    """Records within every field's rule (specs as conftest's building_specs draws
    them) read back from to_doc's dict as themselves."""
    record = data.draw(building_specs() if cls is BuildingSpec else _records(cls))
    assert validate_spec(record) == []
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
        # a spec(...) rule is a name bound to a Rule or an Interval of numbers; Rule(...)
        # is called only at model's top level, and no (lambda, text) tuple is left
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
                    interval = (isinstance(rule, ast.Call) and ast.unparse(rule.func) == "Interval"
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
