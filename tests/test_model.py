import ast
import dataclasses
import json
import math
from pathlib import Path

import pytest
from conftest import building_specs
from hypothesis import given, strategies as st

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
from lowcarb.energy import EndUseTargets
from lowcarb.model import (
    FRACTION,
    POSITIVE,
    HeatingFuel,
    LightingTechnology,
    Roof,
    Tariff,
    load_climate_profile,
    load_tariff,
    number,
    read_fixture,
    read_json,
    record_format,
)
from lowcarb.pv import PvSite, load_pv_site


# ---------------------------------------------------------------------------
# parse_building_spec
# ---------------------------------------------------------------------------

class TestParseBuildingSpec:
    def test_baseline_fixture_floor_area(self, baseline_spec):
        # 1,664.82 GJ / 3.6 MJ/kWh / 177 kWh/m2/yr pins the floor area
        assert baseline_spec.floor_area == pytest.approx(2612.7)

    def test_baseline_fixture_south_wwr(self, baseline_spec):
        assert baseline_spec.envelope("S").wwr == pytest.approx(0.24)

    def test_out_of_range_wwr_rejected(self, baseline_text):
        doc = json.loads(baseline_text)
        doc["orientations"][1]["wwr"] = 1.2
        with pytest.raises(SpecError) as err:
            parse_building_spec(json.dumps(doc))
        assert any("wwr" in v.field for v in err.value.violations)

    def test_syntax_error_reports_position(self):
        with pytest.raises(SpecError, match=r"syntax error at line 2"):
            parse_building_spec('{\n  "name": }')

    def test_missing_required_field(self, baseline_text):
        doc = json.loads(baseline_text)
        del doc["floor_area_m2"]
        with pytest.raises(SpecError, match="floor_area_m2"):
            parse_building_spec(json.dumps(doc))

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

    def test_negative_infiltration(self, baseline_spec):
        bad = dataclasses.replace(baseline_spec, infiltration=-1.0)
        violations = validate_spec(bad)
        assert len(violations) == 1
        assert violations[0].field == "infiltration"
        assert "nonnegative" in violations[0].rule

    def test_zero_storeys(self, baseline_spec):
        bad = dataclasses.replace(baseline_spec, storeys=0)
        violations = validate_spec(bad)
        assert [v.field for v in violations] == ["storeys"]

    def test_duplicate_orientation(self, baseline_spec):
        groups = list(baseline_spec.orientations)
        groups[0] = dataclasses.replace(groups[0], orientation=Orientation.S)
        bad = dataclasses.replace(baseline_spec, orientations=tuple(groups))
        assert any(v.field == "orientations" for v in validate_spec(bad))

    @given(
        infiltration=st.floats(-2, 5, allow_nan=False),
        occupancy=st.floats(-100, 9000, allow_nan=False),
        wwr=st.floats(-0.5, 1.5, allow_nan=False),
        offset=st.floats(-0.5, 1.5, allow_nan=False),
    )
    def test_emptiness_matches_invariants(self, infiltration, occupancy, wwr, offset):
        """validate_spec is empty exactly when every fuzzed field is in range."""
        spec = _make_spec(infiltration=infiltration, occupancy_hours=occupancy,
                          south_wwr=wwr, daylight_offset=offset)
        expected_ok = (infiltration >= 0 and 0 <= occupancy <= 8760
                       and 0 <= wwr <= 1 and 0 <= offset <= 1)
        assert (validate_spec(spec) == []) == expected_ok


# ---------------------------------------------------------------------------
# glazed_area
# ---------------------------------------------------------------------------

def _make_spec(infiltration=0.5, occupancy_hours=2000.0, south_wwr=0.4,
               south_area=100.0, daylight_offset=0.0) -> BuildingSpec:
    wall = OpaqueConstruction("w", 1.0)
    glazing = GlazingOption("g", 2.0, 0.5, 0.7)
    groups = tuple(
        EnvelopeGroup(Orientation(o), south_area if o == "S" else 50.0,
                      south_wwr if o == "S" else 0.2, wall, glazing, 0.0)
        for o in ("N", "S", "E", "W"))
    return BuildingSpec(
        name="synthetic", floor_area=200.0, conditioned_volume=600.0, storeys=2,
        orientations=groups, roof=Roof(OpaqueConstruction("r", 1.0), 100.0),
        infiltration=infiltration, occupancy_hours=occupancy_hours,
        equipment_power_density=5.0,
        lighting=LightingSystem(LightingTechnology.LED, 30.0, 10, 2000.0,
                                daylight_offset),
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

    def test_nonpositive_price_rejected(self):
        from lowcarb import load_tariff
        with pytest.raises(SpecError, match="electricity_price"):
            load_tariff(json.dumps({
                "electricity_price_cny_kwh": 0, "gas_price_cny_m3": 1,
                "gas_energy_content_kwh_m3": 10, "feed_in_price_cny_kwh": 0.3}))

    def test_fleet_duty_cycle_range(self):
        from lowcarb import load_sensor_fleet
        with pytest.raises(SpecError, match="duty_cycle"):
            load_sensor_fleet(json.dumps({
                "entries": [{"kind": "x", "count": 1, "unit_power_w": 1.0,
                             "duty_cycle": 1.5}]}))

    @pytest.mark.parametrize("field, value", [("kind", 5), ("count", 1.5),
                                              ("unit_power_w", -1.0), ("duty_cycle", 1.5)])
    def test_fleet_entry_errors_name_the_fleet(self, field, value):
        from lowcarb import load_sensor_fleet
        entry = {"kind": "x", "count": 1, "unit_power_w": 1.0, "duty_cycle": 0.5, field: value}
        with pytest.raises(SpecError, match=rf"^fleet\.entries\[0\]\.{field}"):
            load_sensor_fleet(json.dumps({"entries": [entry]}))


def _field_paths(cls, path=()):
    """The key path of every field of the record type ``cls`` and of its nested records."""
    for f in record_format(cls):
        yield path + (f.key,)
        if f.record:
            yield from _field_paths(f.kind, path + (f.key,))


#: (bundled file, field context, loader, record type) of each flat input file.
_FLAT_FILES = [("paper_tariff.json", "tariff.", load_tariff, Tariff),
               ("baseline_targets.json", "targets.", EndUseTargets.from_json, EndUseTargets),
               ("pv_site.json", "pv_site.", load_pv_site, PvSite)]


@pytest.mark.parametrize("name, context, load, path", [
    pytest.param(name, context, load, path, id=context + ".".join(path))
    for name, context, load, cls in _FLAT_FILES for path in _field_paths(cls)])
@pytest.mark.parametrize("value", [None, math.nan], ids=["drop", "nan"])
def test_flat_file_errors_name_the_field(name, context, load, path, value):
    doc = json.loads(read_fixture(name))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    field = context + ".".join(path)
    with pytest.raises(SpecError) as err:
        load(json.dumps(doc))
    if value is None:
        assert str(err.value) == f"missing required field {field}"
    else:
        assert str(err.value).startswith(f"{field} must be ")


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

    @pytest.mark.parametrize("raw", [math.nan, math.inf, -math.inf, "nan", "inf", "-inf"])
    @pytest.mark.parametrize("rule", [POSITIVE, FRACTION])
    def test_nan_and_infinity_fail_every_rule(self, raw, rule):
        with pytest.raises(SpecError, match=r"^file\.x must be "):
            number({"x": raw}, "x", "file.", rule)

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
