import math

import pytest
from hypothesis import given, strategies as st

from lowcarb import PanelSpec, annual_generation, economics, panel_count, read_fixture
from lowcarb.pv import load_pv_site, site_economics

PANEL = PanelSpec(length=1.6, width=1.0, rated_power=300.0)


class TestPanelCount:
    def test_roof_with_maintenance_clearances(self):
        assert panel_count(700.0, PANEL, 0.8) == 350

    def test_zero_roof(self):
        assert panel_count(0.0, PANEL, 0.8) == 0

    def test_full_coverage(self):
        # floor(700 / 1.6) = 437
        assert panel_count(700.0, PANEL, 1.0) == 437

    def test_bad_packing_factor(self):
        with pytest.raises(ValueError):
            panel_count(700.0, PANEL, 0.0)

    @given(area=st.floats(0, 5000, allow_nan=False),
           packing=st.floats(0.01, 1.0, allow_nan=False))
    def test_count_is_integral_and_fits(self, area, packing):
        n = panel_count(area, PANEL, packing)
        footprint = PANEL.length * PANEL.width
        assert n * footprint <= area * packing + 1e-6
        assert (n + 1) * footprint > area * packing - 1e-6


class TestAnnualGeneration:
    def test_case_study_array(self):
        assert annual_generation(105.0, 1200.0) == pytest.approx(126_000.0)

    def test_zero_capacity(self):
        assert annual_generation(0.0, 1200.0) == 0.0

    def test_node_panel(self):
        # the 6 W monitoring-node panel over the same sun resource
        assert annual_generation(0.006, 1200.0) == pytest.approx(7.2, rel=1e-12)

    @pytest.mark.parametrize("which", [0, 1], ids=["capacity", "equivalent_hours"])
    def test_guard_boundary_is_zero(self, which):
        args = [105.0, 1200.0]
        args[which] = 0.0
        assert annual_generation(*args) == 0.0
        args[which] = -1e-12
        with pytest.raises(ValueError):
            annual_generation(*args)


class TestEconomics:
    def test_case_study_chain(self, tariff):
        report = economics(126_000.0, 30_283.0, tariff, 3.8, 105.0, panel_count=350)
        assert report.bill_savings == pytest.approx(19_986.78, abs=0.005)
        assert report.surplus == pytest.approx(95_717.0)
        assert report.feed_in_revenue == pytest.approx(33_500.95, abs=0.005)
        assert report.total_benefit == pytest.approx(53_487.73, abs=0.01)
        assert report.capex == pytest.approx(399_000.0)
        assert report.payback == pytest.approx(7.46, abs=0.01)

    def test_zero_generation(self, tariff):
        report = economics(0.0, 30_283.0, tariff, 3.8, 105.0)
        assert report.bill_savings == 0.0
        assert report.feed_in_revenue == 0.0
        assert report.total_benefit == 0.0
        assert math.isinf(report.payback)

    @pytest.mark.parametrize("which", [0, 1, 3, 4],
                             ids=["generation", "consumption", "capex_per_watt", "capacity"])
    def test_guard_boundary_is_zero(self, which, tariff):
        args = [126_000.0, 30_283.0, tariff, 3.8, 105.0]
        args[which] = 0.0
        economics(*args)
        args[which] = -1e-12
        with pytest.raises(ValueError):
            economics(*args)

    def test_undersized_array_has_no_surplus(self, tariff):
        report = economics(20_000.0, 30_283.0, tariff, 3.8, 105.0)
        assert report.surplus == 0.0
        assert report.total_benefit == pytest.approx(13_200.0)
        assert report.payback == pytest.approx(30.23, abs=0.005)

    @given(gen=st.floats(0, 500_000, allow_nan=False),
           cons=st.floats(0, 500_000, allow_nan=False))
    def test_split_identity(self, gen, cons, tariff):
        report = economics(gen, cons, tariff, 3.8, 105.0)
        assert report.self_consumed + report.surplus == pytest.approx(gen, rel=1e-12,
                                                                      abs=1e-9)

    @given(gen=st.floats(1, 500_000, allow_nan=False))
    def test_payback_times_benefit_is_capex(self, gen, tariff):
        report = economics(gen, 30_283.0, tariff, 3.8, 105.0)
        assert report.payback * report.total_benefit == pytest.approx(report.capex,
                                                                      rel=1e-9)

    @given(gen=st.floats(0, 500_000, allow_nan=False),
           extra=st.floats(0, 100_000, allow_nan=False))
    def test_benefit_nondecreasing_in_generation(self, gen, extra, tariff):
        lo = economics(gen, 30_283.0, tariff, 3.8, 105.0)
        hi = economics(gen + extra, 30_283.0, tariff, 3.8, 105.0)
        assert hi.total_benefit >= lo.total_benefit - 1e-9

    @given(hours_lo=st.floats(1, 3000, allow_nan=False),
           bump=st.floats(0, 2000, allow_nan=False))
    def test_payback_nonincreasing_in_sun_hours(self, hours_lo, bump, tariff):
        lo = economics(annual_generation(105.0, hours_lo), 30_283.0, tariff, 3.8, 105.0)
        hi = economics(annual_generation(105.0, hours_lo + bump), 30_283.0, tariff,
                       3.8, 105.0)
        assert hi.payback <= lo.payback + 1e-9


def test_site_chain_matches_components(tariff, climate):
    site = load_pv_site(read_fixture("pv_site.json"))
    report = site_economics(site, climate.pv_equivalent_full_sun_hours, tariff)
    assert report.panel_count == 350
    assert report.capacity == pytest.approx(105.0)
    assert report.annual_generation == pytest.approx(126_000.0)
    assert report.payback == pytest.approx(7.46, abs=0.01)


def test_panel_spec_validation():
    with pytest.raises(ValueError):
        PanelSpec(length=0.0, width=1.0, rated_power=300.0)
