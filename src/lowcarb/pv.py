"""Rooftop photovoltaic sizing, yield and simple-payback economics."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import NONNEGATIVE, POSITIVE, Interval, Record, Tariff, check, read_record, spec

#: The share of the roof that modules may cover.
PACKING = Interval(0, 1, "(]")


@dataclass(frozen=True)
class PanelSpec(Record):
    """One physical module."""

    length: float = spec("length_m", POSITIVE)  # m
    width: float = spec("width_m", POSITIVE)  # m
    rated_power: float = spec("rated_power_w", POSITIVE)  # W


@dataclass(frozen=True)
class PvEconomicsReport:
    """Sizing, yield and simple-payback economics of one array, under its report keys."""

    panel_count: int = spec("panel_count")
    capacity: float = spec("capacity_kw")  # kW
    annual_generation: float = spec("annual_generation_kwh")  # kWh/yr
    self_consumed: float = spec("self_consumed_kwh")  # kWh/yr
    surplus: float = spec("surplus_kwh")  # kWh/yr
    bill_savings: float = spec("bill_savings_cny")  # CNY/yr
    feed_in_revenue: float = spec("feed_in_revenue_cny")  # CNY/yr
    total_benefit: float = spec("total_benefit_cny")  # CNY/yr
    capex: float = spec("capex_cny")  # CNY
    payback: float = spec("payback_years")  # years; math.inf when there is no benefit


def panel_count(roof_area: float, panel: PanelSpec, packing_factor: float) -> int:
    """Modules that fit: floor(roof_area * packing / module footprint).

    ``packing_factor`` reserves maintenance passages and safety distances.
    """
    check(packing_factor, "packing_factor", PACKING)
    check(roof_area, "roof_area", NONNEGATIVE)
    footprint = panel.length * panel.width
    count = roof_area * packing_factor / footprint if footprint > 0 else math.inf
    if not math.isfinite(count):
        raise ValueError("the roof area over the panel's length and width overflows "
                         "the panel count")
    return math.floor(count)


def annual_generation(capacity: float, equivalent_hours: float) -> float:
    """Annual yield in kWh from capacity (kW) and equivalent full-sun hours."""
    # NaN fails; +inf passes on, for site_economics to name what overflowed
    if not (capacity >= 0 and equivalent_hours >= 0):
        raise ValueError("capacity and equivalent_hours must be nonnegative")
    return capacity * equivalent_hours


def economics(generation: float, consumption: float, tariff: Tariff,
              capex_per_watt: float, capacity: float,
              panel_count: int = 0) -> PvEconomicsReport:
    """Simple-payback economics of a grid-connected rooftop array.

    Self-consumed energy offsets the bill at the retail price; the surplus
    sells at the feed-in price. No degradation, discounting or O&M: payback
    is capex over first-year benefit, infinite when there is no benefit.
    """
    if not all(v >= 0 for v in (generation, consumption, capex_per_watt, capacity)):  # NaN fails
        raise ValueError("generation, consumption, capex_per_watt and capacity must be "
                         "nonnegative")
    self_consumed = min(generation, consumption)
    surplus = max(0.0, generation - consumption)
    bill_savings = self_consumed * tariff.electricity_price
    feed_in_revenue = surplus * tariff.feed_in_price
    total_benefit = bill_savings + feed_in_revenue
    capex = capacity * 1000.0 * capex_per_watt
    payback = capex / total_benefit if total_benefit > 0 else math.inf
    return PvEconomicsReport(
        panel_count=panel_count,
        capacity=capacity,
        annual_generation=generation,
        self_consumed=self_consumed,
        surplus=surplus,
        bill_savings=bill_savings,
        feed_in_revenue=feed_in_revenue,
        total_benefit=total_benefit,
        capex=capex,
        payback=payback,
    )


@dataclass(frozen=True)
class PvSite(Record):
    """Inputs of the full rooftop chain, as read from a site file; the annual
    consumption is what the array offsets."""

    roof_area: float = spec("roof_area_m2", NONNEGATIVE)  # m2
    panel: PanelSpec = spec("panel")
    packing_factor: float = spec("packing_factor", PACKING)
    capex_per_watt: float = spec("capex_per_watt_cny", NONNEGATIVE)  # CNY/W
    annual_consumption: float = spec("annual_consumption_kwh", NONNEGATIVE)  # kWh/yr


def load_pv_site(text: str) -> PvSite:
    """Parse a PV site file: panel dimensions and rating must be > 0, the
    packing factor within (0, 1] and the other values nonnegative."""
    return read_record(PvSite, text, "pv_site", "PV site")


def site_economics(site: PvSite, equivalent_hours: float,
                   tariff: Tariff) -> PvEconomicsReport:
    """Chain sizing, yield and economics for one site; :class:`ValueError` if the
    site's or the tariff's values, each finite, overflow a reported quantity. The
    payback is infinite only when there is no benefit."""
    count = panel_count(site.roof_area, site.panel, site.packing_factor)
    capacity_kw = count * site.panel.rated_power / 1000.0
    generation = annual_generation(capacity_kw, equivalent_hours)
    report = economics(generation, site.annual_consumption, tariff,
                       site.capex_per_watt, capacity_kw, panel_count=count)
    if not all(math.isfinite(v) or (name == "payback" and report.total_benefit == 0)
               for name, v in vars(report).items()):
        raise ValueError("the site's roof area, panel, capex or consumption, or the "
                         "tariff's prices, overflow its PV economics")
    return report
