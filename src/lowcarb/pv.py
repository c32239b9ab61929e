"""Rooftop photovoltaic sizing, yield and simple-payback economics."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import NONNEGATIVE, POSITIVE, Tariff, _read, check, read_json, record_format, spec


@dataclass(frozen=True)
class PanelSpec:
    """One physical module."""

    length: float = spec("length_m", POSITIVE)  # m
    width: float = spec("width_m", POSITIVE)  # m
    rated_power: float = spec("rated_power_w", POSITIVE)  # W

    def __post_init__(self):
        for f in record_format(PanelSpec):
            check(getattr(self, f.attr), f"panel.{f.attr}", f.rule)


@dataclass(frozen=True)
class PvEconomicsReport:
    panel_count: int
    capacity: float  # kW
    annual_generation: float  # kWh/yr
    self_consumed: float  # kWh/yr
    surplus: float  # kWh/yr
    bill_savings: float  # CNY/yr
    feed_in_revenue: float  # CNY/yr
    total_benefit: float  # CNY/yr
    capex: float  # CNY
    payback: float  # years; math.inf when there is no benefit

    def to_dict(self) -> dict:
        d = {
            "panel_count": self.panel_count,
            "capacity_kw": self.capacity,
            "annual_generation_kwh": self.annual_generation,
            "self_consumed_kwh": self.self_consumed,
            "surplus_kwh": self.surplus,
            "bill_savings_cny": self.bill_savings,
            "feed_in_revenue_cny": self.feed_in_revenue,
            "total_benefit_cny": self.total_benefit,
            "capex_cny": self.capex,
            "payback_years": None if math.isinf(self.payback) else self.payback,
        }
        return d


def panel_count(roof_area: float, panel: PanelSpec, packing_factor: float) -> int:
    """Modules that fit: floor(roof_area * packing / module footprint).

    ``packing_factor`` reserves maintenance passages and safety distances.
    """
    if not 0 < packing_factor <= 1:
        raise ValueError(f"packing_factor must lie in (0, 1], got {packing_factor}")
    if roof_area < 0:
        raise ValueError(f"roof_area must be nonnegative, got {roof_area}")
    footprint = panel.length * panel.width
    count = roof_area * packing_factor / footprint if footprint > 0 else math.inf
    if not math.isfinite(count):
        raise ValueError("the roof area over the panel's length and width overflows "
                         "the panel count")
    return math.floor(count)


def annual_generation(capacity: float, equivalent_hours: float) -> float:
    """Annual yield in kWh from capacity (kW) and equivalent full-sun hours."""
    if capacity < 0 or equivalent_hours < 0:
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
    if generation < 0 or consumption < 0 or capex_per_watt < 0 or capacity < 0:
        raise ValueError("economics inputs must be nonnegative")
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
class PvSite:
    """Inputs of the full rooftop chain, as read from a site file; the annual
    consumption is what the array offsets."""

    roof_area: float = spec("roof_area_m2", NONNEGATIVE)  # m2
    panel: PanelSpec = spec("panel")
    packing_factor: float = spec("packing_factor", (lambda v: 0 < v <= 1, "must be within (0, 1]"))
    capex_per_watt: float = spec("capex_per_watt_cny", NONNEGATIVE)  # CNY/W
    annual_consumption: float = spec("annual_consumption_kwh", NONNEGATIVE)  # kWh/yr


def load_pv_site(text: str) -> PvSite:
    """Parse a PV site file: panel dimensions and rating must be > 0, the
    packing factor within (0, 1] and the other values nonnegative."""
    return _read(PvSite, read_json(text, "pv_site"), "pv_site.", row=True)


def site_economics(site: PvSite, equivalent_hours: float,
                   tariff: Tariff) -> PvEconomicsReport:
    """Chain sizing, yield and economics for one site; :class:`ValueError` if the
    site's or the tariff's values, each finite, overflow a reported quantity."""
    count = panel_count(site.roof_area, site.panel, site.packing_factor)
    capacity_kw = count * site.panel.rated_power / 1000.0
    generation = annual_generation(capacity_kw, equivalent_hours)
    report = economics(generation, site.annual_consumption, tariff,
                       site.capex_per_watt, capacity_kw, panel_count=count)
    if not all(math.isfinite(v) for v in report.to_dict().values() if v is not None):
        raise ValueError("the site's roof area, panel, capex or consumption, or the "
                         "tariff's prices, overflow its PV economics")
    return report
