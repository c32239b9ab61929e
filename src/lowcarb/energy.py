"""Steady-state annual energy engine.

The model is a degree-day surrogate: conduction and infiltration scale with
annual cooling/heating degree days, solar gains through glazing are split
between the cooling and heating seasons by degree-day mass, and internal
gains (lighting + equipment, scaled by a calibrated multiplier) load the
cooling system while a small utilization factor credits them against
heating. Everything is a pure function of its arguments; identical inputs
give bit-identical reports.

The scalar engine and the design sweep share every model formula, written only here:
the input functions, :func:`facade_loads`, :func:`core_loads`, :func:`thermal_balance`,
:func:`end_use` and :func:`cost_per_m2`. The thermal balance is a core term plus one
term per facade, a sum over building elements as in ISO 13790.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    ALTITUDE,
    ORIENTATION_ORDER,
    BuildingSpec,
    CalibrationError,
    ClimateProfile,
    NONNEGATIVE,
    POSITIVE,
    HeatingFuel,
    Record,
    Tariff,
    _read,
    check,
    read_json,
    read_record,
    spec,
)

#: Volumetric heat capacity of air, Wh/(m3.K).
AIR_HEAT_CAPACITY_WH_M3K = 0.335

#: Fraction of heating-season solar and internal gains that actually displace
#: heating. In a warm, cooling-dominated climate most winter gains arrive
#: when no heating runs, so utilization is low.
HEATING_GAIN_UTILIZATION = 0.05

#: Default fuel energy content used to express heating fuel as gas volume
#: when no tariff is at hand; the bundled tariff carries the same value.
DEFAULT_GAS_ENERGY_CONTENT_KWH_M3 = 10.0

#: Largest relative end-use residual :func:`calibrate` accepts.
CALIBRATION_TOLERANCE = 0.005

MJ_PER_KWH = 3.6
KWH_PER_GJ = 1000.0 / MJ_PER_KWH


@dataclass(frozen=True)
class CalibrationParams(Record):
    """Multipliers absorbing everything the surrogate does not model.

    ``internal_gain_multiplier`` rescales the internal gains seen by the
    thermal balance (ventilation, latent and occupant loads collapse into
    it, so calibrated values well above 1 are expected).
    ``schedule_multiplier`` rescales lighting energy and
    ``equipment_multiplier`` rescales equipment energy.
    """

    internal_gain_multiplier: float = spec("internal_gain_multiplier", NONNEGATIVE, default=1.0)
    schedule_multiplier: float = spec("schedule_multiplier", NONNEGATIVE, default=1.0)
    equipment_multiplier: float = spec("equipment_multiplier", NONNEGATIVE, default=1.0)


@dataclass(frozen=True)
class EnergyReport:
    """Annual end-use energy in GJ with fuel attribution, under its report keys."""

    lighting: float = spec("lighting_gj")  # GJ/yr
    cooling: float = spec("cooling_gj")  # GJ/yr
    heating: float = spec("heating_gj")  # GJ/yr
    equipment: float = spec("equipment_gj")  # GJ/yr
    total: float = spec("total_gj")  # GJ/yr, exact sum of the four components
    electricity: float = spec("electricity_kwh")  # kWh/yr
    gas: float = spec("gas_m3")  # m3/yr


@dataclass(frozen=True)
class EndUseTargets(Record):
    """Calibration targets, annual GJ per end use."""

    lighting_gj: float = spec("lighting_gj", POSITIVE)
    cooling_gj: float = spec("cooling_gj", POSITIVE)
    heating_gj: float = spec("heating_gj", POSITIVE)
    equipment_gj: float = spec("equipment_gj", POSITIVE)

    @staticmethod
    def from_json(text: str) -> "EndUseTargets":
        """Parse a targets file; every target must be a finite number > 0."""
        return read_record(EndUseTargets, text, "targets", "targets")


def shading_factor(overhang_ratio: float, sun_altitude: float) -> float:
    """Transmitted direct-sun fraction under a horizontal overhang.

    ``1 - min(1, overhang_ratio * tan(sun_altitude))``: a deeper overhang or
    a higher sun shades more of the window.

    Parameters
    ----------
    overhang_ratio : float
        Overhang depth divided by window height, >= 0.
    sun_altitude : float
        Design sun altitude in degrees, within (0, 90).
    """
    check(overhang_ratio, "overhang_ratio", NONNEGATIVE)
    check(sun_altitude, "sun_altitude", ALTITUDE)
    return 1.0 - min(1.0, overhang_ratio * math.tan(math.radians(sun_altitude)))


def season_terms(climate: ClimateProfile) -> tuple[float, float, float, float]:
    """(t_cool, t_heat, w_cool, w_heat) of a climate.

    ``t_*`` are annual degree hours in kWh per W/K; ``w_*`` are the cooling
    and heating shares of the year measured by degree-day mass.
    """
    cdd = climate.annual_cdd
    hdd = climate.annual_hdd
    total = cdd + hdd
    w_cool, w_heat = (0.0, 0.0) if total <= 0.0 else (cdd / total, hdd / total)
    return cdd * 24.0 / 1000.0, hdd * 24.0 / 1000.0, w_cool, w_heat


def seasonal_shading(overhang_ratio: float, climate: ClimateProfile) -> tuple[float, float]:
    """(summer, winter) :func:`shading_factor` at the climate's design sun altitudes."""
    return (shading_factor(overhang_ratio, climate.summer_design_sun_altitude),
            shading_factor(overhang_ratio, climate.winter_design_sun_altitude))


def annual_lighting_kwh(count: float, lamp_power: float, hours: float,
                        daylight_offset: float) -> float:
    """Annual lighting energy in kWh, before the schedule multiplier."""
    return count * lamp_power * hours * (1.0 - daylight_offset) / 1000.0


def scheduled_lighting_kwh(spec: BuildingSpec, lamp_power: float,
                           calib: CalibrationParams) -> float:
    """Annual lighting kWh of the spec's lamps at ``lamp_power``, after the schedule multiplier."""
    return annual_lighting_kwh(spec.lighting.lamp_count, lamp_power, spec.lighting.annual_hours,
                               spec.lighting.daylight_offset) * calib.schedule_multiplier


def annual_equipment_kwh(spec: BuildingSpec, calib: CalibrationParams) -> float:
    """Annual equipment energy in kWh, after the equipment multiplier."""
    return (spec.equipment_power_density * spec.floor_area * spec.occupancy_hours / 1000.0
            * calib.equipment_multiplier)


def facade_loads(gross_area, wwr, wall_u, glz_u, glz_shgc, irradiation, shade_summer,
                 shade_winter, t_cool, t_heat, w_cool, w_heat):
    """One facade's annual (cooling, heating) load terms in kWh.

    Transmission through its opaque wall and its glazing (the ``wwr`` share of
    ``gross_area``) over the season's degree hours, plus the glazing's solar gains
    under the :func:`seasonal_shading` factors ``shade_*``, which load cooling whole
    and offset heating at :data:`HEATING_GAIN_UTILIZATION`. ``t_*`` and ``w_*`` come
    from :func:`season_terms`. Any value may be a float or a float64 array, arrays
    broadcasting: only ``+ - *`` touch them, so a float and an array give the same bits.
    """
    a_glz = gross_area * wwr
    h = (gross_area - a_glz) * wall_u + a_glz * glz_u
    solar = glz_shgc * a_glz * irradiation
    return (h * t_cool + w_cool * (solar * shade_summer),
            h * t_heat - HEATING_GAIN_UTILIZATION * w_heat * (solar * shade_winter))


def core_loads(roof_area, roof_u, ach, volume, lighting_kwh, equip_kwh, gain_mult,
               t_cool, t_heat, w_cool, w_heat):
    """The (cooling, heating) load terms in kWh of roof conduction, infiltration and the
    internal gains ``(lighting_kwh + equip_kwh) * gain_mult``, which load cooling whole
    and offset heating at :data:`HEATING_GAIN_UTILIZATION`; floats or float64 arrays,
    as in :func:`facade_loads`."""
    gains = (lighting_kwh + equip_kwh) * gain_mult
    h = roof_area * roof_u + AIR_HEAT_CAPACITY_WH_M3K * ach * volume
    return h * t_cool + w_cool * gains, h * t_heat - HEATING_GAIN_UTILIZATION * w_heat * gains


def thermal_balance(core, facades):
    """Annual (cooling load kWh, unclamped heating load kWh): the :func:`core_loads`
    pair plus each :func:`facade_loads` pair, added left to right in ``ORIENTATION_ORDER``.

    A rounded sum never grows when one of its terms shrinks, so lowering any term
    never raises either load, to the bit. The scalar engine, the sweep kernel and the
    sweep's group bounds all add these terms here, in this order.
    """
    cool, heat = core
    for f_cool, f_heat in facades:
        cool = cool + f_cool
        heat = heat + f_heat
    return cool, heat


def _loads(spec: BuildingSpec, climate: ClimateProfile,
           calib: CalibrationParams) -> tuple[float, float, float, float]:
    """Thermal balance: (cooling load kWh, unclamped heating load kWh,
    lighting kWh, equipment kWh)."""
    lighting_kwh = scheduled_lighting_kwh(spec, spec.lighting.lamp_power, calib)
    equipment_kwh = annual_equipment_kwh(spec, calib)
    season = season_terms(climate)
    facades = [facade_loads(g.gross_wall_area, g.wwr, g.wall.u_value, g.glazing.u_value,
                            g.glazing.shgc, climate.irradiation[o],
                            *seasonal_shading(g.overhang_ratio, climate), *season)
               for o in ORIENTATION_ORDER for g in [spec.envelope(o)]]
    core = core_loads(spec.roof.area, spec.roof.construction.u_value, spec.infiltration,
                      spec.conditioned_volume, lighting_kwh, equipment_kwh,
                      calib.internal_gain_multiplier, *season)
    return (*thermal_balance(core, facades), lighting_kwh, equipment_kwh)


def end_use(l_cool, l_heat, lighting_kwh, equip_kwh, cop, heat_eff, heat_is_gas,
            floor_area, gas_energy_content):
    """(0) EUI kWh/m2, (1) electricity kWh, (2) gas m3, then in GJ (3) lighting, (4) cooling,
    (5) heating, (6) equipment, (7) their sum, from the cooling and unclamped heating
    loads of :func:`thermal_balance`.

    Cooling is electric at ``cop``; the heating load, clamped at zero, is served
    at ``heat_eff`` by gas where ``heat_is_gas`` (a bool, or 0.0/1.0 per design),
    else by electricity. The engine converts kWh to GJ (``kwh * MJ_PER_KWH / 1000``,
    summed in the order above) and forms an EUI (``total_gj * KWH_PER_GJ /
    floor_area``, as :func:`eui` does) only here. Only ``+ - * /`` and ``abs`` touch
    the arguments, so floats and float64 arrays run the same code. The EUI never
    falls as a load grows, as ``cop``, ``heat_eff`` > 0.
    """
    cooling_kwh = l_cool / cop
    # max(0, l_heat) to the bit, and +0.0 for a negative load; the sum overflows
    # only when l_heat >= 2^1023
    heating_kwh = (l_heat + abs(l_heat)) / 2 / heat_eff
    electricity = lighting_kwh + equip_kwh + cooling_kwh + heating_kwh * (1 - heat_is_gas)
    gas_m3 = heating_kwh * heat_is_gas / gas_energy_content
    gj = [kwh * MJ_PER_KWH / 1000.0 for kwh in (lighting_kwh, cooling_kwh, heating_kwh, equip_kwh)]
    total_gj = gj[0] + gj[1] + gj[2] + gj[3]  # not sum(): from 3.12 it compensates rounding
    return total_gj * KWH_PER_GJ / floor_area, electricity, gas_m3, *gj, total_gj


def annual_end_use(spec: BuildingSpec, climate: ClimateProfile,
                   calib: CalibrationParams = CalibrationParams(),
                   gas_energy_content: float = DEFAULT_GAS_ENERGY_CONTENT_KWH_M3,
                   ) -> EnergyReport:
    """Annual end-use energy for one building under one climate, from :func:`end_use`.

    Raises
    ------
    SpecError
        If ``gas_energy_content`` breaks the tariff's rule (> 0 and finite). The spec and
        ``calib`` are records, tested when they were built.
    ValueError
        If the spec's values or ``gas_energy_content`` overflow an end use.
    """
    check(gas_energy_content, "gas_energy_content", POSITIVE)

    cooling_load, heating_load, lighting_kwh, equipment_kwh = _loads(spec, climate, calib)
    _, electricity, gas_m3, *gj = end_use(
        cooling_load, heating_load, lighting_kwh, equipment_kwh, spec.hvac.cooling_cop,
        spec.hvac.heating_efficiency, spec.hvac.heating_fuel is HeatingFuel.GAS,
        spec.floor_area, gas_energy_content)
    if not all(map(math.isfinite, (electricity, gas_m3, *gj))):
        raise ValueError("the spec's areas, volume or loads, or the gas energy content, "
                         "overflow its annual end use")
    return EnergyReport(*gj, electricity=electricity, gas=gas_m3)


def eui(report: EnergyReport, floor_area: float) -> float:
    """Energy use intensity, kWh/(m2.yr), with 1 kWh = 3.6 MJ: :func:`end_use`'s formula."""
    check(floor_area, "floor_area", POSITIVE)
    value = report.total * KWH_PER_GJ / floor_area
    if not math.isfinite(value):
        raise ValueError("the spec's end use over its floor area overflows the EUI")
    return value


def cost_per_m2(electricity, gas, tariff: Tariff, floor_area):
    """Annual energy cost per floor area, CNY/(m2.yr); floats or float64 arrays."""
    return (electricity * tariff.electricity_price + gas * tariff.gas_price) / floor_area


def annual_cost(report: EnergyReport, tariff: Tariff, floor_area: float) -> float:
    """Annual energy cost per floor area, CNY/(m2.yr), from :func:`cost_per_m2`."""
    check(floor_area, "floor_area", POSITIVE)
    value = cost_per_m2(report.electricity, report.gas, tariff, floor_area)
    if not math.isfinite(value):
        raise ValueError("the tariff's prices or the spec's floor area overflow the annual cost")
    return value


def calibrate(spec: BuildingSpec, climate: ClimateProfile,
              targets: EndUseTargets) -> CalibrationParams:
    """Find multipliers reproducing the target end-use split.

    Deterministic coordinate descent: the lighting and equipment targets fix
    their multipliers exactly (both are linear), then the internal-gain
    multiplier is the closed-form least-squares minimizer of the relative
    cooling and heating residuals, honoring the heating clamp.

    Raises
    ------
    ValueError
        If a target is so large against the spec's end use that its multiplier overflows,
        or a cooling or heating target so small or large that the least squares does.
    CalibrationError
        If the best residual exceeds :data:`CALIBRATION_TOLERANCE`.
    """
    base = annual_end_use(spec, climate, CalibrationParams())
    if base.lighting <= 0 or base.equipment <= 0:
        raise CalibrationError(
            "model lighting/equipment energy is zero; schedule targets unreachable",
            best_residual=math.inf)
    schedule_m = targets.lighting_gj / base.lighting
    equipment_m = targets.equipment_gj / base.equipment
    if not (math.isfinite(schedule_m) and math.isfinite(equipment_m)):
        raise ValueError("the targets' lighting_gj or equipment_gj overflows its multiplier")

    # Cooling is affine in the gain multiplier, heating is affine until the
    # clamp: probe the unclamped loads at 0 and 1 to recover both lines.
    target_cool_kwh = targets.cooling_gj * KWH_PER_GJ * spec.hvac.cooling_cop
    target_heat_kwh = targets.heating_gj * KWH_PER_GJ * spec.hvac.heating_efficiency

    def loads_at(igm: float) -> tuple[float, float]:
        params = CalibrationParams(igm, schedule_m, equipment_m)
        cool, heat_unclamped, _, _ = _loads(spec, climate, params)
        return cool, heat_unclamped

    cool0, heat0 = loads_at(0.0)
    cool1, heat1 = loads_at(1.0)
    cool_slope = cool1 - cool0
    heat_slope = heat0 - heat1  # heating decreases with gains

    def residuals(igm: float) -> tuple[float, float]:
        cool = cool0 + cool_slope * igm
        heat = max(0.0, heat0 - heat_slope * igm)
        return (cool - target_cool_kwh) / target_cool_kwh, \
               (heat - target_heat_kwh) / target_heat_kwh

    def objective(igm: float) -> float:
        rc, rh = residuals(igm)
        return rc * rc + rh * rh

    candidates = [0.0]
    # unclamped least squares, whose float squares a tiny or huge target overflows or zeroes
    try:
        denom = (cool_slope / target_cool_kwh) ** 2 + (heat_slope / target_heat_kwh) ** 2
        if denom > 0:
            num = ((target_cool_kwh - cool0) * cool_slope / target_cool_kwh ** 2
                   + (heat0 - target_heat_kwh) * heat_slope / target_heat_kwh ** 2)
            candidates.append(max(0.0, num / denom))
    except (OverflowError, ZeroDivisionError):
        raise ValueError("the targets' cooling_gj or heating_gj overflows the least squares "
                         "of the internal-gain multiplier") from None
    # clamp boundary and the cooling-only optimum in the clamped region
    if heat_slope > 0:
        candidates.append(max(0.0, heat0 / heat_slope))
    if cool_slope > 0:
        candidates.append(max(0.0, (target_cool_kwh - cool0) / cool_slope))

    gain_m = min(candidates, key=lambda x: (objective(x), x))

    params = CalibrationParams(gain_m, schedule_m, equipment_m)
    achieved = annual_end_use(spec, climate, params)
    worst = max(
        abs(achieved.lighting - targets.lighting_gj) / targets.lighting_gj,
        abs(achieved.cooling - targets.cooling_gj) / targets.cooling_gj,
        abs(achieved.heating - targets.heating_gj) / targets.heating_gj,
        abs(achieved.equipment - targets.equipment_gj) / targets.equipment_gj,
    )
    if worst > CALIBRATION_TOLERANCE:
        raise CalibrationError(
            f"calibration residual {worst:.4%} exceeds tolerance {CALIBRATION_TOLERANCE:.2%}",
            best_residual=worst)
    return params


def load_calibration(text: str) -> CalibrationParams:
    """Read the ``calibration`` block of a spec.

    An absent or ``null`` block gives the default multipliers, and so does an
    absent multiplier.

    Raises
    ------
    SpecError
        If the block is not a JSON object, holds a key other than the three
        multipliers, or a multiplier is not a finite number >= 0. Zero stays
        legal: :func:`calibrate` can fit 0 for the internal-gain multiplier.
    """
    block = read_json(text, "calibration").get("calibration")
    return _read(CalibrationParams, {} if block is None else block, "calibration.",
                 "calibration")
