"""The two numeric hot paths: the design-sweep batch evaluator and the node
trace fold.

``batch_energy`` runs :func:`lowcarb.energy.thermal_balance`, the same
function the scalar engine calls, on per-design arrays, so the sweep and
``annual_end_use`` agree to the bit. ``node_sim`` is the only
implementation of the node step; :func:`lowcarb.node.step` runs it on a
one-sample trace. Both are timed per layer by ``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import numpy as np

from .energy import thermal_balance


def numba_enabled() -> bool:
    """Always False: there is no compiled backend.

    Kept because the benchmark records it among the facts of every run.
    """
    return False


# ---------------------------------------------------------------------------
# batch design evaluation (one row per candidate design)
# ---------------------------------------------------------------------------

class _Shading:
    """Per-orientation shading factors, computed when the balance reads them.

    Computing one orientation at a time keeps a single n-long temporary
    alive per season instead of a (4, n) block.
    """

    def __init__(self, overhang, tan_altitude):
        self._overhang = overhang
        self._tan = tan_altitude

    def __getitem__(self, o):
        return 1.0 - np.minimum(1.0, self._overhang[o] * self._tan)


def batch_energy(wwr, overhang, glz_u, glz_shgc, wall_u, roof_u, ach,
                 lighting_kwh, cop, heat_eff, heat_is_gas,
                 gross_area, irradiation, roof_area, volume,
                 tan_summer, tan_winter, t_cool, t_heat, w_cool, w_heat,
                 equip_kwh, gain_mult, floor_area, gas_energy_content):
    """Evaluate the annual energy balance for a whole batch of designs.

    ``wwr`` and ``overhang`` are (4, n) arrays in N, S, E, W order and the
    next nine arguments are length-n arrays, one value per design. The rest
    are shared by the whole sweep: ``gross_area`` and ``irradiation`` per
    orientation, ``t_*`` and ``w_*`` from :func:`lowcarb.energy.season_terms`.
    Returns per-design (eui, electricity_kwh, gas_m3).
    """
    l_cool, l_heat = thermal_balance(
        gross_area, wwr, (wall_u,) * 4, (glz_u,) * 4, (glz_shgc,) * 4, irradiation,
        _Shading(overhang, tan_summer), _Shading(overhang, tan_winter),
        roof_area, roof_u, ach, volume,
        (lighting_kwh + equip_kwh) * gain_mult, t_cool, t_heat, w_cool, w_heat)
    cooling_kwh = l_cool / cop
    heating_fuel_kwh = np.maximum(0.0, l_heat) / heat_eff
    total_kwh = lighting_kwh + equip_kwh + cooling_kwh + heating_fuel_kwh
    electricity = (lighting_kwh + equip_kwh + cooling_kwh
                   + np.where(heat_is_gas, 0.0, heating_fuel_kwh))
    gas_m3 = np.where(heat_is_gas, heating_fuel_kwh / gas_energy_content, 0.0)
    return total_kwh / floor_area, electricity, gas_m3


# ---------------------------------------------------------------------------
# sensor node trace simulation
# ---------------------------------------------------------------------------
#
# Sequential coulomb-counting fold; cannot be vectorized because each step's
# state of charge depends on the previous one.

def node_sim(irradiance, rain, dt_s, soc0, alarm0,
             panel_w, base_load_w, alarm_w, capacity_wh,
             threshold, hysteresis, charge_eff):
    """Run the node trace fold; returns per-step arrays plus ledger totals."""
    n = irradiance.shape[0]
    soc_out = np.empty(n)
    alarm_out = np.empty(n, dtype=np.int8)
    harvest_out = np.empty(n)
    load_out = np.empty(n)
    served_out = np.empty(n, dtype=np.bool_)
    dt_s, panel_w, base_load_w, alarm_w, capacity_wh, threshold, hysteresis, charge_eff = (
        float(v) for v in (dt_s, panel_w, base_load_w, alarm_w, capacity_wh,
                           threshold, hysteresis, charge_eff))
    soc = float(soc0)
    alarm = int(alarm0)
    harvested = 0.0
    served_total = 0.0
    curtailed = 0.0
    for i in range(n):
        # sensor sampled at step start; the alarm draws power the same step
        reading = rain[i]
        if alarm == 0:
            if reading >= threshold:
                alarm = 1
        else:
            if reading < threshold - hysteresis:
                alarm = 0
        harvest_w = panel_w * irradiance[i]
        load_w = base_load_w + (alarm_w if alarm == 1 else 0.0)
        harvest_e = harvest_w * dt_s / 3600.0 * charge_eff
        load_e = load_w * dt_s / 3600.0
        stored = soc * capacity_wh
        available = stored + harvest_e
        served_e = load_e if available >= load_e else available
        raw = stored + harvest_e - served_e
        new_stored = raw if raw < capacity_wh else capacity_wh
        curtailed += raw - new_stored
        harvested += harvest_e
        served_total += served_e
        soc = new_stored / capacity_wh
        soc_out[i] = soc
        alarm_out[i] = alarm
        harvest_out[i] = harvest_w
        load_out[i] = load_w
        served_out[i] = served_e == load_e
    return (soc_out, alarm_out, harvest_out, load_out, served_out,
            harvested, served_total, curtailed)
