"""The two numeric hot paths: the design-sweep batch evaluator and the node
trace fold.

``batch_energy`` is the adapter that ``perfbench`` wraps to time the sweep: it
runs :func:`lowcarb.energy.thermal_balance` and :func:`lowcarb.energy.end_use`,
the functions the scalar engine calls, on per-design arrays of the same inputs
(shading included, from :func:`lowcarb.energy.shading_factor`), so the two agree
to the bit.
``node_sim`` is the only implementation of the node step; :func:`lowcarb.node.step`
runs it on a one-sample trace. Both are timed per layer by ``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

# numpy and lowcarb.energy are imported by the functions that use them, so that
# the numpy-free subcommands do not load numpy and node-sim does not load energy.


def numba_enabled() -> bool:
    """Always False: there is no compiled backend.

    Kept because the benchmark records it among the facts of every run.
    """
    return False


# ---------------------------------------------------------------------------
# batch design evaluation (one row per candidate design)
# ---------------------------------------------------------------------------

def batch_energy(wwr, shading, glz_u, glz_shgc, wall_u, roof_u, ach,
                 lighting_kwh, cop, heat_eff, heat_is_gas,
                 gross_area, irradiation, roof_area, volume,
                 t_cool, t_heat, w_cool, w_heat,
                 equip_kwh, gain_mult, floor_area, gas_energy_content):
    """Evaluate the annual energy balance for a whole batch of designs.

    ``wwr`` is a (4, n) array in N, S, E, W order and ``shading`` (4, 2, n):
    per orientation, the summer and winter :func:`lowcarb.energy.shading_factor`.
    The next nine arguments are length-n arrays, one value per design. The
    rest are shared by the whole sweep: ``gross_area`` and ``irradiation`` per
    orientation, ``t_*`` and ``w_*`` from :func:`lowcarb.energy.season_terms`.
    Returns per-design (eui, electricity_kwh, gas_m3), from
    :func:`lowcarb.energy.end_use`.
    """
    from .energy import end_use, thermal_balance

    l_cool, l_heat = thermal_balance(
        gross_area, wwr, (wall_u,) * 4, (glz_u,) * 4, (glz_shgc,) * 4, irradiation,
        shading[:, 0], shading[:, 1], roof_area, roof_u, ach, volume,
        (lighting_kwh + equip_kwh) * gain_mult, t_cool, t_heat, w_cool, w_heat)
    return end_use(l_cool, l_heat, lighting_kwh, equip_kwh, cop, heat_eff, heat_is_gas,
                   floor_area, gas_energy_content)[:3]


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
    import numpy as np

    n = irradiance.shape[0]
    outputs = (np.empty(n), np.empty(n, dtype=np.int8), np.empty(n), np.empty(n),
               np.empty(n, dtype=np.bool_))
    # Reads and writes go through memoryviews as Python numbers: boxing a numpy
    # scalar per element cost ~40% of the fold.
    soc_out, alarm_out, harvest_out, load_out, served_out = map(memoryview, outputs)
    dt_s, panel_w, base_load_w, alarm_w, capacity_wh, threshold, hysteresis, charge_eff = (
        float(v) for v in (dt_s, panel_w, base_load_w, alarm_w, capacity_wh,
                           threshold, hysteresis, charge_eff))
    soc = float(soc0)
    alarm = int(alarm0)
    harvested = 0.0
    served_total = 0.0
    curtailed = 0.0
    for i, (irr, reading) in enumerate(zip(memoryview(irradiance), memoryview(rain))):
        # sensor sampled at step start; the alarm draws power the same step
        if alarm == 0:
            if reading >= threshold:
                alarm = 1
        else:
            if reading < threshold - hysteresis:
                alarm = 0
        harvest_w = panel_w * irr
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
    return (*outputs, harvested, served_total, curtailed)
