"""The two numeric hot paths: the design-sweep batch evaluator and the node
trace fold.

``batch_energy`` is the adapter that ``perfbench`` wraps to time the sweep: it
runs :func:`lowcarb.energy.thermal_balance` and :func:`lowcarb.energy.end_use`,
the functions the scalar engine calls, on per-design arrays of the load terms that
:func:`lowcarb.energy.facade_loads` and :func:`lowcarb.energy.core_loads` give, so the
two agree to the bit.
``node_sim`` is the only implementation of the node step; :func:`lowcarb.node.step`
runs it on a one-sample trace. It writes stdlib ``array.array`` columns, so node-sim
never loads numpy. Both are timed per layer by ``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

# Each function imports what it uses when called: node-sim does not load energy
# or numpy, and optimize does not load array.


def numba_enabled() -> bool:
    """Always False: there is no compiled backend.

    Kept because the benchmark records it among the facts of every run.
    """
    return False


# ---------------------------------------------------------------------------
# batch design evaluation (one row per candidate design)
# ---------------------------------------------------------------------------

#: Designs per pass through the kernel's arithmetic. Its ~30 transient arrays of
#: 64 KiB stay below glibc's 128 KiB mmap threshold and are reused from the heap:
#: at 2^14 (128 KiB arrays) a sweep_large op took ~1,800 minor page faults, at 2^13 0.6.
_SLICE = 1 << 13


def batch_energy(facade_cool, facade_heat, core_cool, core_heat, lighting_kwh, cop, heat_eff,
                 heat_is_gas, equip_kwh, floor_area, gas_energy_content):
    """Evaluate the annual energy balance for a whole batch of designs.

    ``facade_cool`` and ``facade_heat`` are (4, n) arrays of each design's
    :func:`lowcarb.energy.facade_loads` terms in N, S, E, W order, and ``core_cool``
    and ``core_heat`` its :func:`lowcarb.energy.core_loads` terms. The next four
    arguments are length-n arrays too; the last three are shared by the whole sweep.
    Returns per-design (eui, electricity_kwh, gas_m3), from
    :func:`lowcarb.energy.thermal_balance` and :func:`lowcarb.energy.end_use`.
    """
    import numpy as np

    from .energy import end_use, thermal_balance

    out = np.empty((3, len(core_cool)))
    for start in range(0, len(core_cool), _SLICE):
        part = slice(start, start + _SLICE)
        loads = thermal_balance((core_cool[part], core_heat[part]),
                                zip(facade_cool[:, part], facade_heat[:, part]))
        values = end_use(*loads, lighting_kwh[part], equip_kwh, cop[part], heat_eff[part],
                         heat_is_gas[part], floor_area, gas_energy_content)
        for row, value in zip(out, values[:3]):
            row[part] = value
    return tuple(out)


# ---------------------------------------------------------------------------
# sensor node trace simulation
# ---------------------------------------------------------------------------
#
# Sequential coulomb-counting fold; cannot be vectorized because each step's
# state of charge depends on the previous one.

def node_sim(trace, dt_s, soc0, alarm0,
             panel_w, base_load_w, alarm_w, capacity_wh,
             threshold, hysteresis, charge_eff):
    """Run the node trace fold over a sequence of samples, reading each one's
    ``irradiance_fraction`` and ``rain_reading`` (:class:`lowcarb.node.EnvSample`).

    Returns the per-step ``array`` columns soc (``'d'``), alarm (``'b'``, 0 idle,
    1 alarm), harvest and load power (``'d'``) and served (``'B'``, 0 or 1), then
    the ledger totals harvested, served and curtailed in Wh.
    """
    from array import array

    n = len(trace)
    outputs = (array("d", bytes(8 * n)), array("b", bytes(n)), array("d", bytes(8 * n)),
               array("d", bytes(8 * n)), array("B", bytes(n)))
    # Writes go through memoryviews: in a 200k-step loop a memoryview
    # store took ~30% less time than array.__setitem__. served takes bools
    # through a '?' cast of its bytes.
    soc_out, alarm_out, harvest_out, load_out, served_out = map(memoryview, outputs)
    served_out = served_out.cast("?")
    dt_s, panel_w, base_load_w, alarm_w, capacity_wh, threshold, hysteresis, charge_eff = (
        float(v) for v in (dt_s, panel_w, base_load_w, alarm_w, capacity_wh,
                           threshold, hysteresis, charge_eff))
    release = threshold - hysteresis
    # the demand in W and its Wh per step, in each alarm state
    idle_load = (base_load_w, base_load_w * dt_s / 3600.0)
    alarm_load = (base_load_w + alarm_w, (base_load_w + alarm_w) * dt_s / 3600.0)
    soc = float(soc0)
    alarm = int(alarm0)
    load_w, load_e = alarm_load if alarm == 1 else idle_load
    harvested = 0.0
    served_total = 0.0
    curtailed = 0.0
    for i, sample in enumerate(trace):
        irr, reading = sample.irradiance_fraction, sample.rain_reading
        # sensor sampled at step start; the alarm draws power the same step
        if alarm == 0:
            if reading >= threshold:
                alarm = 1
                load_w, load_e = alarm_load
        elif reading < release:
            alarm = 0
            load_w, load_e = idle_load
        harvest_w = panel_w * irr
        harvest_e = harvest_w * dt_s / 3600.0 * charge_eff
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
