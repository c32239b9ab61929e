"""The two numeric hot paths: the design-sweep batch evaluator and the node
trace fold.

``batch_energy`` is the adapter that ``perfbench`` wraps to time the sweep: it
gathers each design's load terms from the sweep's tables a slice at a time and runs
:func:`lowcarb.energy.thermal_balance` and :func:`lowcarb.energy.end_use`, the
functions the scalar engine calls, on them, so the two agree to the bit.
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

#: Designs per pass through the kernel's gather and arithmetic: one (14, _SLICE) block
#: and ~30 transient arrays of 16 KiB, reused from the heap. The paper sweep's traced
#: peak was 1.25 MiB at 2^11, 1.8 at 2^12 and 2.9 at 2^13.
_SLICE = 1 << 11


def batch_energy(facade, group, position, equip_kwh, floor_area, gas_energy_content):
    """The annual (eui, electricity_kwh, gas_m3) of the designs at ``position`` in the
    legal space, from :func:`lowcarb.energy.thermal_balance` and :func:`lowcarb.energy.end_use`.

    ``facade`` (8, pairs, width) and ``group`` (6, groups) are the tables of
    :func:`lowcarb.optimize._load_tables`. A design's position is its orientation design's
    index times ``groups`` plus its group's, whose (glazing, wall) pair leads its digits.
    The last three arguments are shared by the whole sweep.
    """
    import numpy as np

    from .energy import end_use, thermal_balance

    width, groups = facade.shape[2], group.shape[1]
    per_pair = groups // facade.shape[1]
    facade = facade.reshape(8, -1)  # a pair's orientation designs side by side
    out = np.empty((3, len(position)))
    block = np.empty(14 * min(len(position), _SLICE))
    for start in range(0, len(position), _SLICE):
        od, g = np.divmod(position[start:start + _SLICE], groups)
        cols = block[:14 * len(g)].reshape(14, -1)  # facade rows, then group rows
        # C-contiguous rows of `cols` are written in place; "raise" would buffer them
        np.take(facade, g // per_pair * width + od, axis=1, out=cols[:8], mode="clip")
        np.take(group, g, axis=1, out=cols[8:], mode="clip")
        loads = thermal_balance(cols[8:10], zip(cols[:4], cols[4:8]))
        values = end_use(*loads, cols[10], equip_kwh, *cols[11:], floor_area,
                         gas_energy_content)
        out[:, start:start + len(g)] = values[:3]
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
