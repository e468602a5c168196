"""Cost of shipping UE tasks to the server, priced for many UEs at once.

Overheads scalarize seconds and joules with the UE's two weights; no
renormalization is applied, so the scalar is only meaningful for
comparisons, which is all the decision logic ever does. The local cost is
computed by load_estimation.estimate_loads.
"""

from __future__ import annotations


def cost_inputs(s, ids):
    """What the offload cost reads of UEs `ids` of scenario s: the arrays
    (D, P, C, w_t, w_e)."""
    return s.input_bits[ids], s.tx_power_w[ids], s.cycles[ids], s.w_t[ids], s.w_e[ids]


def upload_cost(bits, power_w, rate_bps):
    """Time D/r and energy (P*D)/r to upload D bits at power P and rate r.

    Arrays with one entry per UE; each element gets the float arithmetic of
    the formula. Energy covers only the uplink burst; the server's own
    consumption is out of the cost model. The rates are not checked: the
    callers pass only the positive ones their own liveness mask keeps.
    """
    return bits / rate_bps, power_w * bits / rate_bps


def execution_cost(cycles, weight_time, weight_energy, t_off_s, e_off_j, f_assigned_hz):
    """The weighted overhead w_t * (t_off + C/f) + w_e * e_off of an upload
    priced by upload_cost and run at server share f, on arrays as there."""
    if not (f_assigned_hz > 0).all():
        raise ValueError(f"assigned CPU speed must be positive, got {f_assigned_hz}")
    return weight_time * (t_off_s + cycles / f_assigned_hz) + weight_energy * e_off_j
