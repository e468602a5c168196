"""Per-UE cost of running a task locally versus shipping it to the server.

Overheads scalarize seconds and joules with the UE's two weights; no
renormalization is applied, so the scalar is only meaningful for
comparisons, which is all the decision logic ever does. The local cost
LocalOverhead records is computed by load_estimation.estimate_loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import ZeroRate
from .scenario import Ue


@dataclass(frozen=True)
class LocalOverhead:
    time_s: float
    energy_j: float
    overhead: float


@dataclass(frozen=True)
class OffloadOverhead:
    rate_bps: float
    t_off_s: float
    e_off_j: float
    t_exe_s: float
    t_total_s: float
    overhead: float


# what the offload cost reads of a Ue: (D, P, C, w_t, w_e)
cost_inputs = attrgetter(
    "task.input_bits", "tx_power_w", "task.cycles", "weight_time", "weight_energy"
)


def _holds(test) -> bool:
    """A comparison's verdict on one float, or on every element of an array."""
    return bool(test.all()) if isinstance(test, np.ndarray) else test


def upload_cost(bits, power_w, rate_bps):
    """Time D/r and energy (P*D)/r to upload D bits at power P and rate r.

    Floats, or arrays with one entry per UE: each element gets the float
    arithmetic, so the two agree bit for bit. Energy covers only the uplink
    burst; the server's own consumption is out of the cost model.
    """
    if not _holds(rate_bps > 0):  # nan fails too
        raise ZeroRate(f"rate must be positive, got {rate_bps}")
    return bits / rate_bps, power_w * bits / rate_bps


def execution_cost(cycles, weight_time, weight_energy, t_off_s, e_off_j, f_assigned_hz):
    """Server time C/f, total time t_off + C/f and the weighted overhead
    w_t * total + w_e * e_off of an upload priced by upload_cost, on floats
    or arrays as there."""
    if not _holds(f_assigned_hz > 0):
        raise ZeroRate(f"assigned CPU speed must be positive, got {f_assigned_hz}")
    t_exe = cycles / f_assigned_hz
    t_total = t_off_s + t_exe
    return t_exe, t_total, weight_time * t_total + weight_energy * e_off_j


def offload_overhead(ue: Ue, rate_bps: float, f_assigned_hz: float) -> OffloadOverhead:
    """One UE's upload at the given rate plus remote execution at the given speed."""
    bits, power, cycles, wt, we = cost_inputs(ue)
    t_off, e_off = upload_cost(bits, power, rate_bps)
    cost = execution_cost(cycles, wt, we, t_off, e_off, f_assigned_hz)
    return OffloadOverhead(rate_bps, t_off, e_off, *cost)
