"""Per-UE cost of running a task locally versus shipping it to the server.

Overheads scalarize seconds and joules with the UE's two weights; no
renormalization is applied, so the scalar is only meaningful for
comparisons, which is all the decision logic ever does. The local cost
LocalOverhead records is computed by load_estimation.estimate_loads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def offload_overhead(ue: Ue, rate_bps: float, f_assigned_hz: float) -> OffloadOverhead:
    """Upload time/energy at the given rate plus remote execution time.

    Energy covers only the uplink burst (P * t_off); the server's own
    consumption is out of the cost model.
    """
    if rate_bps <= 0 or math.isnan(rate_bps):
        raise ZeroRate(f"rate must be positive, got {rate_bps}")
    if f_assigned_hz <= 0:
        raise ZeroRate(f"assigned CPU speed must be positive, got {f_assigned_hz}")
    t_off = ue.task.input_bits / rate_bps
    e_off = ue.tx_power_w * ue.task.input_bits / rate_bps
    t_exe = ue.task.cycles / f_assigned_hz
    t_total = t_off + t_exe
    return OffloadOverhead(
        rate_bps=rate_bps,
        t_off_s=t_off,
        e_off_j=e_off,
        t_exe_s=t_exe,
        t_total_s=t_total,
        overhead=ue.weight_time * t_total + ue.weight_energy * e_off,
    )
