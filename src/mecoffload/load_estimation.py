"""Per-UE demand estimation: target uplink rate and minimum PRB count.

Each UE is sized in isolation, interference-free: the server share is
assumed to be an even F/N split, and the rate target is whatever makes
offloading finish no later than local execution. UEs that cannot win even
at infinite rate are pinned local; UEs whose rate target is unreachable
within the PRB budget are infeasible. Both stay out of the offload set
for good.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .compute_model import LocalOverhead, local_overhead
from .scenario import ChannelGains, RadioParams, Scenario, Ue


class _Marker:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name


FORCED_LOCAL = _Marker("FORCED_LOCAL")
INFEASIBLE = _Marker("INFEASIBLE")


@dataclass(frozen=True)
class LoadEstimate:
    ue: int
    local: LocalOverhead
    t_exe_est_s: float
    min_rate_bps: float  # inf when forced local
    w: int | None  # None unless offloadable
    forced_local: bool
    infeasible: bool

    @property
    def offloadable(self) -> bool:
        return not (self.forced_local or self.infeasible)


def min_rate_requirement(ue: Ue, mec_capacity_hz: float, n_total: int):
    """Rate needed for offloading to beat local execution time.

    Returns (estimated server execution time, minimum rate) or FORCED_LOCAL
    when the even-split server time already exceeds the local time.
    """
    t_exe_est = ue.task.cycles / (mec_capacity_hz / n_total)
    slack = ue.task.cycles / ue.local_speed_hz - t_exe_est
    if slack <= 0:
        return FORCED_LOCAL
    return t_exe_est, ue.task.input_bits / slack


def prb_rate(w: float, serving_gain: float, radio: RadioParams, tx_power_w: float) -> float:
    """Interference-free rate on w PRBs with power split as P/(w sigma^2)."""
    snr = tx_power_w * serving_gain / (w * radio.noise_per_prb_w)
    return w * radio.prb_bandwidth_hz * math.log2(1.0 + snr)


def min_prbs(ue: Ue, serving_gain: float, radio: RadioParams, min_rate_bps: float):
    """Smallest PRB count meeting the rate target, or INFEASIBLE.

    The rate w*(B/K)*log2(1 + c/w) grows monotonically in w but saturates
    at c*B/(K ln 2), so the target can be out of reach even at w = K;
    monotonicity makes a binary search over integers exact.
    """
    k = radio.num_prbs
    if prb_rate(k, serving_gain, radio, ue.tx_power_w) < min_rate_bps:
        return INFEASIBLE
    lo, hi = 1, k
    while lo < hi:
        mid = (lo + hi) // 2
        if prb_rate(mid, serving_gain, radio, ue.tx_power_w) >= min_rate_bps:
            hi = mid
        else:
            lo = mid + 1
    return lo


def estimate_loads(s: Scenario, gains: ChannelGains) -> list[LoadEstimate]:
    """Run the per-UE sizing pass for every UE in the scenario."""
    out = []
    n = s.n_cells
    for ue in s.ues:
        local = local_overhead(ue)
        req = min_rate_requirement(ue, s.mec_capacity_hz, n)
        if req is FORCED_LOCAL:
            out.append(
                LoadEstimate(
                    ue=ue.id, local=local,
                    t_exe_est_s=ue.task.cycles / (s.mec_capacity_hz / n),
                    min_rate_bps=math.inf, w=None,
                    forced_local=True, infeasible=False,
                )
            )
            continue
        t_exe_est, rate = req
        w = min_prbs(ue, float(gains.h[ue.id, ue.id]), s.radio, rate)
        if w is INFEASIBLE:
            out.append(
                LoadEstimate(
                    ue=ue.id, local=local, t_exe_est_s=t_exe_est,
                    min_rate_bps=rate, w=None,
                    forced_local=False, infeasible=True,
                )
            )
        else:
            out.append(
                LoadEstimate(
                    ue=ue.id, local=local, t_exe_est_s=t_exe_est,
                    min_rate_bps=rate, w=int(w),
                    forced_local=False, infeasible=False,
                )
            )
    return out
