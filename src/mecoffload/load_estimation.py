"""Per-UE demand estimation: target uplink rate and minimum PRB count.

Each UE is sized in isolation, interference-free: the server share is
assumed to be an even F/N split, and the rate target is whatever makes
offloading finish no later than local execution. UEs that cannot win even
at infinite rate are pinned local; UEs whose rate target is unreachable
within the PRB budget are infeasible. Both stay out of the offload set
for good.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .radio import shannon
from .scenario import ChannelGains, RadioParams, Scenario, _check_link_budget, _reduce_to_fields

# entries per block of the min_prbs table (512 KB): beside its n-entry result,
# a call holds one block's table and flags, so its peak does not grow with n
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class LoadEstimate:
    ue: int
    t_exe_est_s: float
    min_rate_bps: float  # inf when forced local
    w: int | None  # None unless offloadable
    forced_local: bool
    infeasible: bool

    @property
    def offloadable(self) -> bool:
        return not (self.forced_local or self.infeasible)


@dataclass(frozen=True, eq=False)
class Loads:
    """The sizing pass for every UE: read-only arrays indexed by UE id.

    `loads[i]` and iteration build LoadEstimate records on access; the
    pipeline reads the arrays.
    """

    local_time_s: np.ndarray  # D/F_l
    local_overhead: np.ndarray  # w_t*D/F_l + w_e*v*D
    t_exe_est_s: np.ndarray  # server time at an even F/N split
    min_rate_bps: np.ndarray  # inf when forced local
    w: np.ndarray  # minimum PRB count, 0 unless offloadable
    forced_local: np.ndarray
    infeasible: np.ndarray
    offloadable: np.ndarray

    def __post_init__(self):
        for column in vars(self).values():
            column.setflags(write=False)

    __reduce__ = _reduce_to_fields

    def __len__(self) -> int:
        return len(self.w)

    def __getitem__(self, i: int) -> LoadEstimate:
        ue = range(len(self))[i]
        return LoadEstimate(
            ue=ue,
            t_exe_est_s=float(self.t_exe_est_s[ue]),
            min_rate_bps=float(self.min_rate_bps[ue]),
            w=int(self.w[ue]) if self.offloadable[ue] else None,
            forced_local=bool(self.forced_local[ue]),
            infeasible=bool(self.infeasible[ue]),
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))


def prb_rate(w, serving_gain, radio: RadioParams, tx_power_w):
    """Interference-free rate on w PRBs with power split as P/(w sigma^2),
    elementwise over arrays: (P*g) / (w*sigma^2), + 1, log2, * (w*B_prb)."""
    snr = np.asarray(tx_power_w * serving_gain / (w * radio.noise_per_prb_w))
    return shannon(snr, w * radio.prb_bandwidth_hz)


def min_prbs(tx_power_w, serving_gain, radio: RadioParams, min_rate_bps) -> np.ndarray:
    """Per UE, the first PRB count in 1..K whose prb_rate meets the rate
    target, or 0 if none does.

    Every count is priced by prb_rate in a (UEs x K) table, _BLOCK_ENTRIES
    at a time. The exact rate grows in w, but its float value need not
    once the single-PRB SNR is tiny (fl(1 + c/w) is coarse), so a search
    that assumes it does can pass the first sufficient count.
    """
    w = np.arange(1, radio.num_prbs + 1)
    first = np.zeros(len(min_rate_bps), dtype=np.int64)
    rows = max(1, _BLOCK_ENTRIES // len(w))
    for lo in range(0, len(first), rows):
        block = slice(lo, lo + rows)
        rate = prb_rate(w, serving_gain[block, None], radio, tx_power_w[block, None])
        met = rate >= min_rate_bps[block, None]
        del rate  # so the next block's table does not share the peak with it
        first[block] = np.where(met.any(axis=1), met.argmax(axis=1) + 1, 0)
    return first


def estimate_loads(s: Scenario, gains: ChannelGains) -> Loads:
    """Run the per-UE sizing pass for every UE in the scenario.

    Local cost: time D/F_l, energy v*D, weighted sum. Offloading must beat
    the local time at an even server split, so the rate target is the
    input size over the slack D/F_l - D/(F/N); no slack pins the UE local.
    Gains not made by channel_gains(s) must meet s's link budget before a
    UE is sized on them, else InvalidConfig, so no later SNR overflows.
    A cell whose UEs are all forced local reads no gain.
    """
    cycles, power = s.cycles, s.tx_power_w
    # a Python float division overflows to inf without a warning; so do these
    with np.errstate(over="ignore"):
        local_time = cycles / s.local_speed_hz
        local_energy = s.energy_coeff * cycles
        t_exe_est = cycles / (s.mec_capacity_hz / s.n_cells)
        slack = local_time - t_exe_est
        forced = slack <= 0
        sized = ~forced
        rate = np.divide(s.input_bits, slack, out=np.full(len(cycles), np.inf), where=sized)
        local_overhead = s.w_t * local_time + s.w_e * local_energy
    w = np.zeros(len(cycles), dtype=np.int64)
    if sized.any():  # a forced-local cell builds no empty table
        if gains._scenario is not s:  # channel_gains(s) checked its own fill
            _check_link_budget(s, gains.h)
        w[sized] = min_prbs(power[sized], gains.h.diagonal()[sized], s.radio, rate[sized])
    # min_prbs finds at least one PRB or none, and only sized UEs have a w
    offloadable = w > 0
    return Loads(
        local_time_s=local_time, local_overhead=local_overhead,
        t_exe_est_s=t_exe_est, min_rate_bps=rate, w=w, forced_local=forced,
        infeasible=sized ^ offloadable, offloadable=offloadable,
    )
