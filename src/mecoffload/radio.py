"""Uplink rates of a PRB table. The scheme path prices with held_rate alone;
per_prb_power, interference_table and uplink_rate are its from-scratch checker.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress

import numpy as np

from .errors import InconsistentTables
from .scenario import ChannelGains, RadioParams


@dataclass(frozen=True)
class OffloadDecision:
    """Binary per-UE offload flags; index n offloads iff a[n] == 1."""

    a: tuple[int, ...]

    def __post_init__(self):
        # tuple.count compares like `in`, without hashing an entry
        if self.a.count(0) + self.a.count(1) != len(self.a):
            raise ValueError("decision entries must be 0 or 1")

    @classmethod
    def all_local(cls, n: int) -> "OffloadDecision":
        return cls(a=(0,) * n)

    @classmethod
    def from_set(cls, offload, n: int) -> "OffloadDecision":
        members = set(offload)
        if members and not (0 <= min(members) and max(members) < n):
            outside = sorted(members.difference(range(n)))
            raise ValueError(f"UE ids {outside} lie outside 0..{n - 1}")
        a = [0] * n
        for i in members:
            a[i] = 1
        return cls(a=tuple(a))

    def flip_on(self, n: int) -> "OffloadDecision":
        return self._flip(n, 1)

    def flip_off(self, n: int) -> "OffloadDecision":
        return self._flip(n, 0)

    def _flip(self, n: int, flag: int) -> "OffloadDecision":
        # a negative n would index from the end and flip another UE
        if not 0 <= n < len(self.a):
            raise ValueError(f"UE id {n} lies outside 0..{len(self.a) - 1}")
        a = list(self.a)
        a[n] = flag
        return OffloadDecision(a=tuple(a))

    @cached_property
    def offload_set(self) -> tuple[int, ...]:
        return tuple(compress(range(len(self.a)), self.a))

    @property
    def n_offload(self) -> int:
        return sum(self.a)


@dataclass(frozen=True)
class PrbAssociation:
    """Binary table c[n, k] = 1 iff SeNB n holds PRB k; m = row sums."""

    c: np.ndarray

    @cached_property
    def m(self) -> np.ndarray:
        return self.c.sum(axis=1)

    @classmethod
    def from_matrix(cls, c) -> "PrbAssociation":
        return cls(c=np.asarray(c, dtype=np.int64))

    @classmethod
    def empty(cls, n: int, k: int) -> "PrbAssociation":
        return cls(c=np.zeros((n, k), dtype=np.int64))


def per_prb_power(c: PrbAssociation, powers) -> np.ndarray:
    """P_n / M_n for cells holding PRBs, 0 for idle rows."""
    m = c.m
    out = np.zeros(len(m))
    held = m > 0
    out[held] = np.asarray(powers, dtype=float)[held] / m[held]
    return out


def interference_table(c: PrbAssociation, g: ChannelGains, powers) -> np.ndarray:
    """o[n, k]: received co-channel power (W) at SeNB n on PRB k.

    Each transmitting UE m spreads P_m evenly over its M_m PRBs; a SeNB's
    own UE never counts toward its row. The self term is excluded before
    the product: summing it in and subtracting it back would absorb cross
    terms many orders of magnitude below the serving gain.
    """
    w = c.c * per_prb_power(c, powers)[:, None]  # W per (UE, PRB)
    h_cross = g.h.copy()
    np.fill_diagonal(h_cross, 0.0)
    return h_cross.T @ w


def _check_consistent(a: OffloadDecision, c: PrbAssociation) -> None:
    for n, flag in enumerate(a.a):
        if flag == 0 and c.m[n] != 0:
            raise InconsistentTables(f"local UE {n} holds PRBs")
        if flag == 1 and c.m[n] == 0:
            raise InconsistentTables(f"offloading UE {n} holds no PRB")


def held_rate(c_row, p_prb, gain, interference, radio: RadioParams) -> float | np.ndarray:
    """Shannon rate (bit/s) summed over the PRBs flagged in c_row.

    p_prb is the per-PRB transmit power, gain the serving gain and
    interference the co-channel power on every PRB of the row. The sum runs
    over the last axis: one row gives a float, a (rows, K) table gives one
    rate per row (pass p_prb and gain as (rows, 1) columns), each row summed
    exactly as it would be alone.
    """
    snr = p_prb * gain / (radio.noise_per_prb_w + interference)
    rate = (c_row * radio.prb_bandwidth_hz * np.log2(1 + snr)).sum(axis=-1)
    return rate if rate.ndim else float(rate)


def uplink_rate(
    n: int,
    a: OffloadDecision,
    c: PrbAssociation,
    g: ChannelGains,
    powers,
    r: RadioParams,
) -> float:
    """Shannon uplink rate (bit/s) of UE n under decision a and table c.

    Transmit power splits evenly over the held PRBs; every other offloading
    UE sharing a PRB raises the noise floor by its per-PRB power times the
    cross gain. Local UEs upload nothing and rate 0. The interference row
    is rebuilt from scratch rather than read from a maintained table.
    """
    _check_consistent(a, c)
    if a.a[n] == 0:
        return 0.0
    p_prb = per_prb_power(c, powers)
    active = np.array(a.a, dtype=bool)
    # co-channel power on every PRB from every other active transmitter
    contrib = c.c * ((active * p_prb) * g.h[:, n])[:, None]
    contrib[n] = 0.0
    return held_rate(c.c[n], p_prb[n], g.h[n, n], contrib.sum(axis=0), r)
