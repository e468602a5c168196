"""Uplink rates of a PRB table. The scheme path prices with held_rate,
which ends in the one Shannon step, shannon; per_prb_power,
interference_table and uplink_rate are its from-scratch checker, and
uplink_rate sums its own Shannon rate, so it calls neither."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import lt

import numpy as np

from .scenario import ChannelGains, RadioParams


def check_ids(ids, n: int) -> None:
    """The one rule for UE ids, in a decision, a graph and an estimate:
    reject ids that are not Python ints (no bool, no numpy integer), leave
    0..n-1 or do not ascend strictly. A negative id would index from the
    end and stand for another UE, and a repeated one would count it twice."""
    if [*map(type, ids)].count(int) < len(ids):  # one C pass when all are ints
        for i in ids:
            if type(i) is not int:
                raise TypeError(f"UE id {i!r} has type {type(i).__name__}, not int")
    if ids and (ids[0] < 0 or ids[-1] >= n):
        raise ValueError(f"UE id {ids[0] if ids[0] < 0 else ids[-1]} lies outside 0..{n - 1}")
    if not all(map(lt, ids, ids[1:])):
        raise ValueError(f"UE ids {list(ids)} are not ascending and unique")


@dataclass(frozen=True)
class OffloadDecision:
    """Which of the n UEs offload: the ascending tuple offload_set of their
    ids, each once, in 0..n-1. n and every id are Python ints, no bool.
    Equal decisions have equal n and sets."""

    n: int
    offload_set: tuple[int, ...]

    def __post_init__(self):
        n, ids = self.n, self.offload_set
        if type(n) is not int:
            raise TypeError(f"UE count {n!r} has type {type(n).__name__}, not int")
        if type(ids) is not tuple:
            raise TypeError("the offload set must be a tuple of UE ids")
        check_ids(ids, n)
        if n < 0:
            raise ValueError(f"UE count {n} is negative")

    @classmethod
    def all_local(cls, n: int) -> "OffloadDecision":
        return cls(n, ())

    @cached_property
    def a(self) -> tuple[int, ...]:
        """The 0/1 flag of every UE, a[i] == 1 iff UE i offloads; built on
        first read, for the readers that want a row."""
        a = [0] * self.n
        for i in self.offload_set:
            a[i] = 1
        return tuple(a)

    @property
    def n_offload(self) -> int:
        return len(self.offload_set)


@dataclass(frozen=True)
class PrbAssociation:
    """Binary table c[n, k] = 1 iff SeNB n holds PRB k; m = row sums."""

    c: np.ndarray

    @cached_property
    def m(self) -> np.ndarray:
        return self.c.sum(axis=1)

    @classmethod
    def empty(cls, n: int, k: int) -> "PrbAssociation":
        """No PRB held. c repeats one read-only 8-byte zero, so no N x K
        table is written, and m is its first column, the row sums."""
        c = np.ndarray((n, k), np.int64, buffer=bytes(8), strides=(0, 0))
        assoc = cls(c=c)
        object.__setattr__(assoc, "m", c[:, 0])
        return assoc


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


def shannon(snr: np.ndarray, scale) -> np.ndarray:
    """scale * log2(1 + snr) in place on the float array snr, op for op:
    += 1, log2, *= scale. Every rate the schemes compute ends in this step."""
    snr += 1.0
    np.log2(snr, out=snr)
    snr *= scale
    return snr


def held_rate(row, prb, signal, interference, rows: int, radio: RadioParams) -> np.ndarray:
    """Shannon rate (bit/s) of each of `rows` rows, summed over its held
    (row, PRB) entries.

    Entry e is PRB prb[e] held by row row[e], no pair twice; signal[e] is its
    received per-PRB power, fl(fl(P/M) * serving gain), and interference[e]
    (or one scalar for all) the co-channel power there. The one Shannon step
    runs on the entries alone, and each row sums through a zero (rows, K)
    table, numpy's pairwise row sum. Whenever every SNR of the row's K PRBs
    is finite, these are the bits of the dense (c_row * B_prb * log2(1 +
    snr)).sum(-1); an unheld PRB adds +0.0, never 0 * inf.
    """
    snr = signal / (radio.noise_per_prb_w + interference)
    table = np.zeros((rows, radio.num_prbs))
    table[row, prb] = shannon(snr, radio.prb_bandwidth_hz)
    return table.sum(axis=-1)


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
    is rebuilt from scratch rather than read from a maintained table, and
    the Shannon sum is this function's own, not held_rate's or shannon's
    (for a 0/1 table, the same bits). A table that disagrees with a is the
    caller's to report: an offloader without a PRB rates 0.
    """
    if a.a[n] == 0:
        return 0.0
    p_prb = per_prb_power(c, powers)
    active = np.array(a.a, dtype=bool)
    # co-channel power on every PRB from every other active transmitter
    contrib = c.c * ((active * p_prb) * g.h[:, n])[:, None]
    contrib[n] = 0.0
    sinr = p_prb[n] * g.h[n, n] / (r.noise_per_prb_w + contrib.sum(axis=0))
    return float((c.c[n] * (r.prb_bandwidth_hz * np.log2(1 + sinr))).sum())
