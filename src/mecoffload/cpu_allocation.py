"""Partitioning the MEC server's cycle budget across offloading UEs.

Two exact solvers over the same constraint set (shares sum to the full
budget, each share large enough to finish before the UE's residual
deadline): equalize the worst execution time, or minimize the summed
execution time. Both run one loop that pins deadline-bound UEs to their
minimum share and re-solves the rule's own closed-form split on the rest,
which converges in at most one round per UE. An even split is provided
for baseline comparisons.

Every solver takes the offloaders as three aligned arrays: their UE ids,
their task cycles and t_cap_s, the time left for server execution after
the uplink transfer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleAllocation


def _add_up(values: np.ndarray) -> float:
    """Plain left-to-right sum, as built-in sum gives it up to Python 3.11.

    From 3.12 on, sum adds floats with compensated summation, which can
    change the last bit (nine shares of 1e11/9 add up to 1e11 rather than
    100000000000.00002); accumulate adds one element at a time, so every CPU
    total and objective is the same on every interpreter.
    """
    return float(np.add.accumulate(values)[-1])


@dataclass(frozen=True)
class CpuAllocation:
    f: dict[int, float]  # cycles/s per UE id: pins in pin order, then the rest
    objective: float

    @property
    def total_hz(self) -> float:
        return _add_up(np.fromiter(self.f.values(), float, len(self.f)))


def _check_budget(capacity_hz: float) -> None:
    """Only a finite, positive budget can be split (Scenario requires the
    same of mec_capacity_hz)."""
    if not 0.0 < capacity_hz < math.inf:  # nan fails too
        raise InfeasibleAllocation("server budget must be finite and positive")


def _min_shares(cycles: np.ndarray, t_cap_s: np.ndarray, capacity_hz: float) -> np.ndarray:
    """Smallest share that still meets each deadline, once every deadline is
    known to be positive; an infinite t_cap_s needs a share of exactly 0.
    Raises unless there is a UE and the shares fit the budget together (a
    nan deadline does not)."""
    if cycles.size and not (t_cap_s <= 0).any():
        lower = cycles / t_cap_s
        if _add_up(lower) <= capacity_hz:
            return lower
    raise InfeasibleAllocation("deadline caps cannot all be met within the server budget")


def _pin_and_split(
    ues, cycles, t_cap_s, capacity_hz: float, split
) -> tuple[dict[int, float], np.ndarray]:
    """Shares from `split(cycles, budget)` over the active UEs, except that
    every UE the split leaves below its minimum share is pinned there; the
    pinned shares leave the budget, one at a time in pin order, and the rest
    is split again. Returns the shares by UE id (pins in pin order, then the
    rest) and as an array aligned with the inputs."""
    _check_budget(capacity_hz)
    cycles = np.asarray(cycles, dtype=float)
    lower = _min_shares(cycles, np.asarray(t_cap_s, dtype=float), capacity_hz)
    active = np.arange(cycles.size)
    order, shares = [], []
    budget = capacity_hz
    while active.size:
        if budget <= 0:
            # the pins took the whole budget (the feasibility sum may round
            # to it) and the UEs left would get no share at all; the budget
            # is positive before the first pin
            raise InfeasibleAllocation("pinned shares use up the server budget")
        free = split(cycles[active], budget)
        below = free < lower[active]
        if not below.any():
            if not order:  # nobody pinned: the first split, in input order
                return dict(zip(np.asarray(ues).tolist(), free.tolist())), free
            order.append(active)
            shares.append(free)
            break
        pinned = active[below]
        order.append(pinned)
        shares.append(lower[pinned])
        for share in lower[pinned].tolist():
            budget -= share
        active = active[~below]
    order, shares = np.concatenate(order), np.concatenate(shares)
    aligned = np.empty_like(cycles)
    aligned[order] = shares
    return dict(zip(np.asarray(ues)[order].tolist(), shares.tolist())), aligned


def _proportional(cycles: np.ndarray, budget: float) -> np.ndarray:
    tau = _add_up(cycles) / budget
    return cycles / tau


def _sqrt_proportional(cycles: np.ndarray, budget: float) -> np.ndarray:
    root = np.sqrt(cycles)
    return budget / _add_up(root) * root


def allocate_minmax(ues, cycles, t_cap_s, capacity_hz: float) -> CpuAllocation:
    """Minimize the largest execution time.

    Unconstrained, the optimum equalizes D_n/F_n, i.e. shares proportional
    to cycle counts with common time tau = sum(D)/budget. Any UE whose
    deadline beats tau must be pinned exactly at its minimum share (giving
    it more only steals from the rest); removing pinned UEs and re-solving
    raises tau monotonically, and feasibility keeps at least one UE
    unpinned, so tau over the survivors is the objective.
    """
    shares, f = _pin_and_split(ues, cycles, t_cap_s, capacity_hz, _proportional)
    return CpuAllocation(f=shares, objective=float((cycles / f).max()))


def allocate_minsum(ues, cycles, t_cap_s, capacity_hz: float) -> CpuAllocation:
    """Minimize the summed execution time.

    Stationarity gives shares proportional to sqrt(D_n); scaling to the
    budget sets F_n = t*sqrt(D_n). Whenever that undercuts a UE's minimum
    share, the share is pinned there and the scale recomputed over the
    rest. t only shrinks as pinning proceeds, so no pin is ever undone.
    """
    shares, f = _pin_and_split(ues, cycles, t_cap_s, capacity_hz, _sqrt_proportional)
    return CpuAllocation(f=shares, objective=_add_up(cycles / f))


def allocate_equal(ues, cycles, t_cap_s, capacity_hz: float) -> CpuAllocation:
    """Even split of the budget, for baselines. Deadlines still gate it."""
    _check_budget(capacity_hz)
    cycles = np.asarray(cycles, dtype=float)
    if not cycles.size:
        raise InfeasibleAllocation("no requests to split the budget over")
    share = capacity_hz / cycles.size
    times = cycles / share
    if not (times <= t_cap_s).all():  # a nan deadline is missed too
        raise InfeasibleAllocation("even split misses at least one deadline")
    shares = dict.fromkeys(np.asarray(ues).tolist(), share)
    return CpuAllocation(f=shares, objective=_add_up(times))
