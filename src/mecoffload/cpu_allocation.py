"""Partitioning the MEC server's cycle budget across offloading UEs.

Two exact solvers over the same constraint set (shares sum to the full
budget, each share large enough to finish before the UE's residual
deadline): equalize the worst execution time, or minimize the summed
execution time. Both run one loop that pins deadline-bound UEs to their
minimum share and re-solves the rule's own closed-form split on the rest,
which converges in at most one round per UE. An even split is provided
for baseline comparisons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InfeasibleAllocation


@dataclass(frozen=True)
class CpuRequest:
    ue: int
    cycles: float
    t_cap_s: float  # time left for server execution after the uplink transfer

    @property
    def min_share_hz(self) -> float:
        """Smallest CPU share that still meets the deadline."""
        if self.t_cap_s <= 0:
            return math.inf
        if math.isinf(self.t_cap_s):
            return 0.0
        return self.cycles / self.t_cap_s


@dataclass(frozen=True)
class CpuAllocation:
    f: dict[int, float]  # cycles/s per UE id
    objective: float

    @property
    def total_hz(self) -> float:
        return sum(self.f.values())


def feasible(requests: list[CpuRequest], capacity_hz: float) -> bool:
    """Every deadline is positive and the minimum shares fit the budget."""
    if not requests:
        return False
    if any(r.t_cap_s <= 0 for r in requests):
        return False
    return sum(r.min_share_hz for r in requests) <= capacity_hz


def _pin_and_split(requests: list[CpuRequest], capacity_hz: float, split) -> dict[int, float]:
    """Shares from `split(active, budget)`, one per active request, except
    that every UE the split leaves below its minimum share is pinned there;
    the pinned shares leave the budget and the rest is split again."""
    if not feasible(requests, capacity_hz):
        raise InfeasibleAllocation(
            "deadline caps cannot all be met within the server budget"
        )
    active = list(requests)
    shares: dict[int, float] = {}
    budget = capacity_hz
    while active:
        free = split(active, budget)
        bound = [r for r, f in zip(active, free) if f < r.min_share_hz]
        if not bound:
            shares.update((r.ue, f) for r, f in zip(active, free))
            break
        for r in bound:
            shares[r.ue] = r.min_share_hz
            budget -= r.min_share_hz
        active = [r for r in active if r.ue not in shares]
    return shares


def _proportional(active: list[CpuRequest], budget: float) -> list[float]:
    tau = sum(r.cycles for r in active) / budget
    return [r.cycles / tau for r in active]


def _sqrt_proportional(active: list[CpuRequest], budget: float) -> list[float]:
    t = budget / sum(math.sqrt(r.cycles) for r in active)
    return [t * math.sqrt(r.cycles) for r in active]


def allocate_minmax(requests: list[CpuRequest], capacity_hz: float) -> CpuAllocation:
    """Minimize the largest execution time.

    Unconstrained, the optimum equalizes D_n/F_n, i.e. shares proportional
    to cycle counts with common time tau = sum(D)/budget. Any UE whose
    deadline beats tau must be pinned exactly at its minimum share (giving
    it more only steals from the rest); removing pinned UEs and re-solving
    raises tau monotonically, and feasibility keeps at least one UE
    unpinned, so tau over the survivors is the objective.
    """
    shares = _pin_and_split(requests, capacity_hz, _proportional)
    objective = max(r.cycles / shares[r.ue] for r in requests)
    return CpuAllocation(f=shares, objective=objective)


def allocate_minsum(requests: list[CpuRequest], capacity_hz: float) -> CpuAllocation:
    """Minimize the summed execution time.

    Stationarity gives shares proportional to sqrt(D_n); scaling to the
    budget sets F_n = t*sqrt(D_n). Whenever that undercuts a UE's minimum
    share, the share is pinned there and the scale recomputed over the
    rest. t only shrinks as pinning proceeds, so no pin is ever undone.
    """
    shares = _pin_and_split(requests, capacity_hz, _sqrt_proportional)
    objective = sum(r.cycles / shares[r.ue] for r in requests)
    return CpuAllocation(f=shares, objective=objective)


def allocate_equal(requests: list[CpuRequest], capacity_hz: float) -> CpuAllocation:
    """Even split of the budget, for baselines. Deadlines still gate it."""
    if not requests:
        raise InfeasibleAllocation("no requests to split the budget over")
    share = capacity_hz / len(requests)
    if any(r.cycles / share > r.t_cap_s for r in requests):
        raise InfeasibleAllocation("even split misses at least one deadline")
    shares = {r.ue: share for r in requests}
    objective = sum(r.cycles / share for r in requests)
    return CpuAllocation(f=shares, objective=objective)
