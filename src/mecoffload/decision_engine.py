"""End-to-end orchestration: size loads, guess who benefits from offloading,
then greedily grow the offload set while the full pipeline keeps paying off.

The initial guess prices each candidate with an interference-free
orthogonal split of the band and an even server split; the real evaluation
runs demand normalization, graph coloring, realized rates, and the convex
server split, and prices the system by the weighted time/energy overhead
summed over all UEs. Candidates that break feasibility price at +inf and
are never kept. The sizing and the initial guess do not depend on the
server-split rule, so every scheme of a cell shares them (cell_plan).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .compute_model import cost_inputs, execution_cost, upload_cost
from .cpu_allocation import CpuAllocation, allocate_equal, allocate_minmax, allocate_minsum
from .errors import EmptyOffloadSet, InfeasibleAllocation
from .load_estimation import Loads, estimate_loads, prb_rate
from .prb_coloring import (
    build_interference_graph,
    color,
    normalize_prbs,
    realized_rates,
)
from .radio import OffloadDecision, PrbAssociation, held_rate
from .radio import interference_table  # unused here; bench/tracer.py wraps this name
from .scenario import ChannelGains, Scenario, tx_powers

_CPU_SOLVERS = {
    "minmax": allocate_minmax,
    "minsum": allocate_minsum,
    "equal": allocate_equal,
}

# scheme name -> the server-split rule it runs with, as printed in the CSV's
# objective column; every scheme but the two baselines runs the pipeline
SCHEME_OBJECTIVE = {
    "proposed_minmax": "minmax",
    "proposed_minsum": "minsum",
    "all_local": "none",
    "all_offload_orth": "equal",
    "equal_cpu": "equal",
}
_BASELINES = ("all_local", "all_offload_orth")

SCHEME_NAMES = tuple(SCHEME_OBJECTIVE)


def orthogonal_estimate(
    estimates: Loads,
    offload_set,
    s: Scenario,
    gains: ChannelGains,
) -> dict[int, float]:
    """Each member's overhead if the band were split orthogonally.

    Real-valued PRB shares proportional to demand, no co-channel
    interference, and an even server split, priced by the same array calls
    as price. Deliberately optimistic; used only to rank candidates,
    never as the acceptance metric. Every member must be offloadable: the
    others have no PRB demand to share by. A share whose float rate is 0
    (a weak signal) prices at +inf, so the initial guess keeps it local.
    """
    members = np.array(sorted(offload_set), dtype=np.int64)
    if not members.size:
        raise EmptyOffloadSet("cannot estimate over an empty offload set")
    outside = members[~estimates.offloadable[members]]
    if outside.size:
        raise ValueError(f"UE {outside[0]} is not offloadable and has no PRB demand")
    w = estimates.w[members]
    bits, power, cycles, wt, we = cost_inputs(s, members)
    share = s.radio.num_prbs * w / w.sum()  # real-valued
    rate = prb_rate(share, gains.h[members, members], s.radio, power)
    up = rate > 0
    overhead = np.full(len(members), math.inf)
    t, e = upload_cost(bits[up], power[up], rate[up])
    f_even = np.full(up.sum(), s.mec_capacity_hz / s.n_cells)
    overhead[up] = execution_cost(cycles[up], wt[up], we[up], t, e, f_even)[2]
    return dict(zip(members.tolist(), overhead.tolist()))


def initial_decision(estimates: Loads, report: dict[int, float]) -> OffloadDecision:
    """Offload exactly the UEs whose estimated offload cost beats local.

    Ties stay local. UEs the report does not price (forced local or
    infeasible) stay local regardless.
    """
    wins = [i for i, overhead in report.items() if estimates.local_overhead[i] > overhead]
    return OffloadDecision.from_set(wins, len(estimates))


@dataclass(frozen=True)
class AllocationOutcome:
    """Everything the pipeline produced for one offloading decision.

    system_overhead is +inf for rejected candidates (an offloader with no
    usable rate, or deadlines the server budget cannot cover). The server
    split rule is the scheme's SCHEME_OBJECTIVE entry; cpu is None when no
    split was made.
    """

    decision: OffloadDecision
    assoc: PrbAssociation
    rates_bps: np.ndarray
    t_off_s: np.ndarray  # 0 for local UEs, +inf for a dead uplink
    e_off_j: np.ndarray
    cpu: CpuAllocation | None
    per_ue_overhead: np.ndarray
    system_overhead: float

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.system_overhead)


def uplink(
    decision: OffloadDecision,
    s: Scenario,
    gains: ChannelGains,
    estimates: Loads,
) -> tuple[PrbAssociation, np.ndarray]:
    """The PRB association and per-UE uplink rates of a decision: quotas,
    coloring, realized rates. A decision with no offloader, or one where a
    non-candidate offloads (which no sane caller builds), has nothing to
    colour: no PRB is held and every rate is 0, so any offloader prices out.
    """
    offs = decision.offload_set
    n, k = s.n_cells, s.radio.num_prbs
    if not offs or not estimates.offloadable[list(offs)].all():
        return PrbAssociation.empty(n, k), np.zeros(n)
    powers = tx_powers(s)
    m = normalize_prbs(estimates.w, offs, k, s.reuse_lambda)
    graph = build_interference_graph(gains, m, powers, offs, s.edge_threshold)
    state = color(graph, m, gains, powers, s.radio)
    return state.assoc, realized_rates(state, m, gains, powers, s.radio)


def price(
    decision: OffloadDecision,
    uplink: tuple[PrbAssociation, np.ndarray],
    s: Scenario,
    estimates: Loads,
    cpu_mode: str,
) -> AllocationOutcome:
    """Turn an uplink (association, rates) into the final costed outcome:
    transfer time/energy, the server split, and per-UE overheads.

    Local UEs pay their local cost. An offloader without a usable rate is a
    dead uplink that prices the decision at +inf; so is a server split that
    misses a deadline. The CPU rule runs only when there are offloaders and
    each has a rate.
    """
    assoc, rates = uplink
    offs = decision.offload_set
    n = s.n_cells
    t_off = np.zeros(n)
    e_off = np.zeros(n)
    per_ue = estimates.local_overhead.copy()
    cpu = None
    if offs:
        ids = np.array(offs)
        bits, power, cycles, wt, we = cost_inputs(s, ids)
        r = rates[ids]
        per_ue[ids] = t_off[ids] = e_off[ids] = math.inf  # until priced
        up = (r > 0) & (r < math.inf)  # a live uplink; nan fails too
        t, e = upload_cost(bits[up], power[up], r[up])
        t_off[ids[up]], e_off[ids[up]] = t, e
        if up.all():
            caps = estimates.local_time_s[ids] - t
            try:
                cpu = _CPU_SOLVERS[cpu_mode](ids, cycles, caps, s.mec_capacity_hz)
            except InfeasibleAllocation:
                pass
            else:
                f = np.fromiter(map(cpu.f.__getitem__, offs), float, ids.size)
                per_ue[ids] = execution_cost(cycles, wt, we, t, e, f)[2]
    return AllocationOutcome(
        decision=decision,
        assoc=assoc,
        rates_bps=rates,
        t_off_s=t_off,
        e_off_j=e_off,
        cpu=cpu,
        per_ue_overhead=per_ue,
        system_overhead=float(per_ue.sum()),
    )


def evaluate(
    decision: OffloadDecision,
    s: Scenario,
    gains: ChannelGains,
    cpu_mode: str,
    estimates: Loads,
) -> AllocationOutcome:
    """Full pipeline for one decision: its uplink, then its price. Decisions
    with no offloaders cost the plain sum of local overheads."""
    return price(decision, uplink(decision, s, gains, estimates), s, estimates, cpu_mode)


def greedy_reallocate(
    a_init: OffloadDecision,
    s: Scenario,
    gains: ChannelGains,
    cpu_mode: str,
    estimates: Loads,
    report: dict[int, float],
) -> AllocationOutcome:
    """Grow the offload set one UE at a time, cheapest estimate first,
    keeping a flip only when the fully re-evaluated system overhead
    strictly improves.

    An infeasible starting decision is first repaired by reverting the
    offloaders with the largest minimum server demand until the pipeline
    prices finite. The outcome never costs more than the starting point.
    `report` is the orthogonal estimate of every offloadable UE.
    """
    decision = a_init
    best = evaluate(decision, s, gains, cpu_mode, estimates)

    while not best.feasible and decision.offload_set:
        ranked = []
        for i in decision.offload_set:
            t_cap = estimates.local_time_s[i] - best.t_off_s[i]
            bound = math.inf if t_cap <= 0 else s.cycles[i] / t_cap
            ranked.append((-bound, i))
        drop = min(ranked)[1]
        decision = decision.flip_off(drop)
        best = evaluate(decision, s, gains, cpu_mode, estimates)

    unchecked = [i for i in report if decision.a[i] == 0]
    for i in sorted(unchecked, key=report.__getitem__):
        trial = decision.flip_on(i)
        candidate = evaluate(trial, s, gains, cpu_mode, estimates)
        if candidate.system_overhead < best.system_overhead:
            best = candidate
            decision = trial
    return best


@dataclass(frozen=True, eq=False)
class CellPlan:
    """The sizing pass of one cell, shared by all of its schemes.

    Nothing here depends on the server-split rule: the Loads, the
    offloadable UE ids, the orthogonal report of every candidate
    (read-only) and the initial guess.
    """

    estimates: Loads
    candidates: tuple[int, ...]
    report: Mapping[int, float]
    a0: OffloadDecision


def cell_plan(s: Scenario, gains: ChannelGains) -> CellPlan:
    """The plan of the cell (s, gains), made on first use and kept on gains.

    gains.h is read-only and so is every input on s, so the plan cannot go
    stale; a different scenario object with the same gains gets its own.
    """
    slot = gains._plan
    if slot is not None and slot[0] is s:
        return slot[1]
    estimates = estimate_loads(s, gains)
    candidates = tuple(estimates.offloadable.nonzero()[0].tolist())
    report = orthogonal_estimate(estimates, candidates, s, gains) if candidates else {}
    plan = CellPlan(
        estimates, candidates, MappingProxyType(report), initial_decision(estimates, report)
    )
    object.__setattr__(gains, "_plan", (s, plan))
    return plan


def run_proposed(s: Scenario, gains: ChannelGains, cpu_mode: str) -> AllocationOutcome:
    """Greedily refine the cell's initial offload guess. With no candidate
    the report is empty and the guess stays all local."""
    plan = cell_plan(s, gains)
    return greedy_reallocate(plan.a0, s, gains, cpu_mode, plan.estimates, plan.report)


def run_baseline(kind: str, s: Scenario, gains: ChannelGains) -> AllocationOutcome:
    """Reference schemes: everyone local, or everyone offloading over an
    orthogonal band split with an even server split."""
    if kind not in _BASELINES:
        raise ValueError(f"unknown baseline {kind!r}")
    plan = cell_plan(s, gains)
    estimates = plan.estimates
    n, k = s.n_cells, s.radio.num_prbs
    candidates = () if kind == "all_local" else plan.candidates
    decision = OffloadDecision.from_set(candidates, n)
    c, rates = np.zeros((n, k), dtype=np.int64), np.zeros(n)
    w = estimates.w.tolist()
    total_w = sum(w[i] for i in candidates)
    quota = [max(math.floor(k * w[i] / total_w), 1) for i in candidates]
    # a band too small to stay orthogonal leaves every uplink dead: priced out
    if candidates and sum(quota) <= k:
        next_free = 0
        for i, q in zip(candidates, quota):
            c[i, next_free : next_free + q] = 1
            next_free += q
        ids = np.array(candidates)
        # no block is shared, so each held block sees zero interference
        rates[ids] = held_rate(
            c[ids], (tx_powers(s)[ids] / np.array(quota))[:, None],
            gains.h[ids, ids][:, None], 0.0, s.radio,
        )
    return price(decision, (PrbAssociation(c=c), rates), s, estimates, "equal")


def run_scheme(name: str, s: Scenario, gains: ChannelGains) -> AllocationOutcome:
    """Run one scheme of SCHEME_OBJECTIVE on a scenario."""
    if name in _BASELINES:
        return run_baseline(name, s, gains)
    if name not in SCHEME_OBJECTIVE:
        raise ValueError(f"unknown scheme {name!r}")
    return run_proposed(s, gains, SCHEME_OBJECTIVE[name])
