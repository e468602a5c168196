"""End-to-end orchestration: size loads, guess who benefits from offloading,
then greedily grow the offload set while the full pipeline keeps paying off.

The initial guess prices each candidate with an interference-free
orthogonal split of the band and an even server split; the real evaluation
runs demand normalization, graph coloring, realized rates, and the convex
server split, and prices the system by the weighted time/energy overhead
summed over all UEs. Candidates that break feasibility price at +inf and
are never kept. The sizing and the initial guess do not depend on the
server-split rule, so every scheme of a cell shares them (cell_plan). What
depends on the config alone is shared by every cell build_scenario makes
from that config, through the plan of its first cell: the all-local
outcome, and, when every UE is forced local, the whole plan (a scenario
built any other way plans each cell alone).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .compute_model import cost_inputs, execution_cost, upload_cost
from .cpu_allocation import CpuAllocation, allocate_equal, allocate_minmax, allocate_minsum
from .errors import InfeasibleAllocation
from .load_estimation import Loads, estimate_loads, prb_rate
from .prb_coloring import (
    build_interference_graph,
    color,
    normalize_prbs,
    realized_rates,
)
from .radio import OffloadDecision, PrbAssociation, check_ids, held_rate
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
    or +inf is a dead uplink, as in price: it prices at +inf, so the
    initial guess keeps it local.
    """
    members = sorted(offload_set)
    if not members:
        raise ValueError("cannot estimate over an empty offload set")
    check_ids(members, len(estimates))
    members = np.array(members, dtype=np.int64)
    offloadable = estimates.offloadable[members]
    if not offloadable.all():
        outside = members[~offloadable][0]
        raise ValueError(f"UE {outside} is not offloadable and has no PRB demand")
    w = estimates.w[members]
    bits, power, cycles, wt, we = cost_inputs(s, members)
    share = s.radio.num_prbs * w / w.sum()  # real-valued
    # the link-budget check bounds the SNR at one PRB, and a share below
    # one can overflow it to an infinite rate, which is dead like a 0
    with np.errstate(over="ignore"):
        rate = prb_rate(share, gains.h.diagonal()[members], s.radio, power)
    f_even = np.full(members.size, s.mec_capacity_hz / s.n_cells)
    up = (rate > 0) & (rate < math.inf)  # price's live uplink
    if up.all():
        overhead = execution_cost(cycles, wt, we, *upload_cost(bits, power, rate), f_even)
    else:
        overhead = np.full(members.size, math.inf)
        t, e = upload_cost(bits[up], power[up], rate[up])
        overhead[up] = execution_cost(cycles[up], wt[up], we[up], t, e, f_even[up])
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
    if not offs or not all(map(estimates.offloadable.__getitem__, offs)):
        return PrbAssociation.empty(n, k), np.zeros(n)
    m = normalize_prbs(estimates.w.take(offs), k, s.reuse_lambda)
    graph = build_interference_graph(gains, m, tx_powers(s), offs, s.edge_threshold)
    state = color(graph, s.radio)
    # the colouring is per offloader: step t is UE state.ids[t]
    ues = state.ids
    c = np.zeros((n, k), dtype=np.int64)
    c[ues[state.held_step], state.held_prb] = 1
    rates = np.zeros(n)
    rates[ues] = realized_rates(state, s.radio)
    return PrbAssociation(c=c), rates


def _check_decision(decision: OffloadDecision, s: Scenario, cpu_mode: str) -> None:
    """Reject a decision sized for another scenario and an unknown CPU rule,
    even where no offloader would reach them."""
    if decision.n != s.n_cells:
        raise ValueError(f"a decision over {decision.n} UEs for a scenario of {s.n_cells}")
    if cpu_mode not in _CPU_SOLVERS:
        raise ValueError(f"unknown cpu_mode {cpu_mode!r}")


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
    each has a rate. Unmasked when all are live, the arrays have the bits of
    the masked form (tests/_oracles.masked_price).
    """
    _check_decision(decision, s, cpu_mode)
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
        up = (r > 0) & (r < math.inf)  # a live uplink; nan fails too
        if up.all():
            t, e = upload_cost(bits, power, r)
            t_off[ids], e_off[ids] = t, e
            caps = estimates.local_time_s[ids] - t
            try:
                cpu = _CPU_SOLVERS[cpu_mode](ids, cycles, caps, s.mec_capacity_hz)
            except InfeasibleAllocation:
                per_ue[ids] = math.inf
            else:
                f = np.fromiter(map(cpu.f.__getitem__, offs), float, ids.size)
                per_ue[ids] = execution_cost(cycles, wt, we, t, e, f)
        else:
            # only the live uplinks are priced; the rest stay at +inf
            per_ue[ids] = t_off[ids] = e_off[ids] = math.inf
            t_off[ids[up]], e_off[ids[up]] = upload_cost(bits[up], power[up], r[up])
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
    with no offloaders cost the plain sum of local overheads; sized by their
    cell's plan, they are its shared all-local outcome."""
    _check_decision(decision, s, cpu_mode)
    slot = gains._plan
    if not decision.offload_set and slot and slot[0] is s and slot[1].estimates is estimates:
        return slot[1].local
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

    offs = set(decision.offload_set)
    unchecked = [i for i in report if i not in offs]
    for i in sorted(unchecked, key=report.__getitem__):
        trial = decision.flip_on(i)
        candidate = evaluate(trial, s, gains, cpu_mode, estimates)
        if candidate.system_overhead < best.system_overhead:
            best = candidate
            decision = trial
    return best


@dataclass(frozen=True, eq=False)
class CellPlan:
    """The sizing pass of one cell, shared by all of its schemes, and by
    every later cell of its config when all its UEs are forced local.

    Nothing here depends on the server-split rule: the Loads, the
    orthogonal report of every candidate (read-only, keyed by the
    offloadable UE ids in ascending order), the initial guess and the
    all-local outcome, which every scheme whose decision has no offloader
    returns (its arrays read-only).
    """

    estimates: Loads
    report: Mapping[int, float]
    a0: OffloadDecision
    local: AllocationOutcome


def cell_plan(s: Scenario, gains: ChannelGains) -> CellPlan:
    """The plan of the cell (s, gains), made on first use and kept on gains.

    gains.h is read-only and so is every input on s, so the plan cannot go
    stale; a different scenario object with the same gains gets its own.
    The first cell of a config (s._config, from build_scenario) keeps its
    plan on the config, read and written here alone. Forced-local UEs and
    the all-local outcome (the local overheads, N and K) depend on the
    config alone: a later cell of a config whose UEs are all forced local
    takes that plan whole and reads no gain, and any other later cell
    sizes itself and takes only the plan's all-local outcome.
    """
    slot = gains._plan
    if slot is not None and slot[0] is s:
        return slot[1]
    config = s._config
    first = None if config is None else config._plan
    if first is not None and first.estimates.forced_local.all():
        object.__setattr__(gains, "_plan", (s, first))
        return first
    estimates = estimate_loads(s, gains)
    candidates = tuple(estimates.offloadable.nonzero()[0].tolist())
    report = orthogonal_estimate(estimates, candidates, s, gains) if candidates else {}
    a0 = initial_decision(estimates, report)
    if first is not None:
        local = first.local
    else:
        # with no offloader no server split is made, so any rule prices it
        all_local = OffloadDecision.all_local(s.n_cells)
        local = price(all_local, uplink(all_local, s, gains, estimates), s, estimates, "equal")
        # the empty association is read-only already
        for array in (local.rates_bps, local.t_off_s, local.e_off_j, local.per_ue_overhead):
            array.flags.writeable = False
    plan = CellPlan(estimates, MappingProxyType(report), a0, local)
    if config is not None and first is None:
        object.__setattr__(config, "_plan", plan)
    object.__setattr__(gains, "_plan", (s, plan))
    return plan


def run_proposed(s: Scenario, gains: ChannelGains, cpu_mode: str) -> AllocationOutcome:
    """Greedily refine the cell's initial offload guess. With no candidate
    the report is empty and the guess stays all local."""
    plan = cell_plan(s, gains)
    return greedy_reallocate(plan.a0, s, gains, cpu_mode, plan.estimates, plan.report)


def run_baseline(kind: str, s: Scenario, gains: ChannelGains) -> AllocationOutcome:
    """Reference schemes: everyone local, or everyone offloading over an
    orthogonal band split with an even server split. The split's blocks
    are held_rate's entries, each at interference 0.0. With no candidate
    both are the plan's shared all-local outcome."""
    if kind not in _BASELINES:
        raise ValueError(f"unknown baseline {kind!r}")
    plan = cell_plan(s, gains)
    if kind == "all_local" or not plan.report:
        return plan.local
    estimates, candidates = plan.estimates, tuple(plan.report)
    n, k = s.n_cells, s.radio.num_prbs
    decision = OffloadDecision.from_set(candidates, n)
    c, rates = np.zeros((n, k), dtype=np.int64), np.zeros(n)
    w = estimates.w.tolist()
    total_w = sum(w[i] for i in candidates)
    quota = [max(math.floor(k * w[i] / total_w), 1) for i in candidates]
    # a band too small to stay orthogonal leaves every uplink dead: priced out
    if sum(quota) <= k:
        # candidate r holds the next quota[r] blocks, in candidate order
        row = np.arange(len(candidates)).repeat(quota)
        prb = np.arange(sum(quota))
        ids = np.array(candidates)
        c[ids[row], prb] = 1
        # no block is shared, so each held block sees zero interference: the
        # bits of the from-scratch table's exact +0.0 entries
        signal = tx_powers(s)[ids] / np.array(quota) * gains.h.diagonal()[ids]
        rates[ids] = held_rate(row, prb, signal[row], 0.0, ids.size, s.radio)
    return price(decision, (PrbAssociation(c=c), rates), s, estimates, "equal")


def run_scheme(name: str, s: Scenario, gains: ChannelGains) -> AllocationOutcome:
    """Run one scheme of SCHEME_OBJECTIVE on a scenario."""
    if name in _BASELINES:
        return run_baseline(name, s, gains)
    if name not in SCHEME_OBJECTIVE:
        raise ValueError(f"unknown scheme {name!r}")
    return run_proposed(s, gains, SCHEME_OBJECTIVE[name])
