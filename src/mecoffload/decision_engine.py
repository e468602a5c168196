"""End-to-end orchestration: size loads, guess who benefits from offloading,
then greedily grow the offload set while the full pipeline keeps paying off.

The initial guess prices each candidate with an interference-free
orthogonal split of the band and an even server split; the real evaluation
runs demand normalization, graph coloring, realized rates, and the convex
server split, and prices the system by the weighted time/energy overhead
summed over all UEs. Candidates that break feasibility price at +inf and
are never kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .compute_model import OffloadOverhead, offload_overhead
from .cpu_allocation import (
    CpuAllocation,
    CpuRequest,
    allocate_equal,
    allocate_minmax,
    allocate_minsum,
)
from .errors import EmptyOffloadSet, InfeasibleAllocation
from .load_estimation import LoadEstimate, estimate_loads, prb_rate
from .prb_coloring import (
    build_interference_graph,
    color,
    normalize_prbs,
    realized_rates,
)
from .radio import (
    OffloadDecision,
    PrbAssociation,
    held_rate,
    interference_table,
)
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
    estimates: list[LoadEstimate],
    offload_set,
    s: Scenario,
    gains: ChannelGains,
) -> dict[int, OffloadOverhead]:
    """Price every member of the set as if the band were split orthogonally.

    Real-valued PRB shares proportional to demand, no co-channel
    interference, and an even server split. Deliberately optimistic; used
    only to rank candidates, never as the acceptance metric.
    """
    members = sorted(offload_set)
    if not members:
        raise EmptyOffloadSet("cannot estimate over an empty offload set")
    total_w = sum(estimates[i].w for i in members)
    k = s.radio.num_prbs
    f_even = s.mec_capacity_hz / s.n_cells
    orth: dict[int, OffloadOverhead] = {}
    for i in members:
        ue = s.ues[i]
        m_tilde = k * estimates[i].w / total_w  # real-valued PRB share
        rate = prb_rate(m_tilde, float(gains.h[i, i]), s.radio, ue.tx_power_w)
        orth[i] = offload_overhead(ue, rate, f_even)
    return orth


def initial_decision(
    estimates: list[LoadEstimate], report: dict[int, OffloadOverhead]
) -> OffloadDecision:
    """Offload exactly the UEs whose estimated offload cost beats local.

    Ties stay local. UEs the report does not price (forced local or
    infeasible) stay local regardless.
    """
    a = [0] * len(estimates)
    for est in estimates:
        hypo = report.get(est.ue)
        if hypo is not None and est.local.overhead > hypo.overhead:
            a[est.ue] = 1
    return OffloadDecision(a=tuple(a))


@dataclass(frozen=True)
class AllocationOutcome:
    """Everything the pipeline produced for one offloading decision.

    system_overhead is +inf for rejected candidates (an offloader with no
    usable rate, or deadlines the server budget cannot cover).
    """

    decision: OffloadDecision
    assoc: PrbAssociation
    rates_bps: np.ndarray
    t_off_s: np.ndarray  # 0 for local UEs, +inf for a dead uplink
    e_off_j: np.ndarray
    cpu: CpuAllocation | None
    per_ue_overhead: np.ndarray
    system_overhead: float
    objective_kind: str  # server-split rule: minmax | minsum | equal | none

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.system_overhead)


def _unallocated(
    decision: OffloadDecision,
    s: Scenario,
    estimates: list[LoadEstimate],
    objective_kind: str = "none",
) -> AllocationOutcome:
    """Outcome with no PRB handed out: local UEs pay their local cost, and
    offloaders, if any, have no uplink and price the decision at +inf."""
    n, k = len(s.ues), s.radio.num_prbs
    offloading = np.array(decision.a) == 1
    per_ue = np.where(offloading, math.inf, [est.local.overhead for est in estimates])
    return AllocationOutcome(
        decision=decision,
        assoc=PrbAssociation.empty(n, k),
        rates_bps=np.zeros(n),
        t_off_s=np.where(offloading, math.inf, 0.0),
        e_off_j=np.where(offloading, math.inf, 0.0),
        cpu=None,
        per_ue_overhead=per_ue,
        system_overhead=float(per_ue.sum()),
        objective_kind=objective_kind,
    )


def _finish(
    decision: OffloadDecision,
    s: Scenario,
    estimates: list[LoadEstimate],
    assoc: PrbAssociation,
    rates: np.ndarray,
    cpu_mode: str,
) -> AllocationOutcome:
    """Turn an uplink allocation into the final costed outcome: transfer
    time/energy, the server split, and per-UE overheads."""
    n = len(s.ues)
    offs = decision.offload_set
    t_off = np.zeros(n)
    e_off = np.zeros(n)
    dead_uplink = False
    for i in offs:
        ue = s.ues[i]
        r = float(rates[i])
        if r > 0 and math.isfinite(r):
            t_off[i] = ue.task.input_bits / r
            e_off[i] = ue.tx_power_w * ue.task.input_bits / r
        else:
            t_off[i] = math.inf
            e_off[i] = math.inf
            dead_uplink = True

    cpu = None
    if not dead_uplink:
        requests = [
            CpuRequest(
                ue=i,
                cycles=s.ues[i].task.cycles,
                t_cap_s=estimates[i].local.time_s - t_off[i],
            )
            for i in offs
        ]
        try:
            cpu = _CPU_SOLVERS[cpu_mode](requests, s.mec_capacity_hz)
        except InfeasibleAllocation:
            cpu = None

    per_ue = np.empty(n)
    for i in range(n):
        if decision.a[i] == 0:
            per_ue[i] = estimates[i].local.overhead
        elif cpu is None:
            per_ue[i] = math.inf
        else:
            per_ue[i] = offload_overhead(s.ues[i], float(rates[i]), cpu.f[i]).overhead
    return AllocationOutcome(
        decision=decision,
        assoc=assoc,
        rates_bps=rates,
        t_off_s=t_off,
        e_off_j=e_off,
        cpu=cpu,
        per_ue_overhead=per_ue,
        system_overhead=float(per_ue.sum()),
        objective_kind=cpu_mode,
    )


def evaluate(
    decision: OffloadDecision,
    s: Scenario,
    gains: ChannelGains,
    cpu_mode: str,
    estimates: list[LoadEstimate],
) -> AllocationOutcome:
    """Full pipeline for one decision: quotas, coloring, rates, server
    split, system overhead. Decisions with no offloaders cost the plain
    sum of local overheads."""
    offs = decision.offload_set
    if not offs:
        return _unallocated(decision, s, estimates)
    if any(not estimates[i].offloadable for i in offs):
        # a decision no sane caller builds; price it out instead of crashing
        return _unallocated(decision, s, estimates, cpu_mode)
    n, k = len(s.ues), s.radio.num_prbs
    demands = [0] * n
    for i in offs:
        demands[i] = estimates[i].w
    powers = tx_powers(s)
    m = normalize_prbs(demands, offs, k, s.reuse_lambda)
    graph = build_interference_graph(gains, m, powers, offs, s.edge_threshold)
    state = color(graph, m, gains, powers, s.radio)
    rates = realized_rates(state, m, gains, powers, s.radio)
    return _finish(decision, s, estimates, state.assoc, rates, cpu_mode)


def greedy_reallocate(
    a_init: OffloadDecision,
    s: Scenario,
    gains: ChannelGains,
    cpu_mode: str,
    estimates: list[LoadEstimate],
    report: dict[int, OffloadOverhead],
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
            t_cap = estimates[i].local.time_s - best.t_off_s[i]
            bound = math.inf if t_cap <= 0 else s.ues[i].task.cycles / t_cap
            ranked.append((-bound, i))
        drop = min(ranked)[1]
        decision = decision.flip_off(drop)
        best = evaluate(decision, s, gains, cpu_mode, estimates)

    unchecked = [i for i in report if decision.a[i] == 0]
    for i in sorted(unchecked, key=lambda i: report[i].overhead):
        trial = decision.flip_on(i)
        candidate = evaluate(trial, s, gains, cpu_mode, estimates)
        if candidate.system_overhead < best.system_overhead:
            best = candidate
            decision = trial
    return best


def run_proposed(s: Scenario, gains: ChannelGains, cpu_mode: str) -> AllocationOutcome:
    """Estimate, make the initial offload guess, then greedily refine it."""
    estimates = estimate_loads(s, gains)
    candidates = [est.ue for est in estimates if est.offloadable]
    if not candidates:
        return _unallocated(OffloadDecision.all_local(len(s.ues)), s, estimates)
    report = orthogonal_estimate(estimates, candidates, s, gains)
    a0 = initial_decision(estimates, report)
    return greedy_reallocate(a0, s, gains, cpu_mode, estimates, report)


def run_baseline(kind: str, s: Scenario, gains: ChannelGains) -> AllocationOutcome:
    """Reference schemes: everyone local, or everyone offloading over an
    orthogonal band split with an even server split."""
    estimates = estimate_loads(s, gains)
    n, k = len(s.ues), s.radio.num_prbs
    if kind not in _BASELINES:
        raise ValueError(f"unknown baseline {kind!r}")
    candidates = [est.ue for est in estimates if est.offloadable]
    if kind == "all_local" or not candidates:
        return _unallocated(OffloadDecision.all_local(n), s, estimates)

    decision = OffloadDecision.from_set(candidates, n)
    total_w = sum(estimates[i].w for i in candidates)
    quota = {
        i: max(math.floor(k * estimates[i].w / total_w), 1) for i in candidates
    }
    if sum(quota.values()) > k:
        # band too small to stay orthogonal: price the scheme out
        return _unallocated(decision, s, estimates, "equal")
    c = np.zeros((n, k), dtype=np.int64)
    next_free = 0
    for i in candidates:
        c[i, next_free : next_free + quota[i]] = 1
        next_free += quota[i]
    assoc = PrbAssociation.from_matrix(c)
    powers = tx_powers(s)
    o = interference_table(assoc, gains, powers).o
    rates = np.zeros(n)
    for i in candidates:
        p_prb = powers[i] / quota[i]
        rates[i] = held_rate(c[i], p_prb, gains.h[i, i], o[i], s.radio)
    return _finish(decision, s, estimates, assoc, rates, "equal")


def run_scheme(name: str, s: Scenario, gains: ChannelGains) -> AllocationOutcome:
    """Run one scheme of SCHEME_OBJECTIVE on a scenario."""
    if name in _BASELINES:
        return run_baseline(name, s, gains)
    if name not in SCHEME_OBJECTIVE:
        raise ValueError(f"unknown scheme {name!r}")
    return run_proposed(s, gains, SCHEME_OBJECTIVE[name])
