"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the defining formulas in
plain Python/numpy, with different looping and summation order than the
shipped code, so agreement is meaningful.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from mecoffload.compute_model import cost_inputs, execution_cost, upload_cost
from mecoffload.cpu_allocation import (
    CpuAllocation,
    allocate_equal,
    allocate_minmax,
    allocate_minsum,
)
from mecoffload.decision_engine import AllocationOutcome, evaluate, price
from mecoffload.errors import InfeasibleAllocation
from mecoffload.load_estimation import LoadEstimate, estimate_loads
from mecoffload.prb_coloring import normalize_prbs
from mecoffload.radio import OffloadDecision, PrbAssociation, interference_table

# largest candidate count best_offload_set searches: 2**11 evaluations
MAX_EXHAUSTIVE_CANDIDATES = 11


def path_loss_db(distance_m, pl0_db: float, exponent: float):
    """Log-distance path loss, 1 m reference; distances clamped to 1 m."""
    d = np.maximum(distance_m, 1.0)
    return pl0_db + 10.0 * exponent * np.log10(d)


def expression_gains(s) -> np.ndarray:
    """The gain matrix as one array expression, each step a new N x N array:
    the form the gains had before scenario.gain_matrix computed them in
    place, so the two must agree bit for bit. Returns h without checking the link
    budget; overflows and inf - inf give inf and nan entries silently.
    """
    dx = s.ue_xy[:, 0, None] - s.cell_xy[None, :, 0]
    dy = s.ue_xy[:, 1, None] - s.cell_xy[None, :, 1]
    dist = np.sqrt(dx * dx + dy * dy)
    with np.errstate(over="ignore", invalid="ignore"):
        pl = path_loss_db(dist, s.pl0_db, s.pl_exponent)
        if s.shadowing_db > 0:
            rng = np.random.default_rng([s.seed, 1])
            pl = pl + rng.normal(0.0, s.shadowing_db, size=pl.shape)
        return 10.0 ** (-pl / 10.0)


def eager_positions(config, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(cell_xy, ue_xy) as build_scenario drew them before a scenario drew
    its positions on first read: the same generator, draws and arithmetic
    in C order, so scenario.draw_positions must agree bit for bit."""
    n = config.n_cells
    rng = np.random.default_rng(seed)
    cell_xy = rng.uniform(0.0, config.area_m, size=(n, 2))
    r_min = min(1.0, config.ue_radius_m)
    radius = np.sqrt(rng.uniform(r_min**2, config.ue_radius_m**2, size=n))
    angle = rng.uniform(0.0, 2 * np.pi, size=n)
    ue_xy = cell_xy + np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    return cell_xy, ue_xy


# the rows of Scenario's (7, N) per-UE column table, in order
POSITIVE_COLUMNS = ("tx_power_w", "input_bits", "cycles", "local_speed_hz", "energy_coeff")
WEIGHT_COLUMNS = ("w_t", "w_e")


def twelve_op_column_check(table: np.ndarray) -> str | None:
    """The message Scenario's column check raises on a (7, N) table, or
    None when it passes, by the elementwise rule it used before it read
    each row's extremes: two comparisons, an &, an .all(axis=1), a ~ and an
    .any() per rule, and the first failing row named."""
    positive = table[: len(POSITIVE_COLUMNS)]
    bad = ~((positive > 0) & (positive < math.inf)).all(axis=1)
    if bad.any():
        return f"UE {POSITIVE_COLUMNS[bad.argmax()]} must be finite and positive"
    weights = table[len(POSITIVE_COLUMNS):]
    bad = ~((weights >= 0) & (weights <= 1)).all(axis=1)
    if bad.any():
        return f"UE weight {WEIGHT_COLUMNS[bad.argmax()]} must lie in [0,1]"
    return None


def brute_interference(c: np.ndarray, h: np.ndarray, powers) -> np.ndarray:
    """o[n, k] = sum over m != n of c[m,k] * (P_m / M_m) * h[m, n]."""
    n_ues, k = c.shape
    o = np.zeros((n_ues, k))
    m_row = c.sum(axis=1)
    for n in range(n_ues):
        for kk in range(k):
            total = 0.0
            for mm in range(n_ues):
                if mm == n or c[mm, kk] == 0 or m_row[mm] == 0:
                    continue
                total += (powers[mm] / m_row[mm]) * h[mm, n]
            o[n, kk] = total
    return o


def brute_uplink_rate(n, a, c, h, powers, bandwidth_hz, num_prbs, noise_w) -> float:
    """Shannon sum over held PRBs with co-channel terms from active UEs."""
    if a[n] == 0:
        return 0.0
    m_row = c.sum(axis=1)
    bpp = bandwidth_hz / num_prbs
    total = 0.0
    for kk in range(num_prbs):
        if c[n, kk] == 0:
            continue
        interf = 0.0
        for mm in range(len(a)):
            if mm == n or a[mm] == 0 or c[mm, kk] == 0:
                continue
            interf += (powers[mm] / m_row[mm]) * h[mm, n]
        snr = (powers[n] / m_row[n]) * h[n, n] / (noise_w + interf)
        total += bpp * math.log2(1.0 + snr)
    return total


def scan_min_prbs(snr_product, num_prbs, prb_bandwidth_hz, min_rate_bps):
    """First w in 1..K with w*bpp*log2(1 + snr_product/w) >= target, else 0.

    snr_product is P*H/noise, the single-PRB SNR before power splitting.
    """
    for w in range(1, num_prbs + 1):
        rate = w * prb_bandwidth_hz * math.log2(1.0 + snr_product / w)
        if rate >= min_rate_bps:
            return w
    return 0


def offload_cost(bits, power, cycles, wt, we, rate, f):
    """One UE's offload priced from the defining formulas, on Python floats.

    Upload time D/r and energy P*D/r at rate r, server time C/f at speed f,
    and the overhead w_t*(t_off + C/f) + w_e*e_off. The arithmetic of each
    value is that of compute_model, so the two agree bit for bit. Returns
    (t_off, e_off, t_exe, overhead).
    """
    t_off = bits / rate
    e_off = power * bits / rate
    t_exe = cycles / f
    return t_off, e_off, t_exe, wt * (t_off + t_exe) + we * e_off


def ue_offload_cost(ue, rate, f):
    """offload_cost on the inputs of one Ue record."""
    return offload_cost(ue.task.input_bits, ue.tx_power_w, ue.task.cycles,
                        ue.weight_time, ue.weight_energy, rate, f)


def scalar_local(ue):
    """One UE's local cost: time D/F_l, energy v*D, and the two weighted
    by the UE's weights, as (time, energy, overhead)."""
    t_local = ue.task.cycles / ue.local_speed_hz
    e_local = ue.energy_coeff_j_per_cycle * ue.task.cycles
    return t_local, e_local, ue.weight_time * t_local + ue.weight_energy * e_local


def scalar_loads(s, gains) -> list[LoadEstimate]:
    """The sizing pass one UE at a time, from the defining formulas.

    The server time is D over an even F/N share, and the rate target is the
    input size over the slack D/F_l - D/(F/N) against the local time of
    scalar_local; with no slack the UE is forced local. w is the first PRB
    count, by linear scan, whose interference-free rate with the power
    split evenly meets the target; with none the UE is infeasible. The
    arithmetic of each value is that of estimate_loads, so the two agree
    bit for bit.
    """
    n = len(s.ues)
    radio = s.radio
    out = []
    for ue in s.ues:
        d = ue.task.cycles
        t_local = scalar_local(ue)[0]
        t_exe = d / (s.mec_capacity_hz / n)
        slack = t_local - t_exe
        rate, w = math.inf, None
        if slack > 0:
            rate = ue.task.input_bits / slack
            gain = float(gains.h[ue.id, ue.id])
            for prbs in range(1, radio.num_prbs + 1):
                snr = ue.tx_power_w * gain / (prbs * radio.noise_per_prb_w)
                if prbs * radio.prb_bandwidth_hz * math.log2(1.0 + snr) >= rate:
                    w = prbs
                    break
        out.append(LoadEstimate(
            ue=ue.id, t_exe_est_s=t_exe, min_rate_bps=rate, w=w,
            forced_local=slack <= 0, infeasible=slack > 0 and w is None,
        ))
    return out


def best_offload_set(s, gains, cpu_mode):
    """The cheapest offload set by exhaustive search, as (set, cost).

    Every subset of the offloadable UEs, the empty one included, is priced
    with evaluate under the CPU rule cpu_mode; ties go to the first subset
    in (size, lexicographic) order. Raises ValueError past
    MAX_EXHAUSTIVE_CANDIDATES offloadable UEs.
    """
    estimates = estimate_loads(s, gains)
    candidates = estimates.offloadable.nonzero()[0].tolist()
    if len(candidates) > MAX_EXHAUSTIVE_CANDIDATES:
        raise ValueError(f"{len(candidates)} candidates, more than {MAX_EXHAUSTIVE_CANDIDATES}")
    best = None
    for size in range(len(candidates) + 1):
        for subset in itertools.combinations(candidates, size):
            decision = OffloadDecision.from_set(subset, s.n_cells)
            cost = evaluate(decision, s, gains, cpu_mode, estimates).system_overhead
            if best is None or cost < best[1]:
                best = (subset, cost)
    return best


def loop_quotas(demands, offload_ids, num_prbs, reuse_lambda) -> np.ndarray:
    """PRB quotas one UE at a time, reading demands per element.

    round-half-even(lambda * K * w_n / sum w) capped at K and floored at
    1, 0 outside the offload set: the loop normalize_prbs ran before it
    read its demands in one pass.
    """
    ids = sorted(offload_ids)
    total = sum(int(demands[i]) for i in ids)
    m = np.zeros(len(demands), dtype=np.int64)
    for i in ids:
        share = num_prbs * int(demands[i]) / total
        m[i] = min(max(round(reuse_lambda * share), 1), num_prbs)
    return m


def loop_interference_weight(h, m, powers, ids, theta) -> np.ndarray:
    """Edge weights of the interference graph, one ordered pair at a time."""
    weight = np.zeros(h.shape)
    for a in ids:
        for b in ids:
            if a != b and h[a, b] / h[b, b] > theta:
                weight[a, b] = (powers[a] / m[a]) * h[a, b]
    return weight


def by_ue(ids, quota, n) -> np.ndarray:
    """Quotas of the UEs ids, given in ascending id order, as the oracles
    read them: an int64 array indexed by UE id, 0 off the offloaders."""
    m = np.zeros(n, dtype=np.int64)
    m[sorted(ids)] = quota
    return m


def dense_color(ids, m, h, powers, radio, theta):
    """The greedy coloring of the UEs ids, scoring every colored row on
    every PRB. m holds the quotas by UE id.

    The order is derived here from loop_interference_weight's in-edge
    sums: most in-edge weight, then least quota, then UE id. Then the same
    arithmetic as prb_coloring.color, but each step recomputes the base and
    perturbed rates of all colored rows on all K PRBs and masks them with
    the held flags, so it should agree with color bit for bit. A score is
    the node's own rate plus the change in the colored rows' rates: their
    current rates are the same for every color, so the sum of them is left
    out.
    Returns (c, o, order, steps), c and o N x K, steps a list of (node,
    colors, table_after) per colored node.
    """
    n_ues = h.shape[0]
    k = radio.num_prbs
    bpp = radio.prb_bandwidth_hz
    noise = radio.noise_per_prb_w
    nodes = sorted(ids)
    in_weight = loop_interference_weight(h, m, powers, nodes, theta).sum(axis=0)
    order = sorted(nodes, key=lambda i: (-in_weight[i], m[i], i))

    nodes = np.array(nodes, dtype=np.int64)
    p = np.zeros(n_ues)
    p[nodes] = powers[nodes] / m[nodes]

    c = np.zeros((n_ues, k), dtype=np.int64)
    o = np.zeros((n_ues, k))
    colored: list[int] = []
    steps = []
    for node in order:
        own = bpp * np.log2(1.0 + p[node] * h[node, node] / (noise + o[node]))
        if colored:
            rows = np.asarray(colored)
            snr_num = (p[rows] * h[rows, rows])[:, None]
            base = bpp * np.log2(1.0 + snr_num / (noise + o[rows]))
            bump = (p[node] * h[node, rows])[:, None]
            pert = bpp * np.log2(1.0 + snr_num / (noise + o[rows] + bump))
            held = c[rows].astype(np.float64)
            scores = own + (held * (pert - base)).sum(axis=0)
        else:
            scores = own
        take = np.argsort(-scores, kind="stable")[: int(m[node])]
        c[node, take] = 1
        leak = p[node] * h[node]
        leak[node] = 0.0
        o[:, take] += leak[:, None]
        colored.append(int(node))
        steps.append((int(node), tuple(int(j) for j in np.sort(take)), o.copy()))
    return c, o, tuple(int(x) for x in order), steps


def state_assoc(state, n, k) -> PrbAssociation:
    """The N x K table of a ColoringState's held entries: step t's PRBs in
    the row of its UE state.ids[t]."""
    c = np.zeros((n, k), dtype=np.int64)
    c[state.ids[state.held_step], state.held_prb] = 1
    return PrbAssociation(c=c)


def assert_matches_dense_color(state, graph, ids, m, h, powers, radio, theta):
    """Assert that a graph and its ColoringState equal dense_color's bit for
    bit. m holds the quotas by UE id.

    Compares the graph's nodes with dense_color's order, and its in-edge
    weights, quotas, signals and zero-diagonal leakage block with those
    formulas in that order. Then the state's UEs, its held entries (the
    PRBs of each step, ascending, as dense_color's rows hold them in
    coloring order) and its final interference table (dense_color's rows
    of the colored nodes, in coloring order, against the rows of the
    state's PRB-major table). Returns dense_color's (order, steps) for
    replay_coloring.
    """
    c, o, order, steps = dense_color(ids, m, h, powers, radio, theta)
    rows = list(order)
    weight = loop_interference_weight(h, m, powers, sorted(ids), theta).sum(axis=0)
    leak = (powers[rows] / m[rows])[:, None] * h[rows][:, rows]
    signal = leak.diagonal().copy()
    np.fill_diagonal(leak, 0.0)
    assert graph.nodes.dtype == np.int64
    assert tuple(graph.nodes.tolist()) == order, "graph order differs from dense_color"
    assert graph.in_weight.tobytes() == weight[rows].tobytes(), "graph in-weights differ"
    assert graph.quota.tobytes() == m[rows].tobytes(), "graph quotas differ from m"
    assert graph.signal.tobytes() == signal.tobytes(), "graph signals differ from P/M * g"
    assert graph.leak.tobytes() == leak.tobytes(), "graph leakage differs from P/M * h"
    assert state.ids.tobytes() == graph.nodes.tobytes(), "state UEs differ from the graph's"
    step, prb = c[rows].nonzero()
    assert state.held_step.tolist() == step.tolist(), "held steps differ from dense_color"
    assert state.held_prb.tolist() == prb.tolist(), "colors differ from dense_color"
    # the state's table is PRB-major; its transpose is one row per step
    assert state.table.shape == (radio.num_prbs, len(order))
    assert state.table.T.tobytes() == o[rows].tobytes(), "table differs from dense_color"
    return order, steps


def replay_coloring(order, steps, graph_nodes, m, h, powers, bandwidth_hz,
                    num_prbs, noise_w, theta, interference_table_fn, rtol=1e-12):
    """Re-derive a coloring trajectory from scratch.

    order and steps are what dense_color returns: steps holds one
    (node, colors, table_after) per colored node. Checks, step by step: the
    node order (static in-edge-weight key with smallest-quota then
    lowest-index ties), that each node's colors are exactly the top-quota
    set of the recomputed hypothetical sum rate (ties to the lowest color),
    and that the table after each step matches a from-scratch rebuild. The
    score is the node's own rate plus the change in the colored nodes'
    rates: their current rates are the same for every color, so they are
    left out.
    Raises AssertionError on the first disagreement.
    """
    bpp = bandwidth_hz / num_prbs
    nodes = sorted(graph_nodes)

    # static order key: per-PRB leakage summed over in-edges only
    in_weight = {}
    for n in nodes:
        total = 0.0
        for mm in nodes:
            if mm == n:
                continue
            if h[mm, n] / h[n, n] > theta:
                total += (powers[mm] / m[mm]) * h[mm, n]
        in_weight[n] = total
    expected_order = sorted(nodes, key=lambda i: (-in_weight[i], m[i], i))
    assert list(order) == expected_order, "coloring order mismatch"

    held: dict[int, list[int]] = {n: [] for n in nodes}

    def table_entry(n, j):
        total = 0.0
        for mm in nodes:
            if mm != n and j in held[mm]:
                total += (powers[mm] / m[mm]) * h[mm, n]
        return total

    def rate(n, j, extra_from=None):
        o = table_entry(n, j)
        if extra_from is not None:
            o += (powers[extra_from] / m[extra_from]) * h[extra_from, n]
        return bpp * math.log2(1.0 + (powers[n] / m[n]) * h[n, n] / (noise_w + o))

    for nb, colors, table_after in steps:
        base_terms = {
            n: [rate(n, q) for q in held[n]] for n in nodes if n != nb
        }
        scores = []
        for j in range(num_prbs):
            s = rate(nb, j)
            for n in nodes:
                if n == nb or j not in held[n]:
                    continue
                s += rate(n, j, extra_from=nb) - base_terms[n][held[n].index(j)]
            scores.append(s)
        want = sorted(range(num_prbs), key=lambda j: (-scores[j], j))[: m[nb]]
        assert set(want) == set(colors), (
            f"node {nb}: colors {sorted(colors)} != expected {sorted(want)}"
        )
        held[nb] = list(colors)

        # table consistency against a full rebuild from the partial matrix
        c_partial = np.zeros((h.shape[0], num_prbs), dtype=np.int64)
        for n in nodes:
            c_partial[n, held[n]] = 1
        rebuilt = interference_table_fn(c_partial)
        np.testing.assert_allclose(
            table_after, rebuilt, rtol=rtol, atol=1e-300,
            err_msg=f"interference table inconsistent after node {nb}",
        )


# the nonempty subsets of three nodes: the regions a colouring's PRBs fall in
REGIONS = ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))


def region_tables(quota, num_prbs):
    """Every PRB table of three nodes that holds each node's quota, one per
    feasible vector of region counts, as (counts, c).

    counts[r] is how many PRBs exactly the nodes of REGIONS[r] share. The
    gains have no PRB axis, so a table's rates depend only on its counts.
    The quotas fix the three single-node counts from the four shared ones,
    which are free; the counts must be non-negative and sum to at most
    num_prbs. Each region takes consecutive PRBs, in REGIONS order.
    """
    q0, q1, q2 = quota
    shared = itertools.product(
        range(min(q0, q1) + 1), range(min(q0, q2) + 1),
        range(min(q1, q2) + 1), range(min(quota) + 1),
    )
    for x01, x02, x12, x012 in shared:
        counts = (q0 - x01 - x02 - x012, q1 - x01 - x12 - x012,
                  q2 - x02 - x12 - x012, x01, x02, x12, x012)
        if min(counts) < 0 or sum(counts) > num_prbs:
            continue
        c = np.zeros((3, num_prbs), dtype=np.int64)
        first = 0
        for region, count in zip(REGIONS, counts):
            c[list(region), first:first + count] = 1
            first += count
        yield counts, c


def region_counts(c):
    """The REGIONS counts of a three-row PRB table."""
    holders = [tuple(np.flatnonzero(column).tolist()) for column in c.T]
    return tuple(holders.count(region) for region in REGIONS)


def region_uplinks(s, gains, estimates):
    """{counts: (c, rates)} of every colouring of a 3-cell scenario's
    all-offload decision at normalize_prbs's quotas: each region_tables
    table with its rates from brute_uplink_rate."""
    assert s.n_cells == 3, "the regions are those of three nodes"
    decision = OffloadDecision.from_set(range(3), 3)
    r = s.radio
    quota = normalize_prbs(estimates.w.take(decision.offload_set), r.num_prbs, s.reuse_lambda)
    uplinks = {}
    for counts, c in region_tables(quota.tolist(), r.num_prbs):
        rates = np.array([
            brute_uplink_rate(n, decision.a, c, gains.h, s.tx_power_w,
                              r.bandwidth_hz, r.num_prbs, r.noise_per_prb_w)
            for n in range(3)
        ])
        uplinks[counts] = (c, rates)
    return uplinks


def region_costs(s, gains, estimates, cpu_mode):
    """{counts: cost} of every region_uplinks colouring, priced with price
    under the CPU rule."""
    decision = OffloadDecision.from_set(range(3), 3)
    return {
        counts: price(decision, (PrbAssociation(c=c), rates), s, estimates,
                      cpu_mode).system_overhead
        for counts, (c, rates) in region_uplinks(s, gains, estimates).items()
    }


MASKED_CPU_SOLVERS = {"minmax": allocate_minmax, "minsum": allocate_minsum, "equal": allocate_equal}


def masked_price(decision, uplink, s, estimates, cpu_mode) -> AllocationOutcome:
    """price in its masked form, the bit-for-bit reference: every offloader
    starts at +inf, only the live uplinks (0 < rate < inf) are priced and
    scattered back through a mask, and the CPU rule runs only when all of
    them are live."""
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
                cpu = MASKED_CPU_SOLVERS[cpu_mode](ids, cycles, caps, s.mec_capacity_hz)
            except InfeasibleAllocation:
                pass
            else:
                f = np.fromiter(map(cpu.f.__getitem__, offs), float, ids.size)
                per_ue[ids] = execution_cost(cycles, wt, we, t, e, f)
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


def grid_cpu_oracle(kind, cycles, lower, budget, resolution=33, rounds=6):
    """Refined grid search for the CPU split problems.

    Parametrizes feasible points as lower + x over the slack simplex and
    returns the best objective found; convexity makes the refined grid
    land within ~1e-6 relative of the true optimum.
    """
    cycles = np.asarray(cycles, dtype=float)
    lower = np.asarray(lower, dtype=float)
    n = len(cycles)
    slack = budget - lower.sum()
    assert slack >= 0, "oracle called on an infeasible instance"

    def objective(f):
        # zero shares are legal mesh points; they price themselves out as inf
        with np.errstate(divide="ignore"):
            t = cycles / f
        return t.max(axis=-1) if kind == "minmax" else t.sum(axis=-1)

    if n == 1:
        return float(objective(np.array([budget])))

    lo = np.zeros(n - 1)
    hi = np.full(n - 1, slack)
    best_obj = math.inf
    best_x = None
    for _ in range(rounds):
        axes = [np.linspace(lo[d], hi[d], resolution) for d in range(n - 1)]
        mesh = np.meshgrid(*axes, indexing="ij")
        x = np.stack([g.ravel() for g in mesh], axis=1)
        last = slack - x.sum(axis=1)
        ok = last >= -1e-9 * max(slack, 1.0)
        x = x[ok]
        last = np.clip(last[ok], 0.0, None)
        f = lower + np.concatenate([x, last[:, None]], axis=1)
        vals = objective(f)
        idx = int(np.argmin(vals))
        if vals[idx] < best_obj:
            best_obj = float(vals[idx])
            best_x = x[idx]
        cell = (hi - lo) / (resolution - 1)
        lo = np.maximum(best_x - cell, 0.0)
        hi = np.minimum(best_x + cell, slack)
    return best_obj


@dataclass(frozen=True)
class CpuRequest:
    """One offloader of the scalar CPU solvers below."""

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


def cpu_requests(ues, cycles, t_cap_s) -> list[CpuRequest]:
    return [CpuRequest(int(i), float(c), float(t)) for i, c, t in zip(ues, cycles, t_cap_s)]


def scalar_feasible(requests, capacity_hz) -> bool:
    """Every deadline is positive and the minimum shares fit the budget."""
    if not requests:
        return False
    if any(r.t_cap_s <= 0 for r in requests):
        return False
    return left_to_right_sum(r.min_share_hz for r in requests) <= capacity_hz


def scalar_check_budget(capacity_hz) -> None:
    """Only a budget strictly between 0 and inf can be split."""
    if math.isnan(capacity_hz) or capacity_hz <= 0 or math.isinf(capacity_hz):
        raise InfeasibleAllocation("server budget must be finite and positive")


def _scalar_pin_and_split(requests, capacity_hz, split) -> dict[int, float]:
    """The pin loop one request at a time: the split over the active
    requests, every one it leaves below its minimum share pinned there and
    taken off the budget, until no share falls short."""
    scalar_check_budget(capacity_hz)
    if not scalar_feasible(requests, capacity_hz):
        raise InfeasibleAllocation("deadline caps cannot all be met within the server budget")
    active = list(requests)
    shares: dict[int, float] = {}
    budget = capacity_hz
    while active:
        if budget <= 0:
            raise InfeasibleAllocation("pinned shares use up the server budget")
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


def scalar_minmax(requests, capacity_hz) -> CpuAllocation:
    """Shares proportional to cycles, pinned where a deadline binds."""

    def split(active, budget):
        tau = left_to_right_sum(r.cycles for r in active) / budget
        return [r.cycles / tau for r in active]

    shares = _scalar_pin_and_split(requests, capacity_hz, split)
    return CpuAllocation(shares, max(r.cycles / shares[r.ue] for r in requests))


def scalar_minsum(requests, capacity_hz) -> CpuAllocation:
    """Shares proportional to sqrt(cycles), pinned where a deadline binds."""

    def split(active, budget):
        t = budget / left_to_right_sum(math.sqrt(r.cycles) for r in active)
        return [t * math.sqrt(r.cycles) for r in active]

    shares = _scalar_pin_and_split(requests, capacity_hz, split)
    return CpuAllocation(shares, left_to_right_sum(r.cycles / shares[r.ue] for r in requests))


def scalar_equal(requests, capacity_hz) -> CpuAllocation:
    """The budget split evenly; any missed deadline is infeasible."""
    scalar_check_budget(capacity_hz)
    if not requests:
        raise InfeasibleAllocation("no requests to split the budget over")
    share = capacity_hz / len(requests)
    if not all(r.cycles / share <= r.t_cap_s for r in requests):
        raise InfeasibleAllocation("even split misses at least one deadline")
    shares = {r.ue: share for r in requests}
    return CpuAllocation(shares, left_to_right_sum(r.cycles / share for r in requests))


def dense_held_rate(c, signal, interference, radio) -> np.ndarray:
    """Shannon rate (bit/s) of a dense 0/1 table c, summed along each row:
    (c * B_prb * log2(1 + signal / (sigma^2 + I))).sum(-1), every PRB of
    the band priced, held or not. A row's signal is one number (pass a
    (rows, 1) column for a table), its interference one per PRB."""
    snr = signal / (radio.noise_per_prb_w + interference)
    return (c * (radio.prb_bandwidth_hz * np.log2(1 + snr))).sum(axis=-1)


def loop_orthogonal_rates(s, gains, estimates) -> np.ndarray:
    """all_offload_orth's uplink rates, one dense_held_rate row per candidate.

    Every offloadable UE takes max(floor(K * w / sum w), 1) consecutive
    blocks; a band that cannot hold them all leaves every rate 0.
    """
    n, k = s.n_cells, s.radio.num_prbs
    rates = np.zeros(n)
    candidates = [i for i in range(n) if estimates.offloadable[i]]
    total_w = sum(int(estimates.w[i]) for i in candidates)
    quota = {i: max(math.floor(k * int(estimates.w[i]) / total_w), 1) for i in candidates}
    if not candidates or sum(quota.values()) > k:
        return rates
    c = np.zeros((n, k), dtype=np.int64)
    first = 0
    for i in candidates:
        c[i, first:first + quota[i]] = 1
        first += quota[i]
    o = interference_table(PrbAssociation(c=c), gains, s.tx_power_w)
    for i in candidates:
        p_prb = s.tx_power_w[i] / quota[i]
        rates[i] = dense_held_rate(c[i], p_prb * gains.h[i, i], o[i], s.radio)
    return rates


def left_to_right_sum(values):
    """Plain left-to-right float sum: built-in sum up to Python 3.11."""
    total = 0.0
    for x in values:
        total += x
    return total


def compensated_sum(values, start=0):
    """Neumaier-compensated float sum: what built-in sum does with floats
    from Python 3.12 on, which can differ from left_to_right_sum in the
    last bit."""
    total, carry = float(start), 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            carry += (total - t) + x
        else:
            carry += (x - t) + total
        total = t
    return total + carry
