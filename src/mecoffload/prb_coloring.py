"""PRB allocation for offloading UEs via weighted greedy graph coloring.

Colors are PRBs, vertices are the offloading UEs' serving cells. Demands
are scaled into quotas that may oversubscribe the band (reuse); a directed
interference graph holds them, the per-PRB leakage and the order key, and
each node grabs the quota-many colors that maximize the hypothetical system
sum rate given everything assigned so far: its own rate plus the change in
the colored nodes' rates. Their current rates, the same for every color,
are left out, since adding them only rounds away differences between
colors. The interference table is maintained incrementally and must stay
consistent with the association matrix.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .radio import PrbAssociation, check_ids, held_rate, shannon
from .scenario import ChannelGains, RadioParams


def normalize_prbs(demands, offload_ids, num_prbs: int, reuse_lambda: float) -> np.ndarray:
    """Scale raw PRB demands into per-UE quotas, full length N.

    Quota = round-half-even(lambda * K * w_n / sum w) capped at K and
    floored at 1; entries outside the offload set stay 0. lambda > 1
    oversubscribes the band on purpose so that colors get reused. The bits
    are those of lambda * ((K * w_n) / sum w), with K * w_n an integer.
    """
    ids = np.array(sorted(offload_ids), dtype=np.int64)
    if not ids.size:
        raise ValueError("no offloading UEs, nothing to allocate")
    check_ids(ids[0], ids[-1], len(demands))
    d = np.asarray(demands)[ids]
    m = np.zeros(len(demands), dtype=np.int64)
    # np.clip, in two cheaper calls
    m[ids] = np.minimum(np.maximum(np.rint(reuse_lambda * (num_prbs * d / d.sum())), 1), num_prbs)
    return m


@dataclass(frozen=True)
class InterferenceGraph:
    """Directed graph over offloading UEs: edge a->b when a's uplink leaks
    noticeably into b's serving cell (gain ratio above the threshold)."""

    nodes: tuple[int, ...]
    in_weight: np.ndarray  # per UE, per-PRB power over in-edges; 0 off the nodes; read-only
    quota: np.ndarray  # per node, its PRB quota; read-only
    leak: np.ndarray  # [a, b]: per-PRB power node a puts into b's cell; read-only


def build_interference_graph(
    gains: ChannelGains,
    m: np.ndarray,
    powers: np.ndarray,
    offload_ids,
    theta: float,
) -> InterferenceGraph:
    nodes = tuple(sorted(offload_ids))
    if not nodes:
        raise ValueError("no offloading UEs, nothing to allocate")
    check_ids(nodes[0], nodes[-1], len(m))
    ids = np.array(nodes)
    h = gains.h.take(ids, 0).take(ids, 1)
    ratio = h / h.diagonal()  # h[a, b] / h[b, b]
    ratio.flat[:: ids.size + 1] = 0.0  # the diagonal: no self edge
    quota = m[ids]
    leak = (powers[ids] / quota)[:, None] * h
    # per-PRB received interference power on edge a -> b, else 0
    in_weight = np.zeros(gains.h.shape[0])
    in_weight[ids] = np.where(ratio > theta, leak, 0.0).sum(axis=0)
    for a in (in_weight, quota, leak):
        a.setflags(write=False)
    return InterferenceGraph(nodes=nodes, in_weight=in_weight, quota=quota, leak=leak)


@dataclass(frozen=True)
class ColoringState:
    """A colouring's table, its interference and its held entries: step
    held_step[e] holds PRB held_prb[e], in colouring order and ascending PRB
    within a step, which is all that realized_rates prices."""

    assoc: PrbAssociation
    o: np.ndarray  # interference table (radio.interference_table), rows in order
    order: tuple[int, ...]  # nodes in the sequence they were colored
    signal: np.ndarray  # per-PRB power times serving gain, in order
    held_step: np.ndarray  # per held entry, the step (row of o) that holds it
    held_prb: np.ndarray  # per held entry, its PRB


def color(graph: InterferenceGraph, radio: RadioParams) -> ColoringState:
    """Greedy coloring: most-interfered node first, batch-assign the quota
    of colors with the best hypothetical system sum rate.

    Scoring a color j for node nb: nb's single-PRB rate on j under the
    current interference, plus the change in every already-colored node's
    rate when nb's leakage is added on j only. The colored nodes' current
    rates are left out: they add the same constant to every color, and
    adding it only rounds away differences between colors. Colors held by
    others are fair game (reuse); ties go to the lowest color index. After
    the batch the table rows of all other nodes gain nb's per-PRB leakage
    on the taken colors. The graph holds every input but the band; each
    quota lies in 1..K (normalize_prbs), so the row sums are the quotas.

    Fill phase: while each earlier node took the lowest free colors and
    quota-many are still free, a node takes the next quota-many unscored
    if its rate on every held color lies below its interference-free rate
    by more than 2**-32 of the largest such rate, so that no held color can
    tie or beat a free one. The first step that fails is scored, and so is
    every later one. The fill is one pass over arrays: while it runs each
    held color has exactly one holder s, so t's table entry there is
    0.0 + leak[s, t], that is leak[s, t], and every step's guard reads off
    one block of the leakage.
    """
    k = radio.num_prbs
    bpp = radio.prb_bandwidth_hz
    noise = radio.noise_per_prb_w

    # order key is static: most in-edge weight, then least quota, then UE
    # id (nodes are sorted, and lexsort is stable; its last key is first)
    ids = np.array(graph.nodes)
    perm = np.lexsort((graph.quota, -graph.in_weight[ids]))

    # From here on a node is its coloring step t, the UE ids[t].
    ids, qa = ids[perm], graph.quota[perm]
    quota = qa.tolist()
    leak = graph.leak.take(perm, 0).take(perm, 1)  # a copy, in step order
    # per-PRB power times serving gain, fl(fl(P/M) * g): held_rate's
    # signal, since each node ends up holding exactly its quota M
    snr_self = leak.diagonal().copy()
    leak.flat[:: ids.size + 1] = 0.0  # a cell does not interfere with itself

    # Held (step, PRB) entries of the colored nodes and their serving SNRs,
    # in coloring order and ascending PRB within a node: a score moves
    # only through these, and bincount adds each PRB's deltas in the order
    # of a dense axis-0 sum over the colored rows. Node t holds entries
    # ends[t-1]..ends[t]-1, so the quotas fix held_step and held_snr; the
    # fill holds PRBs 0..n_held-1, so held_prb starts as that range.
    ends = list(accumulate(quota))
    held_step = np.arange(ids.size).repeat(qa)
    held_snr = snr_self.repeat(qa)
    held_prb = np.arange(ends[-1])

    # The fill takes what the scorer would: a free color scores t's free
    # rate exactly (ot and the bincount are 0 there), and a held one, with
    # its one holder, t's rate there plus pert - base, <= 0 up to a few ulps
    # of log2 that the slack dwarfs. A zero cross gain ties and is scored.
    # Steps 0..f-1 fit in the band (each quota is at most K, so f >= 1).
    # Row s, column t-1 of the block is t's rate on the colors s holds;
    # a running max down the rows puts on the diagonal t's largest rate on
    # the colors of steps 0..t-1, which the guard compares with `<`, so
    # that a nan fails it.
    free = shannon(snr_self / noise, bpp)
    slack = max(free.tolist()) * 2.0**-32
    f = bisect_right(ends, k)
    if f > 1:
        held = snr_self[1:f] / (noise + leak[: f - 1, 1:f])
        shannon(held, bpp)
        np.maximum.accumulate(held, axis=0, out=held)
        fits = (held.diagonal() < free[1:f] - slack).tolist()
        f = 1 + (fits.index(False) if False in fits else len(fits))
    n_held = ends[f - 1]

    ot = np.zeros((k, ids.size))  # the table PRB-major: a step adds whole rows
    ot[:n_held] += leak.take(held_step[:n_held], 0)  # each filled PRB's one holder
    x = np.empty(k + 2 * ends[-1])  # one step's SNRs, then its rates
    for t in range(f, ids.size):
        q = quota[t]
        step, prb, snr = held_step[:n_held], held_prb[:n_held], held_snr[:n_held]
        # own on every color, base and pert on the held entries: one log2
        # pass, op for op what three separate rate expressions would run
        own, base, pert = x[:k], x[k:k + n_held], x[k + n_held:k + 2 * n_held]
        np.divide(snr_self[t], noise + ot[:, t], out=own)
        den = noise + ot[prb, step]
        np.divide(snr, den, out=base)
        den += leak[t, step]
        np.divide(snr, den, out=pert)
        shannon(x[:k + 2 * n_held], bpp)
        scores = own + np.bincount(prb, pert - base, minlength=k)
        take = (-scores).argsort(kind="stable")[:q]
        take.sort()
        ot[take] += leak[t]
        held_prb[n_held:n_held + q] = take
        n_held += q

    c = np.zeros((graph.in_weight.size, k), dtype=np.int64)
    c[ids[held_step], held_prb] = 1
    return ColoringState(
        assoc=PrbAssociation(c=c),
        o=np.ascontiguousarray(ot.T),
        order=tuple(ids.tolist()),
        signal=snr_self,
        held_step=held_step,
        held_prb=held_prb,
    )


def realized_rates(state: ColoringState, radio: RadioParams) -> np.ndarray:
    """Per-UE uplink rate from the held entries, the interference table and
    the received signals.

    Full-length N vector; UEs without PRBs get 0. Only the held entries are
    priced, each at its table entry, so agreement with a from-scratch rate
    computation doubles as a consistency check on the incremental updates.
    """
    step, prb = state.held_step, state.held_prb
    ids = np.array(state.order, dtype=np.int64)
    rates = np.zeros(state.assoc.c.shape[0])
    rates[ids] = held_rate(step, prb, state.signal[step], state.o[step, prb], ids.size, radio)
    return rates
