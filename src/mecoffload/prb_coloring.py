"""PRB allocation for offloading UEs via weighted greedy graph coloring.

Colors are PRBs, vertices are the offloading UEs' serving cells, and
everything here is per offloader: the caller maps the held PRBs and rates
back to UE ids. Demands are scaled into quotas that may oversubscribe the
band (reuse). A directed interference graph holds the quotas, the per-PRB
signals and leakage, with its nodes already in coloring order: the edges
decide only that order, through each node's in-edge weight. In that order
each node grabs the quota-many colors that maximize the hypothetical system
sum rate given everything assigned so far: its own rate plus the change in
the colored nodes' rates. Their current rates, the same for every color,
are left out, since adding them only rounds away differences between
colors. The interference table is maintained incrementally and must stay
consistent with the held colors.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .radio import check_ids, held_rate, shannon
from .scenario import ChannelGains, RadioParams


def normalize_prbs(demands, num_prbs: int, reuse_lambda: float) -> np.ndarray:
    """Scale the offloaders' raw PRB demands into their quotas, one each.

    Quota = round-half-even(lambda * K * w_n / sum w) capped at K and
    floored at 1. lambda > 1 oversubscribes the band on purpose so that
    colors get reused. The bits are those of lambda * ((K * w_n) / sum w),
    with K * w_n an integer.
    """
    d = np.asarray(demands)
    if not d.size:
        raise ValueError("no offloading UEs, nothing to allocate")
    # np.clip, in two cheaper calls
    m = np.minimum(np.maximum(np.rint(reuse_lambda * (num_prbs * d / d.sum())), 1), num_prbs)
    return m.astype(np.int64)


@dataclass(frozen=True)
class InterferenceGraph:
    """Directed graph over the offloading UEs, its nodes in coloring order:
    edge a->b when a's uplink leaks noticeably into b's serving cell (gain
    ratio above the threshold). Every field is per node and read-only."""

    nodes: np.ndarray  # int64, the UE of each node
    quota: np.ndarray  # its PRB quota
    in_weight: np.ndarray  # its per-PRB received power over in-edges: the order key
    signal: np.ndarray  # its per-PRB power times serving gain, fl(fl(P/M) * g)
    leak: np.ndarray  # [a, b]: per-PRB power node a puts into b's cell; 0 when a == b


def build_interference_graph(
    gains: ChannelGains,
    m: np.ndarray,
    powers: np.ndarray,
    offload_ids,
    theta: float,
) -> InterferenceGraph:
    """The graph of the UEs offload_ids, ids under radio.check_ids, whose
    quotas m holds in that order (normalize_prbs of their demands in it).

    The nodes go by most in-edge weight, then least quota, then UE id. The
    per-PRB leakage (P/m)[:, None] * h is formed once, in ascending id
    order, and gathered into coloring order.
    """
    if not len(offload_ids):
        raise ValueError("no offloading UEs, nothing to allocate")
    check_ids(offload_ids, gains.h.shape[0])
    if len(m) != len(offload_ids):
        raise ValueError(f"{len(m)} quotas for {len(offload_ids)} offloading UEs")
    ids = np.array(offload_ids, dtype=np.int64)
    h = gains.h.take(ids, 0).take(ids, 1)
    ratio = h / h.diagonal()  # h[a, b] / h[b, b]
    ratio.flat[:: ids.size + 1] = 0.0  # the diagonal: no self edge
    quota = np.asarray(m)
    leak = (powers[ids] / quota)[:, None] * h
    # per-PRB received interference power on edge a -> b, else 0
    in_weight = np.where(ratio > theta, leak, 0.0).sum(axis=0)
    # ids ascend and lexsort is stable; its last key is first
    order = np.lexsort((quota, -in_weight))
    leak = leak.take(order, 0).take(order, 1)
    # fl(fl(P/M) * g): held_rate's signal, since each node ends up holding
    # exactly its quota M
    signal = leak.diagonal().copy()
    leak.flat[:: ids.size + 1] = 0.0  # a cell does not interfere with itself
    graph = InterferenceGraph(ids[order], quota[order], in_weight[order], signal, leak)
    for a in vars(graph).values():
        a.setflags(write=False)
    return graph


@dataclass(frozen=True)
class ColoringState:
    """A colouring's own arrays, in colouring order: step t colours UE
    ids[t], and table[j, t] is the interference it meets on PRB j. Step
    held_step[e] holds PRB held_prb[e], ascending PRB within a step; those
    entries are all that realized_rates prices."""

    table: np.ndarray  # (K, n) interference table, PRB-major, steps as columns
    ids: np.ndarray  # int64, the UE coloured at each step: the graph's nodes
    signal: np.ndarray  # per-PRB power times serving gain, per step: the graph's
    held_step: np.ndarray  # per held entry, the step (column of table) that holds it
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
    the batch the table rows of the taken colors gain nb's per-PRB leakage
    into every other node: as one slice when they form one run, else by a
    gather and scatter, with the same adds either way. The state keeps
    this PRB-major table and the held entries. The graph holds every
    input but the band, in coloring order; each quota lies in 1..K
    (normalize_prbs), so each step holds its quota.

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

    # node t is coloring step t
    qa, snr_self, leak = graph.quota, graph.signal, graph.leak
    quota = qa.tolist()
    n = qa.size

    # Held (step, PRB) entries of the colored nodes and their serving SNRs,
    # in coloring order and ascending PRB within a node: a score moves
    # only through these, and bincount adds each PRB's deltas in the order
    # of a dense axis-0 sum over the colored rows. Node t holds entries
    # ends[t-1]..ends[t]-1, so the quotas fix held_step and held_snr; the
    # fill holds PRBs 0..n_held-1, so held_prb starts as that range.
    ends = list(accumulate(quota))
    held_step = np.arange(n).repeat(qa)
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

    ot = np.zeros((k, n))  # the table PRB-major: a step adds whole rows
    ot[:n_held] += leak.take(held_step[:n_held], 0)  # each filled PRB's one holder
    x = np.empty(k + 2 * ends[-1])  # one step's SNRs, then its rates
    for t in range(f, n):
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
        lo = int(take[0])
        if take[-1] - lo == q - 1:  # one run of PRBs: the same adds, as a slice
            ot[lo:lo + q] += leak[t]
        else:
            ot[take] += leak[t]
        held_prb[n_held:n_held + q] = take
        n_held += q

    return ColoringState(
        table=ot,
        ids=graph.nodes,
        signal=snr_self,
        held_step=held_step,
        held_prb=held_prb,
    )


def realized_rates(state: ColoringState, radio: RadioParams) -> np.ndarray:
    """The uplink rate of each coloring step, from its held entries, the
    interference table and the received signals.

    Only the held entries are priced, each at its table entry, so agreement
    with a from-scratch rate computation doubles as a consistency check on
    the incremental updates.
    """
    step, prb = state.held_step, state.held_prb
    return held_rate(step, prb, state.signal[step], state.table[prb, step], state.ids.size, radio)
