"""PRB allocation for offloading UEs via weighted greedy graph coloring.

Colors are PRBs, vertices are the offloading UEs' serving cells. Demands
are scaled into quotas that may oversubscribe the band (reuse), a directed
interference graph decides the coloring order, and each node grabs the
quota-many colors that maximize the hypothetical system sum rate given
everything assigned so far: its own rate plus the change in the colored
nodes' rates. Their current rates, the same for every color, are left out,
since adding them only rounds away differences between colors. The
interference table is maintained incrementally and must stay consistent
with the association matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyOffloadSet
from .radio import PrbAssociation, held_rate
from .scenario import ChannelGains, RadioParams


def normalize_prbs(demands, offload_ids, num_prbs: int, reuse_lambda: float) -> np.ndarray:
    """Scale raw PRB demands into per-UE quotas, full length N.

    Quota = round-half-even(lambda * K * w_n / sum w) capped at K and
    floored at 1; entries outside the offload set stay 0. lambda > 1
    oversubscribes the band on purpose so that colors get reused.
    """
    ids = sorted(offload_ids)
    if not ids:
        raise EmptyOffloadSet("no offloading UEs, nothing to allocate")
    w = np.asarray(demands).tolist()  # one read, not one numpy scalar per UE
    d = [int(w[i]) for i in ids]
    total = sum(d)
    m = [0] * len(w)
    for i, x in zip(ids, d):
        share = num_prbs * x / total
        m[i] = min(max(round(reuse_lambda * share), 1), num_prbs)
    return np.array(m, dtype=np.int64)


@dataclass(frozen=True)
class InterferenceGraph:
    """Directed graph over offloading UEs: edge a->b when a's uplink leaks
    noticeably into b's serving cell (gain ratio above the threshold)."""

    nodes: tuple[int, ...]
    weight: np.ndarray  # per-PRB received interference power on edge a -> b, else 0
    in_weight: np.ndarray  # column sums of weight, the coloring-order key


def build_interference_graph(
    gains: ChannelGains,
    m: np.ndarray,
    powers: np.ndarray,
    offload_ids,
    theta: float,
) -> InterferenceGraph:
    nodes = tuple(sorted(offload_ids))
    if not nodes:
        raise EmptyOffloadSet("no offloading UEs, nothing to allocate")
    h = gains.h
    ids = np.array(nodes)
    ratio = h[ids][:, ids] / h[ids, ids]  # h[a, b] / h[b, b]
    np.fill_diagonal(ratio, 0.0)
    rows, cols = np.nonzero(ratio > theta)
    a, b = ids[rows], ids[cols]
    weight = np.zeros(h.shape)
    weight[a, b] = powers[a] / m[a] * h[a, b]
    return InterferenceGraph(
        nodes=nodes, weight=weight, in_weight=weight.sum(axis=0)
    )


@dataclass(frozen=True)
class ColoringState:
    assoc: PrbAssociation
    o: np.ndarray  # interference table, see radio.interference_table
    order: tuple[int, ...]  # nodes in the sequence they were colored


def color(
    graph: InterferenceGraph,
    m: np.ndarray,
    gains: ChannelGains,
    powers: np.ndarray,
    radio: RadioParams,
) -> ColoringState:
    """Greedy coloring: most-interfered node first, batch-assign the quota
    of colors with the best hypothetical system sum rate.

    Scoring a color j for node nb: nb's single-PRB rate on j under the
    current interference, plus the change in every already-colored node's
    rate when nb's leakage is added on j only. The colored nodes' current
    rates are left out: they add the same constant to every color, and
    adding it only rounds away differences between colors. Colors held by
    others are fair game (reuse); ties go to the lowest color index. After
    the batch the table rows of all other nodes gain nb's per-PRB leakage
    on the taken colors.
    """
    h = gains.h
    n_ues = h.shape[0]
    k = radio.num_prbs
    bpp = radio.prb_bandwidth_hz
    noise = radio.noise_per_prb_w

    # order key is static: in-edge weights over the whole offload set
    order = sorted(graph.nodes, key=lambda i: (-graph.in_weight[i], m[i], i))

    nodes = np.array(graph.nodes, dtype=np.int64)
    p = np.zeros(n_ues)
    p[nodes] = powers[nodes] / m[nodes]

    ot = np.zeros((k, n_ues))  # the table PRB-major: a step adds whole rows

    # Held (UE, PRB) entries of the colored nodes and their serving SNRs,
    # in coloring order and ascending PRB within a node: a score moves
    # only through these, and bincount adds each PRB's deltas in the order
    # of a dense axis-0 sum over the colored rows.
    snr_self = p * np.diagonal(h)  # per-PRB power times serving gain
    size = int(m[nodes].sum())
    held_ue = np.empty(size, dtype=np.int64)
    held_prb = np.empty(size, dtype=np.int64)
    held_snr = np.empty(size)
    x = np.empty(k + 2 * size)  # one step's SNRs, then its rates
    n_held = 0

    for node in order:
        leak = p[node] * h[node]
        ue, prb, snr = held_ue[:n_held], held_prb[:n_held], held_snr[:n_held]
        # own on every color, base and pert on the held entries: one log2 pass
        own, base, pert = x[:k], x[k:k + n_held], x[k + n_held:k + 2 * n_held]
        np.divide(snr_self[node], noise + ot[:, node], out=own)
        den = noise + ot[prb, ue]
        np.divide(snr, den, out=base)
        den += leak[ue]
        np.divide(snr, den, out=pert)
        rates = x[:k + 2 * n_held]  # bpp * log2(1 + snr), op for op
        rates += 1.0
        np.log2(rates, out=rates)
        rates *= bpp
        scores = own + np.bincount(prb, pert - base, minlength=k)
        take = (-scores).argsort(kind="stable")[: int(m[node])]
        take.sort()
        leak[node] = 0.0  # a cell does not interfere with itself
        ot[take] += leak
        held_ue[n_held:n_held + take.size] = node
        held_prb[n_held:n_held + take.size] = take
        held_snr[n_held:n_held + take.size] = snr_self[node]
        n_held += take.size

    c = np.zeros((n_ues, k), dtype=np.int64)
    c[held_ue[:n_held], held_prb[:n_held]] = 1
    return ColoringState(
        assoc=PrbAssociation.from_matrix(c),
        o=np.ascontiguousarray(ot.T),
        order=tuple(int(i) for i in order),
    )


def realized_rates(
    state: ColoringState,
    m: np.ndarray,
    gains: ChannelGains,
    powers: np.ndarray,
    radio: RadioParams,
) -> np.ndarray:
    """Per-UE uplink rate from the final association and interference table.

    Full-length N vector; UEs without PRBs get 0. Uses the maintained
    table, so agreement with a from-scratch rate computation doubles as a
    consistency check on the incremental updates.
    """
    h = gains.h
    ids = np.array(state.order, dtype=np.int64)
    rates = np.zeros(h.shape[0])
    rates[ids] = held_rate(
        state.assoc.c[ids],
        (powers[ids] / m[ids])[:, None],
        h[ids, ids][:, None],
        state.o[ids],
        radio,
    )
    return rates
