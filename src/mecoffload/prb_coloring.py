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
    ids = np.array(sorted(offload_ids), dtype=np.int64)
    if not ids.size:
        raise EmptyOffloadSet("no offloading UEs, nothing to allocate")
    d = np.asarray(demands)[ids]
    m = np.zeros(len(demands), dtype=np.int64)
    m[ids] = np.clip(np.rint(reuse_lambda * (num_prbs * d / d.sum())), 1, num_prbs)
    return m


@dataclass(frozen=True)
class InterferenceGraph:
    """Directed graph over offloading UEs: edge a->b when a's uplink leaks
    noticeably into b's serving cell (gain ratio above the threshold)."""

    nodes: tuple[int, ...]
    in_weight: np.ndarray  # per UE, per-PRB power over in-edges; 0 off the nodes


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
    ids = np.array(nodes)
    h = gains.h[ids[:, None], ids]
    ratio = h / np.diagonal(h)  # h[a, b] / h[b, b]
    np.fill_diagonal(ratio, 0.0)
    # per-PRB received interference power on edge a -> b, else 0
    weight = np.where(ratio > theta, (powers[ids] / m[ids])[:, None] * h, 0.0)
    in_weight = np.zeros(gains.h.shape[0])
    in_weight[ids] = weight.sum(axis=0)
    return InterferenceGraph(nodes=nodes, in_weight=in_weight)


@dataclass(frozen=True)
class ColoringState:
    assoc: PrbAssociation
    o: np.ndarray  # interference table (radio.interference_table), rows in order
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
    on the taken colors. Every node's quota m lies in 1..K, as
    normalize_prbs gives it, so the association's row sums are the quotas.
    """
    k = radio.num_prbs
    bpp = radio.prb_bandwidth_hz
    noise = radio.noise_per_prb_w

    # order key is static: in-edge weights over the whole offload set
    in_weight, m_list = graph.in_weight.tolist(), m.tolist()
    order = sorted(graph.nodes, key=lambda i: (-in_weight[i], m_list[i], i))

    # From here on a node is its coloring step t, the UE order[t].
    ids = np.array(order, dtype=np.int64)
    quota = m[ids].tolist()
    # leak[t, u]: the per-PRB power node t puts into node u's serving cell
    leak = (powers[ids] / m[ids])[:, None] * gains.h[ids[:, None], ids]
    snr_self = leak.diagonal().copy()  # per-PRB power times serving gain
    np.fill_diagonal(leak, 0.0)  # a cell does not interfere with itself

    ot = np.zeros((k, ids.size))  # the table PRB-major: a step adds whole rows

    # Held (step, PRB) entries of the colored nodes and their serving SNRs,
    # in coloring order and ascending PRB within a node: a score moves
    # only through these, and bincount adds each PRB's deltas in the order
    # of a dense axis-0 sum over the colored rows.
    size = sum(quota)
    held_step = np.empty(size, dtype=np.int64)
    held_prb = np.empty(size, dtype=np.int64)
    held_snr = np.empty(size)
    x = np.empty(k + 2 * size)  # one step's SNRs, then its rates
    n_held = 0

    for t in range(ids.size):
        if t:
            step, prb, snr = held_step[:n_held], held_prb[:n_held], held_snr[:n_held]
            # own on every color, base and pert on the held entries: one log2 pass
            own, base, pert = x[:k], x[k:k + n_held], x[k + n_held:k + 2 * n_held]
            np.divide(snr_self[t], noise + ot[:, t], out=own)
            den = noise + ot[prb, step]
            np.divide(snr, den, out=base)
            den += leak[t, step]
            np.divide(snr, den, out=pert)
            rates = x[:k + 2 * n_held]  # bpp * log2(1 + snr), op for op
            rates += 1.0
            np.log2(rates, out=rates)
            rates *= bpp
            scores = own + np.bincount(prb, pert - base, minlength=k)
            take = (-scores).argsort(kind="stable")[: quota[t]]
            take.sort()
        else:
            # nothing is coloured yet: every color scores the same, and the
            # stable sort would take the first quota-many
            take = np.arange(quota[0])
        ot[take] += leak[t]
        held_step[n_held:n_held + take.size] = t
        held_prb[n_held:n_held + take.size] = take
        held_snr[n_held:n_held + take.size] = snr_self[t]
        n_held += take.size

    n = gains.h.shape[0]
    c = np.zeros((n, k), dtype=np.int64)
    c[ids[held_step[:n_held]], held_prb[:n_held]] = 1
    return ColoringState(
        assoc=PrbAssociation(c=c),
        o=np.ascontiguousarray(ot.T),
        order=tuple(ids.tolist()),
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
        state.o,
        radio,
    )
    return rates
