"""Quota normalization, interference graph, and the greedy coloring loop."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mecoffload import (
    ScenarioConfig,
    build_scenario,
    channel_gains,
    estimate_loads,
    run_scheme,
    uplink,
)
from mecoffload.prb_coloring import (
    build_interference_graph,
    color,
    normalize_prbs,
    realized_rates,
)
from mecoffload.radio import (
    OffloadDecision,
    PrbAssociation,
    interference_table,
    uplink_rate,
)
from mecoffload.scenario import ChannelGains, RadioParams

from _oracles import (
    REGIONS,
    assert_matches_dense_color,
    by_ue,
    dense_color,
    dense_held_rate,
    loop_interference_weight,
    loop_quotas,
    region_counts,
    region_tables,
    replay_coloring,
    state_assoc,
)


def radio(k, bandwidth=20e6, noise=1e-13):
    return RadioParams(bandwidth_hz=bandwidth, num_prbs=k, noise_per_prb_w=noise)


def random_setup(rng, n, k, lam, near_gain_db=(-80, -70), cross_gain_db=(-125, -85)):
    """Random gain matrix with strong serving links, plus demands/quotas."""
    h = 10.0 ** (rng.uniform(*cross_gain_db, size=(n, n)) / 10)
    diag = 10.0 ** (rng.uniform(*near_gain_db, size=n) / 10)
    h[np.arange(n), np.arange(n)] = diag
    powers = np.full(n, 0.1)
    demands = rng.integers(1, 6, size=n)
    ids = list(range(n))
    m = normalize_prbs(demands, k, lam)  # every UE offloads: by UE id too
    # the gains are in dB: each UE's rate on a PRB that every other UE
    # shares is still nonzero, so the colors do not all tie
    leak = (powers / m)[:, None] * h
    signal = leak.diagonal().copy()
    np.fill_diagonal(leak, 0.0)
    snr = signal / (radio(k).noise_per_prb_w + leak.sum(axis=0))
    assert (np.log2(1.0 + snr) > 0).all()
    return h, powers, m, ids


def held(state) -> dict[int, list[int]]:
    """The PRBs each coloured UE holds, ascending, keyed in coloring order."""
    out = {i: [] for i in state.ids.tolist()}
    for t, j in zip(state.held_step.tolist(), state.held_prb.tolist()):
        out[int(state.ids[t])].append(j)
    return out


class TestNormalizePrbs:
    def test_symmetric_split(self):
        assert normalize_prbs([1, 1], 10, 1.0).tolist() == [5, 5]

    def test_hand_values_with_cap(self):
        assert normalize_prbs([1, 3], 8, 1.0).tolist() == [2, 6]
        assert normalize_prbs([1, 3], 8, 2.0).tolist() == [4, 8]

    def test_round_half_even(self):
        # shares 2.5 and 7.5 round to 2 and 8
        assert normalize_prbs([1, 3], 10, 1.0).tolist() == [2, 8]

    def test_clamp_to_one(self):
        got = normalize_prbs([1, 99], 10, 1.0)
        assert got.tolist() == [1, 10]

    def test_offload_subset_only(self):
        # the offloaders' demands alone set their quotas: a local UE's
        # demand takes no share of the band
        got = normalize_prbs([4, 4], 10, 1.0)
        assert got.tolist() == [5, 5]
        assert loop_quotas([4, 7, 4], [0, 2], 10, 1.0).tolist() == [5, 0, 5]

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="no offloading UEs, nothing to allocate"):
            normalize_prbs([], 10, 1.0)


@st.composite
def quota_inputs(draw):
    """Demands, an offload set, K and lambda. Half-way cases make the
    demands sum to 2K at lambda 1, so that every odd demand's share is
    exactly x.5 and round-half-even decides it; the others draw lambda up
    to 3, which caps large shares at K, and small K or many UEs, which
    floor small shares at 1. Demands come as a list or an int64 array."""
    n = draw(st.integers(1, 40))
    demands = draw(st.lists(st.integers(1, 100), min_size=n, max_size=n))
    ids = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    if len(ids) > 1 and draw(st.booleans()):
        demands[ids[0]] |= 1  # an odd demand, whose share is x.5
        if sum(demands[i] for i in ids) % 2:
            demands[ids[-1]] += 1  # an even total
        k, lam = sum(demands[i] for i in ids) // 2, 1.0
    else:
        k, lam = draw(st.integers(1, 120)), draw(st.floats(1.0, 3.0))
    if draw(st.booleans()):
        demands = np.array(demands, dtype=np.int64)
    return demands, ids, k, lam


@settings(max_examples=300)
@given(quota_inputs())
@example(([1, 3], [0, 1], 2, 1.0))  # 0.5 rounds to 0, floored at 1; 1.5 to 2
@example(([1, 1, 1], [0, 1, 2], 3, 1.5))  # 1.5 each, rounded to 2
@example((np.array([5, 1, 30]), [0, 2], 10, 3.0))  # 25.7 capped at 10
@example(([1, 50, 50], [0, 1, 2], 4, 1.0))  # 0.04 floored at 1
def test_quotas_equal_the_per_element_loop(inputs):
    demands, ids, k, lam = inputs
    own = demands[ids] if isinstance(demands, np.ndarray) else [demands[i] for i in ids]
    got = normalize_prbs(own, k, lam)
    want = loop_quotas(demands, ids, k, lam)[ids]
    assert got.dtype == want.dtype == np.int64
    assert _bits(got) == _bits(want)


class TestInterferenceGraph:
    def test_zero_threshold_complete(self):
        h = np.full((3, 3), 1e-10)
        g = build_interference_graph(
            ChannelGains(h=h), np.array([1, 1, 1]), np.full(3, 0.1), [0, 1, 2], 0.0
        )
        w = 0.1 / 1 * 1e-10  # every ordered pair is an edge
        assert g.in_weight.tolist() == [w + w] * 3
        assert g.nodes.tolist() == [0, 1, 2]  # tied weights and quotas: by UE id

    def test_infinite_threshold_empty(self):
        h = np.full((3, 3), 1e-10)
        g = build_interference_graph(
            ChannelGains(h=h), np.array([1, 1, 1]), np.full(3, 0.1), [0, 1, 2], math.inf
        )
        assert (g.in_weight == 0).all()

    def test_ratio_rule_and_weight(self):
        # cross/serving = 0.2 > 0.1: edge 0 -> 1 with per-PRB leakage (P/M)*H;
        # 0.001 < 0.1: no edge 1 -> 0. UE 1, the one with an in-edge, goes first
        h = np.array([[1e-10, 2e-11], [1e-13, 1e-10]])
        m = np.array([2, 1])
        g = build_interference_graph(
            ChannelGains(h=h), m, np.full(2, 0.1), [0, 1], 0.1
        )
        assert g.nodes.tolist() == [1, 0]
        assert g.in_weight.tolist() == [(0.1 / 2) * 2e-11, 0.0]
        assert g.quota.tolist() == [1, 2]

    def test_weight_equals_pair_loop(self):
        # same elementwise arithmetic as the per-pair loop, so bit-identical
        rng = np.random.default_rng(21)
        for n in (1, 2, 5, 12):
            h, powers, m, ids = random_setup(rng, n, 10, 2.0)
            sub = ids[::2] if n > 2 else ids
            for theta in (0.0, 1e-3, 0.1):
                g = build_interference_graph(ChannelGains(h=h), m[sub], powers, sub, theta)
                want = loop_interference_weight(h, m, powers, sub, theta).sum(axis=0)
                assert sorted(g.nodes.tolist()) == sub
                assert _bits(g.in_weight) == _bits(want[g.nodes])
                keys = g.in_weight.tolist()
                assert all(a >= b for a, b in zip(keys, keys[1:]))

    def test_fields_are_per_node_in_coloring_order_and_read_only(self):
        # UE 0 hears UE 2 louder than UE 2 hears UE 0, so it goes first;
        # UE 1 stays local and is no node
        h = np.full((3, 3), 1e-10)
        g = build_interference_graph(
            ChannelGains(h=h), np.array([2, 1]), np.full(3, 0.1), [0, 2], 0.0
        )
        assert g.nodes.tolist() == [0, 2] and g.nodes.dtype == np.int64
        assert g.quota.tolist() == [2, 1]
        assert g.in_weight.tolist() == [0.1 * 1e-10, 0.05 * 1e-10]
        assert g.signal.tolist() == [0.05 * 1e-10, 0.1 * 1e-10]
        assert g.leak.tolist() == [[0.0, 0.05 * 1e-10], [0.1 * 1e-10, 0.0]]
        for a in (g.nodes, g.quota, g.in_weight, g.signal, g.leak):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_non_offloaders_excluded(self):
        h = np.full((3, 3), 1e-10)
        g = build_interference_graph(
            ChannelGains(h=h), np.array([1, 1]), np.full(3, 0.1), [0, 2], 0.0
        )
        assert g.nodes.tolist() == [0, 2]
        assert g.in_weight.tolist() == [0.1 / 1 * 1e-10] * 2
        assert g.leak.shape == (2, 2)

    @pytest.mark.parametrize("ids", [[-1], [3], [-1, 1], [0, 3]])
    def test_ids_outside_the_cells_rejected(self, ids):
        # a negative id must not index from the end and stand for UE N-1
        s = build_scenario(ScenarioConfig(n_cells=3), seed=0)
        m = np.full(len(ids), 10)
        bad = min(ids) if min(ids) < 0 else max(ids)
        with pytest.raises(ValueError, match=rf"UE id {bad} lies outside 0\.\.2"):
            build_interference_graph(channel_gains(s), m, s.tx_power_w, ids, 0.1)

    @pytest.mark.parametrize("ids, m", [([0, 0, 1], [3, 3, 3]), ([2, 0], [1, 5])])
    def test_repeated_or_descending_ids_rejected(self, ids, m):
        # a repeat would colour its UE twice: 6 PRBs against a quota of 3;
        # m holds the quotas in id order, so a sort of [2, 0] would hand
        # UE 2 the quota 5 meant for UE 0
        s = build_scenario(ScenarioConfig(n_cells=3), seed=0)
        with pytest.raises(ValueError, match=rf"UE ids \{ids} are not ascending and unique"):
            build_interference_graph(channel_gains(s), np.array(m), s.tx_power_w, ids, 0.1)

    def test_bool_and_numpy_ids_rejected(self):
        # True would stand for UE 1 and colour it; a numpy id is no Python int
        s = build_scenario(ScenarioConfig(n_cells=3), seed=0)
        gains, m = channel_gains(s), np.full(2, 3)
        for ids, bad in (
            ([True, 2], "True"), ([2, np.True_], "np.True_"), ([1.0, 2], "1.0"),
            (np.array([2, 1]), r"np\.int64\(2\)"),
        ):
            with pytest.raises(TypeError, match=rf"UE id {bad} has type"):
                build_interference_graph(gains, m, s.tx_power_w, ids, 0.1)
        with pytest.raises(ValueError, match="no offloading UEs, nothing to allocate"):
            build_interference_graph(gains, m[:0], s.tx_power_w, np.array([], dtype=np.int64), 0.1)

    def test_one_quota_per_offloader(self):
        # one quota would broadcast over every offloader
        s = build_scenario(ScenarioConfig(n_cells=3), seed=0)
        with pytest.raises(ValueError, match="1 quotas for 2 offloading UEs"):
            build_interference_graph(channel_gains(s), np.array([3]), s.tx_power_w, [0, 1], 0.1)


class TestColor:
    def test_decoupled_nodes_take_best_own_color(self):
        # no cross gain: scores reduce to own rate, equal on all colors,
        # ties resolve to the lowest color index for both nodes
        h = np.array([[1e-10, 0.0], [0.0, 1e-10]])
        h[0, 1] = h[1, 0] = 1e-30
        m = np.array([1, 1])
        g = build_interference_graph(ChannelGains(h=h), m, np.full(2, 0.1), [0, 1], 0.1)
        state = color(g, radio(2))
        assert held(state) == {0: [0], 1: [0]}

    def test_single_node_saturates_band(self):
        h = np.array([[1e-10]])
        m = np.array([4])
        g = build_interference_graph(ChannelGains(h=h), m, np.array([0.1]), [0], 0.1)
        state = color(g, radio(4))
        assert held(state) == {0: [0, 1, 2, 3]}

    def test_strong_coupling_goes_disjoint_when_band_suffices(self):
        # quotas sum to K and every cross link is loud: reuse never pays
        rng = np.random.default_rng(5)
        for _ in range(10):
            n, k = 3, 9
            h = 10.0 ** rng.uniform(-10.5, -9.5, size=(n, n))
            h[np.arange(n), np.arange(n)] = 10.0 ** rng.uniform(-9.2, -9.0, size=n)
            powers = np.full(n, 0.1)
            m = normalize_prbs([1, 1, 1], k, 1.0)
            assert m.sum() == k
            g = build_interference_graph(ChannelGains(h=h), m, powers, [0, 1, 2], 0.01)
            state = color(g, radio(k))
            assert sorted(state.held_prb.tolist()) == list(range(k))

    def test_three_node_trajectory_matches_replay(self):
        rng = np.random.default_rng(11)
        h = 10.0 ** rng.uniform(-12.5, -10.5, size=(3, 3))
        h[np.arange(3), np.arange(3)] = 10.0 ** rng.uniform(-10, -9.5, size=3)
        powers = np.full(3, 0.1)
        m = np.array([1, 1, 1])
        r = radio(3)
        g = build_interference_graph(ChannelGains(h=h), m, powers, [0, 1, 2], 0.1)
        state = color(g, r)
        order, steps = assert_matches_dense_color(state, g, [0, 1, 2], m, h, powers, r, 0.1)
        replay_coloring(
            order, steps, [0, 1, 2], m, h, powers, 20e6, 3, 1e-13, 0.1,
            lambda c: interference_table(
                PrbAssociation(c=c), ChannelGains(h=h), powers
            ),
        )

    def test_near_tie_goes_to_the_larger_exact_score(self):
        # Palette gains nudged by a few ulps: PRB 1 beats PRB 0 for node 1
        # by 3.7e-9 bit/s, a difference that adding the colored nodes'
        # current rates (about 1.3e8 bit/s) to both scores would round away.
        rng = np.random.default_rng(67)
        n, k = int(rng.integers(2, 9)), int(rng.integers(1, 9))
        h = rng.choice([0.0, 1e-12, 1e-11], (n, n)) * (
            1 + rng.integers(-3, 4, (n, n)) * 2.0**-52
        )
        h[np.arange(n), np.arange(n)] = rng.choice([1e-10, 1e-9], n) * (
            1 + rng.integers(-3, 4, n) * 2.0**-52
        )
        powers = np.full(n, 0.1)
        ids = list(range(n))
        m = normalize_prbs([1] * n, k, 1.0)
        r = radio(k)
        g = build_interference_graph(ChannelGains(h=h), m, powers, ids, 0.0)
        state = color(g, r)
        order, steps = assert_matches_dense_color(state, g, ids, m, h, powers, r, 0.0)
        assert (n, k, order) == (7, 4, (6, 2, 3, 4, 1, 0, 5))
        assert held(state)[1] == [1]

        t = order.index(1)
        o = steps[t - 1][2]  # the table before node 1 is colored
        p = powers / m
        bpp, noise = r.prb_bandwidth_hz, r.noise_per_prb_w

        def exact_score(j):
            total = Fraction(bpp * np.log2(1.0 + p[1] * h[1, 1] / (noise + o[1, j])))
            for ue, colors, _ in steps[:t]:
                if j in colors:
                    snr, den = p[ue] * h[ue, ue], noise + o[ue, j]
                    base = bpp * np.log2(1.0 + snr / den)
                    pert = bpp * np.log2(1.0 + snr / (den + p[1] * h[1, ue]))
                    total += Fraction(pert - base)
            return total

        assert exact_score(1) > exact_score(0)

    def test_quotas_that_fit_fill_the_band_in_step_order(self):
        # the quotas fit in K and every cross gain is positive: no held
        # color ties a free one, so each node takes the next block of
        # consecutive colors in coloring order
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            h = 10.0 ** rng.uniform(-12.5, -10.5, size=(n, n))
            h[np.arange(n), np.arange(n)] = 10.0 ** rng.uniform(-10, -9, size=n)
            powers, ids = np.full(n, 0.1), list(range(n))
            m = rng.integers(1, 5, size=n)
            k = int(m.sum() + rng.integers(0, 3))
            r = radio(k)
            theta = float(rng.choice([0.0, 0.1, math.inf]))
            g = build_interference_graph(ChannelGains(h=h), m, powers, ids, theta)
            state = color(g, r)
            assert_matches_dense_color(state, g, ids, m, h, powers, r, theta)
            lo = 0
            for node, prbs in held(state).items():
                assert prbs == list(range(lo, lo + int(m[node])))
                lo += int(m[node])

    def test_a_zero_cross_gain_is_a_tie_the_scorer_settles(self):
        # UEs 0 and 1, colored first, neither hear nor reach each other, so
        # PRB 0 scores UE 1's free rate exactly: the tie goes to the lowest
        # color, which UE 0 holds, though PRBs 1 and 2 are free
        h = np.array([[1e-10, 0.0, 1e-12], [0.0, 1e-10, 1e-12], [3e-11, 2e-11, 1e-10]])
        m = np.array([1, 1, 1])
        powers = np.full(3, 0.1)
        r = radio(3)
        g = build_interference_graph(ChannelGains(h=h), m, powers, [0, 1, 2], 0.0)
        state = color(g, r)
        assert_matches_dense_color(state, g, [0, 1, 2], m, h, powers, r, 0.0)
        assert state.ids[:2].tolist() == [0, 1]
        assert held(state)[0] == held(state)[1] == [0]

    def test_a_gap_inside_the_slack_is_left_to_the_scorer(self):
        # the second node's rate on the held PRB 0 lies below its free rate,
        # but by less than the fill phase's slack: the scorer decides
        graph, ids, m, gains, powers, r, theta = near_gap_inside_the_slack()
        state = color(graph, r)
        assert_matches_dense_color(state, graph, ids, m, gains.h, powers, r, theta)
        bpp, noise = r.prb_bandwidth_hz, r.noise_per_prb_w
        free = bpp * np.log2(1.0 + state.signal / noise)
        held = bpp * np.log2(1.0 + state.signal[1] / (noise + graph.leak[0, 1]))
        assert 0 < free[1] - held < free.max() * 2.0**-32

    def test_a_zero_cross_gain_ends_the_fill_at_a_later_step(self):
        # equal quotas that fit and no edges (theta inf), so the nodes go in
        # id order; node t and an earlier node s neither hear nor reach each
        # other: the nodes before t fill, the guard stops t, and the scorer
        # gives t the block s holds, whose colors tie the free ones
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(3, 10))
            q = int(rng.integers(1, 4))
            t = int(rng.integers(2, n))
            s = int(rng.integers(0, t))
            h = 10.0 ** rng.uniform(-12.5, -10.5, size=(n, n))
            h[np.arange(n), np.arange(n)] = 10.0 ** rng.uniform(-10, -9, size=n)
            h[s, t] = h[t, s] = 0.0
            powers, ids = np.full(n, 0.1), list(range(n))
            m = np.full(n, q)
            r = radio(n * q + int(rng.integers(0, 3)))
            g = build_interference_graph(ChannelGains(h=h), m, powers, ids, math.inf)
            state = color(g, r)
            assert_matches_dense_color(state, g, ids, m, h, powers, r, math.inf)
            assert state.ids.tolist() == ids
            prbs = held(state)
            for node in range(t):
                assert prbs[node] == list(range(node * q, node * q + q))
            assert prbs[t] == prbs[s]

    def test_scored_takes_of_one_run_and_of_two_runs(self):
        # no edges (theta inf), so the quota-1 UEs 0-2 go first and fill
        # PRBs 0-2; then the scorer gives UE 3, which hears only UE 1 and
        # is heard only by it, PRBs 0 and 2 (two runs: a gather and
        # scatter), and UE 4, which does the same with UE 2, PRBs 0 and 1
        # (one run: a slice)
        h = np.full((5, 5), 1e-14)
        h[np.arange(5), np.arange(5)] = 1e-10
        h[1, 3] = h[3, 1] = h[2, 4] = h[4, 2] = 1e-11
        m = np.array([1, 1, 1, 2, 2])
        powers, r = np.full(5, 0.1), radio(3)
        g = build_interference_graph(ChannelGains(h=h), m, powers, range(5), math.inf)
        state = color(g, r)
        assert_matches_dense_color(state, g, range(5), m, h, powers, r, math.inf)
        assert state.ids.tolist() == [0, 1, 2, 3, 4]
        assert held(state) == {0: [0], 1: [1], 2: [2], 3: [0, 2], 4: [0, 1]}

    def test_a_first_block_that_leaves_no_room_goes_to_the_scorer(self):
        # the first node's 3 colors leave 1 of 4 free and the second needs
        # 3: nothing fills after step 0, and the scorer gives the second
        # node the free color and reuses 2 of the first node's
        rng = np.random.default_rng(23)
        for _ in range(10):
            h = 10.0 ** rng.uniform(-12.5, -10.5, size=(2, 2))
            h[[0, 1], [0, 1]] = 10.0 ** rng.uniform(-10, -9, size=2)
            m, powers, r = np.array([3, 3]), np.full(2, 0.1), radio(4)
            g = build_interference_graph(ChannelGains(h=h), m, powers, [0, 1], math.inf)
            state = color(g, r)
            assert_matches_dense_color(state, g, [0, 1], m, h, powers, r, math.inf)
            assert state.ids.tolist() == [0, 1]
            prbs = held(state)
            assert prbs[0] == [0, 1, 2]
            assert 3 in prbs[1]

    def test_a_dense_repair_cell_matches_the_dense_oracle(self):
        # the 160-cell cell with the server scaled to it, colored for the
        # offload set proposed_minsum picks: 44 nodes on 100 PRBs, the
        # first 20 fill the band and the rest are scored, so the fill
        # guard's 19 x 19 log2 block and the scorer's passes run at full
        # SIMD width on a real cell
        s = build_scenario(ScenarioConfig(n_cells=160, mec_ghz=100 * 160 / 9), 0)
        gains = channel_gains(s)
        ids = list(run_scheme("proposed_minsum", s, gains).decision.offload_set)
        w = estimate_loads(s, gains).w
        q = normalize_prbs(w[ids], s.radio.num_prbs, s.reuse_lambda)
        g = build_interference_graph(gains, q, s.tx_power_w, ids, s.edge_threshold)
        state = color(g, s.radio)
        m = by_ue(ids, q, s.n_cells)
        assert_matches_dense_color(
            state, g, ids, m, gains.h, s.tx_power_w, s.radio, s.edge_threshold
        )
        assert (len(ids), s.radio.num_prbs) == (44, 100)
        lo = 0
        prbs = held(state)
        for node in state.ids[:20].tolist():
            hi = lo + int(m[node])
            assert prbs[node] == list(range(lo, hi))
            lo = hi
        assert lo == 100

    def test_row_sums_equal_quotas(self):
        rng = np.random.default_rng(3)
        for lam in (1.0, 2.0):
            h, powers, m, ids = random_setup(rng, 6, 12, lam)
            g = build_interference_graph(ChannelGains(h=h), m, powers, ids, 0.1)
            state = color(g, radio(12))
            assert np.array_equal(state_assoc(state, 6, 12).m, m)
            assert np.bincount(state.held_step).tolist() == g.quota.tolist()

    def test_order_key_non_increasing(self):
        rng = np.random.default_rng(4)
        h, powers, m, ids = random_setup(rng, 7, 10, 2.0)
        g = build_interference_graph(ChannelGains(h=h), m, powers, ids, 0.1)
        state = color(g, radio(10))
        assert state.ids is g.nodes
        keys = g.in_weight.tolist()
        assert all(a >= b for a, b in zip(keys, keys[1:]))

    def test_final_table_consistent(self):
        rng = np.random.default_rng(9)
        h, powers, m, ids = random_setup(rng, 5, 8, 2.0)
        g = build_interference_graph(ChannelGains(h=h), m, powers, ids, 0.1)
        state = color(g, radio(8))
        rebuilt = interference_table(state_assoc(state, 5, 8), ChannelGains(h=h), powers)
        np.testing.assert_allclose(
            state.table.T, rebuilt[state.ids], rtol=1e-12, atol=1e-300
        )

    def test_table_is_prb_major_and_c_contiguous(self):
        # 7 UEs on 12 PRBs, UEs 1 and 4 local: the kernel hands back its own
        # PRB-major table[prb, t], one column per colored UE in coloring
        # order, and the int64 UE ids of those columns
        rng = np.random.default_rng(21)
        h, powers, _, _ = random_setup(rng, 7, 12, 2.0)
        ids = [0, 2, 3, 5, 6]
        m = normalize_prbs(np.arange(1, 8)[ids], 12, 2.0)
        g = build_interference_graph(ChannelGains(h=h), m, powers, ids, 0.1)
        state = color(g, radio(12))
        assert sorted(state.ids.tolist()) == ids
        assert state.ids.dtype == np.int64
        assert state.table.shape == (12, 5)
        assert state.table.dtype == np.float64
        assert state.table.flags.c_contiguous
        rebuilt = interference_table(state_assoc(state, 7, 12), ChannelGains(h=h), powers)
        np.testing.assert_allclose(
            state.table.T, rebuilt[state.ids], rtol=1e-12, atol=1e-300
        )

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        h, powers, m, ids = random_setup(rng, 6, 10, 2.0)
        g = build_interference_graph(ChannelGains(h=h), m, powers, ids, 0.1)
        fields = [a.tobytes() for a in vars(g).values()]
        a = color(g, radio(10))
        b = color(g, radio(10))
        for name in ("ids", "table", "held_step", "held_prb"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        # color reads the graph and writes none of it
        assert [a.tobytes() for a in vars(g).values()] == fields

    def test_local_cells_do_not_move_the_coloring(self):
        # The 160-cell cell with the server scaled to it, colored for the
        # offload set proposed_minsum picks, where most UEs stay local:
        # scaling the gains to and from the local UEs changes neither the
        # graph nor the coloring, and the table holds only the colored
        # nodes' rows.
        s = build_scenario(ScenarioConfig(n_cells=160, mec_ghz=1777.7777777777778), 0)
        gains = channel_gains(s)
        estimates = estimate_loads(s, gains)
        ids = list(run_scheme("proposed_minsum", s, gains).decision.offload_set)
        local = np.setdiff1d(np.arange(s.n_cells), ids)
        assert 0 < len(ids) < len(local)
        m = normalize_prbs(estimates.w[ids], s.radio.num_prbs, s.reuse_lambda)
        h = gains.h.copy()
        h[local] *= 3.0
        h[:, local] *= 7.0
        states = []
        for g in (gains, ChannelGains(h=h)):
            graph = build_interference_graph(g, m, s.tx_power_w, ids, s.edge_threshold)
            states.append(color(graph, s.radio))
        a, b = states
        for name in ("ids", "table", "held_step", "held_prb"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert a.table.shape == (s.radio.num_prbs, len(ids))
        assert a.table.dtype == np.float64 and a.table.flags.c_contiguous

    def test_theta_acts_through_the_colouring_order_alone(self):
        # the edges only set each node's in-weight, which orders the
        # colouring, and the scorer prices every leak, edge or not. On the
        # 9-cell scenario at seed 4 with all 9 UEs offloading, every
        # threshold up to 0.2 gives other in-weights but the default order,
        # and colours bit for bit alike; 0.5 reorders the nodes, and the
        # table changes
        s = build_scenario(ScenarioConfig(n_cells=9), 4)
        gains = channel_gains(s)
        estimates = estimate_loads(s, gains)
        ids = list(range(9))
        assert estimates.offloadable.all()
        m = normalize_prbs(estimates.w, s.radio.num_prbs, s.reuse_lambda)

        def colour(theta):
            graph = build_interference_graph(gains, m, s.tx_power_w, ids, theta)
            return graph.in_weight, color(graph, s.radio)

        weight, want = colour(s.edge_threshold)
        for theta in (1e-9, 0.01, 0.05, 0.2):
            other, got = colour(theta)
            assert other.tobytes() != weight.tobytes()
            for name in ("ids", "table", "signal", "held_step", "held_prb"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        _, moved = colour(0.5)
        assert moved.ids.tolist() != want.ids.tolist()
        k = s.radio.num_prbs
        assert state_assoc(moved, 9, k).c.tobytes() != state_assoc(want, 9, k).c.tobytes()


@pytest.mark.parametrize("quota, k", [((2, 2, 2), 4), ((1, 3, 2), 4), ((3, 1, 1), 3)])
def test_region_tables_cover_every_table_of_the_quotas(quota, k):
    # every 3 x k table with these row sums falls in exactly one yielded
    # count vector, and each yielded table holds its quotas and counts
    rows = [
        [c for c in itertools.product((0, 1), repeat=k) if sum(c) == q] for q in quota
    ]
    want = {region_counts(np.array(t)) for t in itertools.product(*rows)}
    got = []
    for counts, c in region_tables(quota, k):
        assert c.sum(axis=1).tolist() == list(quota)
        assert region_counts(c) == counts and len(counts) == len(REGIONS)
        got.append(counts)
    assert len(got) == len(set(got)) and set(got) == want


class TestRealizedRates:
    def test_orthogonal_equals_interference_free_sum(self):
        h = np.array([[1e-10, 1e-30], [1e-30, 1e-10]])
        powers = np.full(2, 0.1)
        m = np.array([1, 1])
        r = radio(2)
        g = build_interference_graph(ChannelGains(h=h), m, powers, [0, 1], 100.0)
        state = color(g, r)
        rates = realized_rates(state, r)
        assert rates.shape == (2,) and state.ids.tolist() == [0, 1]
        lone = r.prb_bandwidth_hz * math.log2(1 + 0.1 * 1e-10 / 1e-13)
        assert rates[0] == pytest.approx(lone, rel=1e-12)

    def test_symmetric_sharing_equal_rates(self):
        h = np.array([[1e-10, 1e-11], [1e-11, 1e-10]])
        powers = np.full(2, 0.1)
        m = np.array([2, 2])
        r = radio(2)
        g = build_interference_graph(ChannelGains(h=h), m, powers, [0, 1], 0.01)
        state = color(g, r)
        rates = realized_rates(state, r)
        assert held(state) == {0: [0, 1], 1: [0, 1]}
        assert rates[0] == pytest.approx(rates[1], rel=1e-12)

    def test_agrees_with_direct_rate_formula(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            h, powers, m, ids = random_setup(rng, 6, 9, 2.0)
            r = radio(9)
            g = build_interference_graph(ChannelGains(h=h), m, powers, ids, 0.1)
            state = color(g, r)
            rates = realized_rates(state, r)
            assert (rates > 0).all() and rates.shape == (6,)
            decision = OffloadDecision(6, tuple(ids))
            assoc = state_assoc(state, 6, 9)
            for t, i in enumerate(state.ids.tolist()):
                direct = uplink_rate(i, decision, assoc, ChannelGains(h=h), powers, r)
                assert rates[t] == pytest.approx(direct, rel=1e-12)


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@st.composite
def coloring_inputs(draw):
    """An offload set of 1-30 nodes on 1-120 PRBs, lambda 1-3, quotas capped
    at K. Tied cases draw gains from a three-value palette, so scores and
    order keys tie exactly; near cases nudge the palette by up to 3 ulps,
    so two colors' scores can differ by less than an ulp of the system sum
    rate; every kind includes zero cross gains. Returns the graph, the
    offload set, the quotas by UE id (the oracles' form), the gains, the
    powers, the band and theta."""
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, 120))
    lam = draw(st.floats(1.0, 3.0))
    demands = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    local = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    theta = draw(st.sampled_from([0.0, 0.1, math.inf]))
    kind = draw(st.sampled_from(["tied", "near", "continuous"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "continuous":
        h = 10.0 ** rng.uniform(-12.5, -8.5, size=(n, n))
        h[rng.random((n, n)) < 0.3] = 0.0
        serving = 10.0 ** rng.uniform(-10.0, -9.0, size=n)
    else:
        h = rng.choice([0.0, 1e-12, 1e-11], size=(n, n))
        serving = rng.choice([1e-10, 1e-9], size=n)
    if kind == "near":
        h *= 1 + rng.integers(-3, 4, size=(n, n)) * 2.0**-52
        serving *= 1 + rng.integers(-3, 4, size=n) * 2.0**-52
    h[np.arange(n), np.arange(n)] = serving
    powers = np.full(n, 0.1)
    ids = [i for i in range(n) if i not in local]
    q = normalize_prbs([demands[i] for i in ids], k, lam)
    gains = ChannelGains(h=h)
    graph = build_interference_graph(gains, q, powers, ids, theta)
    return graph, ids, by_ue(ids, q, n), gains, powers, radio(k), theta


def near_gap_inside_the_slack():
    """Two nodes on two PRBs with palette gains nudged by ulps, as the near
    kind draws them, whose cross gains are so weak that each one's rate on
    the other's PRB lies below its free rate by less than the fill phase's
    slack, 2**-32 of the larger free rate."""
    h = np.array([[1e-10 * (1 + 2 * 2.0**-52), 1e-23], [3e-23, 1e-9 * (1 - 2.0**-52)]])
    m = np.array([1, 1])
    powers = np.full(2, 0.1)
    gains = ChannelGains(h=h)
    graph = build_interference_graph(gains, m, powers, [0, 1], 0.0)
    return graph, [0, 1], m, gains, powers, radio(2), 0.0


@settings(max_examples=150)
@given(coloring_inputs())
@example(near_gap_inside_the_slack())
def test_color_matches_dense_oracle_bit_for_bit(inputs):
    graph, ids, m, gains, powers, r, theta = inputs
    state = color(graph, r)
    assert_matches_dense_color(state, graph, ids, m, gains.h, powers, r, theta)


@settings(max_examples=150)
@given(coloring_inputs())
def test_realized_rates_equal_per_row_held_rate(inputs):
    graph, _, m, gains, powers, r, _ = inputs
    h = gains.h
    state = color(graph, r)
    c = state_assoc(state, h.shape[0], r.num_prbs).c
    want = np.zeros(state.ids.size)
    bpp, noise = r.prb_bandwidth_hz, r.noise_per_prb_w
    for t, i in enumerate(state.ids.tolist()):
        snr = powers[i] / m[i] * h[i, i] / (noise + state.table[:, t])
        want[t] = (c[i] * bpp * np.log2(1 + snr)).sum()
    assert _bits(realized_rates(state, r)) == _bits(want)


@settings(max_examples=150)
@given(coloring_inputs())
def test_signal_is_per_prb_power_times_serving_gain_in_order(inputs):
    graph, _, m, gains, powers, r, _ = inputs
    state = color(graph, r)
    order = state.ids
    want = (powers[order] / m[order]) * gains.h[order, order]
    assert _bits(state.signal) == _bits(want)


@settings(max_examples=150)
@given(coloring_inputs())
def test_first_node_takes_the_lowest_colors_and_each_step_holds_its_quota(inputs):
    # nothing is coloured before the first node, so every color ties and it
    # takes colors 0..q-1; each step holds exactly its quota, on distinct
    # colors in ascending order
    graph, _, m, gains, powers, r, _ = inputs
    state = color(graph, r)
    first = int(state.ids[0])
    prbs = held(state)
    assert prbs[first] == list(range(m[first]))
    order = state.ids.tolist()
    assert [len(prbs[i]) for i in order] == m[order].tolist()
    assert all(p == sorted(set(p)) for p in prbs.values())
    assert state.held_step.tolist() == sorted(state.held_step.tolist())


@st.composite
def offloading_cells(draw):
    """A cell of 1-20 UEs on 1-100 PRBs at lambda 1-3, at the default or a
    larger server, and a nonempty offload set drawn from its candidates."""
    cfg = ScenarioConfig(
        n_cells=draw(st.integers(1, 20)),
        num_prbs=draw(st.integers(1, 100)),
        reuse_lambda=draw(st.floats(1.0, 3.0)),
        mec_ghz=draw(st.sampled_from((100.0, 300.0))),
    )
    s = build_scenario(cfg, draw(st.integers(0, 10_000)))
    gains = channel_gains(s)
    estimates = estimate_loads(s, gains)
    candidates = estimates.offloadable.nonzero()[0].tolist()
    assume(candidates)
    offs = draw(st.sets(st.sampled_from(candidates), min_size=1))
    return s, gains, estimates, OffloadDecision(s.n_cells, tuple(sorted(offs)))


@settings(max_examples=60)
@given(offloading_cells())
def test_uplink_equals_the_dense_oracle_padded_to_n(cell):
    # uplink maps the per-offloader colouring back to UE ids: its N x K
    # association and N rates are dense_color's table and dense_held_rate
    # of its rows, bit for bit, at the per-element loop's quotas; every
    # local UE's row and rate are exactly 0
    s, gains, estimates, decision = cell
    offs = list(decision.offload_set)
    assoc, rates = uplink(decision, s, gains, estimates)
    r, powers = s.radio, s.tx_power_w
    m = loop_quotas(estimates.w, offs, r.num_prbs, s.reuse_lambda)
    c, o, _, _ = dense_color(offs, m, gains.h, powers, r, s.edge_threshold)
    want = np.zeros(s.n_cells)
    for i in offs:
        want[i] = dense_held_rate(c[i], powers[i] / m[i] * gains.h[i, i], o[i], r)
    assert assoc.c.dtype == np.int64 and assoc.c.tobytes() == c.tobytes()
    assert rates.tobytes() == want.tobytes()
    local = np.setdiff1d(np.arange(s.n_cells), offs)
    assert not assoc.c[local].any() and not assoc.m[local].any()
    assert rates[local].tobytes() == np.zeros(local.size).tobytes()
