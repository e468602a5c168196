"""Per-UE demand sizing: rate targets, minimum PRB counts, the forced-local
and infeasible verdicts, and the Loads arrays against a per-UE loop."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecoffload import load_estimation
from mecoffload.decision_engine import SCHEME_NAMES, cell_plan, run_scheme
from mecoffload.errors import InvalidConfig
from mecoffload.load_estimation import (
    LoadEstimate,
    Loads,
    estimate_loads,
    min_prbs,
    prb_rate,
)
from mecoffload.scenario import (
    ChannelGains,
    RadioParams,
    ScenarioConfig,
    build_scenario,
    channel_gains,
)

from _oracles import scalar_loads, scalar_local, scan_min_prbs
from test_scenario import make_ue, manual_scenario

RADIO = RadioParams(bandwidth_hz=20e6, num_prbs=100, noise_per_prb_w=1e-13)


def sized(n=1, mec_hz=1e11, **ue_args) -> Loads:
    """estimate_loads on n copies of make_ue(**ue_args), each 10 m from its cell."""
    ues = [make_ue(position=(10.0, 0.0), **ue_args)] * n
    s = manual_scenario([(0.0, 0.0)] * n, ues=ues, mec_capacity_hz=mec_hz)
    return estimate_loads(s, channel_gains(s))


class TestMinRateRequirement:
    def test_reference_values(self):
        # 1e9 cycles, even split of 100 GHz over 9 cells: 0.09 s on the server
        loads = sized(n=9, mec_hz=1e11)
        assert not loads.forced_local.any()
        for t_exe, rate in zip(loads.t_exe_est_s, loads.min_rate_bps):
            assert t_exe == pytest.approx(0.09, rel=1e-12)
            assert rate == pytest.approx(2570382.070437567, rel=1e-12)

    def test_forced_local_when_server_slower_than_handset(self):
        # handset at 10 GHz beats a 1e10/9 Hz server share
        loads = sized(n=9, mec_hz=1e10, speed=1e10)
        assert loads.forced_local.all()
        assert np.isinf(loads.min_rate_bps).all()
        assert not loads.w.any()

    def test_forced_local_at_exact_tie(self):
        # server share exactly equals the handset speed: zero slack
        loads = sized(n=9, mec_hz=0.7e9 * 9, speed=0.7e9)
        assert (loads.local_time_s - loads.t_exe_est_s == 0.0).all()
        assert loads.forced_local.all()
        assert not loads.offloadable.any()


def one_ue(power, gain, radio, targets):
    """min_prbs of one UE against each target, as a list."""
    targets = np.array(targets)
    n = len(targets)
    return min_prbs(np.full(n, power), np.full(n, gain), radio, targets).tolist()


class TestMinPrbs:
    def test_reference_scan_points(self):
        # P*H/noise = 100; frozen single/double/triple PRB rates
        assert prb_rate(1, 1e-10, RADIO, 0.1) == pytest.approx(
            1331642.2965503589, rel=1e-12
        )
        assert prb_rate(2, 1e-10, RADIO, 0.1) == pytest.approx(
            2268970.1367885983, rel=1e-12
        )
        assert prb_rate(3, 1e-10, RADIO, 0.1) == pytest.approx(
            3060922.8158772374, rel=1e-12
        )
        assert one_ue(0.1, 1e-10, RADIO, [2.5e6]) == [3]

    def test_boundary_inclusive(self):
        target = prb_rate(3, 1e-10, RADIO, 0.1)
        assert one_ue(0.1, 1e-10, RADIO, [target, math.nextafter(target, math.inf)]) == [3, 4]

    def test_single_prb_suffices(self):
        assert one_ue(0.1, 1e-10, RADIO, [1e5]) == [1]

    def test_infeasible_beyond_band(self):
        # rate saturates near P*H/noise * B/(K ln 2); ask for more
        cap = 0.1 * 1e-10 / 1e-13 * (20e6 / 100) / math.log(2)
        assert one_ue(0.1, 1e-10, RADIO, [cap * 1.01]) == [0]

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(123)
        radios = {k: RadioParams(bandwidth_hz=20e6, num_prbs=k, noise_per_prb_w=1e-13)
                  for k in (10, 50, 100)}
        draws = {k: [] for k in radios}
        for _ in range(200):
            k = int(rng.choice([10, 50, 100]))
            snr = 10.0 ** rng.uniform(0, 4)
            cap_rate = k * radios[k].prb_bandwidth_hz * math.log2(1 + snr / k)
            draws[k].append((snr, rng.uniform(0, 1.3) * cap_rate))
        for k, rows in draws.items():
            snr, target = np.array(rows).T
            got = min_prbs(np.full(len(rows), 0.1), snr * 1e-13 / 0.1, radios[k], target)
            want = [scan_min_prbs(c, k, radios[k].prb_bandwidth_hz, t) for c, t in rows]
            assert got.tolist() == want, k

    def test_blocks_of_rows_match_one_table(self, monkeypatch):
        """Blocks of 3 rows (one short at the end) give each UE the count
        that one table over all UEs gives."""
        rng = np.random.default_rng(7)
        n = 100
        snr = 10.0 ** rng.uniform(-13, 4, n)
        gain = snr * RADIO.noise_per_prb_w / 0.1
        target = prb_rate(rng.integers(1, RADIO.num_prbs + 1, n), gain, RADIO, 0.1)
        target *= rng.uniform(0.9, 1.1, n)
        power = np.full(n, 0.1)
        whole = min_prbs(power, gain, RADIO, target)
        monkeypatch.setattr(load_estimation, "_BLOCK_ENTRIES", 3 * RADIO.num_prbs + 1)
        assert min_prbs(power, gain, RADIO, target).tolist() == whole.tolist()
        rows = prb_rate(np.arange(1, RADIO.num_prbs + 1), gain[:, None], RADIO, 0.1)
        want = [next((w + 1 for w, r in enumerate(row) if r >= t), 0)
                for row, t in zip(rows.tolist(), target.tolist())]
        assert whole.tolist() == want
        assert min_prbs(power[:0], gain[:0], RADIO, target[:0]).tolist() == []

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_peak_does_not_grow_with_n(self, n):
        """Beside its 8n-byte result, one call holds about one block of the
        table: under four 512 KB blocks at K = 100, where one unblocked
        table at n = 100,000 would be 80 MB."""
        rng = np.random.default_rng(n)
        gain = 10.0 ** rng.uniform(-13, 4, n) * RADIO.noise_per_prb_w / 0.1
        power = np.full(n, 0.1)
        target = prb_rate(rng.integers(1, RADIO.num_prbs + 1, n), gain, RADIO, power)
        min_prbs(power[:1], gain[:1], RADIO, target[:1])  # warm up numpy's loops
        tracemalloc.start()
        try:
            first = min_prbs(power, gain, RADIO, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - first.nbytes < 2 << 20
        assert first.nbytes == 8 * n

    def test_rate_table_takes_the_documented_op_order(self):
        """(P*g) / (w*sigma^2), then + 1, then log2, then * (w*B_prb), bit
        for bit, over a (UEs x K) table."""
        rng = np.random.default_rng(11)
        w = np.arange(1, RADIO.num_prbs + 1)
        gain = (10.0 ** rng.uniform(-13, 4, 50) * RADIO.noise_per_prb_w / 0.1)[:, None]
        power = rng.uniform(0.01, 0.5, 50)[:, None]
        snr = (power * gain) / (w * RADIO.noise_per_prb_w)
        want = np.log2(snr + 1.0) * (w * RADIO.prb_bandwidth_hz)
        got = prb_rate(w, gain, RADIO, power)
        assert got.shape == (50, RADIO.num_prbs)
        assert got.tobytes() == want.tobytes()

    def test_weak_signal_takes_the_first_sufficient_count(self):
        """At a single-PRB SNR of 1e-12, fl(1 + c/w) is coarse and the float
        rate is not monotone in w: the whole band prices below one PRB.
        A target that one PRB meets sizes at 1 PRB (a bisection answered
        "none")."""
        radio = RadioParams(20e6, 100, 1e-13)
        target = prb_rate(1, 1e-24, radio, 0.1)
        assert prb_rate(100, 1e-24, radio, 0.1) < target
        assert one_ue(0.1, 1e-24, radio, [target]) == [1]

    def test_weak_signal_candidate_whose_band_prices_at_zero(self):
        """At a single-PRB SNR of 1e-15, fl(1 + c/100) is 1: the whole band
        prices at 0 bps, yet one PRB meets a tiny target. The lone candidate
        then gets the band as its orthogonal share; the estimate prices it
        at +inf instead of failing, the guess keeps it local, and every
        scheme runs."""
        cell = [(0.0, 0.0)]
        g = channel_gains(manual_scenario(cell, ues=[make_ue(position=(10.0, 0.0))])).h[0, 0]
        power = 1e-15 * RADIO.noise_per_prb_w / g
        s = manual_scenario(cell, ues=[make_ue(position=(10.0, 0.0), power=power, bits=1e-10)])
        gains = channel_gains(s)
        plan = cell_plan(s, gains)
        assert prb_rate(RADIO.num_prbs, g, RADIO, power) == 0.0
        assert plan.estimates.w.tolist() == [1]
        assert plan.report == {0: math.inf}
        assert plan.a0.a == (0,)
        local = plan.estimates.local_overhead[0]
        for name in SCHEME_NAMES:
            overhead = run_scheme(name, s, gains).system_overhead
            # the orthogonal baseline offloads on the whole band: a dead uplink
            assert overhead == (math.inf if name == "all_offload_orth" else local), name

    def test_weak_signal_scenario_sizes_the_first_sufficient_count(self):
        """At tx_power_mw=1e-12 and a tiny input, seed 0, UE 0 meets its rate
        target on one PRB and is sized at 1 (a bisection sized it at 8, which
        shrank the other offloaders' quotas)."""
        s = build_scenario(ScenarioConfig(tx_power_mw=1e-12, input_kb=6.653698732664633e-08), 0)
        gains = channel_gains(s)
        loads = estimate_loads(s, gains)
        assert prb_rate(1, gains.h[0, 0], s.radio, s.tx_power_w[0]) >= loads.min_rate_bps[0]
        assert loads.w[0] == 1
        assert run_scheme("proposed_minsum", s, gains).system_overhead == 5.158696894136745

    @settings(max_examples=200, deadline=None)
    @given(
        k=st.sampled_from([3, 10, 100]),
        rows=st.lists(
            st.tuples(
                st.floats(-13.0, 4.0),  # log10 of the single-PRB SNR
                st.floats(0.0, 1.0),  # picks the count j whose rate is the target
                st.integers(-3, 3),  # ulps to nudge the target by
            ),
            min_size=1,
            max_size=20,
        ),
    )
    def test_first_count_whose_rate_meets_the_target(self, k, rows):
        radio = RadioParams(bandwidth_hz=20e6, num_prbs=k, noise_per_prb_w=1e-13)
        power = np.full(len(rows), 0.1)
        gain = np.array([10.0 ** e for e, _, _ in rows]) * 1e-13 / 0.1
        j = np.array([1 + int(f * (k - 1)) for _, f, _ in rows])
        target = prb_rate(j, gain, radio, power)
        for i, (_, _, ulps) in enumerate(rows):
            for _ in range(abs(ulps)):
                target[i] = math.nextafter(target[i], math.copysign(math.inf, ulps))
        rates = prb_rate(np.arange(1, k + 1), gain[:, None], radio, power[:, None])
        want = [next((w + 1 for w, r in enumerate(row) if r >= t), 0)
                for row, t in zip(rates.tolist(), target.tolist())]
        assert min_prbs(power, gain, radio, target).tolist() == want


class TestEstimateLoads:
    def test_default_scenario_all_offloadable(self):
        s = build_scenario(ScenarioConfig(), seed=0)
        ests = estimate_loads(s, channel_gains(s))
        assert len(ests) == 9
        for est in ests:
            assert est.offloadable
            assert est.w >= 1
            assert est.t_exe_est_s == pytest.approx(0.09, rel=1e-12)
            assert est.min_rate_bps == pytest.approx(2570382.070437567, rel=1e-12)
        for overhead in ests.local_overhead:
            assert overhead == pytest.approx(0.7167357142857143, rel=1e-12)

    def test_forced_local_marked(self):
        # tiny server: even split loses to the handset everywhere
        s = build_scenario(ScenarioConfig(mec_ghz=0.7 * 9), seed=0)
        ests = estimate_loads(s, channel_gains(s))
        for est in ests:
            assert est.forced_local
            assert not est.offloadable
            assert est.w is None
            assert math.isinf(est.min_rate_bps)

    def test_infeasible_marked_when_band_too_small(self):
        # one narrow PRB cannot reach the rate target anywhere
        s = build_scenario(ScenarioConfig(num_prbs=1, bandwidth_hz=2e4), seed=0)
        ests = estimate_loads(s, channel_gains(s))
        assert all(est.infeasible for est in ests)
        for est in ests:
            assert est.w is None and not est.forced_local

    def test_demand_vector_alignment(self):
        # callers index the estimate list by UE id to read PRB demands
        s = build_scenario(ScenarioConfig(), seed=1)
        ests = estimate_loads(s, channel_gains(s))
        w = [est.w for est in ests]
        assert len(w) == 9
        for est in ests:
            assert ests[est.ue] == est
            assert w[est.ue] == est.w

    @pytest.mark.parametrize("overrides, column", [
        # the even-split server time, 1e9 cycles over 1e-314/9 Hz
        ({"mec_ghz": 1e-323}, "t_exe_est_s"),
        # the rate target, 8e303 bits over a 1e-7 s slack
        ({"n_cells": 1, "mec_ghz": 1.0000001, "local_ghz": 1.0, "input_kb": 1e300},
         "min_rate_bps"),
    ])
    def test_overflow_is_inf_without_a_warning(self, overrides, column):
        # plain float division overflows to inf silently, and warnings
        # are errors here
        s = build_scenario(ScenarioConfig().with_overrides(**overrides), seed=0)
        gains = channel_gains(s)
        loads = estimate_loads(s, gains)
        assert np.isinf(getattr(loads, column)).all()
        assert not loads.offloadable.any()
        assert list(loads) == scalar_loads(s, gains)

    def test_arrays_are_read_only(self):
        s = build_scenario(ScenarioConfig(), seed=0)
        loads = estimate_loads(s, channel_gains(s))
        with pytest.raises(ValueError, match="read-only"):
            loads.w[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            loads.local_overhead[:] = 0.0
        assert loads.w[0] >= 1

    def test_a_forced_local_cell_is_sized_afresh_on_each_call(self):
        # estimate_loads keeps nothing: only cell_plan shares a config's sizing
        cfg = ScenarioConfig(n_cells=160, mec_ghz=25.0)
        s = build_scenario(cfg, seed=0)
        gains = channel_gains(s)
        a, b = estimate_loads(s, gains), estimate_loads(s, gains)
        assert a is not b and a.forced_local.all()
        for name, column in vars(a).items():
            other = getattr(b, name)
            assert column is not other and column.tobytes() == other.tobytes(), name
        assert cfg._plan is None and gains._plan is None

    def test_gains_meet_the_link_budget_before_sizing(self, monkeypatch):
        # gains that channel_gains(s) made were checked when h was filled;
        # any other matrix (hand-built, or made for another scenario) is
        # checked once the cell has a UE to size, and one past the budget
        # raises instead of scoring a silent nan in the colouring
        checks = []
        check = load_estimation._check_link_budget
        monkeypatch.setattr(load_estimation, "_check_link_budget",
                            lambda s, h: checks.append(s) or check(s, h))
        s = build_scenario(ScenarioConfig(n_cells=3), seed=0)
        own = channel_gains(s)
        estimate_loads(s, own)
        assert checks == []
        h = own.h.copy()
        h[0, 0] = 1e300
        with pytest.raises(InvalidConfig, match="received SNR"):
            estimate_loads(s, ChannelGains(h=h))
        other = replace(s, reuse_lambda=2.0)
        assert estimate_loads(other, own).w.tolist() == estimate_loads(s, own).w.tolist()
        assert checks == [s, other]
        forced = build_scenario(ScenarioConfig(n_cells=3, mec_ghz=1.0), seed=0)
        assert estimate_loads(forced, ChannelGains(h=h)).forced_local.all()
        assert checks == [s, other]

    @pytest.mark.parametrize("shape", [(3, 4), (2, 2), (4, 4), (3,)])
    def test_gains_of_another_shape_are_rejected(self, shape):
        # h must be (n_cells, n_cells): no scheme prices some of its rows
        # or stops on a numpy error; a cell whose UEs are all forced local
        # still reads no gain
        s = build_scenario(ScenarioConfig(n_cells=3), seed=0)
        gains = ChannelGains(h=np.full(shape, 1e-9))
        expected = re.escape(f"h has shape {shape}, expected (3, 3)")
        for name in SCHEME_NAMES:
            with pytest.raises(InvalidConfig, match=expected):
                run_scheme(name, s, gains)
        forced = build_scenario(ScenarioConfig(n_cells=3, mec_ghz=1.0), seed=0)
        for name in SCHEME_NAMES:
            assert not run_scheme(name, forced, gains).decision.offload_set


# the regimes the property draws, as the even server share over the handset
# speed: below 1 every UE is forced local, at the exact tie the slack is 0 up
# to rounding, and above 2 UEs offload unless one narrow PRB makes every
# rate target unreachable
REGIMES = ("forced", "tie", "infeasible", "offloadable")


@settings(max_examples=120)
@given(
    regime=st.sampled_from(REGIMES),
    n_cells=st.integers(1, 12),
    local_ghz=st.floats(0.1, 3.0),
    ratio=st.floats(0.05, 0.95),
    gamma_t=st.floats(0.0, 1.0),
    shadowing_db=st.sampled_from([0.0, 8.0]),
    seed=st.integers(0, 10_000),
)
def test_loads_match_scalar_loop(
    regime, n_cells, local_ghz, ratio, gamma_t, shadowing_db, seed
):
    share = {"forced": ratio, "tie": 1.0}.get(regime, 2.0 + 20.0 * ratio)
    cfg = ScenarioConfig(
        n_cells=n_cells, local_ghz=local_ghz, mec_ghz=share * local_ghz * n_cells,
        gamma_t=gamma_t, gamma_e=1.0 - gamma_t, shadowing_db=shadowing_db,
    )
    if regime == "infeasible":
        cfg = replace(cfg, num_prbs=1, bandwidth_hz=2e3)
    s = build_scenario(cfg, seed=seed)
    gains = channel_gains(s)
    loads = estimate_loads(s, gains)
    want = scalar_loads(s, gains)
    if regime == "forced":
        assert loads.forced_local.all()
    elif regime == "infeasible":
        assert loads.infeasible.all()
    elif regime == "offloadable":
        assert loads.offloadable.any()

    local_time, _, local_overhead = zip(*map(scalar_local, s.ues))
    columns = {
        "local_time_s": list(local_time),
        "local_overhead": list(local_overhead),
        "t_exe_est_s": [e.t_exe_est_s for e in want],
        "min_rate_bps": [e.min_rate_bps for e in want],
        "w": [e.w or 0 for e in want],
        "forced_local": [e.forced_local for e in want],
        "infeasible": [e.infeasible for e in want],
        "offloadable": [e.offloadable for e in want],
    }
    for name, column in columns.items():
        assert getattr(loads, name).tolist() == column, name
    assert len(loads) == len(want)
    for i, record in enumerate(want):
        assert isinstance(loads[i], LoadEstimate)
        assert loads[i] == record
    assert list(loads) == want
