"""Per-UE demand sizing: rate targets, minimum PRB counts, sentinels."""

import math

import numpy as np
import pytest

from mecoffload.load_estimation import (
    FORCED_LOCAL,
    INFEASIBLE,
    estimate_loads,
    min_prbs,
    min_rate_requirement,
    prb_rate,
)
from mecoffload.scenario import (
    RadioParams,
    ScenarioConfig,
    build_scenario,
    channel_gains,
)

from _oracles import scan_min_prbs
from test_scenario import make_ue

RADIO = RadioParams(bandwidth_hz=20e6, num_prbs=100, noise_per_prb_w=1e-13)


class TestMinRateRequirement:
    def test_reference_values(self):
        # 1e9 cycles, even split of 100 GHz over 9 cells: 0.09 s on the server
        got = min_rate_requirement(make_ue(), mec_capacity_hz=1e11, n_total=9)
        assert got is not FORCED_LOCAL
        t_exe, rate = got
        assert t_exe == pytest.approx(0.09, rel=1e-12)
        assert rate == pytest.approx(2570382.070437567, rel=1e-12)

    def test_forced_local_when_server_slower_than_handset(self):
        # handset at 10 GHz beats a 1e10/9 Hz server share
        ue = make_ue(speed=1e10)
        assert min_rate_requirement(ue, 1e10, 9) is FORCED_LOCAL

    def test_forced_local_at_exact_tie(self):
        # server share exactly equals the handset speed: zero slack
        ue = make_ue(speed=0.7e9)
        assert min_rate_requirement(ue, 0.7e9 * 9, 9) is FORCED_LOCAL


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
        assert min_prbs(make_ue(), 1e-10, RADIO, 2.5e6) == 3

    def test_boundary_inclusive(self):
        target = prb_rate(3, 1e-10, RADIO, 0.1)
        assert min_prbs(make_ue(), 1e-10, RADIO, target) == 3
        assert min_prbs(make_ue(), 1e-10, RADIO, math.nextafter(target, math.inf)) == 4

    def test_single_prb_suffices(self):
        assert min_prbs(make_ue(), 1e-10, RADIO, 1e5) == 1

    def test_infeasible_beyond_band(self):
        # rate saturates near P*H/noise * B/(K ln 2); ask for more
        cap = 0.1 * 1e-10 / 1e-13 * (20e6 / 100) / math.log(2)
        assert min_prbs(make_ue(), 1e-10, RADIO, cap * 1.01) is INFEASIBLE

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            k = int(rng.choice([10, 50, 100]))
            radio = RadioParams(bandwidth_hz=20e6, num_prbs=k, noise_per_prb_w=1e-13)
            snr = 10.0 ** rng.uniform(0, 4)
            gain = snr * radio.noise_per_prb_w / 0.1
            cap_rate = k * radio.prb_bandwidth_hz * math.log2(1 + snr / k)
            target = rng.uniform(0, 1.3) * cap_rate
            want = scan_min_prbs(snr, k, radio.prb_bandwidth_hz, target)
            got = min_prbs(make_ue(), gain, radio, target)
            if want is None:
                assert got is INFEASIBLE
            else:
                assert got == want


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
            assert est.local.overhead == pytest.approx(0.7167357142857143, rel=1e-12)

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
            assert ests[est.ue] is est
            assert w[est.ue] == est.w
