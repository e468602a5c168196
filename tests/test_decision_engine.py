"""Decision pipeline: orthogonal pricing, initial guess, full evaluation,
greedy refinement, and the reference schemes."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mecoffload.compute_model import (
    LocalOverhead,
    OffloadOverhead,
    local_overhead,
    offload_overhead,
)
from mecoffload.decision_engine import (
    SCHEME_NAMES,
    evaluate,
    greedy_reallocate,
    initial_decision,
    orthogonal_estimate,
    run_baseline,
    run_proposed,
    run_scheme,
)
from mecoffload.errors import EmptyOffloadSet
from mecoffload.load_estimation import LoadEstimate, estimate_loads, prb_rate
from mecoffload.radio import OffloadDecision, interference_table
from mecoffload.scenario import (
    ChannelGains,
    ScenarioConfig,
    build_scenario,
    channel_gains,
    tx_powers,
)

from test_scenario import manual_scenario

# single full-band user: 100 PRBs at 200 kHz each, P*h/noise = 0.01 per PRB
FULL_BAND_RATE = 287105.8595414008

# serving gain 100 m from the cell, matches the frozen scenario value
H_100M = 3.981071705534973e-11


def built(n=9, seed=0, **overrides):
    cfg = ScenarioConfig(n_cells=n, **overrides)
    s = build_scenario(cfg, seed=seed)
    return s, channel_gains(s)


def fake_estimate(ue, w=1, local=None, t_exe=0.01):
    local = local or LocalOverhead(time_s=1.0, energy_j=0.1, overhead=0.55)
    return LoadEstimate(
        ue=ue, local=local, t_exe_est_s=t_exe, min_rate_bps=1e6, w=w,
        forced_local=False, infeasible=False,
    )


class TestOrthogonalEstimate:
    def test_equal_demand_splits_band_evenly(self):
        s = manual_scenario([(0.0, 0.0)] * 4, [(0.0, 0.0)] * 4)
        gains = ChannelGains(h=np.diag([1e-10] * 4))
        estimates = [fake_estimate(i, w=3) for i in range(4)]
        report = orthogonal_estimate(estimates, [0, 1, 2, 3], s, gains)
        assert sorted(report) == [0, 1, 2, 3]
        for i, hypo in report.items():
            # a quarter of the 100-PRB band each
            want = prb_rate(25.0, 1e-10, s.radio, s.ues[i].tx_power_w)
            assert hypo.rate_bps == pytest.approx(want, rel=1e-12)

    def test_single_user_full_band_rate(self):
        s = manual_scenario([(0.0, 0.0)], [(0.0, 0.0)])
        gains = ChannelGains(h=np.array([[1e-12]]))
        report = orthogonal_estimate([fake_estimate(0, w=5)], [0], s, gains)
        hypo = report[0]
        want = prb_rate(100.0, 1e-12, s.radio, s.ues[0].tx_power_w)  # whole band
        assert hypo.rate_bps == pytest.approx(want, rel=1e-12)
        assert hypo.rate_bps == pytest.approx(FULL_BAND_RATE, rel=1e-12)
        # composition identities
        bits = s.ues[0].task.input_bits
        assert hypo.t_off_s == pytest.approx(bits / hypo.rate_bps, rel=1e-12)
        assert hypo.e_off_j == pytest.approx(0.1 * bits / hypo.rate_bps, rel=1e-12)
        assert hypo.t_total_s == pytest.approx(hypo.t_off_s + 0.01, rel=1e-12)
        assert hypo.overhead == pytest.approx(
            0.5 * hypo.t_total_s + 0.5 * hypo.e_off_j, rel=1e-12
        )

    def test_time_only_weights_drop_energy_term(self):
        s = manual_scenario([(0.0, 0.0)], [(0.0, 0.0)])
        ue = replace(s.ues[0], weight_time=1.0, weight_energy=0.0)
        s = replace(s, ues=(ue,))
        gains = ChannelGains(h=np.array([[1e-10]]))
        hypo = orthogonal_estimate([fake_estimate(0)], [0], s, gains)[0]
        assert hypo.overhead == pytest.approx(hypo.t_total_s, rel=1e-12)

    def test_empty_set_rejected(self):
        s = manual_scenario([(0.0, 0.0)], [(0.0, 0.0)])
        gains = ChannelGains(h=np.array([[1e-10]]))
        with pytest.raises(EmptyOffloadSet):
            orthogonal_estimate([fake_estimate(0)], [], s, gains)


class TestInitialDecision:
    def test_strict_improvement_offloads_tie_stays_local(self):
        local = LocalOverhead(time_s=1.0, energy_j=0.1, overhead=0.55)
        estimates = [fake_estimate(i, local=local) for i in range(3)]

        def hypo(z):
            return OffloadOverhead(
                rate_bps=1e6, t_off_s=1.0, e_off_j=0.1,
                t_exe_s=0.01, t_total_s=1.01, overhead=z,
            )

        report = {0: hypo(0.54), 1: hypo(0.55)}
        decision = initial_decision(estimates, report)
        assert decision.a == (1, 0, 0)  # strict win, exact tie, not a member


class TestEvaluate:
    def test_all_local_costs_sum_of_local_overheads(self):
        s, gains = built()
        estimates = estimate_loads(s, gains)
        out = evaluate(OffloadDecision.all_local(9), s, gains, "minsum", estimates)
        assert out.system_overhead == pytest.approx(
            sum(est.local.overhead for est in estimates), rel=1e-12
        )
        assert out.objective_kind == "none"
        assert out.cpu is None
        assert not out.rates_bps.any()
        assert not out.assoc.m.any()
        np.testing.assert_allclose(
            out.per_ue_overhead,
            [est.local.overhead for est in estimates],
            rtol=1e-12,
        )

    def test_single_offloader_hand_composition(self):
        s = manual_scenario([(0.0, 0.0)], [(100.0, 0.0)])
        gains = channel_gains(s)
        estimates = estimate_loads(s, gains)
        out = evaluate(OffloadDecision.from_set([0], 1), s, gains, "minsum", estimates)

        # demand doubles under the reuse factor and clamps to the full band
        assert out.assoc.m[0] == 100
        rate = 100 * 2e5 * math.log2(1.0 + 0.1 * H_100M / (100 * 1e-13))
        assert out.rates_bps[0] == pytest.approx(rate, rel=1e-9)

        bits = s.ues[0].task.input_bits
        assert out.t_off_s[0] == pytest.approx(bits / rate, rel=1e-9)
        assert out.e_off_j[0] == pytest.approx(0.1 * bits / rate, rel=1e-9)
        assert out.cpu.f[0] == pytest.approx(1e11, rel=1e-12)

        ref = offload_overhead(s.ues[0], float(out.rates_bps[0]), 1e11)
        assert out.per_ue_overhead[0] == pytest.approx(ref.overhead, rel=1e-12)
        assert out.system_overhead == pytest.approx(ref.overhead, rel=1e-12)
        assert out.feasible

    def test_starved_uplink_blows_deadline_and_prices_infinite(self):
        # UE 0 sits 2 m from cell 1 and buries UE 1's uplink; both look
        # fine in isolation, but jointly UE 1 cannot upload before its
        # local deadline, so no server split can save the decision
        s = manual_scenario([(0.0, 0.0), (30.0, 0.0)], [(28.0, 0.0), (58.0, 0.0)])
        gains = channel_gains(s)
        estimates = estimate_loads(s, gains)
        assert all(est.offloadable for est in estimates)
        out = evaluate(OffloadDecision.from_set([0, 1], 2), s, gains, "minsum", estimates)
        assert out.rates_bps[1] > 0  # alive but hopeless
        assert out.t_off_s[1] > estimates[1].local.time_s
        assert out.cpu is None
        assert math.isinf(out.system_overhead)
        assert not out.feasible

    def test_offloading_a_non_candidate_prices_infinite(self):
        # server so slow the even-split estimate kills every candidate
        s, gains = built(mec_ghz=1.0)
        estimates = estimate_loads(s, gains)
        assert not any(est.offloadable for est in estimates)
        out = evaluate(OffloadDecision.from_set([0], 9), s, gains, "minsum", estimates)
        assert math.isinf(out.system_overhead)
        assert out.cpu is None


class TestGreedy:
    def test_never_worse_than_start(self):
        for seed in range(20):
            s, gains = built(seed=seed)
            estimates = estimate_loads(s, gains)
            candidates = [e.ue for e in estimates if e.offloadable]
            report = orthogonal_estimate(estimates, candidates, s, gains)
            a0 = initial_decision(estimates, report)
            start = evaluate(a0, s, gains, "minsum", estimates)
            out = greedy_reallocate(a0, s, gains, "minsum", estimates, report)
            assert out.system_overhead <= start.system_overhead

    def test_repairs_hopeless_start_back_to_local(self):
        s, gains = built(mec_ghz=1.0)  # nobody can offload
        estimates = estimate_loads(s, gains)
        a_init = OffloadDecision.from_set(range(9), 9)
        # no offloadable UE, so the orthogonal estimate prices nobody
        out = greedy_reallocate(a_init, s, gains, "minsum", estimates, {})
        assert out.feasible
        assert out.decision.n_offload == 0
        assert out.system_overhead == pytest.approx(
            sum(est.local.overhead for est in estimates), rel=1e-12
        )

    def test_rejects_flip_that_does_not_pay(self):
        # at 150 m the uplink barely meets the deadline, so offloading
        # costs more than local even though it is feasible
        s = manual_scenario([(0.0, 0.0)], [(150.0, 0.0)])
        gains = channel_gains(s)
        estimates = estimate_loads(s, gains)
        assert estimates[0].offloadable
        out = run_proposed(s, gains, "minsum")
        assert out.decision.n_offload == 0
        assert out.system_overhead == pytest.approx(
            estimates[0].local.overhead, rel=1e-12
        )

    def test_keeps_flip_that_pays(self):
        s = manual_scenario([(0.0, 0.0)], [(100.0, 0.0)])
        gains = channel_gains(s)
        out = run_proposed(s, gains, "minsum")
        assert out.decision.n_offload == 1
        assert out.system_overhead < local_overhead(s.ues[0]).overhead


class TestBaselines:
    def test_all_local(self):
        s, gains = built()
        out = run_baseline("all_local", s, gains)
        estimates = estimate_loads(s, gains)
        assert out.decision.n_offload == 0
        assert out.objective_kind == "none"
        assert out.system_overhead == pytest.approx(
            sum(est.local.overhead for est in estimates), rel=1e-12
        )

    def test_orthogonal_single_user_matches_proposed(self):
        # one UE gets the whole band either way and the server is uncontended,
        # so the orthogonal baseline and the greedy scheme must agree
        s = manual_scenario([(0.0, 0.0)], [(100.0, 0.0)])
        gains = channel_gains(s)
        orth = run_baseline("all_offload_orth", s, gains)
        prop = run_proposed(s, gains, "minsum")
        assert orth.decision.a == (1,)
        assert orth.objective_kind == "equal"
        assert orth.assoc.m[0] == 100
        assert not interference_table(orth.assoc, gains, tx_powers(s)).o.any()
        assert orth.system_overhead == pytest.approx(
            prop.system_overhead, rel=1e-12
        )

    def test_orthogonal_prices_out_when_band_cannot_hold_everyone(self):
        # 9 users, 3 PRBs: even one PRB each overflows the orthogonal split
        s, gains = built(num_prbs=3)
        estimates = estimate_loads(s, gains)
        assert all(est.offloadable for est in estimates)
        out = run_baseline("all_offload_orth", s, gains)
        assert math.isinf(out.system_overhead)
        assert out.cpu is None
        assert out.decision.n_offload == 9
        assert math.isinf(out.t_off_s[0])

    def test_equal_cpu_splits_server_evenly(self):
        s, gains = built()
        out = run_scheme("equal_cpu", s, gains)
        assert out.objective_kind == "equal"
        if out.decision.n_offload:
            shares = set(out.cpu.f.values())
            assert max(shares) == pytest.approx(min(shares), rel=1e-12)


class TestRunScheme:
    def test_objective_kind_per_scheme(self):
        s, gains = built()
        kinds = {
            "proposed_minmax": "minmax",
            "proposed_minsum": "minsum",
            "all_local": "none",
            "all_offload_orth": "equal",
            "equal_cpu": "equal",
        }
        for name in SCHEME_NAMES:
            assert run_scheme(name, s, gains).objective_kind == kinds[name]

    def test_unknown_scheme_rejected(self):
        s, gains = built(n=3)
        with pytest.raises(ValueError):
            run_scheme("fastest", s, gains)

    def test_deterministic(self):
        s, gains = built(seed=4)
        a = run_scheme("proposed_minsum", s, gains)
        b = run_scheme("proposed_minsum", s, gains)
        assert a.system_overhead == b.system_overhead
        assert a.decision.a == b.decision.a
        assert np.array_equal(a.assoc.c, b.assoc.c)
