"""Decision pipeline: orthogonal pricing, initial guess, full evaluation,
greedy refinement, and the reference schemes."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from mecoffload import decision_engine, load_estimation, radio, scenario
from mecoffload.cli import main
from mecoffload.cpu_allocation import allocate_equal, allocate_minmax, allocate_minsum
from mecoffload.decision_engine import (
    SCHEME_NAMES,
    SCHEME_OBJECTIVE,
    cell_plan,
    evaluate,
    greedy_reallocate,
    initial_decision,
    orthogonal_estimate,
    run_baseline,
    run_proposed,
    run_scheme,
)
from mecoffload.errors import InvalidConfig
from mecoffload.load_estimation import Loads, estimate_loads, prb_rate
from mecoffload.radio import OffloadDecision, PrbAssociation, interference_table
from mecoffload.scenario import (
    ChannelGains,
    ScenarioConfig,
    build_scenario,
    channel_gains,
    tx_powers,
)

from _oracles import loop_orthogonal_rates, ue_offload_cost
from test_scenario import make_ue, manual_scenario

# single full-band user: 100 PRBs at 200 kHz each, P*h/noise = 0.01 per PRB
FULL_BAND_RATE = 287105.8595414008

# serving gain 100 m from the cell, matches the frozen scenario value
H_100M = 3.981071705534973e-11


def built(n=9, seed=0, **overrides):
    cfg = ScenarioConfig(n_cells=n, **overrides)
    s = build_scenario(cfg, seed=seed)
    return s, channel_gains(s)


def fake_loads(n, w=1, **columns):
    """Loads for n offloadable UEs: w PRBs each, local time 1 s and
    overhead 0.55 (1 s and 0.1 J at equal weights); keyword arrays replace
    columns."""
    arrays = dict(
        local_time_s=np.full(n, 1.0), local_overhead=np.full(n, 0.55), t_exe_est_s=np.full(n, 0.01),
        min_rate_bps=np.full(n, 1e6), w=np.full(n, w, dtype=np.int64),
        forced_local=np.zeros(n, dtype=bool), infeasible=np.zeros(n, dtype=bool),
        offloadable=np.ones(n, dtype=bool),
    )
    arrays.update(columns)
    return Loads(**arrays)


class TestOrthogonalEstimate:
    def test_equal_demand_splits_band_evenly(self):
        s = manual_scenario([(0.0, 0.0)] * 4, [(0.0, 0.0)] * 4)
        gains = ChannelGains(h=np.diag([1e-10] * 4))
        estimates = fake_loads(4, w=3)
        report = orthogonal_estimate(estimates, [0, 1, 2, 3], s, gains)
        assert sorted(report) == [0, 1, 2, 3]
        for i, overhead in report.items():
            # a quarter of the 100-PRB band each, the whole server per cell
            rate = prb_rate(25.0, 1e-10, s.radio, s.ues[i].tx_power_w)
            assert overhead == ue_offload_cost(s.ues[i], rate, 1e11 / 4)[3]

    def test_single_user_full_band_rate(self):
        s = manual_scenario([(0.0, 0.0)], [(0.0, 0.0)])
        gains = ChannelGains(h=np.array([[1e-12]]))
        report = orthogonal_estimate(fake_loads(1, w=5), [0], s, gains)
        rate = prb_rate(100.0, 1e-12, s.radio, s.ues[0].tx_power_w)  # whole band
        assert rate == pytest.approx(FULL_BAND_RATE, rel=1e-12)
        t_off, e_off, t_exe, overhead = ue_offload_cost(s.ues[0], rate, 1e11)
        assert report == {0: overhead}
        # composition identities
        bits = s.ues[0].task.input_bits
        assert t_off == pytest.approx(bits / FULL_BAND_RATE, rel=1e-12)
        assert e_off == pytest.approx(0.1 * bits / FULL_BAND_RATE, rel=1e-12)
        assert t_exe == pytest.approx(0.01, rel=1e-12)
        assert overhead == pytest.approx(0.5 * (t_off + 0.01) + 0.5 * e_off, rel=1e-12)

    def test_time_only_weights_drop_energy_term(self):
        s = manual_scenario([(0.0, 0.0)], ues=[make_ue(wt=1.0, we=0.0)])
        ue = s.ues[0]
        gains = ChannelGains(h=np.array([[1e-10]]))
        overhead = orthogonal_estimate(fake_loads(1), [0], s, gains)[0]
        rate = prb_rate(100.0, 1e-10, s.radio, ue.tx_power_w)
        t_off, _, t_exe, want = ue_offload_cost(ue, rate, 1e11)
        assert overhead == want
        assert overhead == pytest.approx(t_off + t_exe, rel=1e-12)

    def test_a_share_without_a_float_rate_prices_out_alone(self):
        # UE 1's signal is so weak that 1 + SNR rounds to 1: its rate is 0
        # and its estimate +inf, while the others price as if all were live
        s = manual_scenario([(0.0, 0.0)] * 3, [(0.0, 0.0)] * 3)
        gains = ChannelGains(h=np.diag([1e-10, 1e-300, 1e-10]))
        report = orthogonal_estimate(fake_loads(3, w=3), [0, 1, 2], s, gains)
        assert report[1] == math.inf
        rate = prb_rate(100 * 3 / 9, 1e-10, s.radio, s.ues[0].tx_power_w)
        for i in (0, 2):
            assert report[i] == ue_offload_cost(s.ues[i], rate, 1e11 / 3)[3]

    def test_a_share_whose_rate_overflows_prices_out(self):
        # two UEs on one PRB: UE 0's half-PRB SNR overflows to an infinite
        # rate, a dead uplink as in price, not a free upload; the coloured
        # pipeline rates it finite, and the greedy adds it back
        s, gains = built(n=2, seed=1, num_prbs=1, pl0_db=-3000.0)
        plan = cell_plan(s, gains)
        assert plan.report[0] == math.inf and math.isfinite(plan.report[1])
        assert plan.a0.a == (0, 1)
        assert run_scheme("proposed_minsum", s, gains).decision.a == (1, 1)

    def test_empty_set_rejected(self):
        s = manual_scenario([(0.0, 0.0)], [(0.0, 0.0)])
        gains = ChannelGains(h=np.array([[1e-10]]))
        with pytest.raises(ValueError, match="cannot estimate over an empty offload set"):
            orthogonal_estimate(fake_loads(1), [], s, gains)

    def test_non_offloadable_member_rejected(self):
        # UE 1 is forced local: it has no PRB demand to share the band by
        s = manual_scenario([(0.0, 0.0)] * 2, [(0.0, 0.0)] * 2)
        gains = ChannelGains(h=np.diag([1e-10] * 2))
        estimates = fake_loads(
            2, w=np.array([3, 0]), forced_local=np.array([False, True]),
            offloadable=np.array([True, False]),
        )
        with pytest.raises(ValueError, match="UE 1 "):
            orthogonal_estimate(estimates, [0, 1], s, gains)

    @pytest.mark.parametrize("ids", [[-1], [3], [-1, 1], [0, 3]])
    def test_ids_outside_the_cells_rejected(self, ids):
        # a negative id must not index from the end and price UE N-1
        s, gains = built(n=3)
        estimates = estimate_loads(s, gains)
        assert estimates.offloadable.all()
        bad = min(ids) if min(ids) < 0 else max(ids)
        with pytest.raises(ValueError, match=rf"UE id {bad} lies outside 0\.\.2"):
            orthogonal_estimate(estimates, ids, s, gains)

    def test_repeated_ids_rejected(self):
        # a repeat would count its UE's demand twice and misprice it
        s, gains = built(n=3)
        estimates = estimate_loads(s, gains)
        with pytest.raises(ValueError, match=r"UE ids \[0, 0, 1\] are not ascending and unique"):
            orthogonal_estimate(estimates, [0, 0, 1], s, gains)


class TestInitialDecision:
    def test_strict_improvement_offloads_tie_stays_local(self):
        estimates = fake_loads(3)  # local cost 0.55 each
        report = {0: 0.54, 1: 0.55}
        decision = initial_decision(estimates, report)
        assert decision.a == (1, 0, 0)  # strict win, exact tie, not a member


class TestEvaluate:
    def test_all_local_costs_sum_of_local_overheads(self):
        s, gains = built()
        estimates = estimate_loads(s, gains)
        out = evaluate(OffloadDecision.all_local(9), s, gains, "minsum", estimates)
        assert out.system_overhead == pytest.approx(
            sum(estimates.local_overhead), rel=1e-12
        )
        assert out.cpu is None
        assert not out.rates_bps.any()
        assert not out.assoc.m.any()
        np.testing.assert_allclose(
            out.per_ue_overhead,
            estimates.local_overhead,
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

        ref = ue_offload_cost(s.ues[0], float(out.rates_bps[0]), 1e11)
        assert out.t_off_s[0] == ref[0]
        assert out.e_off_j[0] == ref[1]
        assert out.per_ue_overhead[0] == ref[3]
        assert out.system_overhead == ref[3]
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
        assert out.t_off_s[1] > estimates.local_time_s[1]
        assert out.cpu is None
        assert math.isinf(out.system_overhead)
        assert not out.feasible

    def test_dead_uplinks_price_out_and_live_ones_keep_their_upload_cost(self):
        # a nan, zero or infinite rate is a dead uplink: no server split is
        # made, and only the live uplinks are priced
        s, gains = built(n=4)
        estimates = estimate_loads(s, gains)
        decision = OffloadDecision.from_set(range(4), 4)
        rates = np.array([2e6, math.nan, 0.0, math.inf])
        empty = PrbAssociation.empty(4, s.radio.num_prbs)
        out = decision_engine.price(decision, (empty, rates), s, estimates, "minsum")
        ref = ue_offload_cost(s.ues[0], 2e6, 1.0)
        assert (out.t_off_s[0], out.e_off_j[0]) == (ref[0], ref[1])
        assert np.isinf(out.t_off_s[1:]).all() and np.isinf(out.e_off_j[1:]).all()
        assert np.isinf(out.per_ue_overhead).all()
        assert out.cpu is None

    @pytest.mark.parametrize("offs", [(), (0,), (4,)])
    def test_a_decision_sized_for_another_scenario_rejected(self, offs):
        # a 5-UE decision on 3 cells would price 3-entry arrays, or index
        # past them, or return the 3-cell all-local outcome
        s, gains = built(n=3)
        estimates = cell_plan(s, gains).estimates
        decision = OffloadDecision.from_set(offs, 5)
        uplink = (PrbAssociation.empty(3, s.radio.num_prbs), np.zeros(3))
        with pytest.raises(ValueError, match="a decision over 5 UEs for a scenario of 3"):
            evaluate(decision, s, gains, "minsum", estimates)
        with pytest.raises(ValueError, match="a decision over 5 UEs for a scenario of 3"):
            decision_engine.price(decision, uplink, s, estimates, "minsum")

    @pytest.mark.parametrize("offs", [(), (0,)])
    def test_an_unknown_cpu_mode_rejected(self, offs):
        # whether or not anyone offloads, and on the plan's all-local outcome
        s, gains = built(n=3)
        estimates = cell_plan(s, gains).estimates
        decision = OffloadDecision.from_set(offs, 3)
        uplink = (PrbAssociation.empty(3, s.radio.num_prbs), np.full(3, 1e6))
        with pytest.raises(ValueError, match="unknown cpu_mode 'fast'"):
            evaluate(decision, s, gains, "fast", estimates)
        with pytest.raises(ValueError, match="unknown cpu_mode 'fast'"):
            decision_engine.price(decision, uplink, s, estimates, "fast")

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
            sum(estimates.local_overhead), rel=1e-12
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
            estimates.local_overhead[0], rel=1e-12
        )

    def test_keeps_flip_that_pays(self):
        s = manual_scenario([(0.0, 0.0)], [(100.0, 0.0)])
        gains = channel_gains(s)
        out = run_proposed(s, gains, "minsum")
        assert out.decision.n_offload == 1
        assert out.system_overhead < estimate_loads(s, gains).local_overhead[0]


class TestBaselines:
    def test_all_local(self):
        s, gains = built()
        out = run_baseline("all_local", s, gains)
        estimates = estimate_loads(s, gains)
        assert out.decision.n_offload == 0
        assert out.cpu is None
        assert out.system_overhead == pytest.approx(
            sum(estimates.local_overhead), rel=1e-12
        )

    def test_orthogonal_single_user_matches_proposed(self):
        # one UE gets the whole band either way and the server is uncontended,
        # so the orthogonal baseline and the greedy scheme must agree
        s = manual_scenario([(0.0, 0.0)], [(100.0, 0.0)])
        gains = channel_gains(s)
        orth = run_baseline("all_offload_orth", s, gains)
        prop = run_proposed(s, gains, "minsum")
        assert orth.decision.a == (1,)
        assert orth.assoc.m[0] == 100
        assert not interference_table(orth.assoc, gains, tx_powers(s)).any()
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

    @pytest.mark.parametrize("overrides", [{}, {"num_prbs": 3}])
    def test_orthogonal_rates_equal_per_row_loop(self, overrides):
        # one held_rate table call over the candidates' rows sums each row
        # as the per-row call does; the narrow band fits 3 cells only
        fits = set()
        for n in (3, 5, 7, 9):
            for seed in range(10):
                s, gains = built(n=n, seed=seed, **overrides)
                out = run_baseline("all_offload_orth", s, gains)
                want = loop_orthogonal_rates(s, gains, estimate_loads(s, gains))
                assert out.rates_bps.tobytes() == want.tobytes()
                fits.add(bool(want.any()))
        assert fits == ({True, False} if overrides else {True})

    def test_a_hand_built_gain_past_the_link_budget_is_refused(self):
        # a serving gain past the link budget (the CLI's scenarios never
        # reach one) would overflow every SNR of UE 0 to inf, and the
        # colouring's scorer would meet inf - inf; the load estimate checks
        # the matrix first, so every scheme raises before anything is sized
        s, gains = built(n=3, seed=0)
        h = gains.h.copy()
        h[0, 0] = 1e300
        gains = ChannelGains(h=h)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for name in SCHEME_NAMES:
                with pytest.raises(InvalidConfig, match="received SNR"):
                    run_scheme(name, s, gains)
        assert not caught
        assert gains._plan is None

    def test_equal_cpu_splits_server_evenly(self):
        s, gains = built()
        out = run_scheme("equal_cpu", s, gains)
        if out.decision.n_offload:
            shares = set(out.cpu.f.values())
            assert max(shares) == pytest.approx(min(shares), rel=1e-12)


class TestRunScheme:
    def test_objective_kind_per_scheme(self):
        # SCHEME_OBJECTIVE names the server split each scheme applies
        solvers = {
            "minmax": allocate_minmax,
            "minsum": allocate_minsum,
            "equal": allocate_equal,
        }
        assert SCHEME_OBJECTIVE == {
            "proposed_minmax": "minmax",
            "proposed_minsum": "minsum",
            "all_local": "none",
            "all_offload_orth": "equal",
            "equal_cpu": "equal",
        }
        s, gains = built()
        estimates = estimate_loads(s, gains)
        for name in SCHEME_NAMES:
            out = run_scheme(name, s, gains)
            rule = SCHEME_OBJECTIVE[name]
            if rule == "none":
                assert out.cpu is None
                continue
            ids = np.array(out.decision.offload_set)
            caps = estimates.local_time_s[ids] - out.t_off_s[ids]
            want = solvers[rule](ids, s.cycles[ids], caps, s.mec_capacity_hz)
            assert out.cpu.f == want.f

    def test_schemes_build_no_load_records(self, monkeypatch):
        # the pipeline reads the Loads arrays; LoadEstimate records are
        # built only when a caller indexes or iterates
        records = []
        record = load_estimation.LoadEstimate

        def counted(*args, **kwargs):
            records.append(kwargs["ue"])
            return record(*args, **kwargs)

        monkeypatch.setattr(load_estimation, "LoadEstimate", counted)
        saturated = built(n=160, mec_ghz=25.0)  # every UE forced local
        assert estimate_loads(*saturated)[3].forced_local
        assert records == [3]
        records.clear()
        for s, gains in (saturated, built(), built(n=40, mec_ghz=100 * 40 / 9)):
            for name in SCHEME_NAMES:
                run_scheme(name, s, gains)
        assert records == []

    def test_pipeline_builds_no_ue_records(self, monkeypatch):
        # the scenario draw, the gains and every scheme read the scenario's
        # columns and the Loads arrays: building a per-UE record fails here
        def refuse(*args, **kwargs):
            raise AssertionError("a per-UE record was built")

        for module, name in (
            (scenario, "Ue"), (scenario, "Task"), (load_estimation, "LoadEstimate"),
        ):
            monkeypatch.setattr(module, name, refuse)
        for n, mec_ghz in ((9, 100.0), (160, 50.0)):
            s, gains = built(n=n, mec_ghz=mec_ghz)
            for name in SCHEME_NAMES:
                run_scheme(name, s, gains)
        with pytest.raises(AssertionError, match="per-UE record"):
            s.ues  # the records are still built on access

    def test_schemes_never_call_the_rate_checker(self, monkeypatch, capsys):
        # every scheme prices with held_rate alone: the from-scratch rebuild
        # in radio is the checker the tests hold them to, not a step of theirs
        def refuse(*args, **kwargs):
            raise AssertionError("a scheme called the rate checker")

        checker = ("interference_table", "per_prb_power", "uplink_rate")
        for name in checker:
            monkeypatch.setattr(radio, name, refuse)
        monkeypatch.setattr(decision_engine, "interference_table", refuse)
        fits = [built(n=n, seed=seed) for n in (3, 9) for seed in range(3)]
        narrow, slow = built(num_prbs=3), built(mec_ghz=5.0)
        for s, gains in fits + [narrow, slow]:
            for name in SCHEME_NAMES:
                run_scheme(name, s, gains)
        for s, gains in fits:
            assert run_baseline("all_offload_orth", s, gains).rates_bps.any()
        assert math.isinf(run_baseline("all_offload_orth", *narrow).system_overhead)
        assert not cell_plan(*slow).report
        assert main("sweep --scheme all --vary cells --values 3,9 --seeds 0..2".split()) == 0
        assert capsys.readouterr().out.count("all_offload_orth") == 6

    def test_schemes_and_cli_never_read_the_decision_row(self, monkeypatch, capsys):
        # a decision is its offload set; the 0/1 row a is derived for the
        # checkers and the bench, and no scheme or CLI path reads it
        def refuse(self):
            raise AssertionError("a scheme or CLI path read the decision row")

        monkeypatch.setattr(OffloadDecision, "a", property(refuse))
        cells = [built(n=n, seed=seed) for n in (3, 9) for seed in range(3)]
        cells += [built(n=160, mec_ghz=100.0 * 160 / 9), built(n=160)]
        for s, gains in cells:
            for name in SCHEME_NAMES:
                run_scheme(name, s, gains)
        assert run_proposed(*cells[-2], "minsum").decision.n_offload
        assert main("sweep --scheme all --vary cells --values 3,9 --seeds 0..2".split()) == 0
        assert main("run --seed 0 --scheme all --detail".split()) == 0
        assert "# cell 0: " in capsys.readouterr().out

    def test_forced_local_cells_never_build_the_gain_matrix(self, monkeypatch, capsys):
        # with no candidate no stage reads a gain: the load estimate sizes
        # no UE, and no scheme colours, rates or splits an uplink
        def refuse(s):
            raise AssertionError("a forced-local cell built its gain matrix")

        monkeypatch.setattr(scenario, "gain_matrix", refuse)
        forced = (
            built(n=160, mec_ghz=50.0), built(n=9, mec_ghz=5.0),
            built(n=9, mec_ghz=5.0, shadowing_db=8.0),
        )
        for s, gains in forced:
            for name in SCHEME_NAMES:
                assert run_scheme(name, s, gains).decision.n_offload == 0
        assert main("sweep --scheme all --vary mec_ghz --values 5 --seeds 0..2".split()) == 0
        assert capsys.readouterr().out.count("all_offload_orth") == 3

    def test_a_cell_with_candidates_builds_its_gain_matrix_once(self, monkeypatch):
        calls = []
        fill = scenario.gain_matrix
        monkeypatch.setattr(scenario, "gain_matrix", lambda s: calls.append(s) or fill(s))
        # with shadowing on or off, at the first read of gains.h
        cells = [dict(n=n, seed=seed) for n in (3, 9) for seed in range(3)]
        for overrides in cells + [dict(shadowing_db=8.0)]:
            s, gains = built(**overrides)
            for name in SCHEME_NAMES:
                run_scheme(name, s, gains)
            assert cell_plan(s, gains).report
            assert calls == [s]
            calls.clear()

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


def counting(monkeypatch, name):
    """Count the calls of decision_engine's `name`, where the engine looks
    it up."""
    calls = []
    fn = getattr(decision_engine, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(decision_engine, name, counted)
    return calls


class TestCellPlan:
    def test_plan_holds_the_cells_sizing_read_only(self):
        # one call each per cell is checked under the bench tracer
        # (test_bench_contract.py)
        s, gains = built()
        for name in SCHEME_NAMES:
            run_scheme(name, s, gains)
        plan = cell_plan(s, gains)
        assert plan.estimates.w.tobytes() == estimate_loads(s, gains).w.tobytes()
        candidates = np.flatnonzero(plan.estimates.offloadable).tolist()
        assert list(plan.report) == candidates  # in ascending order
        assert dict(plan.report) == orthogonal_estimate(plan.estimates, candidates, s, gains)
        with pytest.raises(TypeError):
            plan.report[candidates[0]] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.a0 = None
        local = plan.local
        assert local.decision == OffloadDecision.all_local(s.n_cells)
        assert run_scheme("all_local", s, gains) is local
        shared = (local.assoc.c, local.assoc.m, local.rates_bps, local.t_off_s,
                  local.e_off_j, local.per_ue_overhead)
        for array in shared:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.local = None

    def test_a_cell_prices_its_all_local_outcome_once(self, monkeypatch):
        calls = counting(monkeypatch, "price")
        cfg = ScenarioConfig(n_cells=160, mec_ghz=25.0)  # every UE forced local
        s = scenario.build_scenario(cfg, seed=0)
        gains = scenario.channel_gains(s)
        outs = [run_scheme(name, s, gains) for name in SCHEME_NAMES]
        plan = cell_plan(s, gains)
        assert not plan.report
        assert len(calls) == 1
        assert all(out is plan.local for out in outs)
        # a later cell of the config prices nothing: it shares the outcome
        s = scenario.build_scenario(cfg, seed=1)
        gains = scenario.channel_gains(s)
        assert all(run_scheme(name, s, gains) is plan.local for name in SCHEME_NAMES)
        assert len(calls) == 1 and cell_plan(s, gains).a0 == plan.local.decision
        # with candidates, all_local reads what the plan priced
        calls.clear()
        s, gains = built()
        plan = cell_plan(s, gains)
        assert plan.report
        for _ in range(2):
            assert run_scheme("all_local", s, gains) is plan.local
        assert len(calls) == 1

    def test_one_orthogonal_estimate_whichever_scheme_runs_first(self, monkeypatch):
        calls = counting(monkeypatch, "orthogonal_estimate")
        for first in SCHEME_NAMES:
            s, gains = built()
            run_scheme(first, s, gains)
            plan = cell_plan(s, gains)
            estimates = estimate_loads(s, gains)
            report = orthogonal_estimate(estimates, list(plan.report), s, gains)
            assert dict(plan.report) == report, first
            assert plan.a0 == initial_decision(estimates, report), first
            for name in SCHEME_NAMES:
                run_scheme(name, s, gains)
            assert len(calls) == 1, first
            calls.clear()

    def test_another_scenario_with_the_same_gains_gets_its_own_plan(self, monkeypatch):
        calls = counting(monkeypatch, "estimate_loads")
        s, gains = built()
        slow = dataclasses.replace(s, mec_capacity_hz=5e9)  # forces every UE local
        first = run_scheme("proposed_minsum", s, gains)
        assert cell_plan(s, gains).report
        assert run_scheme("proposed_minsum", slow, gains).decision.n_offload == 0
        assert not cell_plan(slow, gains).report
        assert [c[0] for c in calls] == [s, slow]
        # the first scenario is sized again, and prices as it did
        again = run_scheme("proposed_minsum", s, gains)
        assert [c[0] for c in calls] == [s, slow, s]
        assert again.system_overhead == first.system_overhead
        assert again.per_ue_overhead.tobytes() == first.per_ue_overhead.tobytes()
