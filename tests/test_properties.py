"""Invariants over generated inputs: the CPU solvers on requests large
enough to pin over several rounds, the proposed pipeline and the
orthogonal estimate on random configurations, and the exit code of `run`
on arbitrary config files.
Examples are derandomized, so every run checks the same cases."""

import collections
import contextlib
import csv
import dataclasses
import gc
import io
import json
import math
import pickle
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mecoffload import decision_engine
from mecoffload.cli import main
from mecoffload.compute_model import upload_cost
from mecoffload.cpu_allocation import allocate_minmax, allocate_minsum
from mecoffload.decision_engine import (
    SCHEME_NAMES,
    SCHEME_OBJECTIVE,
    cell_plan,
    evaluate,
    initial_decision,
    orthogonal_estimate,
    price,
    run_baseline,
    run_scheme,
)
from mecoffload.load_estimation import estimate_loads, prb_rate
from mecoffload.prb_coloring import build_interference_graph
from mecoffload.radio import OffloadDecision, PrbAssociation, uplink_rate
from mecoffload.scenario import (
    ChannelGains,
    ScenarioConfig,
    build_scenario,
    channel_gains,
    draw_positions,
    gain_matrix,
    tx_powers,
)

from _oracles import loop_orthogonal_rates, masked_price, ue_offload_cost
from test_scenario import manual_scenario

REL = 1e-9


@st.composite
def cpu_instances(draw):
    """Feasible requests: the minimum shares take a drawn fraction of the
    budget, each in proportion to its cycles times a drawn weight, so the
    closed-form splits undercut the heaviest weights first and the lighter
    ones in later rounds."""
    n = draw(st.integers(1, 30))
    cycles = draw(st.lists(st.floats(1e8, 5e9), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(1, 50), min_size=n, max_size=n))
    loose = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    budget = draw(st.floats(1e9, 3e11))
    reserved = draw(st.floats(0.3, 0.99)) * budget
    caps = []
    for c, w, free in zip(cycles, weights, loose):
        lower = reserved * c * w / sum(map(math.prod, zip(cycles, weights)))
        caps.append(math.inf if free or lower <= 0 else c / lower)
    return cycles, caps, budget


@settings(max_examples=150)
@given(cpu_instances())
def test_cpu_splits_fill_the_budget_and_meet_every_deadline(instance):
    cycles, caps, budget = instance
    ues = np.arange(len(cycles))
    outs = {}
    for solve in (allocate_minmax, allocate_minsum):
        out = solve(ues, np.array(cycles), np.array(caps), budget)
        assert set(out.f) == set(ues.tolist())
        assert sum(out.f.values()) == pytest.approx(budget, rel=REL)
        for i, (c, cap) in enumerate(zip(cycles, caps)):
            assert c / out.f[i] <= cap * (1 + REL)
        outs[solve] = [c / out.f[i] for i, c in enumerate(cycles)]
    minmax, minsum = outs[allocate_minmax], outs[allocate_minsum]
    assert sum(minsum) <= sum(minmax) * (1 + REL)
    assert max(minmax) <= max(minsum) * (1 + REL)


def _start(s, gains, estimates, cpu_mode):
    """The outcome of the decision the proposed pipeline starts from."""
    candidates = [e.ue for e in estimates if e.offloadable]
    if candidates:
        a0 = initial_decision(estimates, orthogonal_estimate(estimates, candidates, s, gains))
    else:
        a0 = OffloadDecision.all_local(len(s.ues))
    return evaluate(a0, s, gains, cpu_mode, estimates)


@settings(max_examples=60)
@given(
    n_cells=st.integers(1, 12),
    reuse_lambda=st.floats(1.0, 3.0),
    mec_ghz=st.floats(5.0, 300.0),
    seed=st.integers(0, 10_000),
)
def test_proposed_pipeline_invariants(n_cells, reuse_lambda, mec_ghz, seed):
    # every scheme re-prices UE by UE, and reruns to the same outcome; a
    # pipeline scheme never costs more than the decision it starts from
    cfg = ScenarioConfig(n_cells=n_cells, reuse_lambda=reuse_lambda, mec_ghz=mec_ghz)
    s = build_scenario(cfg, seed=seed)
    gains = channel_gains(s)
    estimates = estimate_loads(s, gains)
    powers = tx_powers(s)
    for scheme in SCHEME_NAMES:
        out = run_scheme(scheme, s, gains)
        if scheme not in ("all_local", "all_offload_orth"):
            start = _start(s, gains, estimates, SCHEME_OBJECTIVE[scheme])
            assert out.system_overhead <= start.system_overhead
        offs = out.decision.offload_set
        for i in sorted(set(range(s.n_cells)) - set(offs)):
            assert out.per_ue_overhead[i] == estimates.local_overhead[i]
            assert out.t_off_s[i] == out.e_off_j[i] == 0.0
        for i in offs:
            if out.assoc.m[i]:
                want = uplink_rate(i, out.decision, out.assoc, gains, powers, s.radio)
                assert out.rates_bps[i] == pytest.approx(want, rel=1e-12)
            if out.cpu is not None:
                # the array pricing is the one-UE formula, element for element
                ref = ue_offload_cost(s.ues[i], float(out.rates_bps[i]), out.cpu.f[i])
                assert out.t_off_s[i] == ref[0]
                assert out.e_off_j[i] == ref[1]
                assert out.per_ue_overhead[i] == ref[3]
        assert out.system_overhead == float(out.per_ue_overhead.sum())
        again = run_scheme(scheme, s, gains)
        assert again.decision == out.decision
        assert np.array_equal(again.assoc.c, out.assoc.c)
        assert np.array_equal(again.rates_bps, out.rates_bps)
        assert np.array_equal(again.per_ue_overhead, out.per_ue_overhead)
        assert again.system_overhead == out.system_overhead
        assert (again.cpu is None) == (out.cpu is None)
        if out.cpu is not None:
            assert again.cpu.f == out.cpu.f


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def assert_same_outcome(a, b):
    """Equal field for field, every float to the bit."""
    assert a.decision == b.decision
    assert a.assoc.c.tobytes() == b.assoc.c.tobytes()
    assert a.assoc.m.tobytes() == b.assoc.m.tobytes()
    for name in ("rates_bps", "t_off_s", "e_off_j", "per_ue_overhead", "system_overhead"):
        assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name
    assert (a.cpu is None) == (b.cpu is None)
    if a.cpu is not None:
        assert list(a.cpu.f) == list(b.cpu.f)
        assert _bits(list(a.cpu.f.values())) == _bits(list(b.cpu.f.values()))
        assert _bits(a.cpu.objective) == _bits(b.cpu.objective)


@settings(max_examples=40)
@given(
    n_cells=st.integers(1, 12),
    reuse_lambda=st.floats(1.0, 3.0),
    mec_ghz=st.floats(5.0, 300.0),
    seed=st.integers(0, 10_000),
)
def test_schemes_sharing_a_cell_match_fresh_runs(n_cells, reuse_lambda, mec_ghz, seed):
    # the five schemes of a cell share one (s, gains) pair and its sizing
    # pass; each must still give what it gives on a cell of its own, made
    # from a copy of the config, so that no per-config value is shared
    cfg = ScenarioConfig(n_cells=n_cells, reuse_lambda=reuse_lambda, mec_ghz=mec_ghz)
    s = build_scenario(cfg, seed=seed)
    gains = channel_gains(s)
    shared = {name: run_scheme(name, s, gains) for name in SCHEME_NAMES}
    for name in SCHEME_NAMES:
        fresh_s = build_scenario(dataclasses.replace(cfg), seed=seed)
        assert_same_outcome(shared[name], run_scheme(name, fresh_s, channel_gains(fresh_s)))


def assert_read_only(*objects):
    """Every array attribute of each object is read-only."""
    for obj in objects:
        for name, value in vars(obj).items():
            if isinstance(value, np.ndarray):
                assert not value.flags.writeable, (type(obj).__name__, name)


# a 0.5 GHz server forces every UE local; the others have candidates
_CELLS = {"forced_local": {"mec_ghz": 0.5}, "candidate": {}, "shadowed": {"shadowing_db": 8.0}}


@settings(max_examples=40)
@given(
    cell=st.sampled_from(sorted(_CELLS)),
    n_cells=st.integers(1, 12),
    stage=st.sampled_from(("built", "drawn", "filled", "run")),
    seed=st.integers(0, 10_000),
)
@example(cell="candidate", n_cells=9, stage="run", seed=0)
def test_a_pickled_cell_stays_read_only_and_runs_the_same(cell, n_cells, stage, seed):
    # a config's cell pickles as build_scenario(config, seed) and
    # channel_gains(s): the copies build their arrays read-only again and
    # carry no plan
    s = build_scenario(ScenarioConfig(n_cells=n_cells, **_CELLS[cell]), seed=seed)
    gains = channel_gains(s)
    if stage != "built":
        s.ue_xy
    if stage in ("filled", "run"):
        gains.h
    if stage == "run":
        for name in SCHEME_NAMES:
            run_scheme(name, s, gains)
    copy_s, copy_gains = pickle.loads(pickle.dumps((s, gains)))
    assert copy_gains._scenario is copy_s and copy_gains._plan is None
    assert_read_only(copy_s, copy_gains)
    loads = estimate_loads(copy_s, copy_gains)
    assert loads.forced_local.all() == (cell == "forced_local")
    assert_read_only(copy_s, copy_gains, loads, pickle.loads(pickle.dumps(loads)))
    for name in SCHEME_NAMES:
        assert_same_outcome(run_scheme(name, copy_s, copy_gains), run_scheme(name, s, gains))
    assert_read_only(copy_s, copy_gains)


@settings(max_examples=30)
@given(
    n_cells=st.integers(1, 12),
    mec_hz=st.sampled_from((5e8, 1e11)),  # every UE forced local, or candidates
    run=st.booleans(),
    seed=st.integers(0, 10_000),
)
@example(n_cells=9, mec_hz=1e11, run=True, seed=0)
def test_a_pickled_hand_built_cell_stays_read_only_and_runs_the_same(n_cells, mec_hz, run, seed):
    # a hand-built scenario and gains pickle as their classes called on
    # their fields: the copies hold the same bytes read-only, and no plan
    s = manual_scenario(*draw_positions(120.0, 20.0, seed, n_cells), mec_capacity_hz=mec_hz)
    gains = ChannelGains(h=gain_matrix(s))
    if run:
        for name in SCHEME_NAMES:
            run_scheme(name, s, gains)
    copy_s, copy_gains = pickle.loads(pickle.dumps((s, gains)))
    assert copy_s._config is None and copy_gains._scenario is None
    assert copy_gains._plan is None
    assert_read_only(copy_s, copy_gains)
    for obj, copy in ((s, copy_s), (gains, copy_gains)):
        for f in filter(lambda f: f.init, dataclasses.fields(obj)):
            a, b = getattr(copy, f.name), getattr(obj, f.name)
            if isinstance(b, np.ndarray):
                assert a is not b and a.dtype == b.dtype and a.shape == b.shape, f.name
                assert a.tobytes() == b.tobytes(), f.name
            else:
                assert a == b, f.name
    for name in SCHEME_NAMES:
        assert_same_outcome(run_scheme(name, copy_s, copy_gains), run_scheme(name, s, gains))
    assert_read_only(copy_s, copy_gains)


# the cells above and a 3-PRB band
_CONFIG_CELLS = {**_CELLS, "narrow_band": {"num_prbs": 3}}


@settings(max_examples=40)
@given(
    cell=st.sampled_from(sorted(_CONFIG_CELLS)),
    n_cells=st.integers(1, 12),
    seeds=st.lists(st.integers(0, 10_000), min_size=3, max_size=3, unique=True),
)
@example(cell="forced_local", n_cells=12, seeds=[0, 1, 2])
@example(cell="narrow_band", n_cells=9, seeds=[0, 1, 2])
def test_cells_sharing_a_config_match_cells_of_fresh_configs(cell, n_cells, seeds):
    # the cells build_scenario makes from one config share its checked
    # column table and its first cell's plan: a later cell takes that plan
    # whole when every UE is forced local, and else sizes itself and takes
    # only the all-local outcome; each must give what a cell of a fresh
    # copy of the config gives, and no cell outlives its run
    cfg = ScenarioConfig(n_cells=n_cells, **_CONFIG_CELLS[cell])
    forced = cell == "forced_local"
    plans, cells = [], []
    for seed in seeds:
        s = build_scenario(cfg, seed=seed)
        gains = channel_gains(s)
        with sizing_calls() as calls:
            outs = {name: run_scheme(name, s, gains) for name in SCHEME_NAMES}
        fresh_s = build_scenario(dataclasses.replace(cfg), seed=seed)
        fresh_gains = channel_gains(fresh_s)
        for name in SCHEME_NAMES:
            assert_same_outcome(outs[name], run_scheme(name, fresh_s, fresh_gains))
        plan = cell_plan(s, gains)
        if forced and plans:
            assert plan is plans[0] and not calls
        elif forced:
            # the all-local guess is priced once, and greedy returns it
            assert calls == {"estimate_loads": 1, "initial_decision": 1, "price": 1}
        else:
            assert calls["estimate_loads"] == calls["initial_decision"] == 1
            assert calls["orthogonal_estimate"] == bool(plan.report)
            assert all(plan.estimates is not other.estimates for other in plans)
        assert (plan.a0 == plan.local.decision) == (not plan.a0.offload_set)
        assert_read_only(s, plan.estimates, plan.local)
        assert all(getattr(s, name).base is cfg.ue_table for name in ("cycles", "w_e"))
        plans.append(plan)
        cells.append((s, gains))
    assert not cfg.ue_table.flags.writeable
    assert all(plan.local is plans[0].local for plan in plans)
    assert plans[0].estimates.forced_local.all() == forced
    if forced:
        # replace makes a scenario of no config: it sizes its own UEs
        fast = dataclasses.replace(s, mec_capacity_hz=1e11)
        loads = estimate_loads(fast, channel_gains(fast))
        assert fast._config is None and loads is not plan.estimates
        assert (loads.w > 0).all()
        assert cell_plan(fast, channel_gains(fast)).local is not plan.local
        del fast
    # the config keeps its first cell's plan, which holds no cell
    refs = [weakref.ref(x) for pair in cells for x in pair]
    del cells, s, gains, fresh_s, fresh_gains
    gc.collect()
    assert cfg._plan is plans[0] and not any(ref() for ref in refs)


@contextlib.contextmanager
def sizing_calls():
    """decision_engine's sizing and pricing steps, wrapped where it looks
    them up. Yields a Counter of their calls by name."""
    calls = collections.Counter()

    def counted(name):
        fn = getattr(decision_engine, name)
        return lambda *args: calls.update([name]) or fn(*args)

    with contextlib.ExitStack() as stack:
        for name in ("estimate_loads", "initial_decision", "orthogonal_estimate", "price"):
            stack.enter_context(mock.patch.object(decision_engine, name, counted(name)))
        yield calls


@settings(max_examples=60)
@given(
    cell=st.one_of(
        # a slow server forces every UE local, up to 200 cells
        st.tuples(st.integers(1, 200), st.floats(0.5, 5.0)),
        st.tuples(st.integers(1, 12), st.floats(5.0, 300.0)),
    ),
    num_prbs=st.integers(1, 100),
    # energy-only weights and cheap local cycles keep candidates local too
    cheap_local=st.booleans(),
    seed=st.integers(0, 10_000),
)
@example(cell=(160, 25.0), num_prbs=100, cheap_local=False, seed=0)
@example(cell=(9, 100.0), num_prbs=3, cheap_local=False, seed=0)
@example(cell=(3, 100.0), num_prbs=100, cheap_local=True, seed=0)
def test_every_all_local_outcome_is_one_fresh_price_shared_read_only(
    cell, num_prbs, cheap_local, seed
):
    # a cell prices its all-local outcome once; every scheme that ends
    # with no offloader returns it, and nothing can write into it
    n_cells, mec_ghz = cell
    weights = dict(gamma_t=0.0, gamma_e=1.0, energy_coeff_j_per_cycle=1e-12)
    cfg = ScenarioConfig(
        n_cells=n_cells, mec_ghz=mec_ghz, num_prbs=num_prbs, **(weights if cheap_local else {})
    )
    s = build_scenario(cfg, seed=seed)
    gains = channel_gains(s)
    outs = {name: run_scheme(name, s, gains) for name in SCHEME_NAMES}
    plan = cell_plan(s, gains)
    local = plan.local
    assert outs["all_local"] is local
    # priced on an all-local decision of its own, which equals the
    # initial guess when that offloads no one
    assert not local.decision.offload_set
    assert (plan.a0 == local.decision) == (not plan.a0.offload_set)
    # the empty association holds no N x K table: its c repeats one zero
    c, m = local.assoc.c, local.assoc.m
    assert (c.dtype, c.shape, c.any()) == (np.int64, (n_cells, num_prbs), False)
    assert c.sum(axis=1).dtype == m.dtype and np.array_equal(c.sum(axis=1), m)
    tracemalloc.start()
    try:
        PrbAssociation.empty(n_cells, num_prbs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2048  # a zero table took n * k * 8 bytes, 128 KB at (160, 100)
    estimates = estimate_loads(s, gains)
    uplink = (PrbAssociation.empty(n_cells, num_prbs), np.zeros(n_cells))
    fresh = [
        price(OffloadDecision.all_local(n_cells), uplink, s, estimates, mode)
        for mode in ("minsum", "minmax", "equal")
    ]
    for name, out in outs.items():
        if out.decision.n_offload:
            continue
        assert out is local, name
        for want in fresh:
            assert_same_outcome(out, want)
    for array in (c, m, uplink[0].c, uplink[0].m, local.rates_bps, local.t_off_s,
                  local.e_off_j, local.per_ue_overhead):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    with pytest.raises(ValueError):
        c.flags.writeable = True  # nor can it be made writeable


@contextlib.contextmanager
def upload_rates_checked():
    """decision_engine's upload_cost, wrapped to assert that every rate its
    caller passes is live (0 < rate < inf), since upload_cost does not
    check them. Yields the list of rate arrays it is passed."""
    calls = []

    def checked(bits, power_w, rate_bps):
        assert ((rate_bps > 0) & (rate_bps < math.inf)).all(), rate_bps
        calls.append(rate_bps)
        return upload_cost(bits, power_w, rate_bps)

    with mock.patch.object(decision_engine, "upload_cost", checked):
        yield calls


@st.composite
def price_instances(draw):
    """A decision of 1-12 offloaders among up to 14 UEs with their rates,
    and a cell to price it in. Every rate is live, or some offloaders'
    are 0, nan or inf (a dead uplink). Each live offloader's deadline is
    loose, already missed, or leaves it a weighted part of 50-110% of the
    server budget, so the CPU split may fit, pin some UEs or fail."""
    n = draw(st.integers(1, 14))
    offs = sorted(draw(st.permutations(range(n)))[:draw(st.integers(1, min(n, 12)))])
    rates = np.array(draw(st.lists(st.floats(1e3, 1e9), min_size=n, max_size=n)))
    if draw(st.booleans()):
        for i in draw(st.sets(st.sampled_from(offs), min_size=1)):
            rates[i] = draw(st.sampled_from((0.0, math.nan, math.inf)))
    cfg = ScenarioConfig(
        n_cells=n,
        mec_ghz=draw(st.sampled_from((1.0, 10.0, 100.0))),
        task_megacycles=draw(st.sampled_from((100.0, 1000.0, 5000.0))),
    )
    s = build_scenario(cfg, seed=draw(st.integers(0, 10_000)))
    estimates = estimate_loads(s, channel_gains(s))
    live = [i for i in offs if 0 < rates[i] < math.inf]
    kind = draw(st.lists(st.sampled_from(("share",) * 6 + ("loose", "missed")),
                         min_size=len(live), max_size=len(live)))
    weight = draw(st.lists(st.floats(0.2, 1.5), min_size=len(live), max_size=len(live)))
    # the shares' sum against the server budget: it fits or it does not
    fill = draw(st.floats(0.5, 1.1)) / (sum(w for w, k in zip(weight, kind) if k == "share") or 1)
    local_time = estimates.local_time_s.copy()
    for i, k, w in zip(live, kind, weight):
        t = s.input_bits[i] / rates[i]
        if k == "loose":
            local_time[i] = t + 1e3
        elif k == "missed":
            local_time[i] = t / 2
        else:
            local_time[i] = t + s.cycles[i] / (s.mec_capacity_hz * w * fill)
    estimates = dataclasses.replace(estimates, local_time_s=local_time)
    return OffloadDecision(n, tuple(offs)), rates, s, estimates


@settings(max_examples=300)
@given(price_instances(), st.sampled_from(("minmax", "minsum", "equal")))
def test_price_equals_the_masked_form_bit_for_bit(instance, cpu_mode):
    # an all-live decision skips the masks, a dead uplink keeps them; both
    # must give the masked form's arrays, CPU split and total to the bit
    decision, rates, s, estimates = instance
    uplink = (PrbAssociation.empty(s.n_cells, s.radio.num_prbs), rates)
    with upload_rates_checked() as calls:
        got = price(decision, uplink, s, estimates, cpu_mode)
    assert calls
    want = masked_price(decision, uplink, s, estimates, cpu_mode)
    assert got.assoc is want.assoc and got.rates_bps is rates
    assert_same_outcome(got, want)


@settings(max_examples=60)
@given(
    n_cells=st.integers(1, 12),
    num_prbs=st.integers(1, 100),
    mec_ghz=st.floats(5.0, 300.0),
    gamma_t=st.floats(0.0, 1.0),
    # both log-uniform, the input at most 1e-3 kb: a weak signal with a
    # tiny input stays a candidate whose share rounds 1 + SNR to 1, a zero
    # share rate, on about one priced cell in seven
    tx_power_mw=st.floats(-20.0, 3.0).map(lambda e: 10.0**e),
    input_kb=st.floats(-18.0, -3.0).map(lambda e: 10.0**e),
    # the default; the first example below sets it to overflow a share
    pl0_db=st.just(30.0),
    seed=st.integers(0, 10_000),
)
# two UEs on one PRB: UE 0's half-PRB share overflows to an infinite rate
@example(n_cells=2, num_prbs=1, mec_ghz=100.0, gamma_t=0.5, tx_power_mw=100.0,
         pl0_db=-3000.0, input_kb=420.0, seed=1)
# a target met on one PRB whose 10-PRB share rounds 1 + SNR to 1: rate 0
@example(n_cells=1, num_prbs=10, mec_ghz=100.0, gamma_t=0.5, tx_power_mw=1e-19,
         pl0_db=30.0, input_kb=1e-16, seed=1)
def test_orthogonal_estimate_prices_each_member_as_the_oracle(
    n_cells, num_prbs, mec_ghz, gamma_t, tx_power_mw, pl0_db, input_kb, seed
):
    cfg = ScenarioConfig(n_cells=n_cells, num_prbs=num_prbs, mec_ghz=mec_ghz,
                         gamma_t=gamma_t, gamma_e=1.0 - gamma_t,
                         tx_power_mw=tx_power_mw, pl0_db=pl0_db, input_kb=input_kb)
    s = build_scenario(cfg, seed=seed)
    gains = channel_gains(s)
    estimates = estimate_loads(s, gains)
    members = estimates.offloadable.nonzero()[0].tolist()
    if not members:
        return
    with upload_rates_checked() as calls:
        report = orthogonal_estimate(estimates, members, s, gains)
    assert len(calls) == 1
    assert sorted(report) == members
    total_w = sum(int(estimates.w[i]) for i in members)
    f_even = s.mec_capacity_hz / n_cells
    for i in members:
        ue = s.ues[i]
        share = num_prbs * int(estimates.w[i]) / total_w
        rate = float(prb_rate(share, float(gains.h[i, i]), s.radio, ue.tx_power_w))
        # a dead uplink, 0 or inf, prices at +inf, as in price
        want = ue_offload_cost(ue, rate, f_even)[3] if 0 < rate < math.inf else math.inf
        assert report[i] == want



@settings(max_examples=100)
@given(
    n_cells=st.integers(1, 20),
    num_prbs=st.integers(1, 200),
    # log-uniform, down to signals too weak for any UE to offload
    tx_power_mw=st.floats(-12.0, 3.0).map(lambda e: 10.0**e),
    shadowing_db=st.sampled_from([0.0, 8.0]),
    seed=st.integers(0, 10_000),
)
def test_orthogonal_baseline_rates_equal_the_table_oracle(
    n_cells, num_prbs, tx_power_mw, shadowing_db, seed
):
    # the baseline prices its held blocks at zero interference; the oracle
    # reads them from the from-scratch interference table, and the checker
    # sums its own Shannon rate from its own co-channel row
    cfg = ScenarioConfig(n_cells=n_cells, num_prbs=num_prbs, tx_power_mw=tx_power_mw,
                         shadowing_db=shadowing_db)
    s = build_scenario(cfg, seed=seed)
    gains = channel_gains(s)
    out = run_baseline("all_offload_orth", s, gains)
    want = loop_orthogonal_rates(s, gains, estimate_loads(s, gains))
    assert out.rates_bps.tobytes() == want.tobytes()
    checked = [uplink_rate(i, out.decision, out.assoc, gains, s.tx_power_w, s.radio)
               for i in range(n_cells)]
    assert out.rates_bps.tobytes() == np.array(checked).tobytes()
    assert out.assoc.m.tobytes() == out.assoc.c.sum(axis=1).tobytes()


@st.composite
def decision_pairs(draw):
    """(n, ids) twice: the second a copy of the first, or it with its n or
    a few of its ids changed, so that equal and unequal pairs both occur."""
    n = draw(st.integers(0, 40))
    ids = draw(st.sets(st.integers(0, n - 1), max_size=n)) if n else set()
    other_n = draw(st.sampled_from((n, n, n + 1)))
    toggled = draw(st.sets(st.integers(0, other_n - 1), max_size=2)) if other_n else set()
    return (n, ids), (other_n, ids ^ toggled)


@settings(max_examples=300)
@given(decision_pairs())
def test_a_decision_is_its_n_and_offload_set(pair):
    # the set is the one representation: equality and hash follow it, and
    # the 0/1 row a is derived from it
    (n, ids), (other_n, other_ids) = pair
    d = OffloadDecision(n, tuple(sorted(ids)))
    other = OffloadDecision(other_n, tuple(sorted(other_ids)))
    same = (n, ids) == (other_n, other_ids)
    assert (d == other) == same
    if same:
        assert hash(d) == hash(other)
    # the row as a flag tuple, the way the decision stored it before
    row = tuple(1 if i in ids else 0 for i in range(n))
    assert d.a == row and all(type(x) is int for x in d.a)
    assert OffloadDecision(d.n, tuple(np.flatnonzero(d.a).tolist())) == d
    assert d.n_offload == len(ids)


def _ue_ids(lo, hi):
    """A UE id in lo..hi as any kind a caller might pass: a Python or numpy
    int, a Python or numpy bool, or an integral float."""
    return st.one_of(
        st.integers(lo, hi),
        st.integers(lo, hi).map(np.int64),
        st.integers(lo, hi).map(np.int32),
        st.booleans(),
        st.booleans().map(np.bool_),
        st.integers(lo, hi).map(float),
    )


def _id_lists(n):
    """Up to 5 UE ids for n UEs: of mixed kinds in -1..n, Python ints in
    -1..n in any order, repeats too, or ascending unique ones in 0..n-1."""
    return st.one_of(
        st.lists(_ue_ids(-1, n), max_size=5),
        st.lists(st.integers(-1, n), max_size=5),
        st.lists(st.integers(0, max(n - 1, 0)), max_size=min(n, 5), unique=True).map(sorted),
    )


def _rule_error(ids, n):
    """What the id rule makes of ids as given, for n UEs: None where it
    holds (Python ints, never a bool or a numpy integer, ascending, unique
    and in 0..n-1), TypeError where an id has the wrong type, else
    ValueError."""
    if not all(isinstance(i, int) and not isinstance(i, bool) for i in ids):
        return TypeError
    if any(i < 0 or i >= n for i in ids) or list(ids) != sorted(set(ids)):
        return ValueError
    return None


def _outcome(call):
    try:
        return call()
    except (TypeError, ValueError) as e:
        return type(e)


@settings(max_examples=400)
@given(st.one_of(st.integers(-2, 6), st.sampled_from((True, False, 3.0, 0.0, -1.0))), st.data())
def test_the_constructor_takes_exactly_the_decisions_the_rule_allows(n, data):
    # n is a Python int at least 0, and the ids as given keep the rule
    ids = data.draw(_id_lists(max(int(n), 0)))
    if not isinstance(n, int) or isinstance(n, bool):
        want = TypeError
    else:
        want = _rule_error(ids, n) or (ValueError if n < 0 else None)
    got = _outcome(lambda: OffloadDecision(n, tuple(ids)))
    if want is None:
        assert got.offload_set == tuple(ids) and got.n == n
        assert all(type(i) is int for i in (n, *got.offload_set))
    else:
        assert got is want


@settings(max_examples=400)
@given(_id_lists(4))
def test_the_graph_and_the_estimate_take_exactly_the_ids_the_rule_allows(ids):
    # both take the ids as given under the constructor's rule; neither takes
    # an empty set, and every UE of this cell is a candidate the estimate
    # can price
    s = build_scenario(ScenarioConfig(n_cells=4), seed=0)
    gains = channel_gains(s)
    estimates = estimate_loads(s, gains)
    assert estimates.offloadable.all()
    want = _rule_error(ids, s.n_cells) or (None if ids else ValueError)
    graph = _outcome(
        lambda: build_interference_graph(gains, np.full(len(ids), 2), s.tx_power_w, ids, 0.1))
    report = _outcome(lambda: orthogonal_estimate(estimates, ids, s, gains))
    if want is None:
        assert sorted(graph.nodes.tolist()) == ids and graph.nodes.dtype == np.int64
        assert list(report) == ids and all(type(i) is int for i in report)
    else:
        assert graph is want and report is want


_EXTREMES = (
    5e-324, -5e-324, 1e-308, -1e-308, 1e300, -1e300, 1e308, -1e308, 0, 1, -1,
    10**400, -(10**400),  # integers too large for a float
)
_NOT_A_NUMBER = (math.nan, math.inf, -math.inf, True, False, "1", "", None)
# cell and block counts stay small so that ~500 whole runs fit in a few
# seconds; every other field may take any value, huge integers included
_COUNT_CAP = {"n_cells": 12, "num_prbs": 200}


def _normal(f):
    """Valid values: a positive integer, or within a factor of two of the default."""
    if f.name in _COUNT_CAP:
        return st.integers(1, _COUNT_CAP[f.name])
    if f.type == "int":
        return st.integers(min_value=1)
    default = f.default if f.default is not None else 1e-11
    return st.floats(0.5, 2).map(lambda x: x * default)


_FIELDS = dataclasses.fields(ScenarioConfig)
_NAMES = st.sampled_from([f.name for f in _FIELDS])
# any subset of fields at ordinary values, up to three of them at finite
# extremes, and at most one that is no finite number at all
_CONFIGS = st.builds(
    lambda normal, extreme, odd: {**normal, **extreme, **odd},
    st.fixed_dictionaries({}, optional={f.name: _normal(f) for f in _FIELDS}),
    st.dictionaries(_NAMES, st.sampled_from(_EXTREMES), max_size=3),
    st.dictionaries(_NAMES, st.sampled_from(_NOT_A_NUMBER), max_size=1),
)


@settings(max_examples=500)
@given(data=_CONFIGS)
@example(data={"area_m": 10**400})
@example(data={"n_cells": 10**400})
# finite as a field, but its product with num_prbs is an int past float range
@example(data={"reuse_lambda": 10**307})
# a real-valued PRB share below one overflows the SNR the link-budget check
# bounds at one PRB
@example(data={"n_cells": 2, "num_prbs": 1, "pl0_db": -3000.0, "seed": 1})
def test_any_config_gives_rows_or_a_documented_exit(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(data))  # NaN / Infinity literals
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(path), "--scheme", "all"])
    assert code in (0, 2, 3)
    if code == 2:
        assert out.getvalue() == "" and "config error" in err.getvalue()
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    for row in rows:
        for key, value in row.items():
            assert value != "nan", (key, row)
            if value == "inf":
                assert (key, row["scheme"]) == ("system_overhead", "all_offload_orth"), row
    assert (code == 0) == bool(rows)
