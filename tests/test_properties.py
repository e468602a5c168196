"""Invariants over generated inputs: the CPU solvers on requests large
enough to pin over several rounds, the proposed pipeline and the
orthogonal estimate on random configurations, and the exit code of `run`
on arbitrary config files.
Examples are derandomized, so every run checks the same cases."""

import contextlib
import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecoffload.cli import main
from mecoffload.cpu_allocation import allocate_minmax, allocate_minsum
from mecoffload.decision_engine import (
    SCHEME_NAMES,
    evaluate,
    initial_decision,
    orthogonal_estimate,
    run_baseline,
    run_proposed,
    run_scheme,
)
from mecoffload.load_estimation import estimate_loads, prb_rate
from mecoffload.radio import OffloadDecision, uplink_rate
from mecoffload.scenario import ScenarioConfig, build_scenario, channel_gains, tx_powers

from _oracles import loop_orthogonal_rates, ue_offload_cost

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
    cfg = ScenarioConfig(n_cells=n_cells, reuse_lambda=reuse_lambda, mec_ghz=mec_ghz)
    s = build_scenario(cfg, seed=seed)
    gains = channel_gains(s)
    estimates = estimate_loads(s, gains)
    powers = tx_powers(s)
    for cpu_mode in ("minmax", "minsum"):
        out = run_proposed(s, gains, cpu_mode)
        start = _start(s, gains, estimates, cpu_mode)
        assert out.system_overhead <= start.system_overhead
        for i in out.decision.offload_set:
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
        again = run_proposed(s, gains, cpu_mode)
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
    # pass; each must still give what it gives on a cell of its own
    cfg = ScenarioConfig(n_cells=n_cells, reuse_lambda=reuse_lambda, mec_ghz=mec_ghz)
    s = build_scenario(cfg, seed=seed)
    gains = channel_gains(s)
    shared = {name: run_scheme(name, s, gains) for name in SCHEME_NAMES}
    for name in SCHEME_NAMES:
        fresh_s = build_scenario(cfg, seed=seed)
        assert_same_outcome(shared[name], run_scheme(name, fresh_s, channel_gains(fresh_s)))


@settings(max_examples=60)
@given(
    n_cells=st.integers(1, 12),
    num_prbs=st.integers(1, 100),
    mec_ghz=st.floats(5.0, 300.0),
    gamma_t=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
)
def test_orthogonal_estimate_prices_each_member_as_the_oracle(
    n_cells, num_prbs, mec_ghz, gamma_t, seed
):
    cfg = ScenarioConfig(n_cells=n_cells, num_prbs=num_prbs, mec_ghz=mec_ghz,
                         gamma_t=gamma_t, gamma_e=1.0 - gamma_t)
    s = build_scenario(cfg, seed=seed)
    gains = channel_gains(s)
    estimates = estimate_loads(s, gains)
    members = estimates.offloadable.nonzero()[0].tolist()
    if not members:
        return
    report = orthogonal_estimate(estimates, members, s, gains)
    assert sorted(report) == members
    total_w = sum(int(estimates.w[i]) for i in members)
    f_even = s.mec_capacity_hz / n_cells
    for i in members:
        ue = s.ues[i]
        share = num_prbs * int(estimates.w[i]) / total_w
        rate = prb_rate(share, float(gains.h[i, i]), s.radio, ue.tx_power_w)
        assert report[i] == ue_offload_cost(ue, rate, f_even)[3]



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
    # reads them from the from-scratch interference table
    cfg = ScenarioConfig(n_cells=n_cells, num_prbs=num_prbs, tx_power_mw=tx_power_mw,
                         shadowing_db=shadowing_db)
    s = build_scenario(cfg, seed=seed)
    gains = channel_gains(s)
    out = run_baseline("all_offload_orth", s, gains)
    want = loop_orthogonal_rates(s, gains, estimate_loads(s, gains))
    assert out.rates_bps.tobytes() == want.tobytes()
    assert out.assoc.m.tobytes() == out.assoc.c.sum(axis=1).tobytes()

_EXTREMES = (5e-324, -5e-324, 1e-308, -1e-308, 1e300, -1e300, 1e308, -1e308, 0, 1, -1)
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
