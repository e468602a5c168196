"""Invariants over generated inputs: the CPU solvers on requests large
enough to pin over several rounds, and the proposed pipeline on random
configurations. Examples are derandomized, so every run checks the same
cases."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mecoffload.cpu_allocation import CpuRequest, allocate_minmax, allocate_minsum
from mecoffload.decision_engine import (
    evaluate,
    initial_decision,
    orthogonal_estimate,
    run_proposed,
)
from mecoffload.load_estimation import estimate_loads
from mecoffload.radio import OffloadDecision, uplink_rate
from mecoffload.scenario import ScenarioConfig, build_scenario, channel_gains, tx_powers

REL = 1e-9


def _settings(n):
    return settings(max_examples=n, derandomize=True, database=None, deadline=None)


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
    requests = []
    for i, (c, w, free) in enumerate(zip(cycles, weights, loose)):
        lower = reserved * c * w / sum(map(math.prod, zip(cycles, weights)))
        cap = math.inf if free or lower <= 0 else c / lower
        requests.append(CpuRequest(ue=i, cycles=c, t_cap_s=cap))
    return requests, budget


@_settings(150)
@given(cpu_instances())
def test_cpu_splits_fill_the_budget_and_meet_every_deadline(instance):
    requests, budget = instance
    outs = {}
    for solve in (allocate_minmax, allocate_minsum):
        out = solve(requests, budget)
        assert set(out.f) == {r.ue for r in requests}
        assert sum(out.f.values()) == pytest.approx(budget, rel=REL)
        for r in requests:
            assert r.cycles / out.f[r.ue] <= r.t_cap_s * (1 + REL)
        outs[solve] = [r.cycles / out.f[r.ue] for r in requests]
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


@_settings(60)
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
        again = run_proposed(s, gains, cpu_mode)
        assert again.decision == out.decision
        assert np.array_equal(again.assoc.c, out.assoc.c)
        assert np.array_equal(again.rates_bps, out.rates_bps)
        assert np.array_equal(again.per_ue_overhead, out.per_ue_overhead)
        assert again.system_overhead == out.system_overhead
        assert (again.cpu is None) == (out.cpu is None)
        if out.cpu is not None:
            assert again.cpu.f == out.cpu.f
