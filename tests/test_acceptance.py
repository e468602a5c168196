"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints exactly one PASS/FAIL line straight to the terminal
(bypassing capture), so a tee'd pytest run shows every verdict.
"""

import math
from contextlib import contextmanager
from itertools import product

import numpy as np
import pytest

from mecoffload.cli import CSV_HEADER, main
from mecoffload.cpu_allocation import allocate_minmax, allocate_minsum
from mecoffload.decision_engine import (
    SCHEME_NAMES,
    evaluate,
    greedy_reallocate,
    initial_decision,
    orthogonal_estimate,
    run_proposed,
    run_scheme,
    uplink,
)
from mecoffload.load_estimation import estimate_loads, min_prbs
from mecoffload.prb_coloring import (
    build_interference_graph,
    color,
    normalize_prbs,
)
from mecoffload.radio import (
    OffloadDecision,
    PrbAssociation,
    interference_table,
    uplink_rate,
)
from mecoffload.scenario import (
    RadioParams,
    ScenarioConfig,
    build_scenario,
    channel_gains,
    tx_powers,
)

from _oracles import (
    assert_matches_dense_color,
    by_ue,
    grid_cpu_oracle,
    replay_coloring,
    scan_min_prbs,
    state_assoc,
)
from test_cpu_allocation import min_shares, random_instance, reqs
from test_scenario import make_ue


@contextmanager
def verdict(capsys, num, label):
    try:
        yield
    except BaseException:
        _announce(capsys, num, label, False)
        raise
    _announce(capsys, num, label, True)


def _announce(capsys, num, label, passed):
    with capsys.disabled():
        print(f"criterion {num:2d} {'PASS' if passed else 'FAIL'}  {label}")


def _loads_and_quotas(s, gains):
    """The loads, every candidate, the powers, and the candidates' quotas
    in ascending id order and by UE id."""
    estimates = estimate_loads(s, gains)
    offs = tuple(e.ue for e in estimates if e.offloadable)
    powers = tx_powers(s)
    q = normalize_prbs([estimates[i].w for i in offs], s.radio.num_prbs, s.reuse_lambda)
    return estimates, offs, powers, q, by_ue(offs, q, len(s.ues))


def test_criterion_01_min_prb_search_matches_linear_scan(capsys):
    with verdict(capsys, 1, "smallest sufficient PRB count equals a linear scan"):
        rng = np.random.default_rng(1001)
        power = make_ue()["tx_power_w"]
        noise = 1e-13
        radios = {k: RadioParams(bandwidth_hz=20e6, num_prbs=k, noise_per_prb_w=noise)
                  for k in (10, 50, 100)}
        draws = {k: [] for k in radios}
        for _ in range(1000):
            k = int(rng.choice([10, 50, 100]))
            gain = float(np.exp(rng.uniform(0.0, math.log(1e4)))) * noise / power
            snr = power * gain / noise
            cap = k * radios[k].prb_bandwidth_hz * math.log2(1.0 + snr / k)
            draws[k].append((gain, snr, float(rng.uniform(1e-3, 1.3)) * cap))
        for k, rows in draws.items():
            gain, _, target = np.array(rows).T
            got = min_prbs(np.full(len(rows), power), gain, radios[k], target)
            want = [scan_min_prbs(c, k, radios[k].prb_bandwidth_hz, t) for _, c, t in rows]
            assert got.tolist() == want, k


def test_criterion_02_cpu_splits_match_grid_search(capsys):
    with verdict(capsys, 2, "convex server splits agree with a dense grid search"):
        rng = np.random.default_rng(2002)
        for _ in range(100):
            requests, budget = random_instance(rng)
            lower = np.array(min_shares(*requests[1:]))
            for kind, solver in (
                ("minmax", allocate_minmax),
                ("minsum", allocate_minsum),
            ):
                out = solver(*requests, budget)
                assert out.total_hz == pytest.approx(budget, rel=1e-9)
                for ue, c, cap in zip(*requests):
                    assert c / out.f[ue] <= cap * (1 + 1e-9)
                want = grid_cpu_oracle(kind, requests[1], lower, budget)
                assert out.objective == pytest.approx(want, rel=1e-4)


def test_criterion_03_minmax_equalizes_without_binding_caps(capsys):
    with verdict(capsys, 3, "uncapped min-max split equalizes every finish time"):
        rng = np.random.default_rng(3003)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            cycles = rng.uniform(1e8, 5e9, size=n)
            budget = float(cycles.sum() / rng.uniform(0.2, 2.0))
            out = allocate_minmax(*reqs(cycles.tolist()), budget)
            times = np.array([c / out.f[i] for i, c in enumerate(cycles)])
            np.testing.assert_allclose(times, cycles.sum() / budget, rtol=1e-9)


def test_criterion_04_coloring_replays_from_scratch(capsys):
    with verdict(capsys, 4, "every coloring step survives from-scratch recomputation"):
        for lam in (1.0, 2.0):
            for seed in range(25):
                cfg = ScenarioConfig(n_cells=9, num_prbs=25, reuse_lambda=lam)
                s = build_scenario(cfg, seed=seed)
                gains = channel_gains(s)
                estimates, offs, powers, q, m = _loads_and_quotas(s, gains)
                assert offs
                graph = build_interference_graph(
                    gains, q, powers, offs, s.edge_threshold
                )
                state = color(graph, s.radio)
                order, steps = assert_matches_dense_color(
                    state, graph, offs, m, gains.h, powers, s.radio, s.edge_threshold
                )
                replay_coloring(
                    order, steps, offs, m, gains.h, powers,
                    s.radio.bandwidth_hz, s.radio.num_prbs,
                    s.radio.noise_per_prb_w, s.edge_threshold,
                    lambda c: interference_table(
                        PrbAssociation(c=c), gains, powers
                    ),
                )


def test_criterion_05_greedy_never_worse_than_initial_guess(capsys):
    with verdict(capsys, 5, "greedy refinement never exceeds its starting cost"):
        violations = 0
        for seed in range(100):
            s = build_scenario(ScenarioConfig(), seed=seed)
            gains = channel_gains(s)
            estimates = estimate_loads(s, gains)
            candidates = [e.ue for e in estimates if e.offloadable]
            if candidates:
                report = orthogonal_estimate(estimates, candidates, s, gains)
                a0 = initial_decision(estimates, report)
            else:
                report = {}
                a0 = OffloadDecision.all_local(len(s.ues))
            start = evaluate(a0, s, gains, "minsum", estimates)
            out = greedy_reallocate(a0, s, gains, "minsum", estimates, report)
            if out.system_overhead > start.system_overhead:
                violations += 1
        assert violations == 0


def test_criterion_06_costs_grow_with_size_and_greedy_leads(capsys):
    with verdict(capsys, 6, "mean cost grows with network size and the greedy scheme leads"):
        sizes = (3, 5, 7, 9)
        means = {name: [] for name in SCHEME_NAMES}
        for n in sizes:
            totals = dict.fromkeys(SCHEME_NAMES, 0.0)
            for seed in range(50):
                s = build_scenario(ScenarioConfig(n_cells=n), seed=seed)
                gains = channel_gains(s)
                for name in SCHEME_NAMES:
                    totals[name] += run_scheme(name, s, gains).system_overhead
            for name in SCHEME_NAMES:
                means[name].append(totals[name] / 50)
        for name, seq in means.items():
            assert all(a <= b for a, b in zip(seq, seq[1:])), (name, seq)
        for idx in range(len(sizes)):
            lead = means["proposed_minsum"][idx]
            assert lead <= means["all_local"][idx]
            assert lead <= means["all_offload_orth"][idx]


def test_criterion_07_reuse_oversubscribes_but_separates_interferers(capsys):
    with verdict(capsys, 7, "quotas oversubscribe the band while co-channel pairs stay weak"):
        oversubscribed = 0
        co_leak, all_leak = [], []
        for seed in range(50):
            cfg = ScenarioConfig(n_cells=9, num_prbs=25, reuse_lambda=2.0)
            s = build_scenario(cfg, seed=seed)
            gains = channel_gains(s)
            estimates, offs, powers, q, m = _loads_and_quotas(s, gains)
            if int(q.sum()) > s.radio.num_prbs:
                oversubscribed += 1
            graph = build_interference_graph(gains, q, powers, offs, s.edge_threshold)
            state = color(graph, s.radio)
            c = state_assoc(state, len(s.ues), s.radio.num_prbs).c
            for a_ue in offs:
                for b_ue in offs:
                    if a_ue == b_ue:
                        continue
                    leak = powers[a_ue] / m[a_ue] * gains.h[a_ue, b_ue]
                    all_leak.append(leak)
                    if np.any(c[a_ue] & c[b_ue]):
                        co_leak.append(leak)
        assert oversubscribed >= 45
        assert co_leak
        assert np.mean(co_leak) < np.mean(all_leak)


def test_criterion_08_greedy_stays_near_exhaustive_best(capsys):
    with verdict(capsys, 8, "greedy lands within 25% of the exhaustive optimum"):
        for seed in range(50):
            cfg = ScenarioConfig(n_cells=3, num_prbs=4)
            s = build_scenario(cfg, seed=seed)
            gains = channel_gains(s)
            estimates = estimate_loads(s, gains)
            best = math.inf
            for bits in product((0, 1), repeat=3):
                decision = OffloadDecision(3, tuple(np.flatnonzero(bits).tolist()))
                out = evaluate(decision, s, gains, "minsum", estimates)
                best = min(best, out.system_overhead)
            got = run_proposed(s, gains, "minsum").system_overhead
            assert got <= 1.25 * best


def test_criterion_09_sweep_reruns_byte_identical(capsys, tmp_path):
    with verdict(capsys, 9, "identical sweeps produce byte-identical CSV files"):
        argv = [
            "sweep", "--scheme", "all", "--vary", "cells",
            "--values", "3,5", "--seeds", "0..4",
        ]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--output", str(first)]) == 0
        assert main(argv + ["--output", str(second)]) == 0
        blob = first.read_bytes()
        assert blob == second.read_bytes()
        assert blob.startswith(CSV_HEADER.encode() + b"\n")


def test_criterion_10_maintained_rates_match_reference_formula(capsys):
    with verdict(capsys, 10, "maintained rates match the standalone uplink formula"):
        for seed in range(50):
            s = build_scenario(ScenarioConfig(), seed=seed)
            gains = channel_gains(s)
            estimates = estimate_loads(s, gains)
            offs = estimates.offloadable.nonzero()[0]
            assert offs.size
            decision = OffloadDecision(len(s.ues), tuple(offs.tolist()))
            assoc, rates = uplink(decision, s, gains, estimates)
            powers = tx_powers(s)
            for n in range(len(s.ues)):
                ref = uplink_rate(n, decision, assoc, gains, powers, s.radio)
                if ref == 0.0:
                    assert rates[n] == 0.0
                else:
                    assert rates[n] == pytest.approx(ref, rel=1e-12)
