"""The names and call pattern the benchmark in bench/ relies on.

bench/tracer.py wraps functions where decision_engine looks them up and
reads some of their arguments by name; bench/checks.py checks every row
through the package API. This test loads those files and bench/run.py as
they are (without writing into bench/), traces every scheme on a few small
cells and asserts the bench's own self-tests, so a renamed function or
argument fails here rather than only in a benchmark run.
"""

import dataclasses
import importlib.util
import os
import sys
from unittest import mock

import numpy as np
import pytest

import mecoffload
from mecoffload import ScenarioConfig
from mecoffload.decision_engine import SCHEME_NAMES

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

# (overrides, seeds): the paper's sizes, a server too slow for any
# candidate, and a band too narrow for the orthogonal split
CELLS = [
    ({"n_cells": 3}, range(3)),
    ({"n_cells": 9}, range(3)),
    ({"n_cells": 9, "mec_ghz": 5.0}, range(2)),
    ({"n_cells": 9, "num_prbs": 3}, range(2)),
]


def load(name):
    path = os.path.join(BENCH, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def traced():
    """(tracer, snapshot, cells) after running every scheme on CELLS."""
    tracer = load("tracer").Tracer(mecoffload)
    cells = []
    tracer.install()
    try:
        for overrides, seeds in CELLS:
            cfg = ScenarioConfig().with_overrides(**overrides)
            for seed in seeds:
                tracer.start_cell()
                s = mecoffload.scenario.build_scenario(cfg, seed=seed)
                g = mecoffload.scenario.channel_gains(s)
                run = mecoffload.decision_engine.run_scheme
                cells.append((s, g, {name: run(name, s, g) for name in SCHEME_NAMES}))
    finally:
        tracer.uninstall()
    return tracer, tracer.snapshot(), cells


def test_no_site_left_wrapped(traced):
    tracer, _, _ = traced
    assert tracer.wrapped() == []
    # the tracer labels each CPU span by the solver's function name
    solvers = mecoffload.decision_engine._CPU_SOLVERS
    assert solvers == {
        "minmax": mecoffload.allocate_minmax,
        "minsum": mecoffload.allocate_minsum,
        "equal": mecoffload.allocate_equal,
    }


def test_uplink_layers_run_once_per_colorable_evaluate(traced):
    _, snap, _ = traced
    colorable = snap["evaluate.colorable"]
    assert colorable > 0
    for label in ("color", "normalize_prbs", "build_interference_graph", "realized_rates"):
        assert snap[f"prb_coloring.{label}.calls"] == colorable, label


def test_schemes_of_a_cell_share_one_sizing_pass(traced):
    # every cell sizes itself once, but a later cell of a config whose UEs
    # are all forced local takes its first cell's plan and sizes nothing
    _, snap, cells = traced
    configs, sized = set(), 0
    for s, g, _ in cells:
        later = id(s._config) in configs
        configs.add(id(s._config))
        sized += not (later and mecoffload.estimate_loads(s, g).forced_local.all())
    assert sized == len(cells) - 1  # the 5 GHz config's second seed
    for label in ("load_estimation.estimate_loads", "decision_engine.initial_decision"):
        assert snap[f"{label}.calls"] == sized, label
    with_candidates = sum(bool(mecoffload.estimate_loads(s, g).offloadable.any())
                          for s, g, _ in cells)
    assert snap["decision_engine.orthogonal_estimate.calls"] == with_candidates


def test_one_paper_cell_sizes_once_under_the_tracer():
    s = mecoffload.scenario.build_scenario(ScenarioConfig(), seed=0)
    g = mecoffload.scenario.channel_gains(s)
    tracer = load("tracer").Tracer(mecoffload)
    tracer.install()
    try:
        tracer.start_cell()
        for name in SCHEME_NAMES:
            mecoffload.decision_engine.run_scheme(name, s, g)
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    assert snap["decision_engine.run_scheme.calls"] == len(SCHEME_NAMES)
    for label in ("load_estimation.estimate_loads", "decision_engine.orthogonal_estimate",
                  "decision_engine.initial_decision"):
        assert snap[f"{label}.calls"] == 1, label
    assert snap["prb_coloring.color.calls"] == snap["evaluate.colorable"] > 0


def test_the_bench_self_test_finds_no_problem(traced):
    # bench/run.py imports its sibling modules by their bare names, so
    # bench/ is on sys.path only while it loads, and they leave sys.modules
    # after; it also pins the BLAS threads in os.environ, restored after
    _, snap, cells = traced
    sys.path.insert(0, BENCH)
    try:
        with mock.patch.dict(os.environ):
            run = load("run")
    finally:
        sys.path.remove(BENCH)
        for name in ("speed", "checks", "sweep", "tracer"):
            sys.modules.pop(name, None)
    assert run.tracer_problems(snap, len(cells), len(SCHEME_NAMES)) == []


def test_every_evaluate_is_a_greedy_step(traced):
    _, snap, _ = traced
    assert snap["decision_engine.evaluate.calls"] == snap["greedy.evaluations"]
    for key in ("evaluate.outside_greedy", "evaluate.no_estimates", "greedy.other",
                "greedy.mismatch"):
        assert snap.get(key, 0) == 0, key


def test_checks_find_no_problem(traced):
    _, _, cells = traced
    check_cell = load("checks").check_cell
    for s, g, outcomes in cells:
        found = check_cell(mecoffload, s, g, outcomes)
        assert set(found) == set(SCHEME_NAMES)
        assert all(not problems for problems in found.values()), found


def fresh_outcomes():
    """(s, gains, outcomes) of every scheme on fresh CELLS, so that no cell
    plan of another test is reused."""
    run = mecoffload.decision_engine.run_scheme
    for overrides, seeds in CELLS:
        cfg = ScenarioConfig().with_overrides(**overrides)
        for seed in seeds:
            s = mecoffload.scenario.build_scenario(cfg, seed=seed)
            g = mecoffload.scenario.channel_gains(s)
            yield s, g, {name: run(name, s, g) for name in SCHEME_NAMES}


def natural_log_shannon(snr, scale):
    snr += 1.0
    np.log(snr, out=snr)
    snr *= scale
    return snr


def halved_interference(held_rate):
    return lambda row, prb, signal, interference, rows, radio: held_rate(
        row, prb, signal, interference / 2, rows, radio
    )


@pytest.mark.parametrize("fault", ["natural_log", "halved_interference"])
def test_checks_catch_a_faulty_rate_kernel(monkeypatch, fault):
    # held_rate looks shannon up in radio, while the colouring and the
    # sizing keep their own binding; held_rate is bound where it is called
    if fault == "natural_log":
        monkeypatch.setattr(mecoffload.radio, "shannon", natural_log_shannon)
    else:
        faulty = halved_interference(mecoffload.radio.held_rate)
        for module in (mecoffload.prb_coloring, mecoffload.decision_engine):
            monkeypatch.setattr(module, "held_rate", faulty)
    check_cell = load("checks").check_cell
    with_offloader = 0
    for s, g, outcomes in fresh_outcomes():
        if not any(out.decision.n_offload for out in outcomes.values()):
            continue
        with_offloader += 1
        found = check_cell(mecoffload, s, g, outcomes)
        assert any("!= uplink_rate" in p for ps in found.values() for p in ps), found
    assert with_offloader > 0


def test_checks_report_a_local_ue_holding_a_block():
    # a row whose decision and PRB table disagree is a problem of that row,
    # not an exception of the checker
    check_cell = load("checks").check_cell
    s = mecoffload.scenario.build_scenario(ScenarioConfig().with_overrides(n_cells=3), seed=0)
    g = mecoffload.scenario.channel_gains(s)
    decision = mecoffload.OffloadDecision.from_set([0, 1], 3)
    out = mecoffload.evaluate(decision, s, g, "equal", mecoffload.estimate_loads(s, g))
    assert out.feasible
    assert check_cell(mecoffload, s, g, {"equal_cpu": out}) == {"equal_cpu": []}
    c = out.assoc.c.copy()
    c[2, 0] = 1
    bad = dataclasses.replace(out, assoc=mecoffload.PrbAssociation(c=c))
    found = check_cell(mecoffload, s, g, {"equal_cpu": bad})
    assert found == {"equal_cpu": ["local UE 2 holds PRBs"]}


def test_uplink_rate_calls_no_scheme_rate_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the checker called a scheme's rate kernel")

    cells = list(fresh_outcomes())

    def rates():
        return [
            mecoffload.uplink_rate(i, out.decision, out.assoc, g, s.tx_power_w, s.radio)
            for s, g, outcomes in cells
            for out in outcomes.values()
            for i in out.decision.offload_set
        ]

    want = rates()
    assert any(want)
    monkeypatch.setattr(mecoffload.radio, "held_rate", refuse)
    monkeypatch.setattr(mecoffload.radio, "shannon", refuse)
    assert rates() == want


def test_tracer_hooks_never_build_a_slow_server_gain_matrix(monkeypatch):
    # no stage reads a gain of a cell with no candidate, and neither may a
    # tracer hook or a bench check, so saturated_local's traced spans time
    # the same path as its untraced runs
    def refuse(s):
        raise AssertionError("a forced-local cell built its gain matrix")

    monkeypatch.setattr(mecoffload.scenario, "gain_matrix", refuse)
    check_cell = load("checks").check_cell
    tracer = load("tracer").Tracer(mecoffload)
    slow = [(overrides, seeds) for overrides, seeds in CELLS if overrides.get("mec_ghz") == 5.0]
    tracer.install()
    run = mecoffload.decision_engine.run_scheme
    try:
        for overrides, seeds in slow:
            cfg = ScenarioConfig().with_overrides(**overrides)
            for seed in seeds:
                tracer.start_cell()
                s = mecoffload.scenario.build_scenario(cfg, seed=seed)
                g = mecoffload.scenario.channel_gains(s)
                outcomes = {name: run(name, s, g) for name in SCHEME_NAMES}
                assert not any(check_cell(mecoffload, s, g, outcomes).values())
    finally:
        tracer.uninstall()
    cells = sum(len(seeds) for _, seeds in slow)
    assert tracer.snapshot()["decision_engine.run_scheme.calls"] == cells * len(SCHEME_NAMES) > 0


def test_forced_local_cells_never_draw_their_positions(monkeypatch):
    # only the gain matrix reads the positions, and nothing reads a gain of
    # a cell with no candidate, tracer hooks included; the bench's checks
    # run after the timed cell and read s.ues, which draws them
    def refuse(*args):
        raise AssertionError("a forced-local cell drew its positions")

    monkeypatch.setattr(mecoffload.scenario, "draw_positions", refuse)
    forced = [({"n_cells": 160, "mec_ghz": ghz}, range(2)) for ghz in (25.0, 50.0, 100.0)]
    forced.append(({"n_cells": 9, "mec_ghz": 5.0}, range(2)))
    tracer = load("tracer").Tracer(mecoffload)
    tracer.install()
    run = mecoffload.decision_engine.run_scheme
    try:
        for overrides, seeds in forced:
            cfg = ScenarioConfig().with_overrides(**overrides)
            for seed in seeds:
                tracer.start_cell()
                s = mecoffload.scenario.build_scenario(cfg, seed=seed)
                g = mecoffload.scenario.channel_gains(s)
                outcomes = [run(name, s, g) for name in SCHEME_NAMES]
                assert all(out.decision.n_offload == 0 and out.feasible for out in outcomes)
                assert not mecoffload.estimate_loads(s, g).offloadable.any()
    finally:
        tracer.uninstall()
    cells = sum(len(seeds) for _, seeds in forced)
    assert tracer.snapshot()["decision_engine.run_scheme.calls"] == cells * len(SCHEME_NAMES)


def test_a_cell_with_candidates_draws_its_positions_once(monkeypatch):
    draws = []
    draw = mecoffload.scenario.draw_positions
    monkeypatch.setattr(mecoffload.scenario, "draw_positions",
                        lambda *args: draws.append(args) or draw(*args))
    s = mecoffload.scenario.build_scenario(ScenarioConfig(), seed=0)
    g = mecoffload.scenario.channel_gains(s)
    assert draws == []
    tracer = load("tracer").Tracer(mecoffload)
    tracer.install()
    try:
        tracer.start_cell()
        for name in SCHEME_NAMES:
            mecoffload.decision_engine.run_scheme(name, s, g)
    finally:
        tracer.uninstall()
    assert mecoffload.estimate_loads(s, g).offloadable.any()
    assert draws == [(120.0, 20.0, 0, 9)]


def test_no_candidate_cell_makes_one_evaluate_inside_greedy():
    # mec_ghz 5 forces every UE local: each pipeline scheme still runs its
    # one path, pricing the all-local guess once inside greedy_reallocate
    cfg = ScenarioConfig().with_overrides(n_cells=9, mec_ghz=5.0)
    s = mecoffload.scenario.build_scenario(cfg, seed=0)
    g = mecoffload.scenario.channel_gains(s)
    assert not mecoffload.estimate_loads(s, g).offloadable.any()
    pipeline = [n for n in SCHEME_NAMES if n not in mecoffload.decision_engine._BASELINES]
    assert pipeline == ["proposed_minmax", "proposed_minsum", "equal_cpu"]
    for name in pipeline:
        tracer = load("tracer").Tracer(mecoffload)
        tracer.install()
        try:
            tracer.start_cell()
            out = mecoffload.decision_engine.run_scheme(name, s, g)
        finally:
            tracer.uninstall()
        snap = tracer.snapshot()
        assert out.decision.n_offload == 0 and out.feasible, name
        assert snap["decision_engine.run_proposed.calls"] == 1, name
        assert snap["decision_engine.greedy_reallocate.calls"] == 1, name
        assert snap["decision_engine.evaluate.calls"] == 1, name
        assert snap["greedy.evaluations"] == 1, name
        assert snap.get("evaluate.outside_greedy", 0) == 0, name
        assert snap.get("decision_engine.orthogonal_estimate.calls", 0) == 0, name
        assert snap.get("prb_coloring.color.calls", 0) == 0, name
