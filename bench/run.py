"""Sweep benchmark of mecoffload: host time per cell, solution quality and
per-layer cost.

    python3 bench/run.py --workload paper_sweep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout: mecoffload is imported from its src/.
Each workload runs in this one process through the public API, in the loop
order of `mecoffload sweep`. With --trace 0 the run is untraced and prints
the end-to-end metrics; their host times (setup_s, cell_ms_p50,
cells_per_s) are scaled to a reference machine speed, see speed.py, and
the unscaled values are printed above the result. With --trace 1 it runs
every block untraced and then traced, and prints the per-layer metrics in
unscaled host time. Every line but the last is for people; the last is the
JSON result.
"""

import os

# radio.interference_table runs a matmul: keep BLAS to one thread, here and
# in the set-up probes, which inherit this environment
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import speed  # noqa: E402
from checks import check_cell, check_cli  # noqa: E402
from sweep import WORKLOADS, digest, import_package, row  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 7
SHOWN_PROBLEMS = 10

# per-layer span times: "<label>.s" is the span's total, "<label>.self_s"
# its self time, both per traced cell
SPAN_TIMES = (
    "prb_coloring.color.s",
    "prb_coloring.build_interference_graph.s",
    "prb_coloring.realized_rates.s",
    "prb_coloring.normalize_prbs.s",
    "decision_engine.evaluate.self_s",
    "decision_engine.greedy_reallocate.self_s",
    "decision_engine.orthogonal_estimate.s",
    "load_estimation.estimate_loads.s",
    "scenario.build_scenario.s",
    "scenario.channel_gains.s",
    "radio.interference_table.s",
    "cpu_allocation.allocate_minsum.s",
    "cpu_allocation.allocate_minmax.s",
    "cpu_allocation.allocate_equal.s",
)
# per-layer counts -> tracer counter, per quality cell
COUNTS = {
    "prb_coloring.color.calls": "prb_coloring.color.calls",
    "prb_coloring.color.nodes": "color.nodes",
    "prb_coloring.graph_edges": "graph.edges",
    "decision_engine.evaluate.calls": "decision_engine.evaluate.calls",
    "decision_engine.repair_drops": "greedy.drops",
    "decision_engine.greedy_trials": "greedy.trials",
    "load_estimation.estimate_loads.calls_per_cell": "load_estimation.estimate_loads.calls",
    "cpu_allocation.calls": "cpu.calls",
}
# per-layer shares -> (counter, the counter it is a share of)
FRACTIONS = {
    "decision_engine.evaluate.dup_frac": ("evaluate.dup", "decision_engine.evaluate.calls"),
    "decision_engine.greedy_accept_frac": ("greedy.accepts", "greedy.trials"),
    "cpu_allocation.infeasible_frac": ("cpu.infeasible", "cpu.calls"),
}


@dataclass
class Block:
    rows: list = field(default_factory=list)
    costs: list = field(default_factory=list)  # per cell: scheme -> overhead
    cell_s: list = field(default_factory=list)  # host seconds per cell
    hidden_s: float = 0.0  # of which the tracer's hooks
    check_s: float = 0.0


class Bench:
    def __init__(self, pkg, workload, seed: int, root: str):
        self.pkg = pkg
        self.workload = workload
        self.seed = seed
        self.root = root
        self.configs = workload.configs(pkg.ScenarioConfig)
        self.schemes = sorted(pkg.decision_engine.SCHEME_NAMES)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_block(self, block: int, tracer=None) -> Block:
        """Run one block of cells. Untraced blocks check every row."""
        pkg, out = self.pkg, Block()
        for cfg, geo_seed in self.workload.block(self.configs, self.seed, block):
            if tracer is not None:
                tracer.start_cell()
                hidden0 = tracer.hidden
            t0 = time.perf_counter()
            # module attributes are looked up per call, so a tracer sees them
            s = pkg.scenario.build_scenario(cfg, seed=geo_seed)
            g = pkg.scenario.channel_gains(s)
            outcomes = {
                name: pkg.decision_engine.run_scheme(name, s, g) for name in self.schemes
            }
            t1 = time.perf_counter()
            out.cell_s.append(t1 - t0)
            if tracer is not None:
                out.hidden_s += tracer.hidden - hidden0
            out.rows.extend(row(geo_seed, cfg, n, o) for n, o in outcomes.items())
            out.costs.append({n: o.system_overhead for n, o in outcomes.items()})
            if tracer is None:
                self.attempted += len(outcomes)
                for scheme, problems in check_cell(pkg, s, g, outcomes).items():
                    if problems:
                        self.failed += 1
                        self.problems += [f"seed={geo_seed} {scheme}: {p}" for p in problems]
            out.check_s += time.perf_counter() - t1
        return out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _mean(xs) -> float:
    return math.fsum(xs) / len(xs)


def setup_seconds(workload, root: str) -> tuple[float, float]:
    """Median set-up time over SETUP_RUNS fresh interpreters, scaled to the
    reference speed and unscaled."""
    probe = os.path.join(HERE, "setup_probe.py")
    scaled, raw = [], []
    for _ in range(SETUP_RUNS):
        before = speed.reference_s()
        done = subprocess.run(
            [sys.executable, probe, workload.name],
            cwd=root, capture_output=True, text=True, check=True, timeout=120,
        )
        took = float(done.stdout.split()[-1])
        raw.append(took)
        scaled.append(took * speed.factor(before, speed.reference_s()))
    return statistics.median(scaled), statistics.median(raw)


def quality_metrics(costs) -> dict:
    """Simulated statistics of the quality set; deterministic per seed."""
    minsum = [c["proposed_minsum"] / c["all_local"] for c in costs]
    minmax = [c["proposed_minmax"] / c["all_local"] for c in costs]
    wins = [c["proposed_minsum"] <= c["all_offload_orth"] for c in costs]
    return {
        "overhead_ratio_minsum": _metric(_mean(minsum), "ratio"),
        "overhead_ratio_minmax": _metric(_mean(minmax), "ratio"),
        "orth_win_frac": _metric(sum(wins) / len(wins), "frac"),
    }


def tail_line(cell_ms: list[float]) -> str:
    """The highest of p90, p99, p99.9 with at least ten cells beyond it."""
    n = len(cell_ms)
    ranked = sorted(cell_ms)
    best = None
    for p in (90, 99, 99.9):
        if n * (100 - p) / 100 >= 10:
            best = (p, ranked[math.ceil(p / 100 * n) - 1])
    if best is None:
        return f"tail cell_ms_p90: omitted, {n} cells (needs 100)"
    return f"tail cell_ms_p{best[0]:g}: {best[1]:.4f} ms over {n} cells"


def digest_line(workload, seed: int, rows) -> str:
    """The quality set's digest, against the one recorded for this seed.

    A difference is reported, not failed: it means the simulated behaviour
    changed, which the quality metrics then show.
    """
    d = digest(rows)
    with open(os.path.join(HERE, "rationale.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)["digests"].get(workload.name, {}).get(str(seed))
    if recorded is None:
        note = "no digest recorded for this seed"
    elif recorded == d:
        note = "matches the recorded digest"
    else:
        note = "DIFFERS from the recorded digest: the simulated behaviour changed"
    return f"quality set: {len(rows)} rows, sha256 {d}, {note}"


def wrapped_sites(tracer: Tracer, when: str) -> list[str]:
    """Self-test: no call site holds a tracer wrapper."""
    return [f"{when}: {label} is wrapped" for label in tracer.wrapped()]


def end_to_end(bench: Bench, seconds: float, tracer: Tracer) -> dict:
    wl = bench.workload
    setup, setup_raw = setup_seconds(wl, bench.root)
    bench.problems += wrapped_sites(tracer, "untraced run")
    cell_s, raw_cell_s, quality = [], [], []
    busy_s = raw_busy_s = 0.0  # timed wall, without checks and references
    block = 0
    start = time.perf_counter()
    while block < wl.quality_blocks or time.perf_counter() - start < seconds:
        before = speed.reference_s()
        t0 = time.perf_counter()
        b = bench.run_block(block)
        busy = time.perf_counter() - t0 - b.check_s
        scale = speed.factor(before, speed.reference_s())
        if block < wl.quality_blocks:
            quality.append(b)
        cell_s += [t * scale for t in b.cell_s]
        raw_cell_s += b.cell_s
        busy_s += busy * scale
        raw_busy_s += busy
        block += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bench.problems += wrapped_sites(tracer, "untraced run")
    rows = [r for b in quality for r in b.rows]
    bench.problems += check_cli(bench.pkg, wl, bench.seed, rows, bench.root)
    cell_ms = [t * 1e3 for t in cell_s]
    raw_ms = [t * 1e3 for t in raw_cell_s]
    print(
        f"unscaled host time: setup_s {setup_raw:.6g}, cell_ms_p50 "
        f"{statistics.median(raw_ms):.6g}, cells_per_s {len(raw_ms) / raw_busy_s:.6g}; "
        f"host times below are scaled by {busy_s / raw_busy_s:.4g}"
    )
    print(tail_line(cell_ms))
    print(digest_line(wl, bench.seed, rows))
    return {
        "setup_s": _metric(setup, "s"),
        "cell_ms_p50": _metric(statistics.median(cell_ms), "ms"),
        "cells_per_s": _metric(len(cell_ms) / busy_s, "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "row_ok_frac": _metric(1 - bench.failed / bench.attempted, "frac"),
        **quality_metrics([c for b in quality for c in b.costs]),
    }


def tracer_problems(snap: dict, cells: int, schemes: int) -> list[str]:
    """Self-tests: the traced run saw every call it should have."""
    def calls(label):
        return snap.get(f"{label}.calls", 0)

    problems = []
    expect = {
        "scenario.build_scenario": cells,
        "scenario.channel_gains": cells,
        "decision_engine.run_scheme": cells * schemes,
        "prb_coloring.color": snap.get("evaluate.colorable", 0),
        "prb_coloring.normalize_prbs": calls("prb_coloring.color"),
        "prb_coloring.build_interference_graph": calls("prb_coloring.color"),
        "prb_coloring.realized_rates": calls("prb_coloring.color"),
        "decision_engine.evaluate": snap.get("greedy.evaluations", 0),
    }
    for label, want in expect.items():
        if calls(label) != want:
            problems.append(f"trace: {label} called {calls(label)} times, expected {want}")
    for key in ("evaluate.outside_greedy", "evaluate.no_estimates", "greedy.other",
                "greedy.mismatch"):
        if snap.get(key, 0):
            problems.append(f"trace: {key} = {snap[key]}")
    return problems


def per_layer(bench: Bench, seconds: float, tracer: Tracer) -> dict:
    wl = bench.workload
    plain_s = traced_s = traced_net_s = 0.0
    traced_cells = quality_cells = 0
    quality_rows: list = []
    snap: dict = {}
    block = 0

    def run(block: int, traced: bool) -> Block:
        if not traced:
            bench.problems += wrapped_sites(tracer, "untraced run")
            return bench.run_block(block)
        tracer.install()
        try:
            return bench.run_block(block, tracer)
        finally:
            tracer.uninstall()

    start = time.perf_counter()
    while block < wl.quality_blocks or time.perf_counter() - start < seconds:
        # alternate which pass goes first, so neither always runs warm
        order = (False, True) if block % 2 == 0 else (True, False)
        runs = {traced: run(block, traced) for traced in order}
        plain, traced = runs[False], runs[True]
        bench.attempted += len(traced.rows)
        diff = [t for t, p in zip(traced.rows, plain.rows) if t != p]
        bench.failed += len(diff)
        bench.problems += [f"traced row differs: {','.join(t)}" for t in diff]
        plain_s += math.fsum(plain.cell_s)
        traced_s += math.fsum(traced.cell_s)
        traced_net_s += math.fsum(traced.cell_s) - traced.hidden_s
        traced_cells += len(traced.cell_s)
        block += 1
        if block <= wl.quality_blocks:
            quality_rows += plain.rows
        if block == wl.quality_blocks:
            snap = tracer.snapshot()
            quality_cells = traced_cells
    bench.problems += wrapped_sites(tracer, "after uninstall")
    bench.problems += tracer_problems(snap, quality_cells, len(bench.schemes))
    bench.problems += check_cli(bench.pkg, wl, bench.seed, quality_rows, bench.root)
    print(digest_line(wl, bench.seed, quality_rows))
    print(f"traced {traced_cells} cells, counters over the first {quality_cells}")

    overhead = (traced_s - plain_s) / plain_s
    return layer_metrics(tracer, snap, quality_cells, traced_cells, traced_net_s, overhead)


def layer_metrics(tracer, snap, quality_cells, traced_cells, traced_net_s, overhead):
    """Span times per traced cell, counters per quality cell, and shares."""
    metrics = {}
    for name in SPAN_TIMES:
        label, kind = name.rsplit(".", 1)
        table = tracer.self_time if kind == "self_s" else tracer.total
        metrics[name] = _metric(table[label] / traced_cells, "s/cell")
    for name, key in COUNTS.items():
        metrics[name] = _metric(snap.get(key, 0) / quality_cells, "1/cell")
    for name, (num, den) in FRACTIONS.items():
        share = snap.get(num, 0) / snap[den] if snap.get(den) else 0.0
        metrics[name] = _metric(share, "frac")
    layer_s = {
        layer: math.fsum(
            s for label, s in tracer.self_time.items() if label.startswith(layer + ".")
        )
        for layer in tracer.layers
    }
    for layer, s in layer_s.items():
        metrics[f"{layer}.self_share"] = _metric(s / traced_net_s, "frac")
    accounted = math.fsum(layer_s.values()) / traced_net_s
    metrics["trace.accounted_frac"] = _metric(accounted, "frac")
    metrics["trace_overhead_frac"] = _metric(overhead, "frac")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    pkg = import_package(root)
    if pkg is None:
        print(f"bench: no mecoffload source tree under {root}/src", file=sys.stderr)
        return 2
    bench = Bench(pkg, WORKLOADS[args.workload], args.seed, root)
    tracer = Tracer(pkg)
    run = per_layer if args.trace else end_to_end
    metrics = run(bench, args.seconds, tracer)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"rows: {bench.attempted} attempted, {bench.failed} failed")
    for line in bench.problems[:SHOWN_PROBLEMS]:
        print(f"problem: {line}")
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
