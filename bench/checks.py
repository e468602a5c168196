"""Correctness checks on the benchmark's rows, run outside the timed region.

check_cell returns, per scheme, the problems found in that row; a row with
any problem counts as failed. check_cli reruns a slice of the quality set
through `mecoffload sweep` in-process and compares its CSV field by field
with the benchmark's own rows, which shows that the benchmark times the
path that users run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import tempfile

import numpy as np

REL_TOL = 1e-9

# the one scheme with a documented way to price itself out (README: "priced
# infinite when the blocks do not fit"), which also covers an even server
# split that misses a deadline
MAY_PRICE_OUT = {"all_offload_orth"}


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def _has_nan(outcome) -> bool:
    arrays = (
        outcome.rates_bps, outcome.t_off_s, outcome.e_off_j, outcome.per_ue_overhead
    )
    if math.isnan(outcome.system_overhead) or any(np.isnan(a).any() for a in arrays):
        return True
    cpu = outcome.cpu
    return cpu is not None and (
        math.isnan(cpu.objective) or any(math.isnan(f) for f in cpu.f.values())
    )


def _row_problems(pkg, scheme, outcome, s, gains, powers) -> list[str]:
    if _has_nan(outcome):
        return ["nan in outcome"]
    if math.isinf(outcome.system_overhead) and scheme not in MAY_PRICE_OUT:
        return ["inf overhead from a scheme that cannot price itself out"]
    problems = []
    decision, assoc = outcome.decision, outcome.assoc
    offs = decision.offload_set
    priced_out_empty = math.isinf(outcome.system_overhead) and assoc.m.sum() == 0
    if not priced_out_empty:
        for i in range(len(decision.a)):
            if decision.a[i] == 1 and assoc.m[i] < 1:
                problems.append(f"offloader {i} holds no PRB")
            if decision.a[i] == 0 and assoc.m[i] != 0:
                problems.append(f"local UE {i} holds PRBs")
        for i in offs:
            if assoc.m[i] < 1:
                continue
            want = pkg.uplink_rate(i, decision, assoc, gains, powers, s.radio)
            if not _close(float(outcome.rates_bps[i]), want):
                problems.append(f"UE {i} rate {outcome.rates_bps[i]} != uplink_rate {want}")
    if math.isfinite(outcome.system_overhead) and offs:
        cpu = outcome.cpu
        if cpu is None or set(cpu.f) != set(offs):
            return problems + ["CPU shares do not cover the offloaders"]
        if not _close(sum(cpu.f.values()), s.mec_capacity_hz):
            problems.append(f"CPU shares sum to {sum(cpu.f.values())}")
        for i in offs:
            ue = s.ues[i]
            done = outcome.t_off_s[i] + ue.task.cycles / cpu.f[i]
            deadline = ue.task.cycles / ue.local_speed_hz
            if done > deadline * (1 + REL_TOL):
                problems.append(f"UE {i} misses its deadline: {done} > {deadline}")
    return problems


def _start_cost(pkg, s, gains, cpu_mode) -> float:
    """System overhead of the decision the proposed pipeline starts from."""
    estimates = pkg.estimate_loads(s, gains)
    candidates = [e.ue for e in estimates if e.offloadable]
    if not candidates:
        start = pkg.OffloadDecision.all_local(len(s.ues))
    else:
        report = pkg.orthogonal_estimate(estimates, candidates, s, gains)
        start = pkg.initial_decision(estimates, report)
    return pkg.evaluate(start, s, gains, cpu_mode, estimates).system_overhead


def check_cell(pkg, s, gains, outcomes: dict) -> dict[str, list[str]]:
    """Problems per scheme for one cell's outcomes."""
    powers = pkg.tx_powers(s)
    found = {}
    for scheme, outcome in outcomes.items():
        problems = _row_problems(pkg, scheme, outcome, s, gains, powers)
        if scheme.startswith("proposed_") and not problems:
            start = _start_cost(pkg, s, gains, scheme.removeprefix("proposed_"))
            if outcome.system_overhead > start:
                problems.append(
                    f"costs {outcome.system_overhead}, more than its start {start}"
                )
        found[scheme] = problems
    return found


def check_cli(pkg, workload, seed: int, rows: list[list[str]], root: str) -> list[str]:
    """Rerun the first workload.cli_seeds seeds of block 0 through `mecoffload
    sweep --scheme all` and compare each CSV field with the given rows."""
    seeds = workload.block_seeds(seed, 0)[: workload.cli_seeds]
    argv = [
        "sweep", "--scheme", "all", "--vary", workload.vary,
        "--values", ",".join(repr(v) for v in workload.values),
        "--seeds", f"{seeds[0]}..{seeds[-1]}",
    ]
    out = io.StringIO()
    with tempfile.TemporaryDirectory(prefix=".bench_tmp", dir=root) as tmp:
        if workload.base:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(workload.base, fh)
            argv += ["--config", path]
        with contextlib.redirect_stdout(out):
            code = pkg.cli.main(argv)
    if code != 0:
        return [f"mecoffload {' '.join(argv)} exited {code}"]
    got = list(csv.reader(io.StringIO(out.getvalue())))
    header, got = got[0], got[1:]
    want = [r for r in rows if int(r[0]) in seeds]
    if len(got) != len(want):
        return [f"CLI printed {len(got)} rows, expected {len(want)}"]
    problems = []
    for g, w in zip(got, want):
        for name, a, b in zip(header, g, w):
            if a != b:
                problems.append(f"CLI row seed={w[0]} scheme={w[2]}: {name} {a} != {b}")
    return problems
