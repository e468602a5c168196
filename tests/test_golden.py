"""Behaviour lock: CLI output and PRB tables against committed golden files.

Each golden output is the verbatim stdout of one `mecoffload` command, and
its `.sha256` companion holds one digest of (decision.a, assoc.c) per CSV
row, in row order. Decisions, PRB tables and integer columns must match
exactly; float columns must agree within 1e-12 relative.

Regenerate only for an intended behaviour change, and say why in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import math
import os

import numpy as np
import pytest

from mecoffload import cli
from mecoffload.decision_engine import run_scheme
from mecoffload.radio import OffloadDecision
from mecoffload.scenario import ScenarioConfig, build_scenario, channel_gains

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
REL_TOL = 1e-12

OUTPUTS = {
    "sweep_cells.csv": [
        "sweep", "--scheme", "all", "--vary", "cells",
        "--values", "3,9,40", "--seeds", "0..19",
    ],
    "sweep_lambda.csv": [
        "sweep", "--scheme", "all", "--vary", "lambda",
        "--values", "1,2,3", "--seeds", "0..19",
    ],
    "run_detail.txt": ["run", "--seed", "0", "--scheme", "all", "--detail"],
    # at 5 GHz every UE is forced local, so every scheme has no candidate
    "sweep_mec.csv": [
        "sweep", "--scheme", "all", "--vary", "mec_ghz",
        "--values", "5,10,100", "--seeds", "0..9",
    ],
    # three PRBs: all_offload_orth no longer fits at 9 cells and prices out
    "sweep_narrow_band.csv": [
        "sweep", "--config", os.path.join(GOLDEN, "narrow_band.json"),
        "--scheme", "all", "--vary", "cells", "--values", "1,3,9", "--seeds", "0..9",
    ],
    # 80 cells, server scaled to them: the repair loop drops UEs on seeds
    # 0, 3 and 4 (test_repair_loop_drops_pinned_counts)
    "sweep_repair.csv": [
        "sweep", "--config", os.path.join(GOLDEN, "cells80.json"),
        "--scheme", "all", "--vary", "mec_ghz", "--values", "888.8888888888889",
        "--seeds", "0..4",
    ],
    # 160 cells: hundreds of colourings with up to about 40 nodes each
    "sweep_dense.csv": [
        "sweep", "--config", os.path.join(GOLDEN, "cells160.json"),
        "--scheme", "all", "--vary", "mec_ghz", "--values", "1777.7777777777778",
        "--seeds", "0..0",
    ],
}


def _table_digest(outcome) -> str:
    a = np.asarray(outcome.decision.a, dtype=np.int64)
    c = np.ascontiguousarray(outcome.assoc.c, dtype=np.int64)
    return hashlib.sha256(a.tobytes() + c.tobytes()).hexdigest()


def capture(argv) -> tuple[str, list[str]]:
    """stdout of `mecoffload argv` and the table digest of every row."""
    digests = []
    run_scheme = cli.run_scheme

    def recording(name, s, gains):
        outcome = run_scheme(name, s, gains)
        digests.append(_table_digest(outcome))
        return outcome

    out = io.StringIO()
    cli.run_scheme = recording
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        cli.run_scheme = run_scheme
    assert code == 0
    return out.getvalue(), digests


def _same_field(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return math.isclose(g, w, rel_tol=REL_TOL, abs_tol=0.0)


def _read(name: str) -> str:
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_matches_golden(name):
    text, digests = capture(OUTPUTS[name])
    got, want = text.splitlines(), _read(name).splitlines()
    assert len(got) == len(want)
    for lineno, (g, w) in enumerate(zip(got, want), start=1):
        gf, wf = g.split(","), w.split(",")
        assert len(gf) == len(wf), f"{name}:{lineno}: {g!r} != {w!r}"
        for a, b in zip(gf, wf):
            assert _same_field(a, b), f"{name}:{lineno}: {a} != {b}"
    assert digests == _read(name + ".sha256").split()


# repair drops of sweep_repair.csv's cells, per seed: (proposed_minmax,
# proposed_minsum, equal_cpu)
REPAIR_DROPS = {0: (2, 2, 2), 1: (0, 0, 0), 2: (0, 0, 0), 3: (1, 1, 1), 4: (0, 0, 4)}


def test_repair_loop_drops_pinned_counts(monkeypatch):
    # only greedy_reallocate's repair loop calls flip_off: this pins that
    # the golden cells run it, and how often
    calls = []
    flip_off = OffloadDecision.flip_off
    monkeypatch.setattr(
        OffloadDecision, "flip_off", lambda self, n: calls.append(n) or flip_off(self, n)
    )
    cfg = ScenarioConfig(n_cells=80, mec_ghz=888.8888888888889)
    for seed, want in REPAIR_DROPS.items():
        s = build_scenario(cfg, seed)
        gains = channel_gains(s)
        got = []
        for scheme in ("proposed_minmax", "proposed_minsum", "equal_cpu"):
            calls.clear()
            run_scheme(scheme, s, gains)
            got.append(len(calls))
        assert tuple(got) == want, seed


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    for name, argv in OUTPUTS.items():
        text, digests = capture(argv)
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with open(os.path.join(GOLDEN, name + ".sha256"), "w", encoding="utf-8") as fh:
            fh.write("".join(d + "\n" for d in digests))
