"""Machine speed reference for the end-to-end host times.

On a shared host the same work runs up to 2x slower or faster from one
minute to the next, and more work per run does not average that out
(rationale.json, findings.noise). So each timed block is bracketed by runs
of reference(), a fixed mix of numpy and interpreter work that does not
touch mecoffload, and the block's host times are scaled by factor(): the
ratio of REF_S to the bracket's mean reference time. A scaled time is the
host time the block would have taken on a machine that runs reference()
in REF_S.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.003  # about reference()'s time on the machine in rationale.json
RUNS = 5  # reference() calls per measurement

_ROWS = np.random.default_rng(0).random((160, 100))


def reference() -> float:
    acc = 0.0
    for i in range(150):
        row = _ROWS[i % len(_ROWS)]
        acc += float(np.log2(1.0 + row / (1e-3 + row.sum())).sum())
        table = {j: j * 0.5 for j in range(60)}
        acc += sum(v for v in table.values() if v > 3)
    return acc


def reference_s() -> float:
    """Mean host time of one reference() call, over RUNS calls."""
    t0 = time.perf_counter()
    for _ in range(RUNS):
        reference()
    return (time.perf_counter() - t0) / RUNS


def factor(before_s: float, after_s: float) -> float:
    """Scale for host times measured between two reference_s() readings."""
    return REF_S / ((before_s + after_s) / 2)
