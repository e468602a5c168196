"""Workloads of the sweep benchmark and the rows they produce.

A cell is one (config, geometry seed) pair: one scenario draw plus every
scheme, in `mecoffload sweep --scheme all` loop order. A workload sweeps
its values (outer) over consecutive blocks of geometry seeds (inner).
The first quality_blocks blocks are the quality set: they always run in
full, and the simulated statistics, the row digest and the work counters
come from them alone, so they depend on --seed and on nothing else.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
from dataclasses import dataclass

# geometry seeds of --seed n start at n * SEED_STRIDE, so block 0 of
# paper_sweep at --seed 0 is the README sweep (--seeds 0..49)
SEED_STRIDE = 1_000_000

# `mecoffload sweep --vary` name -> config field
VARY_KEYS = {"cells": "n_cells", "mec_ghz": "mec_ghz"}

# the objective column of the CSV, as documented for each scheme
OBJECTIVE = {
    "proposed_minmax": "minmax",
    "proposed_minsum": "minsum",
    "all_local": "none",
    "all_offload_orth": "equal",
    "equal_cpu": "equal",
}


def import_package(root: str):
    """Import mecoffload from <root>/src and nowhere else.

    Returns None when the checkout holds no source tree, or when the import
    resolves to a copy outside it.
    """
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mecoffload", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import mecoffload
    import mecoffload.cli  # noqa: F401  (the package __init__ leaves cli out)

    here = os.path.realpath(mecoffload.__file__)
    if not here.startswith(os.path.realpath(src) + os.sep):
        return None
    return mecoffload


@dataclass(frozen=True)
class Workload:
    name: str
    vary: str  # a `mecoffload sweep --vary` name
    values: tuple
    base: dict  # config overrides shared by every value
    seeds_per_block: int
    quality_blocks: int
    cli_seeds: int  # leading seeds of block 0 that the CLI check reruns

    def configs(self, config_cls) -> list:
        """(value, config) pairs in sweep order, validated as the CLI does."""
        base = config_cls().with_overrides(**self.base)
        key = VARY_KEYS[self.vary]
        return [(v, base.with_overrides(**{key: v})) for v in sorted(self.values)]

    def block_seeds(self, seed: int, block: int) -> range:
        first = seed * SEED_STRIDE + block * self.seeds_per_block
        return range(first, first + self.seeds_per_block)

    def block(self, configs, seed: int, block: int):
        """(config, geometry seed) cells of one block, values outer."""
        return [(cfg, g) for _, cfg in configs for g in self.block_seeds(seed, block)]


# BENCHMARK.json says why each workload was chosen
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper_sweep",
            vary="cells",
            values=(3, 5, 7, 9),
            base={},
            seeds_per_block=50,
            quality_blocks=4,
            cli_seeds=5,
        ),
        Workload(
            name="dense_repair",
            vary="mec_ghz",
            values=(100 * 160 / 9,),
            base={"n_cells": 160},
            seeds_per_block=1,
            quality_blocks=4,
            cli_seeds=1,
        ),
        Workload(
            name="saturated_local",
            vary="mec_ghz",
            values=(25.0, 50.0, 100.0),
            base={"n_cells": 160},
            seeds_per_block=20,
            quality_blocks=1,
            cli_seeds=2,
        ),
    )
}


def fmt(x) -> str:
    """A CSV field as `mecoffload` prints it."""
    if isinstance(x, int):
        return str(x)
    if math.isinf(x):
        return "inf"
    return str(float(x))


def row(seed: int, cfg, scheme: str, outcome) -> list[str]:
    """The CSV row `mecoffload sweep` prints for this outcome (wall time 0)."""
    offs = outcome.decision.offload_set
    mean_rate = (
        float(sum(outcome.rates_bps[i] for i in offs) / len(offs)) if offs else 0.0
    )
    return [
        str(seed),
        str(cfg.n_cells),
        scheme,
        fmt(float(cfg.reuse_lambda)),
        OBJECTIVE[scheme],
        fmt(outcome.system_overhead),
        str(outcome.decision.n_offload),
        fmt(mean_rate),
        fmt(outcome.cpu.total_hz if outcome.cpu is not None else 0.0),
        str(int(outcome.assoc.m.sum())),
        fmt(0),
    ]


def digest(rows) -> str:
    text = "\n".join(",".join(r) for r in rows)
    return hashlib.sha256(text.encode()).hexdigest()
