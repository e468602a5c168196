"""Command-line front end: single runs, parameter sweeps, CSV output.

Every row is reproducible from its (seed, scheme, varied value) triple;
reruns are byte-identical. Wall time is reported as 0 unless --timing is
given, so that timing noise never leaks into diffable output.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time

from .decision_engine import (
    SCHEME_NAMES,
    SCHEME_OBJECTIVE,
    AllocationOutcome,
    run_scheme,
)
from .errors import InvalidConfig
from .scenario import ScenarioConfig, build_scenario, channel_gains, load_config

CSV_HEADER = (
    "seed,n_cells,scheme,lambda,objective,system_overhead,n_offload,"
    "mean_rate_bps,sum_cpu_assigned_hz,prb_slots_assigned,wall_time_ms"
)

_VARY_KEYS = {"cells": "n_cells", "lambda": "reuse_lambda", "mec_ghz": "mec_ghz"}


def _fmt(x) -> str:
    if isinstance(x, int):
        return str(x)
    if math.isinf(x):
        return "inf"
    return str(float(x))


def _row(seed: int, scheme: str, cfg, outcome: AllocationOutcome, wall_ms) -> list[str]:
    """The CSV fields of one run, in CSV_HEADER order."""
    offs = outcome.decision.offload_set
    mean_rate = (
        float(sum(outcome.rates_bps[i] for i in offs) / len(offs)) if offs else 0.0
    )
    return [
        str(seed),
        str(cfg.n_cells),
        scheme,
        _fmt(float(cfg.reuse_lambda)),
        SCHEME_OBJECTIVE[scheme],
        _fmt(outcome.system_overhead),
        str(outcome.decision.n_offload),
        _fmt(mean_rate),
        _fmt(outcome.cpu.total_hz if outcome.cpu is not None else 0.0),
        str(int(outcome.assoc.m.sum())),
        _fmt(wall_ms),
    ]


def _detail_lines(seed: int, scheme: str, outcome: AllocationOutcome) -> list[str]:
    """Per-cell PRB listing, '#'-prefixed so CSV consumers skip it."""
    lines = [f"# prb_allocation seed={seed} scheme={scheme}"]
    c = outcome.assoc.c
    for n in range(c.shape[0]):
        if outcome.decision.a[n] == 0:
            lines.append(f"# cell {n}: local")
        else:
            held = " ".join(str(k) for k in c[n].nonzero()[0])
            lines.append(f"# cell {n}: {held}")
    return lines


class _Parser(argparse.ArgumentParser):
    # usage problems exit 3; config and output problems exit 2 (handled in main)
    def error(self, message):
        self.exit(3, f"{self.prog}: error: {message}\n")


def _resolve_schemes(scheme: str | None, objective: str | None) -> list[str]:
    scheme = scheme or "proposed"
    if scheme == "proposed":
        return [f"proposed_{objective or 'minsum'}"]
    if objective is not None and scheme != f"proposed_{objective}":
        raise _UsageError(
            f"--objective {objective} conflicts with --scheme {scheme}"
        )
    if scheme == "all":
        return sorted(SCHEME_NAMES)
    return [scheme]


class _UsageError(Exception):
    pass


def _parse_seeds(text: str) -> list[int]:
    if ".." in text:
        first, _, last = text.partition("..")
        try:
            lo, hi = int(first), int(last)
        except ValueError:
            raise _UsageError(f"bad seed range {text!r}") from None
        return list(range(lo, hi + 1))
    try:
        return [int(text)]
    except ValueError:
        raise _UsageError(f"bad seed list {text!r}") from None


def _parse_values(vary: str, text: str) -> list:
    cast = int if vary == "cells" else float
    try:
        values = [cast(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise _UsageError(f"bad value list {text!r} for --vary {vary}") from None
    if not values:
        raise _UsageError("empty --values list")
    return values


def _load_cfg(path: str | None) -> ScenarioConfig:
    if path is None:
        return ScenarioConfig()
    return load_config(path)


def _emit(rows: list[list[str]], output: str | None, extra: list[str]) -> None:
    def write(stream):
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows(rows)

    if output is None:
        write(sys.stdout)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            write(fh)
    for line in extra:
        print(line)


def _run_cells(args, schemes, configs, seeds, detail: bool) -> int:
    """Every scheme on every (config, seed) cell, rows in loop order."""
    rows, extra = [], []
    for cfg in configs:
        for seed in seeds:
            s = build_scenario(cfg, seed=seed)
            g = channel_gains(s)
            for scheme in sorted(schemes):
                t0 = time.perf_counter()
                outcome = run_scheme(scheme, s, g)
                wall_ms = (time.perf_counter() - t0) * 1e3 if args.timing else 0
                rows.append(_row(seed, scheme, cfg, outcome, wall_ms))
                if detail:
                    extra.extend(_detail_lines(seed, scheme, outcome))
    _emit(rows, args.output, extra)
    return 0


def cmd_run(args) -> int:
    cfg = _load_cfg(args.config)
    schemes = _resolve_schemes(args.scheme, args.objective)
    seed = args.seed if args.seed is not None else cfg.seed
    return _run_cells(args, schemes, [cfg], [seed], args.detail)


def cmd_sweep(args) -> int:
    cfg = _load_cfg(args.config)
    schemes = _resolve_schemes(args.scheme, args.objective)
    seeds = _parse_seeds(args.seeds)
    if not seeds:
        raise _UsageError("empty seed range")
    values = _parse_values(args.vary, args.values)
    key = _VARY_KEYS[args.vary]
    configs = [cfg.with_overrides(**{key: value}) for value in sorted(values)]
    return _run_cells(args, schemes, configs, sorted(seeds), detail=False)


def build_parser() -> _Parser:
    parser = _Parser(prog="mecoffload", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument(
            "--scheme",
            default=None,
            choices=["proposed", "all", *SCHEME_NAMES],
            help="which scheme to run (default proposed)",
        )
        p.add_argument("--objective", default=None, choices=["minmax", "minsum"])
        p.add_argument("--output", default=None, help="CSV file (default stdout)")
        p.add_argument(
            "--timing",
            action="store_true",
            help="report real wall time instead of the reproducible 0",
        )

    run_p = sub.add_parser("run", help="one seed, one or more schemes")
    common(run_p)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument(
        "--detail", action="store_true", help="dump the per-cell PRB table"
    )
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="cartesian sweep over values and seeds")
    common(sweep_p)
    sweep_p.add_argument("--seeds", required=True, help="N or A..B (inclusive)")
    sweep_p.add_argument("--vary", required=True, choices=sorted(_VARY_KEYS))
    sweep_p.add_argument("--values", required=True, help="comma-separated list")
    sweep_p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"mecoffload: error: {exc}", file=sys.stderr)
        return 3
    except InvalidConfig as exc:
        print(f"mecoffload: config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # load_config turns read failures into InvalidConfig: this is the CSV write
        print(f"mecoffload: output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
