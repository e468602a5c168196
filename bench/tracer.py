"""Per-layer spans and work counters, from wrappers the benchmark installs.

A function is wrapped where its caller looks it up. decision_engine binds
its helpers with `from ... import`, so those are wrapped in
decision_engine's namespace rather than in the module that defines them,
and the CPU solvers are wrapped inside decision_engine._CPU_SOLVERS. The
layer of a span is the first part of its label: the package module that
defines the function. compute_model runs only inside estimate_loads and is
counted there; errors does no work; cli only formats rows and is checked
by checks.check_cli instead.

A span's self time is its duration minus that of the spans it encloses.
Time spent in the tracer's own hooks is excluded from every open span.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

_MARK = "_bench_span"

_perf = time.perf_counter


def _sites(pkg) -> list[tuple[object, str, str]]:
    """(namespace, name, label) for every call site the tracer wraps."""
    de = pkg.decision_engine
    sites = [
        (pkg.scenario, "build_scenario", "scenario.build_scenario"),
        (pkg.scenario, "channel_gains", "scenario.channel_gains"),
        (de, "tx_powers", "scenario.tx_powers"),
        (de, "estimate_loads", "load_estimation.estimate_loads"),
        (de, "normalize_prbs", "prb_coloring.normalize_prbs"),
        (de, "build_interference_graph", "prb_coloring.build_interference_graph"),
        (de, "color", "prb_coloring.color"),
        (de, "realized_rates", "prb_coloring.realized_rates"),
        (de, "interference_table", "radio.interference_table"),
    ]
    for name in (
        "run_scheme", "run_proposed", "run_baseline", "greedy_reallocate",
        "evaluate", "orthogonal_estimate", "initial_decision",
    ):
        sites.append((de, name, f"decision_engine.{name}"))
    for mode, fn in de._CPU_SOLVERS.items():
        sites.append((de._CPU_SOLVERS, mode, f"cpu_allocation.{fn.__name__}"))
    return sites


def _get(space, name):
    return space[name] if isinstance(space, dict) else getattr(space, name)


def _set(space, name, value) -> None:
    if isinstance(space, dict):
        space[name] = value
    else:
        setattr(space, name, value)


def greedy_steps(seq: list[tuple[int, ...]], final: tuple[int, ...]) -> dict[str, int]:
    """Classify the offload sets one greedy_reallocate call passed to evaluate.

    The first is the starting decision. A set one member smaller than the
    current one, before any trial, is a repair drop; a set one member larger
    is a greedy trial. A trial is accepted when the next set contains it, or
    when it is the last one and the call returned it. Anything else counts
    as `other`, and `mismatch` is set when the derived end state is not the
    decision the call returned.
    """
    base = set(seq[0])
    out = {"drops": 0, "trials": 0, "accepts": 0, "other": 0, "mismatch": 0}
    trial = None
    for cur in map(set, seq[1:]):
        if trial is not None and trial < cur:
            base = trial
            out["accepts"] += 1
        trial = None
        if out["trials"] == 0 and cur < base and len(base - cur) == 1:
            out["drops"] += 1
            base = cur
        elif base < cur and len(cur - base) == 1:
            out["trials"] += 1
            trial = cur
        else:
            out["other"] += 1
    if trial is not None and trial == set(final):
        base = trial
        out["accepts"] += 1
    out["mismatch"] = int(base != set(final))
    return out


class Tracer:
    """Aggregated spans (total and self time, calls) per label, plus counters."""

    def __init__(self, pkg):
        self._sites = _sites(pkg)
        # the package modules spans are attributed to, in site order
        self.layers = tuple(dict.fromkeys(lbl.split(".")[0] for _, _, lbl in self._sites))
        self._error_cls = pkg.InfeasibleAllocation
        self._saved: list[tuple[object, str, object]] = []
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.hidden = 0.0  # seconds spent in hooks
        self._stack: list[list[float]] = []
        self._greedy: list[list[tuple[int, ...]]] = []
        self._seen: set[tuple[int, ...]] = set()
        self._hooks = {
            "decision_engine.evaluate": (None, self._after_evaluate),
            "decision_engine.greedy_reallocate": (
                self._before_greedy, self._after_greedy
            ),
            "prb_coloring.color": (None, self._after_color),
            "prb_coloring.build_interference_graph": (None, self._after_graph),
        }

    # -- installation -------------------------------------------------------

    def wrapped(self) -> list[str]:
        """Labels whose call site currently holds a tracer wrapper."""
        return [
            label for space, name, label in self._sites
            if hasattr(_get(space, name), _MARK)
        ]

    def install(self) -> None:
        for space, name, label in self._sites:
            fn = _get(space, name)
            self._saved.append((space, name, fn))
            _set(space, name, self._wrap(fn, label))

    def uninstall(self) -> None:
        while self._saved:
            space, name, fn = self._saved.pop()
            _set(space, name, fn)

    def start_cell(self) -> None:
        self._seen = set()

    def snapshot(self) -> dict[str, int]:
        """Calls per label and every counter, as one flat dict."""
        snap = {f"{label}.calls": n for label, n in self.calls.items()}
        snap.update(self.counts)
        return snap

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, label):
        before, after = self._hooks.get(label, (None, None))
        if label.startswith("cpu_allocation."):
            after = self._after_cpu
        sig = inspect.signature(fn)

        def span(*args, **kwargs):
            if before is not None:
                h0 = _perf()
                before()
                self.hidden += _perf() - h0
            frame = [0.0]
            self._stack.append(frame)
            hidden0 = self.hidden
            result = error = None
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                dur = _perf() - t0 - (self.hidden - hidden0)
                self._stack.pop()
                self.total[label] += dur
                self.self_time[label] += dur - frame[0]
                self.calls[label] += 1
                if self._stack:
                    self._stack[-1][0] += dur
                if after is not None:
                    h0 = _perf()
                    after(sig.bind(*args, **kwargs).arguments, result, error)
                    self.hidden += _perf() - h0

        setattr(span, _MARK, label)
        return span

    # -- hooks --------------------------------------------------------------

    def _after_evaluate(self, args, result, error) -> None:
        decision = args["decision"]
        offs = decision.offload_set
        if decision.a in self._seen:
            self.counts["evaluate.dup"] += 1
        self._seen.add(decision.a)
        estimates = args.get("estimates")
        if estimates is None:
            self.counts["evaluate.no_estimates"] += 1
        elif offs and all(estimates[i].offloadable for i in offs):
            self.counts["evaluate.colorable"] += 1
        if self._greedy:
            self._greedy[-1].append(offs)
        else:
            self.counts["evaluate.outside_greedy"] += 1

    def _before_greedy(self) -> None:
        self._greedy.append([])

    def _after_greedy(self, args, result, error) -> None:
        seq = self._greedy.pop()
        if error is not None:
            return
        if not seq or seq[0] != args["a_init"].offload_set:
            self.counts["greedy.mismatch"] += 1
            return
        self.counts["greedy.evaluations"] += len(seq)
        for key, n in greedy_steps(seq, result.decision.offload_set).items():
            self.counts[f"greedy.{key}"] += n

    def _after_color(self, args, result, error) -> None:
        self.counts["color.nodes"] += len(args["graph"].nodes)

    def _after_graph(self, args, result, error) -> None:
        ids = sorted(args["offload_ids"])
        h = args["gains"].h[ids][:, ids]
        mask = h / h.diagonal()[None, :] > args["theta"]
        mask[range(len(ids)), range(len(ids))] = False
        self.counts["graph.edges"] += int(mask.sum())

    def _after_cpu(self, args, result, error) -> None:
        self.counts["cpu.calls"] += 1
        if isinstance(error, self._error_cls):
            self.counts["cpu.infeasible"] += 1
