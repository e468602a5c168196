"""Deterministic small-cell MEC simulator: joint computation offloading,
graph-coloring PRB allocation, and convex server CPU partitioning."""

from .cpu_allocation import (
    CpuAllocation,
    allocate_equal,
    allocate_minmax,
    allocate_minsum,
)
from .decision_engine import (
    SCHEME_NAMES,
    AllocationOutcome,
    evaluate,
    greedy_reallocate,
    initial_decision,
    orthogonal_estimate,
    price,
    run_baseline,
    run_proposed,
    run_scheme,
    uplink,
)
from .errors import InfeasibleAllocation, InvalidConfig
from .load_estimation import (
    LoadEstimate,
    Loads,
    estimate_loads,
    min_prbs,
)
from .prb_coloring import (
    ColoringState,
    InterferenceGraph,
    build_interference_graph,
    color,
    normalize_prbs,
    realized_rates,
)
from .radio import (
    OffloadDecision,
    PrbAssociation,
    interference_table,
    per_prb_power,
    uplink_rate,
)
from .scenario import (
    ChannelGains,
    RadioParams,
    Scenario,
    ScenarioConfig,
    build_scenario,
    channel_gains,
    config_from_dict,
    load_config,
    tx_powers,
)

__version__ = "0.1.0"
