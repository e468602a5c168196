"""Deterministic small-cell MEC simulator: joint computation offloading,
graph-coloring PRB allocation, and convex server CPU partitioning."""

from .compute_model import LocalOverhead, OffloadOverhead, local_overhead, offload_overhead
from .cpu_allocation import (
    CpuAllocation,
    CpuRequest,
    allocate_equal,
    allocate_minmax,
    allocate_minsum,
    feasible,
)
from .decision_engine import (
    SCHEME_NAMES,
    AllocationOutcome,
    evaluate,
    greedy_reallocate,
    initial_decision,
    orthogonal_estimate,
    run_baseline,
    run_proposed,
    run_scheme,
)
from .errors import (
    EmptyOffloadSet,
    InconsistentTables,
    InfeasibleAllocation,
    InvalidConfig,
    ZeroRate,
)
from .load_estimation import (
    LoadEstimate,
    estimate_loads,
    min_prbs,
    min_rate_requirement,
)
from .prb_coloring import (
    ColoringState,
    ColorStep,
    InterferenceGraph,
    build_interference_graph,
    color,
    normalize_prbs,
    realized_rates,
)
from .radio import (
    InterferenceTable,
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
    SmallCell,
    Task,
    Ue,
    build_scenario,
    channel_gains,
    config_from_dict,
    load_config,
    path_loss_db,
    tx_powers,
)

__version__ = "0.1.0"
