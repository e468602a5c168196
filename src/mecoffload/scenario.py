"""Network topology, task, and channel-gain generation.

Everything here is deterministic: the same (config, seed) pair always
produces the same Scenario and the same gain matrix, bit for bit.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .errors import InvalidConfig

# Largest n_cells * num_prbs or n_cells**2 a config may ask for: 80 MB per
# float64 table, and a run holds several (gains, PRB and interference tables).
MAX_TABLE_ENTRIES = 10**7
# gain_matrix's row blocks (64 KB): a small fraction of the gain matrix
# from about 100 cells on, so the fill holds one N x N array at a time
_GAIN_BLOCK_ENTRIES = 1 << 13


def _finite(x) -> bool:
    """A real number inside the finite float range; a bool is no number here."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


@dataclass(frozen=True)
class RadioParams:
    """Uplink spectrum description: total bandwidth split into PRBs."""

    bandwidth_hz: float
    num_prbs: int
    noise_per_prb_w: float  # sigma^2, Watts per PRB

    def __post_init__(self):
        for name in ("bandwidth_hz", "noise_per_prb_w"):
            value = getattr(self, name)
            if not 0 < value < math.inf:  # nor nan
                raise InvalidConfig(f"{name} must be finite and positive, got {value!r}")
        k = self.num_prbs
        if not (isinstance(k, numbers.Integral) and not isinstance(k, bool) and k >= 1):
            raise InvalidConfig(f"num_prbs must be an integer >= 1, got {k!r}")

    @property
    def prb_bandwidth_hz(self) -> float:
        return self.bandwidth_hz / self.num_prbs


@dataclass(frozen=True)
class Task:
    """A computation job: bits to upload and CPU cycles to burn."""

    input_bits: float
    cycles: float


@dataclass(frozen=True)
class Ue:
    id: int
    position: tuple[float, float]
    tx_power_w: float
    task: Task
    local_speed_hz: float  # cycles/s on the handset
    weight_time: float  # in [0,1]
    weight_energy: float  # in [0,1]
    energy_coeff_j_per_cycle: float


def _reduce_to_fields(self):
    """A __reduce__: the value pickles as its class called on its init
    fields, so unpickling runs the constructor, which checks and freezes
    the arrays again, and no cache travels with the value."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


# Scenario's per-UE columns: finite and positive, and the weights in [0,1]
_POSITIVE = ("tx_power_w", "input_bits", "cycles", "local_speed_hz", "energy_coeff")
_WEIGHTS = ("w_t", "w_e")
_COLUMNS = _POSITIVE + _WEIGHTS
_POSITIONS = ("cell_xy", "ue_xy")


def _check_seed(seed) -> None:
    """A seed is an int >= 0, no bool, as ScenarioConfig's int fields are."""
    if not (isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0):
        raise InvalidConfig(f"seed must be an integer >= 0, got {seed!r}")


def _check_inputs(table: np.ndarray, x) -> np.ndarray:
    """Check the (len(_COLUMNS), N) column table and the scalars of x (a
    Scenario or a ScenarioConfig), and return the table read-only."""
    # a row passes when its extremes do; a nan is its row's min and max
    lows, highs = table.min(axis=1).tolist(), table.max(axis=1).tolist()
    for name, low, high in zip(_COLUMNS, lows, highs):
        if name in _WEIGHTS:
            if not (0 <= low and high <= 1):
                raise InvalidConfig(f"UE weight {name} must lie in [0,1]")
        elif not (0 < low and high < math.inf):
            raise InvalidConfig(f"UE {name} must be finite and positive")
    # the bounds ScenarioConfig.validate sets; a nan fails each of them
    for name, in_range, bound in (
        ("mec_capacity_hz", 0 < x.mec_capacity_hz < math.inf, "finite and positive"),
        ("reuse_lambda", 1 <= x.reuse_lambda < math.inf, "finite and >= 1"),
        # normalize_prbs scales the quotas by it
        ("reuse_lambda * num_prbs", x.reuse_lambda * x.radio.num_prbs < math.inf,
         "finite and positive"),
        ("edge_threshold", 0 < x.edge_threshold < math.inf, "finite and positive"),
        ("shadowing_db", 0 <= x.shadowing_db < math.inf, "finite and >= 0"),
        ("pl0_db", -math.inf < x.pl0_db < math.inf, "finite"),
        ("pl_exponent", 0 < x.pl_exponent < math.inf, "finite and positive"),
        # the path-loss slope; inf times log10(1 m) would be a nan path loss
        ("10 * pl_exponent", 10 * x.pl_exponent < math.inf, "finite and positive"),
    ):
        if not in_range:
            raise InvalidConfig(f"{name} must be {bound}")
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class Scenario:
    """Immutable snapshot of one deployment: UE n is served by cell n, and
    the UE inputs are read-only numpy columns indexed by UE id. A scenario
    from build_scenario keeps its config in _config, which replace and a
    hand-built scenario go without: it draws its positions from the
    config on their first read, its cells share the config's plan
    (decision_engine.cell_plan), and it pickles as build_scenario(config, seed)."""

    cell_xy: np.ndarray  # (N, 2) SeNB positions, m
    ue_xy: np.ndarray  # (N, 2) UE positions, m
    tx_power_w: np.ndarray
    input_bits: np.ndarray
    cycles: np.ndarray
    local_speed_hz: np.ndarray  # cycles/s on the handset
    w_t: np.ndarray  # time weight
    w_e: np.ndarray  # energy weight
    energy_coeff: np.ndarray  # J/cycle on the handset
    radio: RadioParams
    mec_capacity_hz: float
    reuse_lambda: float
    edge_threshold: float
    seed: int
    pl0_db: float
    pl_exponent: float
    shadowing_db: float

    # the config build_scenario drew this scenario from, or None
    _config: ScenarioConfig | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        _check_seed(self.seed)
        n = np.shape(self.cell_xy)[:1]  # one UE per cell
        if n == (0,):
            raise InvalidConfig("n_cells must be >= 1")
        self._set_positions(self.cell_xy, self.ue_xy, n)
        # the per-UE columns are the rows of one table, checked a pass per rule
        table = np.empty((len(_COLUMNS),) + n)
        for row, name in zip(table, _COLUMNS):
            column = np.asarray(getattr(self, name), dtype=float)
            if column.shape != n:
                raise InvalidConfig(f"{name} has shape {column.shape}, expected {n}")
            row[...] = column
        self.__dict__.update(zip(_COLUMNS, _check_inputs(table, self)))

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: a position of a
        # scenario from build_scenario before its first read
        config = self._config
        if name not in _POSITIONS or config is None:
            raise AttributeError(name)
        n = config.n_cells
        # draw_positions is a module lookup, so it can be wrapped
        xy = draw_positions(config.area_m, config.ue_radius_m, self.seed, n)
        self._set_positions(*xy, (n,))
        return self.__dict__[name]

    def __reduce__(self):
        if self._config is not None:
            return build_scenario, (self._config, self.seed)
        return _reduce_to_fields(self)

    def _set_positions(self, cell_xy, ue_xy, n: tuple[int]) -> None:
        """Check the positions' shape and finiteness and keep them read-only."""
        checked = []
        for name, value in zip(_POSITIONS, (cell_xy, ue_xy)):
            # column-major, so each coordinate is a contiguous column
            xy = np.array(value, dtype=float, order="F")
            if xy.shape != n + (2,):
                raise InvalidConfig(f"{name} has shape {xy.shape}, expected {n + (2,)}")
            if not np.isfinite(xy).all():
                raise InvalidConfig(f"{name} must be finite")
            xy.setflags(write=False)
            checked.append(xy)
        for name, xy in zip(_POSITIONS, checked):
            object.__setattr__(self, name, xy)

    @property
    def n_cells(self) -> int:
        return len(self.cycles)

    @cached_property
    def ues(self) -> tuple[Ue, ...]:
        """Every UE as a Ue record, built from the columns on first access:
        for checks and tests outside the pipeline, which reads the columns.
        The columns are read-only, so the records cannot go stale."""
        rows = zip(self.ue_xy.tolist(), self.tx_power_w.tolist(), self.input_bits.tolist(),
                   self.cycles.tolist(), self.local_speed_hz.tolist(), self.w_t.tolist(),
                   self.w_e.tolist(), self.energy_coeff.tolist())
        return tuple(
            Ue(i, tuple(xy), p, Task(d, c), f, wt, we, v)
            for i, (xy, p, d, c, f, wt, we, v) in enumerate(rows)
        )


@dataclass(frozen=True, eq=False)
class ChannelGains:
    """Linear power gains; h[m, n] is UE m heard at SeNB n.

    h is read-only: a hand-built ChannelGains keeps a read-only copy of its
    array, so a caller's array is never frozen. Gains made by
    channel_gains(s) have no h until it is first read, which fills it with
    gain_matrix(s) and checks it (_check_link_budget); estimate_loads checks
    any other gains against its scenario. One gains object is
    shared by every scheme of a cell, and it carries that cell's sizing
    pass (decision_engine.cell_plan) in a private slot; gains pickle as
    the call that builds them, channel_gains(s) or ChannelGains(h).
    """

    h: np.ndarray
    _plan: tuple | None = field(default=None, init=False, repr=False)
    _scenario: Scenario | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        h = np.array(self.h)
        h.setflags(write=False)
        object.__setattr__(self, "h", h)

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: h before its fill
        if name != "h" or self._scenario is None:
            raise AttributeError(name)
        h = gain_matrix(self._scenario)  # a module lookup, so it can be wrapped
        _check_link_budget(self._scenario, h)
        object.__setattr__(self, "h", h)
        return h

    def __reduce__(self):
        if self._scenario is not None:
            return channel_gains, (self._scenario,)
        return _reduce_to_fields(self)


@dataclass(frozen=True)
class ScenarioConfig:
    """Flat configuration, defaults matching the reference parameter set.

    420 KB input at 1024 bytes/KB gives 3,440,640 bits; set bytes_per_kb=1000
    for decimal kilobytes. energy_coeff_j_per_cycle overrides the default
    1e-11 * local_ghz^2 J/cycle handset energy model.

    Every scenario build_scenario makes from a config keeps it, and the
    config keeps the plan of its first cell (decision_engine.cell_plan):
    no field, so ==, hash, replace, config_from_dict and a pickle (a call
    of ScenarioConfig on the fields) ignore it.
    """

    n_cells: int = 9
    area_m: float = 120.0
    ue_radius_m: float = 20.0
    bandwidth_hz: float = 20e6
    num_prbs: int = 100
    noise_dbm: float = -100.0  # per PRB
    tx_power_mw: float = 100.0
    input_kb: float = 420.0
    task_megacycles: float = 1000.0
    local_ghz: float = 0.7
    mec_ghz: float = 100.0
    gamma_t: float = 0.5
    gamma_e: float = 0.5
    reuse_lambda: float = 2.0
    edge_threshold: float = 0.1
    pl0_db: float = 30.0
    pl_exponent: float = 3.7
    shadowing_db: float = 0.0  # 0 disables shadowing
    seed: int = 0
    bytes_per_kb: int = 1024
    energy_coeff_j_per_cycle: float | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.name == "energy_coeff_j_per_cycle":
                continue
            if not _finite(value):
                raise InvalidConfig(f"{f.name} must be a finite number, got {value!r}")
            if f.type == "int" and not isinstance(value, int):
                raise InvalidConfig(f"{f.name} must be an integer, got {value!r}")
        if self.n_cells < 1:
            raise InvalidConfig("n_cells must be >= 1")
        positive = (
            "area_m", "ue_radius_m", "bandwidth_hz", "num_prbs",
            "tx_power_mw", "input_kb", "task_megacycles", "local_ghz",
            "mec_ghz", "edge_threshold", "bytes_per_kb", "pl_exponent",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise InvalidConfig(f"{name} must be positive")
        if not (0 <= self.gamma_t <= 1 and 0 <= self.gamma_e <= 1):
            raise InvalidConfig("gamma_t and gamma_e must lie in [0,1]")
        if self.reuse_lambda < 1:
            raise InvalidConfig("reuse_lambda must be >= 1")
        if max(self.n_cells * self.num_prbs, self.n_cells**2) > MAX_TABLE_ENTRIES:
            raise InvalidConfig(
                f"n_cells * num_prbs and n_cells**2 must not exceed {MAX_TABLE_ENTRIES}"
            )
        if self.shadowing_db < 0:
            raise InvalidConfig("shadowing_db must be >= 0")
        if self.energy_coeff_j_per_cycle is not None and self.energy_coeff_j_per_cycle <= 0:
            raise InvalidConfig("energy_coeff_j_per_cycle must be positive")
        # finite inputs can still overflow or underflow once scaled to SI
        # units, or once combined into a bound the simulation relies on
        derived = (
            ("input_bits", lambda: self.input_bits),
            ("noise_per_prb_w", lambda: self.noise_per_prb_w),
            ("energy_coeff", lambda: self.energy_coeff),
            ("tx_power_w", lambda: self.tx_power_w),
            ("task_cycles", lambda: self.task_cycles),
            ("local_speed_hz", lambda: self.local_speed_hz),
            ("mec_capacity_hz", lambda: self.mec_capacity_hz),
            ("ue_radius_m**2", lambda: self.ue_radius_m**2),
            # bounds every squared UE-to-SeNB distance
            ("2 * (area_m + ue_radius_m)**2", lambda: 2 * (self.area_m + self.ue_radius_m) ** 2),
            ("reuse_lambda * num_prbs", lambda: self.reuse_lambda * self.num_prbs),
            # the path-loss slope; inf times log10(1 m) would be a nan path loss
            ("10 * pl_exponent", lambda: 10 * self.pl_exponent),
            # times log2(1 + max SNR) it bounds every rate sum; inf times a
            # zero SNR would make that bound nan
            ("n_cells * bandwidth_hz", lambda: self.n_cells * self.bandwidth_hz),
            # bounds the all-local system overhead, since both weights are <= 1
            (
                "n_cells * (task_cycles / local_speed_hz + energy_coeff * task_cycles)",
                lambda: self.n_cells * (
                    self.task_cycles / self.local_speed_hz
                    + self.energy_coeff * self.task_cycles
                ),
            ),
        )
        for name, compute in derived:
            try:
                value = compute()
            except OverflowError:
                raise InvalidConfig(f"{name} overflows") from None
            if not (_finite(value) and value > 0):
                raise InvalidConfig(f"{name} must be finite and positive, got {value!r}")

    @property
    def input_bits(self) -> float:
        return self.input_kb * self.bytes_per_kb * 8

    @property
    def task_cycles(self) -> float:
        return self.task_megacycles * 1e6

    @property
    def tx_power_w(self) -> float:
        return self.tx_power_mw / 1000.0

    @property
    def noise_per_prb_w(self) -> float:
        return 10 ** (self.noise_dbm / 10) * 1e-3

    @property
    def local_speed_hz(self) -> float:
        return self.local_ghz * 1e9

    @property
    def mec_capacity_hz(self) -> float:
        return self.mec_ghz * 1e9

    @property
    def energy_coeff(self) -> float:
        if self.energy_coeff_j_per_cycle is not None:
            return self.energy_coeff_j_per_cycle
        return 1e-11 * self.local_ghz**2

    # Read once per config by build_scenario, and immutable. A cached value
    # sits in the instance dict: == and hash (over the fields) ignore it,
    # and replace and a pickle (both calls on the fields) start without it.
    @cached_property
    def radio(self) -> RadioParams:
        """The band: one frozen RadioParams for every scenario of this config."""
        return RadioParams(
            bandwidth_hz=self.bandwidth_hz,
            num_prbs=self.num_prbs,
            noise_per_prb_w=self.noise_per_prb_w,
        )

    @cached_property
    def ue_table(self) -> np.ndarray:
        """The (len(_COLUMNS), N) per-UE column table, each row one config
        value, checked with the scalars as a hand-built Scenario is and
        read-only: every scenario of this config takes its rows as columns."""
        table = np.empty((len(_COLUMNS), self.n_cells))
        table.T[...] = tuple(map(float, (
            self.tx_power_w, self.input_bits, self.task_cycles, self.local_speed_hz,
            self.energy_coeff, self.gamma_t, self.gamma_e,
        )))
        return _check_inputs(table, self)

    _plan = None  # read and written by decision_engine.cell_plan alone

    __reduce__ = _reduce_to_fields

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        return replace(self, **kwargs)


_CONFIG_KEYS = {f.name for f in fields(ScenarioConfig)}


def config_from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise InvalidConfig("config must be a flat key/value object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    try:
        return ScenarioConfig(**data)
    except TypeError as exc:
        raise InvalidConfig(str(exc)) from exc


def load_config(path: str) -> ScenarioConfig:
    """Read a flat JSON config file; unknown keys are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, UnicodeDecodeError and ints
        # past the digit limit; RecursionError is nesting too deep to parse
        raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)


def build_scenario(config: ScenarioConfig, seed: int | None = None) -> Scenario:
    """A deployment of config.n_cells cells, one UE per cell, whose
    positions are draw_positions(area_m, ue_radius_m, seed, n_cells).

    `seed` falls back to config.seed, so equal inputs give equal scenarios.
    The per-UE columns are the rows of config.ue_table, checked with the
    scalars once per config; the positions are drawn, and checked, on the
    first read of cell_xy or ue_xy, so a cell that never reads its gain
    matrix draws none.
    """
    if seed is None:
        seed = config.seed
    _check_seed(seed)
    s = object.__new__(Scenario)  # no positions yet: __getattr__ draws them
    s.__dict__.update(
        zip(_COLUMNS, config.ue_table),  # checked once per config
        radio=config.radio, mec_capacity_hz=config.mec_capacity_hz,
        reuse_lambda=config.reuse_lambda, edge_threshold=config.edge_threshold,
        seed=seed, pl0_db=config.pl0_db, pl_exponent=config.pl_exponent,
        shadowing_db=config.shadowing_db, _config=config,
    )
    return s


def draw_positions(area_m: float, ue_radius_m: float, seed: int, n: int):
    """The (cell_xy, ue_xy) of build_scenario's deployment, unchecked.

    SeNBs are uniform in the square [0, area_m]^2, and each UE uniform over
    the annulus [1 m, ue_radius_m] around its serving SeNB (from 0 m when
    ue_radius_m < 1). The draws come from one PCG64 generator seeded by
    `seed`: the SeNB coordinates, then the radii, then the angles.
    """
    rng = np.random.default_rng(seed)
    cell_xy = rng.uniform(0.0, area_m, size=(n, 2))
    r_min = min(1.0, ue_radius_m)
    radius = np.sqrt(rng.uniform(r_min**2, ue_radius_m**2, size=n))
    angle = rng.uniform(0.0, 2 * np.pi, size=n)
    # cell_xy + [radius cos, radius sin] without a stacked copy: IEEE
    # addition commutes, so adding cell_xy to the offsets gives its bits
    ue_xy = np.empty((n, 2), order="F")
    np.multiply(radius, np.cos(angle), out=ue_xy[:, 0])
    np.multiply(radius, np.sin(angle), out=ue_xy[:, 1])
    ue_xy += cell_xy
    return cell_xy, ue_xy


def channel_gains(s: Scenario) -> ChannelGains:
    """The gains of s, whose h is gain_matrix(s), filled on its first read.

    A path loss may overflow to inf and a gain underflow to 0 (no link),
    but every received SNR and the rate bound must be finite: the fill
    raises InvalidConfig otherwise (_check_link_budget). A cell that never
    reads h builds no N x N array and is not checked.
    """
    gains = object.__new__(ChannelGains)  # no h yet: __getattr__ fills it
    object.__setattr__(gains, "_scenario", s)
    return gains


def gain_matrix(s: Scenario) -> np.ndarray:
    """The read-only gain matrix of s, not checked against the link budget.

    Shadowing (when enabled) uses its own generator derived from the
    scenario seed so the geometry draw stays untouched.

    The gains are computed in place in one N x N buffer, with the IEEE
    operations of tests/_oracles.expression_gains in their order, so h is
    that expression bit for bit. The y offsets and the shadowing draw come
    _GAIN_BLOCK_ENTRIES at a time, so no second N x N array is made.
    """
    n = s.n_cells
    rows = max(1, _GAIN_BLOCK_ENTRIES // n)
    h = np.subtract(s.ue_xy[:, 0, None], s.cell_xy[None, :, 0])
    np.multiply(h, h, out=h)
    for lo in range(0, n, rows):
        dy = np.subtract(s.ue_xy[lo : lo + rows, 1, None], s.cell_xy[None, :, 1])
        np.multiply(dy, dy, out=dy)
        h[lo : lo + rows] += dy
    np.sqrt(h, out=h)
    np.maximum(h, 1.0, out=h)  # the path loss's 1 m reference distance
    # inf - inf (an overflowed path loss plus an overflowed shadowing draw)
    # is a nan gain, which the link-budget check rejects like an infinite one
    with np.errstate(over="ignore", invalid="ignore"):
        np.log10(h, out=h)
        h *= 10.0 * s.pl_exponent
        h += s.pl0_db
        if s.shadowing_db > 0:
            # the generator yields the same stream in blocks of rows
            rng = np.random.default_rng([s.seed, 1])
            for lo in range(0, n, rows):
                block = h[lo : lo + rows]
                block += rng.normal(0.0, s.shadowing_db, size=block.shape)
        np.negative(h, out=h)
        h /= 10.0
        np.power(10.0, h, out=h)
    h.setflags(write=False)  # fresh and ours: read-only without a copy
    return h


def _check_link_budget(s: Scenario, h: np.ndarray) -> None:
    """Raise InvalidConfig unless h is (n_cells, n_cells), every received
    SNR tx_power_w * h / noise_per_prb_w is finite, and so is n_cells *
    bandwidth_hz * log2(1 + max SNR), which bounds every uplink rate sum.

    Only each UE's largest gain is priced: fl(P * x / noise) is monotone in
    x for finite P > 0 and noise > 0, so it gives the row's largest SNR bit
    for bit, and a nan gain makes the row's maximum nan.
    """
    if h.shape != (s.n_cells,) * 2:
        raise InvalidConfig(f"h has shape {h.shape}, expected {(s.n_cells,) * 2}")
    with np.errstate(over="ignore", invalid="ignore"):
        # every SNR is >= 0 or nan, so the largest is finite iff all are
        snr = (s.tx_power_w * h.max(axis=1) / s.radio.noise_per_prb_w).max()
        rate_bound = s.n_cells * s.radio.bandwidth_hz * np.log2(1.0 + snr)
    if not math.isfinite(snr):
        raise InvalidConfig(
            "a received SNR tx_power_w * h / noise_per_prb_w is not finite: "
            "check tx_power_mw, pl0_db, pl_exponent, shadowing_db"
        )
    if not math.isfinite(rate_bound):
        raise InvalidConfig(
            "n_cells * bandwidth_hz * log2(1 + max SNR) overflows: check bandwidth_hz"
        )


def tx_powers(s: Scenario) -> np.ndarray:
    """Every UE's transmit power: the scenario's read-only column."""
    return s.tx_power_w
