"""Network topology, task, and channel-gain generation.

Everything here is deterministic: the same (config, seed) pair always
produces the same Scenario and the same gain matrix, bit for bit.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import InvalidConfig


@dataclass(frozen=True)
class RadioParams:
    """Uplink spectrum description: total bandwidth split into PRBs."""

    bandwidth_hz: float
    num_prbs: int
    noise_per_prb_w: float  # sigma^2, Watts per PRB

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise InvalidConfig("bandwidth_hz must be positive")
        if self.num_prbs < 1:
            raise InvalidConfig("num_prbs must be >= 1")
        if self.noise_per_prb_w <= 0:
            raise InvalidConfig("noise_per_prb_w must be positive")

    @property
    def prb_bandwidth_hz(self) -> float:
        return self.bandwidth_hz / self.num_prbs


@dataclass(frozen=True)
class Task:
    """A computation job: bits to upload and CPU cycles to burn."""

    input_bits: float
    cycles: float

    def __post_init__(self):
        if self.input_bits <= 0 or self.cycles <= 0:
            raise InvalidConfig("task input_bits and cycles must be positive")


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

    def __post_init__(self):
        if self.tx_power_w <= 0 or self.local_speed_hz <= 0:
            raise InvalidConfig("UE power and CPU speed must be positive")
        if not (0 <= self.weight_time <= 1 and 0 <= self.weight_energy <= 1):
            raise InvalidConfig("UE weights must lie in [0,1]")
        if self.energy_coeff_j_per_cycle <= 0:
            raise InvalidConfig("energy coefficient must be positive")


@dataclass(frozen=True)
class SmallCell:
    id: int
    position: tuple[float, float]


@dataclass(frozen=True)
class Scenario:
    """Immutable snapshot of one deployment: cells, UEs, radio, server."""

    cells: tuple[SmallCell, ...]
    ues: tuple[Ue, ...]
    radio: RadioParams
    mec_capacity_hz: float
    reuse_lambda: float
    edge_threshold: float
    seed: int
    area_m: float
    pl0_db: float
    pl_exponent: float
    shadowing_db: float

    def __post_init__(self):
        if len(self.cells) != len(self.ues):
            raise InvalidConfig("one UE per cell required")
        if self.mec_capacity_hz <= 0:
            raise InvalidConfig("mec_capacity_hz must be positive")
        if self.reuse_lambda < 1:
            raise InvalidConfig("reuse_lambda must be >= 1")
        if self.edge_threshold <= 0:
            raise InvalidConfig("edge_threshold must be positive")

    @property
    def n_cells(self) -> int:
        return len(self.cells)


@dataclass(frozen=True)
class ChannelGains:
    """Linear power gains; h[m, n] is UE m heard at SeNB n."""

    h: np.ndarray

    @property
    def n(self) -> int:
        return self.h.shape[0]


@dataclass(frozen=True)
class ScenarioConfig:
    """Flat configuration, defaults matching the reference parameter set.

    420 KB input at 1024 bytes/KB gives 3,440,640 bits; set bytes_per_kb=1000
    for decimal kilobytes. energy_coeff_j_per_cycle overrides the default
    1e-11 * local_ghz^2 J/cycle handset energy model.
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

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.name == "energy_coeff_j_per_cycle":
                continue
            # bool is an int subclass, but true is no cell count
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
            ):
                raise InvalidConfig(f"{f.name} must be a finite number, got {value!r}")
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
        if self.shadowing_db < 0:
            raise InvalidConfig("shadowing_db must be >= 0")
        if self.energy_coeff_j_per_cycle is not None and self.energy_coeff_j_per_cycle <= 0:
            raise InvalidConfig("energy_coeff_j_per_cycle must be positive")
        # finite inputs can still overflow or underflow once scaled to SI units
        try:
            derived = {
                "input_bits": self.input_bits,
                "noise_per_prb_w": self.noise_per_prb_w,
                "energy_coeff": self.energy_coeff,
                "tx_power_w": self.tx_power_mw / 1000.0,
                "task cycles": self.task_megacycles * 1e6,
                "local_speed_hz": self.local_ghz * 1e9,
                "mec_capacity_hz": self.mec_ghz * 1e9,
                "ue_radius_m**2": self.ue_radius_m**2,
                "reuse_lambda * num_prbs": self.reuse_lambda * self.num_prbs,
            }
        except OverflowError as exc:
            raise InvalidConfig(f"a derived value overflows: {exc}") from exc
        for name, value in derived.items():
            if not (math.isfinite(value) and value > 0):
                raise InvalidConfig(f"{name} must be finite and positive, got {value!r}")

    @property
    def input_bits(self) -> float:
        return self.input_kb * self.bytes_per_kb * 8

    @property
    def noise_per_prb_w(self) -> float:
        return 10 ** (self.noise_dbm / 10) * 1e-3

    @property
    def energy_coeff(self) -> float:
        if self.energy_coeff_j_per_cycle is not None:
            return self.energy_coeff_j_per_cycle
        return 1e-11 * self.local_ghz**2

    def with_overrides(self, **kwargs) -> "ScenarioConfig":
        cfg = replace(self, **kwargs)
        cfg.validate()
        return cfg


_CONFIG_KEYS = {f.name for f in fields(ScenarioConfig)}


def config_from_dict(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise InvalidConfig("config must be a flat key/value object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")
    try:
        cfg = ScenarioConfig(**data)
    except TypeError as exc:
        raise InvalidConfig(str(exc)) from exc
    for name in ("n_cells", "num_prbs", "seed", "bytes_per_kb"):
        if not isinstance(getattr(cfg, name), int):
            raise InvalidConfig(f"{name} must be an integer")
    cfg.validate()
    return cfg


def load_config(path: str) -> ScenarioConfig:
    """Read a flat JSON config file; unknown keys are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(data)


def build_scenario(config: ScenarioConfig, seed: int | None = None) -> Scenario:
    """Draw a deployment: SeNBs uniform in the square, one UE per cell.

    UE offsets are uniform over the annulus [1 m, ue_radius_m] around the
    serving SeNB. All draws come from one PCG64 generator seeded by `seed`
    (falling back to config.seed), so equal inputs give equal scenarios.
    """
    config.validate()
    if seed is None:
        seed = config.seed
    n = config.n_cells
    rng = np.random.default_rng(seed)

    cell_xy = rng.uniform(0.0, config.area_m, size=(n, 2))
    r_min = min(1.0, config.ue_radius_m)
    radius = np.sqrt(rng.uniform(r_min**2, config.ue_radius_m**2, size=n))
    angle = rng.uniform(0.0, 2 * np.pi, size=n)
    ue_xy = cell_xy + np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)

    radio = RadioParams(
        bandwidth_hz=config.bandwidth_hz,
        num_prbs=config.num_prbs,
        noise_per_prb_w=config.noise_per_prb_w,
    )
    task = Task(input_bits=config.input_bits, cycles=config.task_megacycles * 1e6)
    cells = tuple(SmallCell(i, (float(cell_xy[i, 0]), float(cell_xy[i, 1]))) for i in range(n))
    ues = tuple(
        Ue(
            id=i,
            position=(float(ue_xy[i, 0]), float(ue_xy[i, 1])),
            tx_power_w=config.tx_power_mw / 1000.0,
            task=task,
            local_speed_hz=config.local_ghz * 1e9,
            weight_time=config.gamma_t,
            weight_energy=config.gamma_e,
            energy_coeff_j_per_cycle=config.energy_coeff,
        )
        for i in range(n)
    )
    return Scenario(
        cells=cells,
        ues=ues,
        radio=radio,
        mec_capacity_hz=config.mec_ghz * 1e9,
        reuse_lambda=config.reuse_lambda,
        edge_threshold=config.edge_threshold,
        seed=seed,
        area_m=config.area_m,
        pl0_db=config.pl0_db,
        pl_exponent=config.pl_exponent,
        shadowing_db=config.shadowing_db,
    )


def path_loss_db(distance_m: np.ndarray | float, pl0_db: float, exponent: float) -> np.ndarray | float:
    """Log-distance path loss, 1 m reference; distances clamped to 1 m."""
    d = np.maximum(distance_m, 1.0)
    return pl0_db + 10.0 * exponent * np.log10(d)


def channel_gains(s: Scenario) -> ChannelGains:
    """Linear gain matrix h[m, n] from UE m to SeNB n.

    Shadowing (when enabled) uses its own generator derived from the
    scenario seed so the geometry draw stays untouched.
    """
    ue_xy = np.array([u.position for u in s.ues])
    cell_xy = np.array([c.position for c in s.cells])
    diff = ue_xy[:, None, :] - cell_xy[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    pl = path_loss_db(dist, s.pl0_db, s.pl_exponent)
    if s.shadowing_db > 0:
        rng = np.random.default_rng([s.seed, 1])
        pl = pl + rng.normal(0.0, s.shadowing_db, size=pl.shape)
    h = 10.0 ** (-pl / 10.0)
    return ChannelGains(h=h)


def tx_powers(s: Scenario) -> np.ndarray:
    return np.array([u.tx_power_w for u in s.ues])
