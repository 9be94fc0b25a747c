"""Run configuration: one YAML file drives every module.

Nested dataclasses mirror the YAML structure; loading rejects unknown keys
so typos fail before any work starts, and every run writes its fully
resolved config next to its outputs for bit-identical reruns.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np
import yaml

from .kinematics import LegGeometry
from .oscillator import OscillatorParams
from .ppo import PpoConfig
from .randomization import CurriculumConfig, RandomizationConfig
from .simulator import EnvParams
from .task import RewardWeights


class ConfigError(ValueError):
    """Configuration failed validation; the CLI maps this to exit code 2."""


@dataclass(frozen=True)
class PlannerConfig:
    h: int = 20
    sigma: float = 0.1
    burn_in_ticks: int = 5000


@dataclass(frozen=True)
class RobotConfig:
    hip_offset: float = 0.08
    thigh_len: float = 0.213
    calf_len: float = 0.213
    hip_mount_x: float = 0.1881
    hip_mount_y: float = 0.04675
    stand_height: float = 0.32
    kp: float = 75.0
    kd: float = 1.5
    tau_limit: float = 23.7
    residual_limit: float = 0.6
    filter_alpha: float = 0.7
    abd_limits: tuple = (-0.86, 0.86)
    hip_limits: tuple = (-0.69, 3.0)
    knee_limits: tuple = (-2.72, -0.05)


@dataclass(frozen=True)
class SimConfig:
    trunk_mass: float = 12.0
    trunk_inertia: tuple = (0.1, 0.25, 0.3)
    friction: float = 0.8
    contact_stiffness: float = 1.5e4
    contact_damping: float = 150.0
    tangential_gain: float = 100.0
    gravity: float = 9.81
    reflected_inertia: float = 0.1
    dt: float = 1.0 / 200.0
    trunk_half_extents: tuple = (0.1881, 0.047, 0.057)
    collision_margin: float = 0.05
    episode_limit: float = 20.0
    spawn_drop_height: float = 0.05


@dataclass(frozen=True)
class TerrainConfig:
    kind: str = "flat"           # flat | slope
    angle_rad: float = 0.17453292519943295  # 10 deg, used when kind == slope


@dataclass(frozen=True)
class RewardConfig:
    h_star: float = 0.32
    weights: RewardWeights = field(default_factory=RewardWeights)


@dataclass(frozen=True)
class DemoConfig:
    """Synthetic trot demonstration parameters for the fitting pipeline."""

    freq: float = 1.5
    clearance_front: float = 0.07
    clearance_rear: float = 0.04
    step_length: float = 0.2
    stance_fraction: float = 0.6
    sample_rate: float = 180.0
    stance_x_offset: float = -0.06


@dataclass(frozen=True)
class CommandConfig:
    vx_range: tuple = (-1.0, 1.0)
    vy_range: tuple = (-1.0, 1.0)
    wz_range: tuple = (-1.0, 1.0)
    resample_interval: float = 10.0

    @property
    def ranges(self):
        return (self.vx_range, self.vy_range, self.wz_range)


@dataclass(frozen=True)
class TrainingConfig:
    ppo: PpoConfig = field(default_factory=PpoConfig)
    lr_init: float = 1.0e-3
    hidden: tuple = (512, 256, 128)
    log_std_init: float = -1.0
    actor_out_scale: float = 0.01
    normalize_obs: bool = True
    n_envs: int = 64
    horizon: int = 24
    iterations: int = 300
    checkpoint_every: int = 50


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    cpg: OscillatorParams = field(default_factory=OscillatorParams)
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    robot: RobotConfig = field(default_factory=RobotConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    terrain: TerrainConfig = field(default_factory=TerrainConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    demo: DemoConfig = field(default_factory=DemoConfig)
    dr: RandomizationConfig = field(default_factory=RandomizationConfig)
    curriculum: CurriculumConfig = field(default_factory=CurriculumConfig)
    train: TrainingConfig = field(default_factory=TrainingConfig)
    commands: CommandConfig = field(default_factory=CommandConfig)

    # ---- runtime builders

    def leg_geometry(self) -> LegGeometry:
        r = self.robot
        mounts = np.array(
            [
                [r.hip_mount_x, -r.hip_mount_y, 0.0],
                [r.hip_mount_x, r.hip_mount_y, 0.0],
                [-r.hip_mount_x, -r.hip_mount_y, 0.0],
                [-r.hip_mount_x, r.hip_mount_y, 0.0],
            ]
        )
        return LegGeometry(
            hip_offset=r.hip_offset,
            thigh_len=r.thigh_len,
            calf_len=r.calf_len,
            hip_mounts=mounts,
        )

    def env_params(self) -> EnvParams:
        s = self.sim
        r = self.robot
        limits = np.stack(
            [
                np.tile([r.abd_limits[0], r.hip_limits[0], r.knee_limits[0]], 4),
                np.tile([r.abd_limits[1], r.hip_limits[1], r.knee_limits[1]], 4),
            ]
        )
        params = EnvParams(
            trunk_mass=s.trunk_mass,
            trunk_inertia=s.trunk_inertia,
            friction=s.friction,
            contact_stiffness=s.contact_stiffness,
            contact_damping=s.contact_damping,
            tangential_gain=s.tangential_gain,
            gravity=s.gravity,
            kp=r.kp,
            kd=r.kd,
            tau_limit=r.tau_limit,
            reflected_inertia=s.reflected_inertia,
            joint_limits=limits,
            geometry=self.leg_geometry(),
            stand_height=r.stand_height,
            trunk_half_extents=s.trunk_half_extents,
            collision_margin=s.collision_margin,
            episode_limit=s.episode_limit,
            dt=s.dt,
        )
        if self.terrain.kind == "slope":
            params = params.with_slope(self.terrain.angle_rad)
        return params

    def validate(self) -> None:
        try:
            self.cpg.validate()
            self.dr.validate()
            self.train.ppo.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.terrain.kind not in ("flat", "slope"):
            raise ConfigError(f"terrain.kind must be flat or slope, got {self.terrain.kind!r}")
        if self.train.n_envs < 1:
            raise ConfigError("train.n_envs must be >= 1")
        if self.train.horizon < 1:
            raise ConfigError("train.horizon must be >= 1")
        if self.train.horizon * self.train.n_envs < self.train.ppo.n_minibatches:
            raise ConfigError(
                f"train.horizon * train.n_envs ({self.train.horizon * self.train.n_envs}) "
                f"must be >= train.ppo.n_minibatches ({self.train.ppo.n_minibatches}); "
                "a minibatch would be empty")
        if self.train.iterations < 0:
            raise ConfigError("train.iterations must be >= 0")
        if self.planner.h < 1:
            raise ConfigError("planner.h must be >= 1")
        if not (0.0 < self.robot.filter_alpha <= 1.0):
            raise ConfigError("robot.filter_alpha must be in (0, 1]")
        for name in ("vx_range", "vy_range", "wz_range"):
            lo, hi = getattr(self.commands, name)
            if lo > hi:
                raise ConfigError(f"commands.{name}: low > high")
        if self.sim.dt <= 0:
            raise ConfigError("sim.dt must be positive")
        rate = 1.0 / self.sim.dt
        if abs(self.cpg.tick_rate - rate) > 1e-9:
            raise ConfigError(
                f"cpg.tick_rate ({self.cpg.tick_rate}) must equal the simulation "
                f"rate 1/sim.dt ({rate}); the oscillator ticks every substep"
            )


def _coerce(value, reference):
    if isinstance(reference, tuple):
        return tuple(value)
    if isinstance(reference, bool):
        return bool(value)
    if isinstance(reference, int) and not isinstance(reference, bool):
        return int(value)
    if isinstance(reference, float):
        return float(value)
    return value


def _dataclass_from_dict(cls, data: dict, path: str = ""):
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'}: expected a mapping, got {type(data).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ConfigError(f"{path or 'config'}: unknown keys {unknown}")
    defaults = cls()
    kwargs = {}
    for name, value in data.items():
        current = getattr(defaults, name)
        sub_path = f"{path}.{name}" if path else name
        if is_dataclass(current):
            kwargs[name] = _dataclass_from_dict(type(current), value, sub_path)
        else:
            kwargs[name] = _coerce(value, current)
    return replace(defaults, **kwargs)


def config_from_dict(data: dict) -> RunConfig:
    cfg = _dataclass_from_dict(RunConfig, data or {})
    cfg.validate()
    return cfg


def config_to_dict(cfg: RunConfig) -> dict:
    def clean(obj):
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (tuple, list)):
            return [clean(v) for v in obj]
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        return obj

    return clean(asdict(cfg))


def load_config(path) -> RunConfig:
    with open(path) as fh:
        data = yaml.safe_load(fh)
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping")
    return config_from_dict(data)


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(config_to_dict(cfg), fh, sort_keys=True)


def config_hash(cfg: RunConfig) -> str:
    """Identity hash of everything that affects the produced artifacts.

    Run-length fields (iteration count, checkpoint cadence) are excluded so
    a checkpoint can be resumed with a longer schedule.
    """
    data = config_to_dict(cfg)
    data["train"].pop("iterations", None)
    data["train"].pop("checkpoint_every", None)
    canonical = json.dumps(data, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()
