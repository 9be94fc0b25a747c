"""Run configuration: one YAML file drives every module.

Nested dataclasses mirror the YAML structure; loading rejects unknown keys
and any value outside its domain (DOMAINS) before work starts, and every run
writes its fully resolved config next to its outputs for bit-identical reruns.
"""

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from math import inf
from operator import attrgetter

import numpy as np
import yaml

from .gait_planner import DemoConfig, PlannerConfig
from .kinematics import LegGeometry
from .oscillator import OscillatorParams
from .ppo import PpoConfig
from .randomization import CurriculumConfig, RandomizationConfig
from .simulator import EnvParams
from .task import RewardWeights


class ConfigError(ValueError):
    """Configuration failed validation; the CLI maps this to exit code 2."""


POLICY_RATE = 50.0  # Hz
POLICY_DT = 1.0 / POLICY_RATE


def substeps_per_policy_step(dt: float) -> int:
    """Physics substeps (and planner ticks) in one policy step."""
    ratio = 1.0 / (dt * POLICY_RATE)
    substeps = int(round(ratio)) if ratio < inf else 0
    if abs(substeps * dt * POLICY_RATE - 1.0) > 1e-9:
        raise ConfigError(f"sim.dt ({dt}) must divide the policy period 1/{POLICY_RATE:g} s")
    return substeps


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
    slope_rad: float = 0.0       # terrain incline about the y axis; 0 is flat


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
    reward: RewardWeights = field(default_factory=RewardWeights)
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
        # 0.0 - sin: a flat normal's x is +0.0, which -sin(0.0) would make -0.0
        normal = np.array([0.0 - np.sin(s.slope_rad), 0.0, np.cos(s.slope_rad)])
        return EnvParams(
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
            terrain_normal=normal,
        )

    def validate(self) -> None:
        """Check each leaf's domain in DOMAINS, then the cross-field rules; errors name the key."""
        for key, get, text, test in _CHECKS:
            if not test(get(self)):
                raise ConfigError(f"{key} must be {text}, got {get(self)}")
        r, s, t, c = self.robot, self.sim, self.train, self.curriculum
        if not abs(r.thigh_len - r.calf_len) <= r.stand_height < r.thigh_len + r.calf_len:
            raise ConfigError(f"robot.stand_height ({r.stand_height}) must be in the leg's reach, "
                              "[|thigh_len - calf_len|, thigh_len + calf_len)")
        if not abs(s.slope_rad) < np.pi / 2:
            raise ConfigError(f"sim.slope_rad must have |slope| < pi/2, got {s.slope_rad}")
        substeps_per_policy_step(s.dt)
        if not s.episode_limit >= POLICY_DT:
            raise ConfigError(f"sim.episode_limit ({s.episode_limit}) must be at least one "
                              f"policy step ({POLICY_DT:g} s)")
        if not t.ppo.lr_min <= t.ppo.lr_max:
            raise ConfigError(f"train.ppo.lr_min {t.ppo.lr_min} > train.ppo.lr_max {t.ppo.lr_max}")
        if not c.cap_init <= c.cap_max:
            raise ConfigError(f"curriculum.cap_init {c.cap_init} > curriculum.cap_max {c.cap_max}")
        if t.horizon * t.n_envs < t.ppo.n_minibatches:
            raise ConfigError(f"train.horizon * train.n_envs ({t.horizon * t.n_envs}) must be >= "
                              f"train.ppo.n_minibatches ({t.ppo.n_minibatches}); a minibatch "
                              "would be empty")


# Each leaf's domain, one row per domain: (what a value must be, its test, the keys). Each
# test is false for NaN, as it asks 0 < x and never not (x <= 0); _coerce checks the types.
DOMAINS = (
    # signed values: a negative reward weight is a penalty; validate bounds the slope
    ("finite", lambda x: -inf < x < inf,
     "reward.lin_vel_tracking reward.ang_vel_tracking reward.lin_vel_penalty "
     "reward.ang_vel_penalty reward.orientation reward.trunk_height reward.joint_acceleration "
     "reward.action_rate reward.self_collision reward.foot_air_time reward.foot_position "
     "demo.stance_x_offset train.log_std_init sim.slope_rad"),
    # joint targets are clipped to the pair; commands and mass offsets are drawn from it
    ("a finite (low, high) pair", lambda v: len(v) == 2 and -inf < v[0] <= v[1] < inf,
     "robot.abd_limits robot.hip_limits robot.knee_limits dr.mass_offset_range "
     "commands.vx_range commands.vy_range commands.wz_range"),
    # friction coefficients are drawn from it
    ("a (low, high) pair with 0 <= low", lambda v: len(v) == 2 and 0 <= v[0] <= v[1] < inf,
     "dr.friction_range"),
    # scales with no zero: the physics divides by masses, inertias and dt, gravity points
    # down, and the front and left hips sit at +x and +y
    ("positive and finite", lambda x: 0 < x < inf,
     "cpg.alpha planner.sigma robot.hip_offset robot.thigh_len robot.calf_len robot.hip_mount_x "
     "robot.hip_mount_y robot.stand_height robot.tau_limit sim.trunk_mass sim.contact_stiffness "
     "sim.contact_damping sim.gravity sim.reflected_inertia sim.dt sim.episode_limit "
     "commands.resample_interval demo.clearance_front demo.clearance_rear demo.step_length "
     "dr.impulse_interval_init curriculum.interval_multiplier curriculum.cap_multiplier "
     "curriculum.interval_floor train.lr_init train.ppo.clip train.ppo.desired_kl "
     "train.ppo.lr_min train.ppo.lr_max"),
    # the trunk's principal inertias and the half sizes of its collision box
    ("three positive finite numbers", lambda v: len(v) == 3 and all(0 < x < inf for x in v),
     "sim.trunk_inertia sim.trunk_half_extents"),
    # gains, margins, noise widths, caps and loss weights, which 0 turns off
    ("non-negative and finite", lambda x: 0 <= x < inf,
     "robot.kp robot.kd robot.residual_limit sim.friction sim.tangential_gain "
     "sim.collision_margin sim.spawn_drop_height dr.noise_ang_vel dr.noise_gravity "
     "dr.noise_joint_pos dr.noise_joint_vel curriculum.cap_init curriculum.cap_max "
     "train.actor_out_scale train.ppo.entropy_coef train.ppo.value_coef train.ppo.max_grad_norm"),
    # a fraction of the tracking reward, a discount and a trace decay
    ("in [0, 1]", lambda x: 0 <= x <= 1,
     "curriculum.threshold train.ppo.gamma train.ppo.gae_lambda"),
    # the low-pass filter's weight on the new target: at 0 the target never moves
    ("in (0, 1]", lambda x: 0 < x <= 1, "robot.filter_alpha"),
    # a trot keeps each foot down for at least half the cycle; at 1 no foot swings
    ("in [0.5, 1)", lambda x: 0.5 <= x < 1, "demo.stance_fraction"),
    # the rotation per oscillator tick: at pi or more the orbit aliases
    ("in (0, pi)", lambda x: 0 < x < np.pi, "cpg.phi"),
    # counts of centres, envs, steps, epochs and minibatches; a checkpoint cadence
    ("an integer >= 1", lambda x: x >= 1, "planner.h train.n_envs train.horizon "
     "train.checkpoint_every train.ppo.n_epochs train.ppo.n_minibatches"),
    # hidden layer widths, any number of layers (none is a linear policy)
    ("integers >= 1", lambda v: all(x >= 1 for x in v), "train.hidden"),
    # numpy seeds take no negative entropy; 0 iterations only writes the config
    ("an integer >= 0", lambda x: x >= 0, "seed train.iterations"),
    ("true or false", lambda x: isinstance(x, bool),  # switches
     "dr.randomize_dynamics dr.apply_impulses dr.add_noise"),
)
_CHECKS = [(k, attrgetter(k), text, test) for text, test, keys in DOMAINS for k in keys.split()]


def leaves(tree: dict, prefix: str = ""):
    """(dotted key, value) of each leaf of a nested dict, such as config_to_dict's."""
    for name, value in tree.items():
        if isinstance(value, dict):
            yield from leaves(value, f"{prefix}{name}.")
        else:
            yield prefix + name, value


def _coerce(value, reference, key):
    """A file's value for the leaf whose default is reference: a list becomes
    a tuple, an int widens to float and an integral float narrows to int; any
    other type raises, naming the key."""
    if isinstance(reference, tuple):
        if isinstance(value, (list, tuple)):
            return tuple(_coerce(v, reference[0], key) for v in value)
    elif isinstance(value, (int, float)) and isinstance(value, bool) == isinstance(reference, bool):
        if isinstance(reference, float) or float(value).is_integer():
            return type(reference)(value)
    kind = {tuple: "a list", bool: "true or false", int: "an integer", float: "a number"}
    raise ConfigError(f"{key} must be {kind[type(reference)]}, got {value!r}")


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
            kwargs[name] = _coerce(value, current, sub_path)
    return replace(defaults, **kwargs)


def config_from_dict(data: dict) -> RunConfig:
    cfg = _dataclass_from_dict(RunConfig, data or {})
    cfg.validate()
    return cfg


def embedded_config(data: dict, path) -> RunConfig:
    """The config a run file embeds. It must hold exactly RunConfig's keys,
    since a key it lacked would take today's default; errors name the file."""
    theirs = {key for key, _ in leaves(data)}
    ours = {key for key, _ in leaves(config_to_dict(RunConfig()))}
    for which, keys in (("unknown", theirs - ours), ("missing", ours - theirs)):
        if keys:
            raise ConfigError(f"{path}: the embedded config has {which} key {min(keys)}")
    try:
        return config_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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
    if data is not None and not isinstance(data, dict):
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
