"""Domain randomization, command sampling, sensor noise, and the impulse
curriculum.

All sampling functions take an explicit numpy Generator; the training
environment owns one stream per env instance, so runs are reproducible from
a master seed and envs are mutually independent.
"""

from dataclasses import dataclass, replace

import numpy as np

from .task import (
    ANG_SCALE,
    ANGVEL_SLICE,
    GRAVITY_SLICE,
    QPOS_SLICE,
    QVEL_SCALE,
    QVEL_SLICE,
)


@dataclass(frozen=True)
class RandomizationConfig:
    """Per-episode dynamics ranges, impulse schedule, and sensor noise bands."""

    mass_offset_range: tuple = (-1.0, 1.0)        # kg, added to the base mass
    friction_range: tuple = (0.5, 1.25)           # absolute coefficient
    impulse_mag_range: tuple = (-1.8, 1.8)        # m/s, hard bound on impulses
    impulse_interval_init: float = 15.0           # s
    noise_ang_vel: float = 0.05                   # rad/s
    noise_gravity: float = 0.05                   # unitless
    noise_joint_pos: float = 0.01                 # rad
    noise_joint_vel: float = 0.075                # rad/s
    randomize_dynamics: bool = True
    apply_impulses: bool = True
    add_noise: bool = True

    def validate(self) -> None:
        for name in ("mass_offset_range", "friction_range", "impulse_mag_range"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name}: low {lo} > high {hi}")
        if self.impulse_interval_init <= 0:
            raise ValueError("impulse interval must be positive")
        for name in ("noise_ang_vel", "noise_gravity", "noise_joint_pos", "noise_joint_vel"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class CurriculumConfig:
    """Adaptation rule constants for the perturbation curriculum."""

    threshold: float = 0.8          # tracking-reward fraction that triggers adaptation
    interval_multiplier: float = 0.9
    cap_multiplier: float = 1.1
    interval_floor: float = 5.0     # s
    cap_init: float = 1.0           # m/s
    cap_max: float = 1.8            # m/s, Table bound on impulse magnitude
    ema_decay: float = 0.99


@dataclass(frozen=True)
class CurriculumState:
    impulse_interval: float = 15.0
    impulse_mag_cap: float = 1.0
    tracking_reward_ema: float = 0.0


def initial_curriculum(config: CurriculumConfig, dr: RandomizationConfig) -> CurriculumState:
    return CurriculumState(
        impulse_interval=dr.impulse_interval_init,
        impulse_mag_cap=config.cap_init,
        tracking_reward_ema=0.0,
    )


def sample_command_values(rng: np.random.Generator, ranges=None) -> np.ndarray:
    """One (vx*, vy*, wz*) draw; per-component uniform ranges, default [-1, 1]."""
    ranges = np.asarray(ranges if ranges is not None else [(-1, 1)] * 3, dtype=float)
    return rng.uniform(ranges[:, 0], ranges[:, 1])


def add_sensor_noise(obs: np.ndarray, rng: np.random.Generator,
                     config: RandomizationConfig) -> np.ndarray:
    """Additive uniform noise on the proprioceptive slots only.

    Noise bands are physical units; slots holding scaled quantities receive
    the noise scaled identically, so the perturbation before scaling matches
    the configured band. Commands, contacts, the last action, and the planner
    signal are returned untouched.
    """
    obs = np.array(obs, dtype=float, copy=True)
    def band(width, size):
        return rng.uniform(-width, width, size=size)

    obs[..., ANGVEL_SLICE] += band(config.noise_ang_vel, obs[..., ANGVEL_SLICE].shape) * ANG_SCALE
    obs[..., GRAVITY_SLICE] += band(config.noise_gravity, obs[..., GRAVITY_SLICE].shape)
    obs[..., QPOS_SLICE] += band(config.noise_joint_pos, obs[..., QPOS_SLICE].shape)
    obs[..., QVEL_SLICE] += band(config.noise_joint_vel, obs[..., QVEL_SLICE].shape) * QVEL_SCALE
    return obs


def curriculum_update(cur: CurriculumState, tracking_fraction: float,
                      config: CurriculumConfig) -> CurriculumState:
    """Harden perturbations when tracking is good; EMA tracks progress."""
    if not (0.0 <= tracking_fraction <= 1.0):
        raise ValueError(f"tracking fraction must be in [0, 1], got {tracking_fraction}")
    ema = config.ema_decay * cur.tracking_reward_ema + (1.0 - config.ema_decay) * tracking_fraction
    if tracking_fraction >= config.threshold:
        return CurriculumState(
            impulse_interval=max(cur.impulse_interval * config.interval_multiplier,
                                 config.interval_floor),
            impulse_mag_cap=min(cur.impulse_mag_cap * config.cap_multiplier, config.cap_max),
            tracking_reward_ema=ema,
        )
    return replace(cur, tracking_reward_ema=ema)


def schedule_impulse(rng: np.random.Generator, t: float, cur: CurriculumState,
                     dt: float = 0.02):
    """Impulse delta-v when t crosses an interval boundary within the last dt."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t <= 0.0:
        return None
    interval = cur.impulse_interval
    if np.floor(t / interval + 1e-12) > np.floor((t - dt) / interval + 1e-12):
        cap = cur.impulse_mag_cap
        return rng.uniform(-cap, cap, size=2)
    return None
