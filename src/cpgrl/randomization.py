"""Domain randomization, command sampling, sensor noise, and the impulse
curriculum.

All sampling functions take an explicit numpy Generator; the training
environment owns one stream per env instance, so runs are reproducible from
a master seed and envs are mutually independent.
"""

import math
from dataclasses import dataclass

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
    impulse_interval_init: float = 15.0           # s
    noise_ang_vel: float = 0.05                   # rad/s
    noise_gravity: float = 0.05                   # unitless
    noise_joint_pos: float = 0.01                 # rad
    noise_joint_vel: float = 0.075                # rad/s
    randomize_dynamics: bool = True
    apply_impulses: bool = True
    add_noise: bool = True


@dataclass(frozen=True)
class CurriculumConfig:
    """Adaptation rule constants for the perturbation curriculum."""

    threshold: float = 0.8          # tracking-reward fraction that triggers adaptation
    interval_multiplier: float = 0.9
    cap_multiplier: float = 1.1
    interval_floor: float = 5.0     # s
    cap_init: float = 1.0           # m/s
    cap_max: float = 1.8            # m/s, Table bound on impulse magnitude


@dataclass(frozen=True)
class CurriculumState:
    impulse_interval: float
    impulse_mag_cap: float


def initial_curriculum(config: CurriculumConfig, dr: RandomizationConfig) -> CurriculumState:
    return CurriculumState(
        impulse_interval=dr.impulse_interval_init,
        impulse_mag_cap=config.cap_init,
    )


def sample_command_values(rng: np.random.Generator, ranges) -> np.ndarray:
    """One (vx*, vy*, wz*) draw from per-component uniform ranges."""
    ranges = np.asarray(ranges, dtype=float)
    return rng.uniform(ranges[:, 0], ranges[:, 1])


# The noised slots are contiguous, in draw order: angular velocity, gravity,
# joint positions, joint velocities.
_NOISE_SLOTS = (ANGVEL_SLICE, GRAVITY_SLICE, QPOS_SLICE, QVEL_SLICE)
_NOISE_SLICE = slice(ANGVEL_SLICE.start, QVEL_SLICE.stop)
_NOISE_SIZES = [s.stop - s.start for s in _NOISE_SLOTS]


def noise_bands(config: RandomizationConfig):
    """The (low, span, scale) vectors over the noised slots."""
    widths = np.repeat(np.array([config.noise_ang_vel, config.noise_gravity,
                                 config.noise_joint_pos, config.noise_joint_vel], dtype=float),
                       _NOISE_SIZES)
    low = -widths
    span = widths - low
    scale = np.repeat([ANG_SCALE, 1.0, 1.0, QVEL_SCALE], _NOISE_SIZES)
    return low, span, scale


def add_sensor_noise(obs: np.ndarray, rng: np.random.Generator, bands) -> None:
    """Noise one observation row's proprioceptive slots in place; bands is noise_bands(config).

    Noise bands are physical units; slots holding scaled quantities receive
    the noise scaled identically. The other slots are left untouched.

    One rng.random(30) draw covers, in order, the angular velocity, gravity,
    joint position and joint velocity slots, each mapped as
    (-w + (w - -w) * u) * scale. Generator.uniform(-w, w) computes the same
    low + (high - low) * u from the same doubles, and the gravity scale is
    1.0, so the result is bit-identical to four rng.uniform band draws in
    that order.
    """
    low, span, scale = bands
    obs[_NOISE_SLICE] += (low + span * rng.random(low.shape)) * scale


def curriculum_update(cur: CurriculumState, tracking_fraction: float,
                      config: CurriculumConfig) -> CurriculumState:
    """Harden perturbations when tracking is good; the cap never exceeds cap_max."""
    if not (0.0 <= tracking_fraction <= 1.0):
        raise ValueError(f"tracking fraction must be in [0, 1], got {tracking_fraction}")
    if tracking_fraction < config.threshold:
        return cur
    return CurriculumState(
        impulse_interval=max(cur.impulse_interval * config.interval_multiplier,
                             config.interval_floor),
        impulse_mag_cap=min(cur.impulse_mag_cap * config.cap_multiplier, config.cap_max),
    )


def schedule_impulse(rng: np.random.Generator, t: float, cur: CurriculumState,
                     dt: float):
    """Impulse delta-v when t crosses an interval boundary within the last dt.

    The env passes t as a Python float, so the test runs on math.floor
    rather than on numpy scalars; the boundaries are the same.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if t <= 0.0:
        return None
    interval = cur.impulse_interval
    if math.floor(t / interval + 1e-12) > math.floor((t - dt) / interval + 1e-12):
        cap = cur.impulse_mag_cap
        return rng.uniform(-cap, cap, size=2)
    return None
