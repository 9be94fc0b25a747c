"""Desk-scale quadruped physics.

A single rigid trunk (6 DOF) carries four massless PD-position-controlled
legs. Feet are points; ground contact is a spring-damper normal force with
regularized Coulomb friction. Joint velocities integrate against a per-joint
reflected inertia so joint-acceleration and action-rate penalties stay
meaningful without articulated leg dynamics.

The numerical core `_step_core` operates on arrays with arbitrary leading
axes: the vectorized training environment steps all envs in one call, and
stepping one env's slice alone gives bit-identical results.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import quat
from .kinematics import LegGeometry, forward_kinematics_all, leg_jacobian_all, standing_pose


class NumericalDivergence(RuntimeError):
    """State magnitude exploded; carries the offending env index when batched."""

    def __init__(self, message: str, env_index: int | None = None):
        self.env_index = env_index
        super().__init__(message)


_DEFAULT_JOINT_LIMITS = (
    (-0.86, 0.86),   # abduction
    (-0.69, 3.0),    # hip
    (-2.72, -0.05),  # knee
)


def default_joint_limits() -> np.ndarray:
    """(2, 12) lower/upper joint limits, legs FR, FL, RR, RL."""
    per_leg = np.array(_DEFAULT_JOINT_LIMITS)
    lo = np.tile(per_leg[:, 0], 4)
    hi = np.tile(per_leg[:, 1], 4)
    return np.stack([lo, hi])


@dataclass(frozen=True)
class EnvParams:
    """Physical constants plus the actuation plumbing _step_core needs."""

    trunk_mass: float = 12.0
    trunk_inertia: np.ndarray = field(default_factory=lambda: np.array([0.1, 0.25, 0.3]))
    friction: float = 0.8
    contact_stiffness: float = 1.5e4   # N/m
    contact_damping: float = 150.0     # N*s/m
    tangential_gain: float = 100.0     # N*s/m, viscous regularization of Coulomb
    gravity: float = 9.81
    terrain_normal: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
    kp: float = 75.0
    kd: float = 1.5
    tau_limit: float = 23.7
    reflected_inertia: float = 0.1     # kg*m^2 per joint
    joint_limits: np.ndarray = field(default_factory=default_joint_limits)  # (2, 12)
    geometry: LegGeometry = field(default_factory=LegGeometry)
    stand_height: float = 0.32
    trunk_half_extents: np.ndarray = field(default_factory=lambda: np.array([0.1881, 0.047, 0.057]))
    collision_margin: float = 0.05
    episode_limit: float = 20.0
    dt: float = 1.0 / 200.0
    divergence_limit: float = 1.0e6

    def __post_init__(self):
        for name in ("trunk_inertia", "terrain_normal", "joint_limits", "trunk_half_extents"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.trunk_mass <= 0:
            raise ValueError("trunk_mass must be positive")
        if self.friction < 0:
            raise ValueError("friction must be >= 0")
        if self.contact_stiffness <= 0 or self.contact_damping <= 0:
            raise ValueError("contact stiffness and damping must be positive")

    @property
    def nominal_q(self) -> np.ndarray:
        return standing_pose(self.geometry, self.stand_height)

    def with_slope(self, angle_rad: float) -> "EnvParams":
        normal = np.array([-np.sin(angle_rad), 0.0, np.cos(angle_rad)])
        return replace(self, terrain_normal=normal)


def low_pass(q_t, s_prev, alpha: float) -> np.ndarray:
    """First-order filter s_t = alpha*q_t + (1-alpha)*s_prev, elementwise."""
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    q_t = np.asarray(q_t, dtype=float)
    s_prev = np.asarray(s_prev, dtype=float)
    return alpha * q_t + (1.0 - alpha) * s_prev


def pd_torque(q_star, q, qdot, kp: float, kd: float, tau_limit: float) -> np.ndarray:
    """Joint torque clamp(kp*(q*-q) - kd*qdot, +-tau_limit)."""
    if kp < 0 or kd < 0:
        raise ValueError("gains must be >= 0")
    q_star = np.asarray(q_star, dtype=float)
    raw = kp * (q_star - np.asarray(q, dtype=float)) - kd * np.asarray(qdot, dtype=float)
    return np.clip(raw, -tau_limit, tau_limit)


def contact_force(foot_pos, foot_vel, params: EnvParams, friction=None) -> np.ndarray:
    """Ground reaction force on foot point(s); zero above the surface.

    The terrain is the plane through the origin with params.terrain_normal.
    Normal: max(0, k*penetration - d*v_n) with v_n the outward (separation)
    velocity. Tangential: -min(mu*N, k_t*|v_t|) along the slip direction.
    """
    f, _pen = _contact_force_core(
        np.asarray(foot_pos, dtype=float),
        np.asarray(foot_vel, dtype=float),
        params,
        params.friction if friction is None else friction,
    )
    return f


def _contact_force_core(foot_pos, foot_vel, params: EnvParams, friction):
    n = params.terrain_normal
    height = (
        foot_pos[..., 0] * n[0] + foot_pos[..., 1] * n[1] + foot_pos[..., 2] * n[2]
    )
    pen = -height
    in_contact = pen > 0.0

    v_n = foot_vel[..., 0] * n[0] + foot_vel[..., 1] * n[1] + foot_vel[..., 2] * n[2]
    normal_mag = np.where(
        in_contact,
        np.maximum(0.0, params.contact_stiffness * pen - params.contact_damping * v_n),
        0.0,
    )

    v_t = foot_vel - v_n[..., None] * n
    speed = np.sqrt((v_t * v_t).sum(axis=-1))
    friction = np.asarray(friction, dtype=float)
    cap = friction[..., None] * normal_mag if friction.ndim else friction * normal_mag
    tangential_mag = np.minimum(cap, params.tangential_gain * speed)
    safe_speed = np.where(speed > 0.0, speed, 1.0)
    f_t = -(tangential_mag / safe_speed)[..., None] * v_t

    return normal_mag[..., None] * n + f_t, pen


def _matvec3(m, v):
    """(..., 3, 3) @ (..., 3) with a fixed summation order (bit-stable)."""
    return (
        m[..., 0] * v[..., 0:1] + m[..., 1] * v[..., 1:2] + m[..., 2] * v[..., 2:3]
    )


def _matvec3_t(m, v):
    """(..., 3, 3)^T @ (..., 3)."""
    x = m[..., 0, 0] * v[..., 0] + m[..., 1, 0] * v[..., 1] + m[..., 2, 0] * v[..., 2]
    out = np.empty(x.shape + (3,))
    out[..., 0] = x
    out[..., 1] = m[..., 0, 1] * v[..., 0] + m[..., 1, 1] * v[..., 1] + m[..., 2, 1] * v[..., 2]
    out[..., 2] = m[..., 0, 2] * v[..., 0] + m[..., 1, 2] * v[..., 1] + m[..., 2, 2] * v[..., 2]
    return out


def _step_core(pos, rot, linvel, angvel, q, qdot, air, ep_time,
               targets, params: EnvParams, dt: float, mass=None, friction=None):
    """One 200 Hz substep on plain arrays; leading axes broadcast."""
    mass = params.trunk_mass if mass is None else mass
    friction = params.friction if friction is None else friction
    geom = params.geometry

    tau = pd_torque(targets, q, qdot, params.kp, params.kd, params.tau_limit)

    feet_b = forward_kinematics_all(q, geom)                      # (..., 4, 3)
    jac_b = leg_jacobian_all(q, geom)                             # (..., 4, 3, 3)
    rot4 = rot[..., None, :]
    feet_w = pos[..., None, :] + quat.rotate(rot4, feet_b)

    qdot_legs = np.reshape(qdot, qdot.shape[:-1] + (4, 3))
    v_feet_b = _matvec3(jac_b, qdot_legs)
    v_feet_w = linvel[..., None, :] + quat.rotate(
        rot4, quat.cross(angvel[..., None, :], feet_b) + v_feet_b
    )

    f_w, pen = _contact_force_core(feet_w, v_feet_w, params, friction)

    # contact reaction projected onto the joints; ground force flexes the leg
    f_b = quat.rotate_inv(rot4, f_w)
    joint_reaction = _matvec3_t(jac_b, f_b)                       # (..., 4, 3)
    joint_reaction = np.reshape(joint_reaction, qdot.shape)

    qddot = (tau + joint_reaction) / params.reflected_inertia
    qdot_new = qdot + dt * qddot
    q_unclamped = q + dt * qdot_new
    q_new = np.clip(q_unclamped, params.joint_limits[0], params.joint_limits[1])
    qdot_new = np.where(q_new != q_unclamped, 0.0, qdot_new)

    # trunk wrench: contact forces, their moments about the COM, gravity;
    # gravity enters as an acceleration so free fall integrates to dt*g exactly
    mass_arr = np.asarray(mass, dtype=float)
    f_sum = f_w.sum(axis=-2)
    accel = f_sum / mass_arr[..., None]
    accel[..., 2] = accel[..., 2] - params.gravity
    linvel_new = linvel + dt * accel
    pos_new = pos + dt * linvel_new

    torque_w = quat.cross(feet_w - pos[..., None, :], f_w).sum(axis=-2)
    torque_b = quat.rotate_inv(rot, torque_w)
    inertia = params.trunk_inertia
    ang_mom = inertia * angvel
    gyro = quat.cross(angvel, ang_mom)
    angvel_new = angvel + dt * (torque_b - gyro) / inertia
    rot_new = quat.normalize(quat.multiply(rot, quat.from_rotvec(angvel_new * dt)))

    contacts_new = pen > 0.0
    air_new = np.where(contacts_new, 0.0, air + dt)
    ep_time_new = ep_time + dt

    return pos_new, rot_new, linvel_new, angvel_new, q_new, qdot_new, contacts_new, air_new, ep_time_new


def _check_divergence(pos, rot, linvel, angvel, q, qdot, limit):
    """Per-env flags: a state field is non-finite or exceeds limit in magnitude.

    rot is renormalized every substep, so it is checked for being finite only.
    """
    fields = np.concatenate([pos, linvel, angvel, q, qdot], axis=-1)
    # NaN fails the comparison, so it is flagged too
    return ~((np.abs(fields) <= limit).all(axis=-1) & np.isfinite(rot).all(axis=-1))


def trunk_clearance(pos, rot, params: EnvParams):
    """Height of the lowest trunk-box corner above the terrain surface."""
    hx, hy, hz = params.trunk_half_extents
    corners_body = np.array(
        [[sx * hx, sy * hy, sz * hz]
         for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)]
    )
    corners_w = pos[..., None, :] + quat.rotate(rot[..., None, :], corners_body)
    n = params.terrain_normal
    heights = (
        corners_w[..., 0] * n[0] + corners_w[..., 1] * n[1] + corners_w[..., 2] * n[2]
    )
    return np.min(heights, axis=-1)

