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
from .kinematics import LegGeometry, feet_and_jacobians_all, standing_pose


class NumericalDivergence(RuntimeError):
    """State magnitude exploded; carries the offending env index when batched."""

    def __init__(self, message: str, env_index: int | None = None):
        self.env_index = env_index
        super().__init__(message)


@dataclass(frozen=True)
class EnvParams:
    """Physical constants plus the actuation plumbing _step_core needs.

    `RunConfig.env_params()` fills every field from the run config; only the
    terrain normal (flat) and the divergence limit, which no config sets,
    have defaults. Construction is the one place these values are checked.
    """

    trunk_mass: float
    trunk_inertia: np.ndarray
    friction: float
    contact_stiffness: float           # N/m
    contact_damping: float             # N*s/m
    tangential_gain: float             # N*s/m, viscous regularization of Coulomb
    gravity: float
    kp: float
    kd: float
    tau_limit: float
    reflected_inertia: float           # kg*m^2 per joint
    joint_limits: np.ndarray           # (2, 12) lower/upper, legs FR, FL, RR, RL
    geometry: LegGeometry
    stand_height: float
    trunk_half_extents: np.ndarray
    collision_margin: float
    episode_limit: float
    dt: float
    terrain_normal: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, 1.0]))
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
        if self.kp < 0 or self.kd < 0:
            raise ValueError("gains must be >= 0")

    @property
    def nominal_q(self) -> np.ndarray:
        return standing_pose(self.geometry, self.stand_height)

    def with_slope(self, angle_rad: float) -> "EnvParams":
        normal = np.array([-np.sin(angle_rad), 0.0, np.cos(angle_rad)])
        return replace(self, terrain_normal=normal)


def pd_torque(q_star, q, qdot, kp: float, kd: float, tau_limit: float) -> np.ndarray:
    """Joint torque clamp(kp*(q*-q) - kd*qdot, +-tau_limit).

    A maximum/minimum pair costs a quarter of np.clip at n = 1. On a tie both
    return their second operand, so with scalar bounds the bound goes first:
    that gives np.clip's result, sign of zero included.
    """
    return np.minimum(tau_limit, np.maximum(-tau_limit, kp * (q_star - q) - kd * qdot))


def clamp_joints(q, joint_limits) -> np.ndarray:
    """np.clip(q, joint_limits[0], joint_limits[1]) for (2, 12) limits.

    With array bounds np.clip ties like the input-first order (see pd_torque).
    """
    return np.minimum(np.maximum(q, joint_limits[0]), joint_limits[1])


def contact_force(foot_pos, foot_vel, params: EnvParams, friction):
    """Ground reaction force on foot point(s) and their penetration depth.

    The terrain is the plane through the origin with params.terrain_normal.
    Normal: max(0, k*penetration - d*v_n) with v_n the outward (separation)
    velocity. Tangential: -min(mu*N, k_t*|v_t|) along the slip direction.
    friction broadcasts against the points' leading axes.
    """
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
    cap = friction * normal_mag
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
    """(..., 3, 3)^T @ (..., 3) as a sum of m's rows, in the same order as _matvec3."""
    return (
        m[..., 0, :] * v[..., 0:1] + m[..., 1, :] * v[..., 1:2] + m[..., 2, :] * v[..., 2:3]
    )


def _step_core(pos, rot, linvel, angvel, q, qdot, air, ep_time,
               targets, params: EnvParams, dt: float, mass, friction):
    """One 200 Hz substep on plain arrays; leading axes broadcast.

    mass and friction are per env (scalars for one robot). Every output is a
    new array; the inputs are never written.
    """
    tau = pd_torque(targets, q, qdot, params.kp, params.kd, params.tau_limit)

    feet_b, jac_b = feet_and_jacobians_all(q, params.geometry)    # (..., 4, 3), (..., 4, 3, 3)
    rot4 = rot[..., None, :]
    qdot_legs = np.reshape(qdot, qdot.shape[:-1] + (4, 3))
    v_feet_b = _matvec3(jac_b, qdot_legs)
    # rotation is per vector, so the feet and their velocities rotate in one call
    feet_v_w = quat.rotate(rot4, np.concatenate(
        [feet_b, quat.cross(angvel[..., None, :], feet_b) + v_feet_b], axis=-2))
    feet_w = pos[..., None, :] + feet_v_w[..., :4, :]
    v_feet_w = linvel[..., None, :] + feet_v_w[..., 4:, :]

    f_w, pen = contact_force(feet_w, v_feet_w, params,
                             np.asarray(friction, dtype=float)[..., None])
    torque_w = quat.cross(feet_w - pos[..., None, :], f_w).sum(axis=-2)
    # the foot forces and the trunk torque go to the body frame in one call
    wrench_b = quat.rotate_inv(rot4, np.concatenate([f_w, torque_w[..., None, :]], axis=-2))
    f_b = wrench_b[..., :4, :]
    torque_b = wrench_b[..., 4, :]

    # contact reaction projected onto the joints; ground force flexes the leg
    joint_reaction = _matvec3_t(jac_b, f_b)                       # (..., 4, 3)
    joint_reaction = np.reshape(joint_reaction, qdot.shape)

    qddot = (tau + joint_reaction) / params.reflected_inertia
    qdot_new = qdot + dt * qddot
    q_unclamped = q + dt * qdot_new
    q_new = clamp_joints(q_unclamped, params.joint_limits)
    qdot_new = np.where(q_new != q_unclamped, 0.0, qdot_new)

    # trunk wrench: contact forces, their moments about the COM, gravity;
    # gravity enters as an acceleration so free fall integrates to dt*g exactly
    mass_arr = np.asarray(mass, dtype=float)
    f_sum = f_w.sum(axis=-2)
    accel = f_sum / mass_arr[..., None]
    accel[..., 2] = accel[..., 2] - params.gravity
    linvel_new = linvel + dt * accel
    pos_new = pos + dt * linvel_new

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


# the trunk box's 8 corners as signs of its half extents
_CORNER_SIGNS = np.array(
    [[sx, sy, sz] for sx in (-1.0, 1.0) for sy in (-1.0, 1.0) for sz in (-1.0, 1.0)]
)


def trunk_clearance(pos, rot, params: EnvParams):
    """Height of the lowest trunk-box corner above the terrain surface."""
    corners_body = _CORNER_SIGNS * params.trunk_half_extents
    corners_w = pos[..., None, :] + quat.rotate(rot[..., None, :], corners_body)
    n = params.terrain_normal
    heights = (
        corners_w[..., 0] * n[0] + corners_w[..., 1] * n[1] + corners_w[..., 2] * n[2]
    )
    return np.min(heights, axis=-1)

