"""Desk-scale quadruped physics.

A single rigid trunk (6 DOF) carries four massless PD-position-controlled
legs. Feet are points; ground contact is a spring-damper normal force with
regularized Coulomb friction. Joint velocities integrate against a per-joint
reflected inertia so joint-acceleration and action-rate penalties stay
meaningful without articulated leg dynamics.

The numerical core `_step_core` takes component-major arrays: the 3, 4 or
12 components lead and the env axes trail, so each arithmetic call runs over
whole rows of envs. The feet, their velocities and the contact reaction at
the joints come from `kinematics.leg_kinematics`, `foot_velocities` and
`joint_torques` on the same layout. One robot's arrays are the same with no
env axes. The vectorized training environment transposes its (n, ...) state
into this layout, steps all envs in one call per substep, and transposes
back; stepping one env's slice alone gives bit-identical results.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import quat
from .kinematics import LegGeometry, foot_velocities, joint_torques, leg_kinematics, standing_pose


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
    """np.clip(q, lower, upper) per joint for (12, ...) q and (2, 12) limits.

    With array bounds np.clip ties like the input-first order (see pd_torque).
    """
    limits = joint_limits.reshape(joint_limits.shape + (1,) * (q.ndim - 1))
    return np.minimum(np.maximum(q, limits[0]), limits[1])


def contact_force(foot_pos, foot_vel, params: EnvParams, friction):
    """Ground reaction force on foot point(s) and their penetration depth.

    Points are component-major, (3, ...), and so is the force. The terrain is
    the plane through the origin with params.terrain_normal. Normal:
    max(0, k*penetration - d*v_n) with v_n the outward (separation) velocity.
    Tangential: -min(mu*N, k_t*|v_t|) along the slip direction. friction
    broadcasts against the points' trailing axes.
    """
    n = params.terrain_normal
    height = foot_pos[0] * n[0] + foot_pos[1] * n[1] + foot_pos[2] * n[2]
    pen = -height
    in_contact = pen > 0.0

    v_n = foot_vel[0] * n[0] + foot_vel[1] * n[1] + foot_vel[2] * n[2]
    normal_mag = np.where(
        in_contact,
        np.maximum(0.0, params.contact_stiffness * pen - params.contact_damping * v_n),
        0.0,
    )

    n = n.reshape((3,) + (1,) * pen.ndim)
    v_t = foot_vel - v_n * n
    speed = np.sqrt((v_t * v_t).sum(axis=0))
    cap = friction * normal_mag
    tangential_mag = np.minimum(cap, params.tangential_gain * speed)
    safe_speed = np.where(speed > 0.0, speed, 1.0)
    f_t = -(tangential_mag / safe_speed) * v_t

    return normal_mag * n + f_t, pen


def _step_core(pos, rot, linvel, angvel, q, qdot, air, ep_time,
               targets, params: EnvParams, dt: float, mass, friction):
    """One 200 Hz substep on component-major arrays.

    The components lead and the env axes trail: pos, linvel and angvel are
    (3, ...), rot (4, ...), q, qdot and targets (12, ...), air (4, ...), and
    ep_time, mass and friction have the env axes alone (scalars for one
    robot, whose arrays keep their usual shapes). Inside, feet are (3, 4, ...)
    and Jacobians (3, 3, 4, ...). Every output is a new array; the inputs are
    never written.
    """
    tau = pd_torque(targets, q, qdot, params.kp, params.kd, params.tau_limit)

    feet_b, jac_b = leg_kinematics(q, params.geometry, jacobian=True)
    v_feet_b = foot_velocities(jac_b, qdot)
    rot4 = rot[:, None]
    w, u = rot4[0], rot4[1:4]
    # rotation is per vector, so the feet and their velocities rotate in one call
    feet_v_w = quat._rotate(w, u, np.concatenate(
        [feet_b, quat._cross(angvel[:, None], feet_b) + v_feet_b], axis=1))
    pos4 = pos[:, None]
    feet_w = pos4 + feet_v_w[:, :4]
    v_feet_w = linvel[:, None] + feet_v_w[:, 4:]

    f_w, pen = contact_force(feet_w, v_feet_w, params, friction)
    # numpy sums the 4-long leg axis left to right from +0.0, as it summed the
    # array-of-structs legs axis: four -0.0 terms give +0.0, unlike a chain of adds
    torque_w = quat._cross(feet_w - pos4, f_w).sum(axis=1)
    # the foot forces and the trunk torque go to the body frame in one call
    wrench_b = quat._rotate(w, -u, np.concatenate([f_w, torque_w[:, None]], axis=1))
    f_b = wrench_b[:, :4]
    torque_b = wrench_b[:, 4]

    # contact reaction projected onto the joints; ground force flexes the leg
    joint_reaction = joint_torques(jac_b, f_b)

    qddot = (tau + joint_reaction) / params.reflected_inertia
    qdot_new = qdot + dt * qddot
    q_unclamped = q + dt * qdot_new
    q_new = clamp_joints(q_unclamped, params.joint_limits)
    qdot_new = np.where(q_new != q_unclamped, 0.0, qdot_new)

    # trunk wrench: contact forces, their moments about the COM, gravity;
    # gravity enters as an acceleration so free fall integrates to dt*g exactly
    f_sum = f_w.sum(axis=1)
    accel = f_sum / mass
    accel[2] = accel[2] - params.gravity
    linvel_new = linvel + dt * accel
    pos_new = pos + dt * linvel_new

    inertia = params.trunk_inertia.reshape((3,) + (1,) * (pos.ndim - 1))
    ang_mom = inertia * angvel
    gyro = quat._cross(angvel, ang_mom)
    angvel_new = angvel + dt * (torque_b - gyro) / inertia
    rot_new = quat._normalize(quat._multiply(rot, quat._from_rotvec(angvel_new * dt)))

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

