"""Analytic kinematics for a 3-DOF quadruped leg (abduction, hip, knee).

Conventions:
  - joint order per leg: (q_abd, q_hip, q_knee); all-zero = leg straight down
  - knee bends backward, q_knee <= 0 on the solution branch
  - leg order across the robot: FR, FL, RR, RL; right side_sign = -1
  - sagittal chain: x = -T*sin(q_hip) - C*sin(q_hip + q_knee),
                    z = -T*cos(q_hip) - C*cos(q_hip + q_knee)
  - the abduction joint rotates the (lateral offset, sagittal) assembly
    about the body x axis

`leg_kinematics` is the one forward pass: component-major, (12, ...) joints
in, feet (3, 4, ...) and Jacobians (3, 3, 4, ...) out, with the leg and env
axes trailing. The physics substep and the planner fit call it with
`foot_velocities` (J qdot) and `joint_torques` (J^T f) on the same layout.
`forward_kinematics_all` and `leg_jacobian_all` give the array-of-structs
layout, (..., 12) in and (..., 4, 3) or (..., 4, 3, 3) out, around the same
pass. Inverse kinematics solves one leg at a time.
"""

from dataclasses import dataclass, field

import numpy as np

LEG_NAMES = ("FR", "FL", "RR", "RL")
LEG_INDEX = {name: i for i, name in enumerate(LEG_NAMES)}

_DEFAULT_SIDES = (-1.0, 1.0, -1.0, 1.0)


class Unreachable(ValueError):
    """Target foot position lies outside the leg workspace."""

    def __init__(self, point, detail: str = ""):
        self.point = np.asarray(point, dtype=float)
        super().__init__(f"unreachable foot target {self.point}{': ' + detail if detail else ''}")


@dataclass(frozen=True)
class LegGeometry:
    """Link lengths and hip mount points shared by the four legs.

    `RunConfig.leg_geometry()` fills the lengths and mounts from the robot
    config; only the FR, FL, RR, RL side convention has a default.
    """

    hip_offset: float          # lateral offset from abduction axis, m
    thigh_len: float           # m
    calf_len: float            # m
    hip_mounts: np.ndarray     # (4, 3) body frame
    side_signs: np.ndarray = field(
        default_factory=lambda: np.array(_DEFAULT_SIDES)
    )  # +1 left, -1 right

    def __post_init__(self):
        object.__setattr__(self, "hip_mounts", np.asarray(self.hip_mounts, dtype=float))
        object.__setattr__(self, "side_signs", np.asarray(self.side_signs, dtype=float))

    @property
    def max_reach(self) -> float:
        return self.thigh_len + self.calf_len

    @property
    def min_reach(self) -> float:
        return abs(self.thigh_len - self.calf_len)


def leg_kinematics(q, geom: LegGeometry, jacobian=False):
    """Feet of the four legs, and with jacobian=True their Jacobians (else
    None), component-major: q is (12, ...) joints, legs FR, FL, RR, RL with
    three joints each and any env axes trailing. Feet come out (3, 4, ...),
    Jacobians (3, 3, 4, ...) as (row, column, leg, ...).

    Each sine and cosine is taken once. The sagittal z is the same expression
    as dx_dhip, and the foot's y the same as the abduction column's z entry.
    """
    tail = (1,) * (q.ndim - 1)
    # the offsets and mounts with trailing axes of 1 to broadcast against the envs
    y_off = (geom.side_signs * geom.hip_offset).reshape((4,) + tail)
    mounts = geom.hip_mounts.T.reshape((3, 4) + tail)
    q_abd, q_hip, q_knee = _joint_major(q)
    t, c = geom.thigh_len, geom.calf_len
    hk = q_hip + q_knee
    sin_h, cos_h = np.sin(q_hip), np.cos(q_hip)
    sin_hk, cos_hk = np.sin(hk), np.cos(hk)
    ca, sa = np.cos(q_abd), np.sin(q_abd)
    z = -t * cos_h - c * cos_hk
    foot_y = ca * y_off - sa * z

    foot = np.empty((3,) + z.shape)
    foot[0] = -t * sin_h - c * sin_hk
    foot[1] = foot_y
    foot[2] = sa * y_off + ca * z
    foot += mounts
    if not jacobian:
        return foot, None

    dx_dknee = -c * cos_hk
    dz_dknee = c * sin_hk
    dz_dhip = t * sin_h + dz_dknee
    neg_sa = -sa
    # columns: d(foot)/d(q_abd), d(foot)/d(q_hip), d(foot)/d(q_knee)
    jac = np.empty((3, 3) + z.shape)
    jac[0, 0] = 0.0
    jac[1, 0] = neg_sa * y_off - ca * z
    jac[2, 0] = foot_y
    jac[0, 1] = z
    jac[1, 1] = neg_sa * dz_dhip
    jac[2, 1] = ca * dz_dhip
    jac[0, 2] = dx_dknee
    jac[1, 2] = neg_sa * dz_dknee
    jac[2, 2] = ca * dz_dknee
    return foot, jac


def foot_velocities(jac, qdot):
    """Foot velocities J @ qdot per leg, (3, 4, ...), from leg_kinematics'
    Jacobians and (12, ...) joint velocities, summed in a fixed order (bit-stable)."""
    v = _joint_major(qdot)
    return jac[:, 0] * v[0] + jac[:, 1] * v[1] + jac[:, 2] * v[2]


def joint_torques(jac, f):
    """Joint torques J^T f, (12, ...), from leg_kinematics' Jacobians and
    (3, 4, ...) foot forces; J's rows summed in foot_velocities' order."""
    tau = jac[0] * f[0] + jac[1] * f[1] + jac[2] * f[2]
    return tau.swapaxes(0, 1).reshape((12,) + tau.shape[2:])


def _joint_major(q):
    """(12, ...) joint vectors as a (3, 4, ...) view: joint, leg, then the env axes."""
    return q.reshape((4, 3) + q.shape[1:]).swapaxes(0, 1)


# The array-of-structs forms reverse every axis (`.T`) on the way into
# leg_kinematics and back out, so q12's leading axes trail inside it.


def forward_kinematics_all(q12, geom: LegGeometry) -> np.ndarray:
    """Feet for all four legs: q12 is (..., 12) -> (..., 4, 3) body frame."""
    feet = leg_kinematics(np.asarray(q12, dtype=float).T, geom)[0]
    return np.ascontiguousarray(feet.T)


def leg_jacobian_all(q12, geom: LegGeometry) -> np.ndarray:
    """d(foot)/d(q) for all four legs: (..., 12) -> (..., 4, 3, 3), row then
    column, column order (abd, hip, knee)."""
    jac = leg_kinematics(np.asarray(q12, dtype=float).T, geom, jacobian=True)[1]
    return np.ascontiguousarray(jac.T.swapaxes(-1, -2))


def inverse_kinematics(p, geom: LegGeometry, leg: int) -> np.ndarray:
    """Closed-form IK for one leg on the knee-backward branch (q_knee <= 0).

    The solution keeps the foot below the abduction axis (sagittal z <= 0),
    which is unique for locomotion poses. Raises Unreachable when the target
    lies outside the annular workspace or inside the hip-offset cylinder.
    """
    p = np.asarray(p, dtype=float)
    rel = p - geom.hip_mounts[leg]
    y_off = geom.side_signs[leg] * geom.hip_offset

    r_yz_sq = rel[1] ** 2 + rel[2] ** 2
    z_sq = r_yz_sq - y_off**2
    if z_sq < -1e-12:
        raise Unreachable(p, "inside the abduction-axis offset cylinder")
    z_s = -np.sqrt(max(z_sq, 0.0))
    q_abd = np.arctan2(rel[2], rel[1]) - np.arctan2(z_s, y_off)
    q_abd = np.arctan2(np.sin(q_abd), np.cos(q_abd))  # wrap to (-pi, pi]

    x_s = rel[0]
    d_sq = x_s**2 + z_s**2
    t, c = geom.thigh_len, geom.calf_len
    lo, hi = geom.min_reach, geom.max_reach
    if d_sq > (hi + 1e-9) ** 2 or d_sq < max(lo - 1e-9, 0.0) ** 2:
        raise Unreachable(p, f"planar distance {np.sqrt(d_sq):.4f} outside [{lo:.4f}, {hi:.4f}]")

    cos_knee = (d_sq - t * t - c * c) / (2.0 * t * c)
    q_knee = -np.arccos(np.clip(cos_knee, -1.0, 1.0))
    q_hip = np.arctan2(-x_s, -z_s) - np.arctan2(
        c * np.sin(q_knee), t + c * np.cos(q_knee)
    )
    return np.array([q_abd, q_hip, q_knee])


def standing_pose(geom: LegGeometry, stand_height: float) -> np.ndarray:
    """Joint vector (12,) putting every foot directly below its hip mount."""
    q = []
    for leg in range(4):
        target = geom.hip_mounts[leg] + np.array(
            [0.0, geom.side_signs[leg] * geom.hip_offset, -stand_height]
        )
        q.append(inverse_kinematics(target, geom, leg))
    return np.concatenate(q)
