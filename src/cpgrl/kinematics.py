"""Analytic kinematics for a 3-DOF quadruped leg (abduction, hip, knee).

Conventions:
  - joint order per leg: (q_abd, q_hip, q_knee); all-zero = leg straight down
  - knee bends backward, q_knee <= 0 on the solution branch
  - leg order across the robot: FR, FL, RR, RL; right side_sign = -1
  - sagittal chain: x = -T*sin(q_hip) - C*sin(q_hip + q_knee),
                    z = -T*cos(q_hip) - C*cos(q_hip + q_knee)
  - the abduction joint rotates the (lateral offset, sagittal) assembly
    about the body x axis

The kernel `_leg_kinematics` is component-major: the joint axis leads and
feet come out (3, ...), Jacobians (3, 3, ...), with leg and env axes
trailing. The public functions keep the array-of-structs layout, components
last and leading axes broadcasting, by moving axes around the same kernel;
feet/Jacobians for all four legs come from the *_all variants with a legs
axis.
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
        if min(self.hip_offset, self.thigh_len, self.calf_len) <= 0.0:
            raise ValueError("all leg lengths must be positive")

    @property
    def max_reach(self) -> float:
        return self.thigh_len + self.calf_len

    @property
    def min_reach(self) -> float:
        return abs(self.thigh_len - self.calf_len)


# The public functions below reverse every axis (`.T`) on the way into the
# component-major kernel and back out, so q's leading axes trail inside it.


def forward_kinematics(q, geom: LegGeometry, leg: int) -> np.ndarray:
    """Foot position in the body frame for one leg; q is (..., 3)."""
    q = np.asarray(q, dtype=float).T
    y_off, mount = _one_leg(geom, leg, q.ndim - 1)
    return np.ascontiguousarray(_leg_kinematics(q, geom, y_off, mount)[0].T)


def forward_kinematics_all(q12, geom: LegGeometry) -> np.ndarray:
    """Feet for all four legs: q12 is (..., 12) -> (..., 4, 3) body frame."""
    q = np.asarray(q12, dtype=float).T
    y_off, mounts = _all_legs(geom, q.ndim - 1)
    return np.ascontiguousarray(_leg_kinematics(_joint_major(q), geom, y_off, mounts)[0].T)


def leg_jacobian(q, geom: LegGeometry, leg: int) -> np.ndarray:
    """d(foot)/d(q) for one leg, (..., 3, 3); column order (abd, hip, knee)."""
    q = np.asarray(q, dtype=float).T
    y_off, mount = _one_leg(geom, leg, q.ndim - 1)
    jac = _leg_kinematics(q, geom, y_off, mount, jacobian=True)[1]
    return _rows_last(jac)


def leg_jacobian_all(q12, geom: LegGeometry) -> np.ndarray:
    """Jacobians for all four legs: (..., 12) -> (..., 4, 3, 3)."""
    return feet_and_jacobians_all(q12, geom)[1]


def feet_and_jacobians_all(q12, geom: LegGeometry) -> tuple[np.ndarray, np.ndarray]:
    """forward_kinematics_all and leg_jacobian_all of the same q12 in one pass.

    (..., 12) -> feet (..., 4, 3) and Jacobians (..., 4, 3, 3), each bit-equal
    to its own function's result; the two share every sine and cosine.
    """
    q = np.asarray(q12, dtype=float).T
    y_off, mounts = _all_legs(geom, q.ndim - 1)
    feet, jac = _leg_kinematics(_joint_major(q), geom, y_off, mounts, jacobian=True)
    return np.ascontiguousarray(feet.T), _rows_last(jac)


def _joint_major(q):
    """(12, ...) joint vectors (legs FR, FL, RR, RL, three joints each) as a
    (3, 4, ...) view: joint, leg, then the env axes."""
    return q.reshape((4, 3) + q.shape[1:]).swapaxes(0, 1)


def _all_legs(geom: LegGeometry, n_env_axes: int):
    """The four lateral offsets (4, 1...) and hip mounts (3, 4, 1...), with
    n_env_axes trailing axes of 1 to broadcast against the env axes."""
    tail = (1,) * n_env_axes
    y_off = geom.side_signs * geom.hip_offset
    return y_off.reshape((4,) + tail), geom.hip_mounts.T.reshape((3, 4) + tail)


def _one_leg(geom: LegGeometry, leg: int, n_env_axes: int):
    """One leg's lateral offset and its hip mount (3, 1...), as _all_legs."""
    y_off = geom.side_signs[leg] * geom.hip_offset
    return y_off, geom.hip_mounts[leg].reshape((3,) + (1,) * n_env_axes)


def _rows_last(jac):
    """(3, 3, ...) Jacobians, row then column, as C-contiguous (..., 3, 3)."""
    return np.ascontiguousarray(jac.T.swapaxes(-1, -2))


def _leg_kinematics(q, geom: LegGeometry, y_off, mounts, jacobian=False):
    """Feet (and with jacobian=True their Jacobians, else None) in the
    component-major layout: q is (3, ...) with the (abd, hip, knee) joint
    axis first, feet come out (3, ...) and Jacobians (3, 3, ...) as (row,
    column, ...). y_off broadcasts against q[0], and mounts, (3, ...),
    against the feet.

    Each sine and cosine is taken once. The sagittal z is the same expression
    as dx_dhip, and the foot's y the same as the abduction column's z entry.
    """
    q_abd, q_hip, q_knee = q[0], q[1], q[2]
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
