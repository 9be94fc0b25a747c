"""RL task layer: observation construction, residual action composition,
and the 11-term locomotion reward.

Every function here is pure over value inputs and broadcasts over leading
axes: the vectorized training environment calls them on (n, ...) arrays, and
the same call on one env's slice gives the same values.
"""

from dataclasses import dataclass, fields

import numpy as np

from . import quat

OBS_DIM = 61

# observation slot layout
CMD_SLICE = slice(0, 3)
ANGVEL_SLICE = slice(3, 6)
GRAVITY_SLICE = slice(6, 9)
QPOS_SLICE = slice(9, 21)
QVEL_SLICE = slice(21, 33)
CONTACT_SLICE = slice(33, 37)
LAST_ACTION_SLICE = slice(37, 49)
PLANNER_SLICE = slice(49, 61)

# observation scalings
LIN_CMD_SCALE = 2.0
ANG_SCALE = 0.25
QVEL_SCALE = 0.05


@dataclass(frozen=True)
class RewardWeights:
    """Per-term weights, applied as weight * dt on top of each raw term."""

    lin_vel_tracking: float = 1.0
    ang_vel_tracking: float = 0.5
    lin_vel_penalty: float = -2.0
    ang_vel_penalty: float = -0.05
    orientation: float = -5.0
    trunk_height: float = -1.0
    joint_acceleration: float = -1.0e-7
    action_rate: float = -0.005
    self_collision: float = -0.001
    foot_air_time: float = 1.5
    foot_position: float = 0.3


# reward term names in summation order; also the metrics.csv and trace.csv columns
REWARD_TERMS = tuple(f.name for f in fields(RewardWeights))


def build_observation_arrays(
    cmd, ang_vel, gravity_b, q, qdot, contacts, last_action, planner_signal, nominal_q
) -> np.ndarray:
    """Assemble the 61-slot observation; broadcasts over leading axes."""
    cmd = np.asarray(cmd, dtype=float)
    parts = [
        cmd[..., 0:2] * LIN_CMD_SCALE,
        cmd[..., 2:3] * ANG_SCALE,
        np.asarray(ang_vel, dtype=float) * ANG_SCALE,
        np.asarray(gravity_b, dtype=float),
        np.asarray(q, dtype=float) - nominal_q,
        np.asarray(qdot, dtype=float) * QVEL_SCALE,
        np.asarray(contacts, dtype=float),
        np.asarray(last_action, dtype=float),
        np.asarray(planner_signal, dtype=float),
    ]
    return np.concatenate(parts, axis=-1)


def compose_action(q_cpg, q_rlfc, residual_limit: float) -> np.ndarray:
    """Joint target = planner baseline + clamped policy residual."""
    q_cpg = np.asarray(q_cpg, dtype=float)
    residual = np.clip(np.asarray(q_rlfc, dtype=float), -residual_limit, residual_limit)
    return q_cpg + residual


# the six foot pairs (i, j), i < j, in the order (0, 1), (0, 2), ..., (2, 3)
_PAIR_I, _PAIR_J = np.triu_indices(4, k=1)

# m; feet closer than this touch. It follows the robot's foot size, not a
# reward trade-off, so no config sets it (the weight does).
FOOT_CONTACT_DISTANCE = 0.04


def count_foot_pair_collisions(feet_body) -> np.ndarray:
    """Number of foot pairs closer than FOOT_CONTACT_DISTANCE; feet_body (..., 4, 3)."""
    feet = np.asarray(feet_body, dtype=float)
    d = feet[..., _PAIR_I, :] - feet[..., _PAIR_J, :]
    limit = FOOT_CONTACT_DISTANCE * FOOT_CONTACT_DISTANCE
    return ((d * d).sum(axis=-1) < limit).sum(axis=-1, dtype=float)


def reward_terms_arrays(
    cmd,
    cur_quat,
    cur_lin_vel_w,
    cur_ang_vel_b,
    cur_height,
    cur_q,
    cur_qdot,
    prev_qdot,
    cur_contacts,
    prev_contacts,
    prev_air_time,
    action,
    prev_action,
    feet_body,
    desired_feet,
    weights: RewardWeights,
    h_star: float,
    dt: float,
) -> dict:
    """Weighted reward contributions as a dict of arrays (leading axes kept).

    Velocities are body-frame; the air-time term fires only for feet that
    touched down between the previous and current policy step, using the
    airborne timer captured at the previous step.
    """
    cmd = np.asarray(cmd, dtype=float)
    lin_vel_b = quat.rotate_inv(cur_quat, cur_lin_vel_w)
    gravity_b = quat.gravity_body(cur_quat)

    vx_err = cmd[..., 0] - lin_vel_b[..., 0]
    vy_err = cmd[..., 1] - lin_vel_b[..., 1]
    lin_track = np.exp(-(vx_err * vx_err + vy_err * vy_err) / 0.25)

    wz_err = cmd[..., 2] - cur_ang_vel_b[..., 2]
    ang_track = np.exp(-(wz_err * wz_err) / 0.25)

    lin_pen = lin_vel_b[..., 2] ** 2
    ang_pen = cur_ang_vel_b[..., 0] ** 2 + cur_ang_vel_b[..., 1] ** 2
    orient = gravity_b[..., 0] ** 2 + gravity_b[..., 1] ** 2

    h_err = np.asarray(cur_height, dtype=float) - h_star
    height = 1.0 - np.exp(-(h_err * h_err) / 8.1e-4)

    dqdot = (np.asarray(prev_qdot, dtype=float) - np.asarray(cur_qdot, dtype=float)) / dt
    joint_acc = np.sum(dqdot * dqdot, axis=-1)

    da = np.asarray(prev_action, dtype=float) - np.asarray(action, dtype=float)
    action_rate = np.sum(da * da, axis=-1)

    collisions = count_foot_pair_collisions(feet_body)

    touched_down = np.logical_and(~np.asarray(prev_contacts, dtype=bool),
                                  np.asarray(cur_contacts, dtype=bool))
    air = np.where(touched_down, np.asarray(prev_air_time, dtype=float) - 0.5, 0.0)
    air_term = np.sum(air, axis=-1)

    dfeet = np.asarray(feet_body, dtype=float) - np.asarray(desired_feet, dtype=float)
    foot_pos = np.sum(np.exp(-np.sum(dfeet * dfeet, axis=-1) / 0.02), axis=-1)

    w = weights
    return {
        "lin_vel_tracking": w.lin_vel_tracking * dt * lin_track,
        "ang_vel_tracking": w.ang_vel_tracking * dt * ang_track,
        "lin_vel_penalty": w.lin_vel_penalty * dt * lin_pen,
        "ang_vel_penalty": w.ang_vel_penalty * dt * ang_pen,
        "orientation": w.orientation * dt * orient,
        "trunk_height": w.trunk_height * dt * height,
        "joint_acceleration": w.joint_acceleration * dt * joint_acc,
        "action_rate": w.action_rate * dt * action_rate,
        "self_collision": w.self_collision * dt * collisions,
        "foot_air_time": w.foot_air_time * dt * air_term,
        "foot_position": w.foot_position * dt * foot_pos,
    }

