import numpy as np
import pytest

from conftest import assert_same_bits
from cpgrl import quat
from cpgrl.config import RunConfig
from cpgrl.env import VecLocomotionEnv
from cpgrl.kinematics import forward_kinematics_all
from cpgrl.task import (
    ANGVEL_SLICE,
    CONTACT_SLICE,
    GRAVITY_SLICE,
    LAST_ACTION_SLICE,
    OBS_DIM,
    PLANNER_SLICE,
    QPOS_SLICE,
    QVEL_SLICE,
    REWARD_TERMS,
    RewardWeights,
    build_observation_arrays,
    compose_action,
    count_foot_pair_collisions,
    reward_terms_arrays,
)

PARAMS = RunConfig().env_params()
RESIDUAL_LIMIT = RunConfig().robot.residual_limit
GEOM = PARAMS.geometry
NOMINAL_Q = PARAMS.nominal_q
DT = 0.02
FEET_NOMINAL = forward_kinematics_all(NOMINAL_Q, GEOM)

# a robot standing still on all four feet at the nominal height and pose
STANDING = {
    "cmd": np.zeros(3),
    "cur_quat": quat.IDENTITY,
    "cur_lin_vel_w": np.zeros(3),
    "cur_ang_vel_b": np.zeros(3),
    "cur_height": PARAMS.stand_height,
    "cur_q": NOMINAL_Q,
    "cur_qdot": np.zeros(12),
    "prev_qdot": np.zeros(12),
    "cur_contacts": np.ones(4, dtype=bool),
    "prev_contacts": np.ones(4, dtype=bool),
    "prev_air_time": np.zeros(4),
    "action": NOMINAL_Q,
    "prev_action": NOMINAL_Q,
    "desired_feet": FEET_NOMINAL,
}


def reward(h_star=0.32, **overrides):
    """Weighted reward terms of the standing robot with overrides applied."""
    args = {**STANDING, **overrides}
    feet_body = forward_kinematics_all(args["cur_q"], GEOM)
    return reward_terms_arrays(**args, feet_body=feet_body, weights=RewardWeights(),
                               h_star=h_star, dt=DT)


def observe(cmd=np.zeros(3), rot=quat.IDENTITY, ang_vel=np.zeros(3), qdot=np.zeros(12),
            planner_signal=NOMINAL_Q, last_action=np.zeros(12)):
    """Observation of a robot in the nominal pose with no foot in contact."""
    return build_observation_arrays(cmd, ang_vel, quat.gravity_body(rot), NOMINAL_Q, qdot,
                                    np.zeros(4, dtype=bool), last_action, planner_signal,
                                    NOMINAL_Q)


# ------------------------------------------------------------- observation

def test_observation_layout_and_scalings():
    qdot = np.zeros(12)
    qdot[3] = 2.0
    planner = NOMINAL_Q + 0.1
    last_action = np.full(12, 0.05)
    obs = observe(cmd=np.array([0.5, -0.25, 0.8]), ang_vel=np.array([0.0, 0.0, 0.8]),
                  qdot=qdot, planner_signal=planner, last_action=last_action)

    assert obs.shape == (OBS_DIM,)
    assert obs[0] == pytest.approx(1.0)      # vx* x 2.0
    assert obs[1] == pytest.approx(-0.5)     # vy* x 2.0
    assert obs[2] == pytest.approx(0.2)      # wz* x 0.25
    assert obs[ANGVEL_SLICE][2] == pytest.approx(0.2)  # 0.8 rad/s x 0.25
    assert obs[QVEL_SLICE][3] == pytest.approx(0.1)    # 2.0 rad/s x 0.05
    np.testing.assert_allclose(obs[GRAVITY_SLICE], [0.0, 0.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(obs[QPOS_SLICE], 0.0, atol=1e-12)
    np.testing.assert_array_equal(obs[LAST_ACTION_SLICE], last_action)
    np.testing.assert_array_equal(obs[PLANNER_SLICE], planner)
    np.testing.assert_array_equal(obs[CONTACT_SLICE], np.zeros(4))


def test_observation_gravity_unit_norm():
    rng = np.random.default_rng(0)
    rot = quat.IDENTITY
    for _ in range(20):
        r = rng.normal(size=3) * 0.5
        rot = quat.normalize(quat.multiply(rot, quat.from_rotvec(r)))
        obs = observe(rot=rot)
        assert np.linalg.norm(obs[GRAVITY_SLICE]) == pytest.approx(1.0, abs=1e-6)


def test_observation_pure_function():
    cmd = np.array([0.3, 0.0, 0.0])
    a = observe(cmd=cmd)
    b = observe(cmd=cmd)
    np.testing.assert_array_equal(a, b)


# ------------------------------------------------------------- compose

def test_compose_sum():
    q = compose_action(np.full(12, 0.3), np.full(12, 0.1), RESIDUAL_LIMIT)
    np.testing.assert_allclose(q, 0.4)


def test_compose_zero_residual_is_identity():
    baseline = NOMINAL_Q + 0.123
    np.testing.assert_array_equal(compose_action(baseline, np.zeros(12), RESIDUAL_LIMIT), baseline)


def test_compose_clamps_residual():
    q = compose_action(np.full(12, 0.3), np.full(12, 1.5), residual_limit=0.6)
    np.testing.assert_allclose(q, 0.9)


# ------------------------------------------------------------- reward

def test_reward_terms_order():
    # the summation order and the metrics.csv / trace.csv column order
    assert REWARD_TERMS == (
        "lin_vel_tracking", "ang_vel_tracking", "lin_vel_penalty", "ang_vel_penalty",
        "orientation", "trunk_height", "joint_acceleration", "action_rate",
        "self_collision", "foot_air_time", "foot_position",
    )
    assert tuple(reward()) == REWARD_TERMS


def test_perfect_tracking_terms():
    r = reward(cmd=np.array([0.4, -0.2, 0.3]), cur_lin_vel_w=np.array([0.4, -0.2, 0.0]),
               cur_ang_vel_b=np.array([0.0, 0.0, 0.3]))
    assert r["lin_vel_tracking"] == pytest.approx(1.0 * DT, abs=1e-12)
    assert r["ang_vel_tracking"] == pytest.approx(0.5 * DT, abs=1e-12)


def test_lin_vel_tracking_error_value():
    # error^2 = 0.25 vs zero command
    r = reward(cur_lin_vel_w=np.array([0.5, 0.0, 0.0]))
    assert r["lin_vel_tracking"] == pytest.approx(np.exp(-1.0) * DT, abs=1e-12)


def test_height_penalty_value():
    r = reward(h_star=0.32, cur_height=0.32 + 0.03)
    expected = (1.0 - np.exp(-0.0009 / 8.1e-4)) * (-1.0 * DT)
    assert r["trunk_height"] == pytest.approx(expected, abs=1e-12)


def test_air_time_touchdown_value():
    r = reward(prev_contacts=np.array([False, False, True, True]),
               prev_air_time=np.array([0.3, 0.3, 0.0, 0.0]),
               cur_contacts=np.ones(4, dtype=bool))
    assert r["foot_air_time"] == pytest.approx(1.5 * DT * (2 * (0.3 - 0.5)), abs=1e-12)
    assert r["foot_air_time"] == pytest.approx(-0.012, abs=1e-12)


def test_air_time_without_touchdown_is_zero():
    r = reward(prev_contacts=np.zeros(4, dtype=bool), prev_air_time=np.full(4, 0.4),
               cur_contacts=np.zeros(4, dtype=bool))
    assert r["foot_air_time"] == 0.0


def test_joint_acceleration_value():
    r = reward(prev_qdot=np.zeros(12), cur_qdot=np.full(12, 0.1))
    expected = -1e-7 * DT * np.sum((0.1 / DT) ** 2 * np.ones(12))
    assert r["joint_acceleration"] == pytest.approx(expected, abs=1e-15)


def test_action_rate_value():
    r = reward(action=NOMINAL_Q + 0.05, prev_action=NOMINAL_Q)
    expected = -0.005 * DT * np.sum(np.full(12, 0.05) ** 2)
    assert r["action_rate"] == pytest.approx(expected, abs=1e-15)


def test_orientation_penalty():
    tilt = quat.normalize(quat.from_rotvec(np.array([0.3, 0.0, 0.0])))
    r = reward(cur_quat=tilt)
    g = quat.gravity_body(tilt)
    assert r["orientation"] == pytest.approx(-5.0 * DT * (g[0] ** 2 + g[1] ** 2), abs=1e-15)
    assert r["orientation"] < 0


def test_foot_position_max_when_on_target():
    r = reward()
    assert r["foot_position"] == pytest.approx(0.3 * DT * 4.0, abs=1e-12)


def test_self_collision_counts_pairs():
    feet = np.zeros((4, 3))
    feet[0] = [0.1, 0.0, -0.3]
    feet[1] = [0.1, 0.03, -0.3]   # pair (0,1) closer than 0.04
    feet[2] = [-0.1, -0.1, -0.3]
    feet[3] = [-0.1, 0.1, -0.3]
    assert count_foot_pair_collisions(feet) == 1
    feet[2] = [0.1, 0.01, -0.3]   # pairs (0,2), (1,2) also collide
    assert count_foot_pair_collisions(feet) == 3


def loop_count_foot_pair_collisions(feet, threshold=0.04):
    count = np.zeros(feet.shape[:-2])
    for i in range(4):
        for j in range(i + 1, 4):
            d = feet[..., i, :] - feet[..., j, :]
            count = count + (np.sum(d * d, axis=-1) < threshold * threshold)
    return count


@pytest.mark.parametrize("lead", [(), (1,), (64,), (1024,)])
def test_self_collision_count_equals_pair_loop(lead):
    rng = np.random.default_rng(sum(lead))
    # feet scattered about the threshold distance apart, so many pairs collide
    feet = rng.normal(scale=0.03, size=lead + (4, 3))
    assert_same_bits(count_foot_pair_collisions(feet), loop_count_foot_pair_collisions(feet))


def test_total_is_exact_sum(planner):
    """env.step's reward is the in-order sum of its weighted terms."""
    env = VecLocomotionEnv(RunConfig(), planner, n_envs=4, train_mode=True)
    rng = np.random.default_rng(1)
    for _ in range(5):
        rewards, _, info = env.step(rng.normal(scale=0.1, size=(4, 12)))
        assert tuple(info["terms"]) == REWARD_TERMS
        total = np.zeros(4)
        for name in REWARD_TERMS:
            total = total + info["terms"][name]
        np.testing.assert_array_equal(rewards, total)


def test_penalties_nonpositive_bonuses_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(25):
        r = reward(
            prev_qdot=rng.normal(size=12),
            cur_qdot=rng.normal(size=12),
            cur_lin_vel_w=rng.normal(size=3),
            cur_ang_vel_b=rng.normal(size=3),
            cur_height=rng.uniform(0.1, 0.5),
            cur_quat=quat.normalize(quat.from_rotvec(rng.normal(size=3) * 0.4)),
            prev_contacts=rng.random(4) > 0.5,
            prev_air_time=rng.random(4),
            cur_contacts=rng.random(4) > 0.3,
            cmd=np.array([rng.uniform(-1, 1), 0.0, 0.0]),
            action=rng.normal(size=12),
            prev_action=rng.normal(size=12),
        )
        for name in ("lin_vel_penalty", "ang_vel_penalty", "orientation", "trunk_height",
                     "joint_acceleration", "action_rate", "self_collision"):
            assert r[name] <= 0.0, name
        for name in ("lin_vel_tracking", "ang_vel_tracking", "foot_position"):
            assert r[name] >= 0.0, name


def test_tracking_strictly_decreasing_in_error():
    values = []
    for verr in (0.0, 0.2, 0.5, 1.0):
        r = reward(cur_lin_vel_w=np.array([verr, 0.0, 0.0]))
        values.append(r["lin_vel_tracking"])
    assert values[0] == pytest.approx(1.0 * DT)
    assert all(a > b for a, b in zip(values, values[1:]))
