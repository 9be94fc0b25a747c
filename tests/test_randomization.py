import numpy as np
import pytest
from dataclasses import replace

from conftest import assert_config_rejects
from cpgrl.config import RunConfig
from cpgrl.env import POLICY_DT, VecLocomotionEnv
from cpgrl.randomization import (
    CurriculumConfig,
    CurriculumState,
    RandomizationConfig,
    add_sensor_noise,
    curriculum_update,
    initial_curriculum,
    noise_bands,
    sample_command_values,
    schedule_impulse,
)
from cpgrl.task import (
    ANG_SCALE,
    ANGVEL_SLICE,
    CMD_SLICE,
    CONTACT_SLICE,
    GRAVITY_SLICE,
    LAST_ACTION_SLICE,
    OBS_DIM,
    PLANNER_SLICE,
    QPOS_SLICE,
    QVEL_SCALE,
    QVEL_SLICE,
)

DR = RandomizationConfig()
CURR = CurriculumConfig()
CFG = RunConfig()
BASE_MASS = CFG.env_params().trunk_mass


def one_env(planner, cfg=CFG):
    return VecLocomotionEnv(cfg, planner, n_envs=1, train_mode=True)


# ------------------------------------------------------------ env params

def test_env_param_ranges_statistical(planner):
    env = one_env(planner)
    masses, frictions = [], []
    for _ in range(10000):
        env._reset_env(np.array([0]))
        masses.append(env.mass[0])
        frictions.append(env.friction[0])
    masses = np.array(masses)
    frictions = np.array(frictions)
    assert masses.min() >= BASE_MASS - 1.0 and masses.max() <= BASE_MASS + 1.0
    assert frictions.min() >= 0.5 and frictions.max() <= 1.25
    assert frictions.mean() == pytest.approx(0.875, abs=0.01)


def test_env_param_zero_width_ranges(planner):
    cfg = replace(CFG, dr=replace(CFG.dr, mass_offset_range=(0.25, 0.25),
                                  friction_range=(0.9, 0.9)))
    env = one_env(planner, cfg)
    assert env.mass[0] == BASE_MASS + 0.25
    assert env.friction[0] == 0.9


# ------------------------------------------------------------ commands

def grid_step(planner, steps_after):
    """Step one env whose episode has run `steps_after` policy steps, returning
    its command before and after; the pinned command is (0.1, 0.2, 0.3)."""
    env = one_env(planner)
    env.set_commands([[0.1, 0.2, 0.3]])
    env.ep_steps[0] = steps_after - 1
    before = env.cmd[0].copy()
    env.step(np.zeros((1, 12)))
    return before, env.cmd[0]


def test_command_resamples_on_boundary(planner):
    steps = int(round(CFG.commands.resample_interval / POLICY_DT))
    before, after = grid_step(planner, steps)
    assert not np.array_equal(after, before)
    assert np.all(np.abs(after) <= 1.0)


def test_command_unchanged_between_boundaries(planner):
    before, after = grid_step(planner, int(round(7.3 / POLICY_DT)))
    np.testing.assert_array_equal(after, before)


def test_command_range_statistical():
    rng = np.random.default_rng(4)
    draws = np.array([sample_command_values(rng, CFG.commands.ranges) for _ in range(10000)])
    assert draws.min() >= -1.0 and draws.max() <= 1.0
    assert draws.min() <= -0.99 and draws.max() >= 0.99


def test_command_custom_ranges():
    rng = np.random.default_rng(5)
    ranges = [(-0.5, 0.5), (0.0, 0.0), (0.0, 0.0)]
    draws = np.array([sample_command_values(rng, ranges) for _ in range(200)])
    assert np.all(np.abs(draws[:, 0]) <= 0.5)
    assert np.all(draws[:, 1:] == 0.0)


# ------------------------------------------------------------ noise

def test_noise_zero_config_identity():
    dr = RandomizationConfig(noise_ang_vel=0, noise_gravity=0, noise_joint_pos=0, noise_joint_vel=0)
    rng = np.random.default_rng(6)
    obs = np.random.default_rng(0).normal(size=OBS_DIM)
    noised = obs.copy()
    add_sensor_noise(noised, rng, noise_bands(dr))
    np.testing.assert_array_equal(noised, obs)


def test_noise_respects_bands_and_untouched_slots():
    rng = np.random.default_rng(7)
    obs = np.zeros(OBS_DIM)
    max_qpos = 0.0
    bands = noise_bands(DR)
    for _ in range(2000):
        noised = obs.copy()
        add_sensor_noise(noised, rng, bands)
        np.testing.assert_array_equal(noised[CMD_SLICE], obs[CMD_SLICE])
        np.testing.assert_array_equal(noised[CONTACT_SLICE], obs[CONTACT_SLICE])
        np.testing.assert_array_equal(noised[LAST_ACTION_SLICE], obs[LAST_ACTION_SLICE])
        np.testing.assert_array_equal(noised[PLANNER_SLICE], obs[PLANNER_SLICE])
        assert np.max(np.abs(noised[QPOS_SLICE])) <= DR.noise_joint_pos
        assert np.max(np.abs(noised[QVEL_SLICE])) <= DR.noise_joint_vel * QVEL_SCALE
        assert np.max(np.abs(noised[ANGVEL_SLICE])) <= DR.noise_ang_vel * ANG_SCALE
        assert np.max(np.abs(noised[GRAVITY_SLICE])) <= DR.noise_gravity
        max_qpos = max(max_qpos, np.max(np.abs(noised[QPOS_SLICE])))
    assert max_qpos > 0.5 * DR.noise_joint_pos  # the band is actually used


def four_band_noise(obs, rng, config):
    """Reference: one rng.uniform draw per band, in slot order."""
    obs = np.array(obs, dtype=float, copy=True)
    obs[ANGVEL_SLICE] += rng.uniform(-config.noise_ang_vel, config.noise_ang_vel, 3) * ANG_SCALE
    obs[GRAVITY_SLICE] += rng.uniform(-config.noise_gravity, config.noise_gravity, 3)
    obs[QPOS_SLICE] += rng.uniform(-config.noise_joint_pos, config.noise_joint_pos, 12)
    obs[QVEL_SLICE] += rng.uniform(-config.noise_joint_vel, config.noise_joint_vel, 12) * QVEL_SCALE
    return obs


@pytest.mark.parametrize("config", [
    DR,
    RandomizationConfig(noise_ang_vel=0.0, noise_gravity=0.0, noise_joint_pos=0.0,
                        noise_joint_vel=0.0),
    RandomizationConfig(noise_ang_vel=0.3, noise_gravity=0.0, noise_joint_pos=0.02,
                        noise_joint_vel=0.0),
])
def test_noise_bitwise_matches_four_uniform_draws(config):
    for seed in range(60):
        obs = np.random.default_rng(1000 + seed).normal(size=OBS_DIM)
        obs[seed % OBS_DIM] = -0.0
        fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            noised = obs.copy()
            add_sensor_noise(noised, fast, noise_bands(config))
            np.testing.assert_array_equal(noised.view(np.uint64),
                                          four_band_noise(obs, ref, config).view(np.uint64))
        assert fast.bit_generator.state == ref.bit_generator.state


# ------------------------------------------------------------ curriculum

def test_curriculum_triggers_above_threshold():
    state = CurriculumState(impulse_interval=15.0, impulse_mag_cap=1.0)
    out = curriculum_update(state, 0.9, CURR)
    assert out.impulse_interval == pytest.approx(13.5)
    assert out.impulse_mag_cap == pytest.approx(1.1)


def test_curriculum_unchanged_below_threshold():
    state = CurriculumState(impulse_interval=15.0, impulse_mag_cap=1.0)
    out = curriculum_update(state, 0.5, CURR)
    assert out.impulse_interval == 15.0
    assert out is state


def test_curriculum_respects_bounds_and_monotonicity():
    state = initial_curriculum(CURR, DR)
    intervals, caps = [state.impulse_interval], [state.impulse_mag_cap]
    for _ in range(200):
        state = curriculum_update(state, 0.95, CURR)
        intervals.append(state.impulse_interval)
        caps.append(state.impulse_mag_cap)
    assert all(a >= b for a, b in zip(intervals, intervals[1:]))
    assert all(a <= b for a, b in zip(caps, caps[1:]))
    assert intervals[-1] == pytest.approx(CURR.interval_floor)
    assert caps[-1] == pytest.approx(CURR.cap_max)


def test_curriculum_rejects_bad_fraction():
    with pytest.raises(ValueError):
        curriculum_update(initial_curriculum(CURR, DR), 1.5, CURR)


# ------------------------------------------------------------ impulses

def test_impulse_fires_on_interval_boundary():
    rng = np.random.default_rng(8)
    state = CurriculumState(impulse_interval=15.0, impulse_mag_cap=1.0)
    dv = schedule_impulse(rng, 15.0, state, POLICY_DT)
    assert dv is not None
    assert np.all(np.abs(dv) <= 1.0)


def test_impulse_none_between_boundaries():
    rng = np.random.default_rng(9)
    state = CurriculumState(impulse_interval=15.0, impulse_mag_cap=1.0)
    assert schedule_impulse(rng, 3.0, state, POLICY_DT) is None
    assert schedule_impulse(rng, 0.0, state, POLICY_DT) is None


def test_impulse_respects_cap_statistical():
    rng = np.random.default_rng(10)
    state = CurriculumState(impulse_interval=15.0, impulse_mag_cap=1.8)
    draws = np.array([schedule_impulse(rng, 15.0, state, POLICY_DT) for _ in range(10000)])
    assert np.max(np.abs(draws)) <= 1.8
    assert np.max(np.abs(draws)) >= 1.75


def test_per_env_streams_independent_and_reproducible():
    master = 1234
    a1 = np.random.default_rng([master, 0]).uniform(size=20)
    a2 = np.random.default_rng([master, 0]).uniform(size=20)
    b = np.random.default_rng([master, 1]).uniform(size=20)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)


# ------------------------------------------------------------ big sweep

def test_table_ranges_hundred_thousand_draws():
    rng = np.random.default_rng(11)
    n = 100000
    mass_off = rng.uniform(*DR.mass_offset_range, size=n)
    fric = rng.uniform(*DR.friction_range, size=n)
    imp = rng.uniform(-CURR.cap_max, CURR.cap_max, size=n)
    ang = rng.uniform(-DR.noise_ang_vel, DR.noise_ang_vel, size=n)
    grav = rng.uniform(-DR.noise_gravity, DR.noise_gravity, size=n)
    jp = rng.uniform(-DR.noise_joint_pos, DR.noise_joint_pos, size=n)
    jv = rng.uniform(-DR.noise_joint_vel, DR.noise_joint_vel, size=n)
    assert mass_off.min() >= -1.0 and mass_off.max() <= 1.0
    assert fric.min() >= 0.5 and fric.max() <= 1.25
    assert imp.min() >= -1.8 and imp.max() <= 1.8
    assert np.abs(ang).max() <= 0.05
    assert np.abs(grav).max() <= 0.05
    assert np.abs(jp).max() <= 0.01
    assert np.abs(jv).max() <= 0.075


def test_randomization_config_validation():
    """RandomizationConfig's values are checked as config keys."""
    assert_config_rejects("dr.friction_range", [1.5, 0.5])
    assert_config_rejects("dr.impulse_interval_init", 0.0)
    assert_config_rejects("dr.noise_joint_pos", -0.1)
