import numpy as np
import pytest
from dataclasses import replace

from cpgrl.config import RunConfig
from cpgrl.env import POLICY_DT, VecLocomotionEnv
from cpgrl.randomization import CurriculumState, schedule_impulse
from cpgrl.simulator import NumericalDivergence, _step_core
from cpgrl.task import OBS_DIM, PLANNER_SLICE, compose_action


def small_cfg(**kwargs):
    cfg = RunConfig()
    cfg = replace(cfg, train=replace(cfg.train, n_envs=4, horizon=8, hidden=(32, 16)))
    for key, value in kwargs.items():
        cfg = replace(cfg, **{key: value})
    return cfg


def assert_same_state(a, b):
    for name in VecLocomotionEnv._ARRAY_FIELDS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name), err_msg=name)
    for ra, rb in zip(a.rngs, b.rngs):
        assert ra.bit_generator.state == rb.bit_generator.state


def test_observation_shape_and_planner_slot(planner):
    cfg = small_cfg()
    env = VecLocomotionEnv(cfg, planner, train_mode=False)
    obs = env.observe()
    assert obs.shape == (4, OBS_DIM)
    np.testing.assert_array_equal(obs[:, PLANNER_SLICE], np.tile(planner.baseline_table()[0], (4, 1)))


def test_step_advances_phase_and_time(planner):
    cfg = small_cfg()
    env = VecLocomotionEnv(cfg, planner, train_mode=False)
    env.step(np.zeros((4, 12)))
    assert np.all(env.phase == env.substeps)
    np.testing.assert_allclose(env.ep_time, env.substeps * cfg.sim.dt, rtol=1e-12)


def test_vectorized_step_matches_scalar_bitwise(planner):
    """`env.step`, and `_step_core` over all envs component-major (env axis
    last), equal `_step_core` on each env's slice."""
    cfg = small_cfg()
    # randomized dynamics give each env its own mass and friction
    cfg = replace(cfg, dr=replace(cfg.dr, randomize_dynamics=True, add_noise=False,
                                  apply_impulses=False))
    env = VecLocomotionEnv(cfg, planner, train_mode=True)
    params = env.base_params
    rng = np.random.default_rng(5)
    names = ("pos", "rot", "linvel", "angvel", "q", "qdot", "contacts", "air", "ep_time")
    for _ in range(3):
        actions = rng.normal(scale=0.1, size=(4, 12))
        target = compose_action(env.baseline[env.phase % env.period], actions,
                                cfg.robot.residual_limit)
        alpha = cfg.robot.filter_alpha
        filtered = alpha * target + (1.0 - alpha) * env.filter_mem
        batched = (env.pos.T, env.rot.T, env.linvel.T, env.angvel.T,
                   env.q.T, env.qdot.T, env.air.T, env.ep_time)
        for _ in range(env.substeps):
            out = _step_core(*batched, filtered.T, params, params.dt, env.mass, env.friction)
            batched = out[:6] + out[7:]
        batched_out = out
        per_env = []
        for i in range(env.n):
            state = (env.pos[i], env.rot[i], env.linvel[i], env.angvel[i],
                     env.q[i], env.qdot[i], env.air[i], env.ep_time[i])
            for _ in range(env.substeps):
                out = _step_core(*state, filtered[i], params, params.dt,
                                 env.mass[i], env.friction[i])
                state = out[:6] + out[7:]
            per_env.append(out)
        env.step(actions)
        for i, out in enumerate(per_env):
            for name, value, batch in zip(names, out, batched_out):
                np.testing.assert_array_equal(getattr(env, name)[i], value, err_msg=name)
                np.testing.assert_array_equal(np.asarray(batch)[..., i], value, err_msg=name)


def test_filter_alpha_one_passes_the_target_through(planner):
    cfg = small_cfg()
    cfg = replace(cfg, robot=replace(cfg.robot, filter_alpha=1.0))
    env = VecLocomotionEnv(cfg, planner, train_mode=False)
    actions = np.random.default_rng(2).normal(scale=0.1, size=(4, 12))
    env.step(actions)
    np.testing.assert_array_equal(env.filter_mem, env.prev_target)


def test_divergence_blames_the_diverged_env(planner):
    env = VecLocomotionEnv(small_cfg(), planner, train_mode=False)
    env.pos[0, 0] = 5.0e4       # large but finite and under the limit
    env.linvel[2, 0] = 1.5e6    # over the limit
    with pytest.raises(NumericalDivergence) as err:
        env.step(np.zeros((4, 12)))
    assert err.value.env_index == 2

    env = VecLocomotionEnv(small_cfg(), planner, train_mode=False)
    env.pos[0, 0] = 5.0e4
    env.qdot[3, 4] = np.nan
    with pytest.raises(NumericalDivergence) as err:
        env.step(np.zeros((4, 12)))
    assert err.value.env_index == 3


def test_divergence_in_angvel_or_rot_is_detected(planner):
    env = VecLocomotionEnv(small_cfg(), planner, train_mode=False)
    env.pos[:, 2] = 2.0                  # airborne: no contact to damp the spin
    env.angvel[1] = [1.0e7, 0.0, 0.0]    # over the limit; gyroscopic torque is zero
    with pytest.raises(NumericalDivergence) as err:
        env.step(np.zeros((4, 12)))
    assert err.value.env_index == 1

    env = VecLocomotionEnv(small_cfg(), planner, train_mode=False)
    env.pos[:, 2] = 2.0
    env.rot[3] = [np.nan, 0.0, 0.0, 0.0]
    with pytest.raises(NumericalDivergence) as err:
        env.step(np.zeros((4, 12)))
    assert err.value.env_index == 3


def test_reset_on_done_restores_spawn(planner):
    cfg = small_cfg()
    env = VecLocomotionEnv(cfg, planner, train_mode=False)
    # force a collision: trunk upside down near the ground, legs in the air
    env.rot[2] = np.array([0.0, 1.0, 0.0, 0.0])
    env.pos[2, 2] = 0.08
    rewards, dones, info = env.step(np.zeros((4, 12)))
    assert dones[2] == 1.0
    assert env.ep_steps[2] == 0
    assert env.pos[2, 2] == pytest.approx(cfg.robot.stand_height + cfg.sim.spawn_drop_height)
    assert env.phase[2] == 0


def test_timeout_resets(planner):
    cfg = small_cfg()
    env = VecLocomotionEnv(cfg, planner, train_mode=False)
    env.ep_time[:] = cfg.sim.episode_limit - 2 * cfg.sim.dt
    rewards, dones, info = env.step(np.zeros((4, 12)))
    assert np.all(info["timeout"])
    assert np.all(dones == 1.0)


def test_commands_resample_on_grid(planner):
    cfg = small_cfg()
    env = VecLocomotionEnv(cfg, planner, train_mode=False)
    env.set_commands(np.tile([0.123, 0.0, 0.0], (4, 1)))
    boundary = int(round(cfg.commands.resample_interval / POLICY_DT))
    env.ep_steps[:] = boundary - 1
    env.ep_time[:] = 5.0  # keep well away from the episode limit
    before = env.cmd.copy()
    env.step(np.zeros((4, 12)))
    assert not np.allclose(env.cmd, before)


def test_same_seed_bit_identical(planner):
    cfg = small_cfg(seed=7)

    def run():
        env = VecLocomotionEnv(cfg, planner, train_mode=True)
        rng = np.random.default_rng(1)
        total = np.zeros(4)
        for _ in range(12):
            rewards, dones, _ = env.step(rng.normal(scale=0.1, size=(4, 12)))
            total += rewards
        return total, env.pos.copy(), env.q.copy()

    t1, p1, q1 = run()
    t2, p2, q2 = run()
    np.testing.assert_array_equal(t1, t2)
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(q1, q2)


def test_env_streams_differ_per_index(planner):
    cfg = small_cfg(seed=7)
    env = VecLocomotionEnv(cfg, planner, train_mode=True)
    cmds = env.cmd
    assert len({tuple(np.round(c, 12)) for c in cmds}) > 1


def test_state_dict_round_trip(planner):
    cfg = small_cfg(seed=3)
    env = VecLocomotionEnv(cfg, planner, train_mode=True)
    rng = np.random.default_rng(2)
    for _ in range(5):
        env.step(rng.normal(scale=0.05, size=(4, 12)))
    snap = env.state_dict()
    ref_rewards = []
    for _ in range(5):
        r, _, _ = env.step(np.zeros((4, 12)))
        ref_rewards.append(r)

    env2 = VecLocomotionEnv(cfg, planner, train_mode=True)
    env2.load_state_dict(snap)
    for r_ref in ref_rewards:
        r2, _, _ = env2.step(np.zeros((4, 12)))
        np.testing.assert_array_equal(r_ref, r2)


def test_impulse_applied_on_boundary(planner):
    cfg = small_cfg()
    cfg = replace(cfg, dr=replace(cfg.dr, apply_impulses=True, add_noise=False,
                                  randomize_dynamics=False))
    env = VecLocomotionEnv(cfg, planner, train_mode=True)
    curriculum = CurriculumState(impulse_interval=15.0, impulse_mag_cap=1.0)
    boundary = int(round(15.0 / POLICY_DT))
    env.ep_steps[:] = boundary - 1
    env.ep_time[:] = 5.0
    v_before = env.linvel[:, :2].copy()
    env.step(np.zeros((4, 12)), curriculum)
    # the velocity right after the kick also integrates contact forces, so
    # check the kick landed by magnitude of the horizontal change
    assert np.any(np.abs(env.linvel[:, :2] - v_before) > 0.05)


def test_impulse_adds_drawn_velocity(planner):
    """A kick adds the drawn (dvx, dvy) to the trunk velocity and nothing else."""
    cfg = small_cfg()
    cfg = replace(cfg, dr=replace(cfg.dr, apply_impulses=True, add_noise=False,
                                  randomize_dynamics=False))
    curriculum = CurriculumState(impulse_interval=15.0, impulse_mag_cap=1.0)
    boundary = int(round(15.0 / POLICY_DT))
    kicked = VecLocomotionEnv(cfg, planner, train_mode=True)
    by_hand = VecLocomotionEnv(cfg, planner, train_mode=True)
    for env in (kicked, by_hand):
        env.ep_steps[:] = boundary - 1
        env.ep_time[:] = 5.0
    for i in range(by_hand.n):
        dv = schedule_impulse(by_hand.rngs[i], boundary * POLICY_DT, curriculum, dt=POLICY_DT)
        assert np.all(dv != 0.0) and np.all(np.abs(dv) <= 1.0)
        by_hand.linvel[i, 0] += dv[0]
        by_hand.linvel[i, 1] += dv[1]
    kicked.step(np.zeros((4, 12)), curriculum)
    by_hand.step(np.zeros((4, 12)))
    assert_same_state(kicked, by_hand)


def test_impulse_none_between_boundaries_is_identity(planner):
    cfg = small_cfg()
    cfg = replace(cfg, dr=replace(cfg.dr, apply_impulses=True, add_noise=False))
    curriculum = CurriculumState(impulse_interval=15.0, impulse_mag_cap=1.8)
    with_curriculum = VecLocomotionEnv(cfg, planner, train_mode=True)
    without = VecLocomotionEnv(cfg, planner, train_mode=True)
    for _ in range(5):
        with_curriculum.step(np.zeros((4, 12)), curriculum)
        without.step(np.zeros((4, 12)))
    assert_same_state(with_curriculum, without)


def test_resample_and_impulse_boundaries_match_per_env_reference(planner):
    """Crossing the 10 s command grid and the 15 s impulse boundary, with
    sensor noise, dynamics randomization and a timeout reset, equals a
    per-env reference loop applied around a step that does neither."""
    cfg = replace(small_cfg(seed=11), train=replace(small_cfg().train, n_envs=6))
    interval = cfg.commands.resample_interval
    no_resample = replace(cfg, commands=replace(cfg.commands, resample_interval=1000.0))
    curriculum = CurriculumState(impulse_interval=15.0, impulse_mag_cap=1.2)
    cap = curriculum.impulse_mag_cap
    fast = VecLocomotionEnv(cfg, planner, train_mode=True)
    ref = VecLocomotionEnv(no_resample, planner, train_mode=True)
    # 10 s grid at step 500, impulse at step 750, both at 1500; env 5 times out
    start = np.array([498, 748, 1498, 0, 499, 499])
    for env in (fast, ref):
        env.ep_steps[:] = start
        env.ep_time[:] = 5.0
        env.ep_time[5] = cfg.sim.episode_limit - 2 * cfg.sim.dt
    kicks = resamples = 0
    rng = np.random.default_rng(3)
    for _ in range(3):
        actions = rng.normal(scale=0.05, size=(6, 12))
        np.testing.assert_array_equal(fast.observe(), ref.observe())
        for i in range(ref.n):
            t = (ref.ep_steps[i] + 1) * POLICY_DT
            if np.floor(t / 15.0 + 1e-12) > np.floor((t - POLICY_DT) / 15.0 + 1e-12):
                dv = ref.rngs[i].uniform(-cap, cap, size=2)
                ref.linvel[i, 0] += dv[0]
                ref.linvel[i, 1] += dv[1]
                kicks += 1
        _, fast_dones, _ = fast.step(actions, curriculum)
        _, dones, _ = ref.step(actions)
        np.testing.assert_array_equal(fast_dones, dones)
        for i in range(ref.n):
            if dones[i] or ref.ep_steps[i] == 0:
                continue
            steps = ref.ep_steps[i] * POLICY_DT / interval
            if abs(steps - round(steps)) < 1e-9:
                ref.cmd[i] = ref.rngs[i].uniform(*np.asarray(cfg.commands.ranges, dtype=float).T)
                resamples += 1
        assert_same_state(fast, ref)
    assert kicks == 2 and resamples == 3
