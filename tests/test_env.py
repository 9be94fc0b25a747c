import numpy as np
import pytest
from dataclasses import replace

from conftest import assert_same_bits
from cpgrl.config import RunConfig
from cpgrl.env import POLICY_DT, VecLocomotionEnv
from cpgrl.randomization import CurriculumState, sample_command_values, schedule_impulse
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
    assert np.all(env.ep_steps == 1)
    # the planner ticks once per substep
    np.testing.assert_array_equal(env.observe()[:, PLANNER_SLICE],
                                  np.tile(env.baseline[env.substeps % env.period], (4, 1)))


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
    names = ("pos", "rot", "linvel", "angvel", "q", "qdot", "contacts", "air")
    for _ in range(3):
        actions = rng.normal(scale=0.1, size=(4, 12))
        target = compose_action(env.baseline[env.ep_steps * env.substeps % env.period], actions,
                                cfg.robot.residual_limit)
        alpha = cfg.robot.filter_alpha
        filtered = alpha * target + (1.0 - alpha) * env.filter_mem
        batched = (env.pos.T, env.rot.T, env.linvel.T, env.angvel.T,
                   env.q.T, env.qdot.T, env.air.T)
        for _ in range(env.substeps):
            out = _step_core(*batched, filtered.T, params, env.mass, env.friction)
            batched = out[:6] + out[7:]
        batched_out = out
        per_env = []
        for i in range(env.n):
            state = (env.pos[i], env.rot[i], env.linvel[i], env.angvel[i],
                     env.q[i], env.qdot[i], env.air[i])
            for _ in range(env.substeps):
                out = _step_core(*state, filtered[i], params, env.mass[i], env.friction[i])
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
    np.testing.assert_array_equal(env.observe()[2, PLANNER_SLICE], env.baseline[0])


def test_timeout_resets(planner):
    cfg = small_cfg()
    env = VecLocomotionEnv(cfg, planner, train_mode=False)
    # the step ends exactly on the episode limit
    env.ep_steps[:] = round(cfg.sim.episode_limit / POLICY_DT) - 1
    rewards, dones, info = env.step(np.zeros((4, 12)))
    assert np.all(info["timeout"])
    assert np.all(dones == 1.0)


def test_step_count_timeout_matches_the_accumulated_time_rule():
    """`env.step`'s timeout, `ep_steps * POLICY_DT >= limit - dt / 2`, decides as
    the earlier rule on a clock that added dt every substep, at every step count
    up to two steps past the limit. The limits are the configs' 20 s and
    run_eval's settle + duration + one policy step, for durations on the 20 ms
    grid up to 60 s."""
    dt = RunConfig().sim.dt
    substeps = int(round(POLICY_DT / dt))
    settle = 2.0
    limits = [20.0] + [settle + float(f"{j * POLICY_DT:.2f}") + POLICY_DT
                       for j in range(1, 3001)]
    n_steps = int(round(max(limits) / POLICY_DT)) + 2
    clock, accumulated = 0.0, [0.0]
    for _ in range(n_steps):
        for _ in range(substeps):
            clock = clock + dt
        accumulated.append(clock)
    accumulated = np.array(accumulated)
    for limit in limits:
        last = int(round(limit / POLICY_DT))   # the step that ends on the limit
        steps = np.arange(1, last + 3)
        old = accumulated[steps] >= limit - 0.5 * dt
        new = steps * POLICY_DT >= limit - 0.5 * dt
        np.testing.assert_array_equal(new, old, err_msg=f"limit {limit!r}")
        np.testing.assert_array_equal(new, steps >= last, err_msg=f"limit {limit!r}")


def test_commands_resample_on_grid(planner):
    cfg = small_cfg()
    env = VecLocomotionEnv(cfg, planner, train_mode=False)
    env.set_commands(np.tile([0.123, 0.0, 0.0], (4, 1)))
    boundary = int(round(cfg.commands.resample_interval / POLICY_DT))
    env.ep_steps[:] = boundary - 1
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
    # env 2 starts past the default 20 s, so the episode runs to 40 s
    cfg = replace(cfg, sim=replace(cfg.sim, episode_limit=40.0))
    interval = cfg.commands.resample_interval
    no_resample = replace(cfg, commands=replace(cfg.commands, resample_interval=1000.0))
    curriculum = CurriculumState(impulse_interval=15.0, impulse_mag_cap=1.2)
    cap = curriculum.impulse_mag_cap
    fast = VecLocomotionEnv(cfg, planner, train_mode=True)
    ref = VecLocomotionEnv(no_resample, planner, train_mode=True)
    # 10 s grid at step 500, impulse at step 750, both at 1500; env 5 times out
    # at step 2000
    start = np.array([498, 748, 1498, 0, 499, 1999])
    for env in (fast, ref):
        env.ep_steps[:] = start
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


# ------------------------------------------------------------ spawn and intervals

def resampled_steps(planner, interval, n_steps):
    """The steps k in 1..n_steps after which a surviving env resamples its
    command, read off one step of n_steps envs that start at ep_steps k - 1."""
    cfg = small_cfg()
    cfg = replace(cfg, sim=replace(cfg.sim, episode_limit=40.0),
                  commands=replace(cfg.commands, resample_interval=interval))
    env = VecLocomotionEnv(cfg, planner, n_envs=n_steps, train_mode=False)
    env.set_commands(np.tile([0.123, 0.0, 0.0], (n_steps, 1)))
    env.ep_steps[:] = np.arange(n_steps)
    _, dones, _ = env.step(np.zeros((n_steps, 12)))
    assert not dones.any()
    return np.flatnonzero(env.cmd[:, 0] != 0.123) + 1


def test_commands_resample_off_the_policy_grid(planner):
    """An interval that is no whole number of 20 ms steps resamples at the
    first step past each of its multiples."""
    steps = resampled_steps(planner, 0.05, 1000)
    # the multiples 0.05 j fall in the steps ending at 0.06, 0.10, 0.16, 0.20, ... s
    np.testing.assert_array_equal(steps, [(5 * j + 1) // 2 for j in range(1, 401)])
    # 10.005 s: once in the first 20 s, in the step ending at 10.02 s
    np.testing.assert_array_equal(resampled_steps(planner, 10.005, 1000), [501])


@pytest.mark.parametrize("interval", [0.02, 0.05, 0.1, 0.37, 1.0, 7.3, 10.0, 10.005, 15.0])
def test_resample_rule_is_the_impulse_rule(planner, interval):
    """The env resamples in exactly the steps in which `schedule_impulse`,
    with the same interval, kicks."""
    n_steps = 1999
    cur = CurriculumState(impulse_interval=interval, impulse_mag_cap=1.0)
    rng = np.random.default_rng(0)
    kicks = [k for k in range(1, n_steps + 1)
             if schedule_impulse(rng, k * POLICY_DT, cur, dt=POLICY_DT) is not None]
    np.testing.assert_array_equal(resampled_steps(planner, interval, n_steps), kicks)


def test_resample_rule_equals_the_exact_multiple_rule_on_the_grid():
    """On every interval of m policy steps, m = 1..3000 (20 ms to 60 s), the
    boundary rule picks the same steps as the exact-multiple test it replaced
    (`ep_steps != 0` and t / interval an integer within 1e-9)."""
    ep_steps = np.arange(1, 5001)
    t = ep_steps * POLICY_DT
    # both as the product and as the decimal a config file gives
    for interval in sorted({x for m in range(1, 3001)
                            for x in (m * POLICY_DT, round(m * POLICY_DT, 2))}):
        ratio = t / interval
        exact = np.abs(ratio - np.round(ratio)) < 1e-9
        # the env's rule, as env.step writes it
        crossed = np.floor(t / interval + 1e-12) > np.floor((t - POLICY_DT) / interval + 1e-12)
        np.testing.assert_array_equal(crossed, exact, err_msg=f"interval {interval!r}")


def test_spawn_draw_order_and_one_reset_call_per_step(planner, monkeypatch):
    """Each env's command, mass and friction come from its own stream,
    `default_rng([seed, 1000 + i])`, drawn in that order at construction and
    again when it respawns; construction resets every env in one call and a
    step makes one call for all its done envs, none when no env is done."""
    cfg = small_cfg(seed=13)
    cfg = replace(cfg, train=replace(cfg.train, n_envs=6),
                  dr=replace(cfg.dr, add_noise=False, apply_impulses=False,
                             randomize_dynamics=True))
    calls = []
    reset = VecLocomotionEnv._reset_env

    def counted(self, idx):
        calls.append(np.array(idx))
        reset(self, idx)

    monkeypatch.setattr(VecLocomotionEnv, "_reset_env", counted)
    env = VecLocomotionEnv(cfg, planner, train_mode=True)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], np.arange(6))

    ranges = np.asarray(cfg.commands.ranges, dtype=float)
    streams = [np.random.default_rng([cfg.seed, 1000 + i]) for i in range(6)]

    def draw(i):
        rng = streams[i]
        cmd = rng.uniform(ranges[:, 0], ranges[:, 1])
        mass = cfg.sim.trunk_mass + rng.uniform(*cfg.dr.mass_offset_range)
        return cmd, mass, rng.uniform(*cfg.dr.friction_range)

    def check(expected):
        for i, (cmd, mass, friction) in enumerate(expected):
            np.testing.assert_array_equal(env.cmd[i], cmd)
            assert env.mass[i] == mass and env.friction[i] == friction
            assert env.rngs[i].bit_generator.state == streams[i].bit_generator.state

    expected = [draw(i) for i in range(6)]
    check(expected)

    env.step(np.zeros((6, 12)))
    assert len(calls) == 1
    # envs 1, 3 and 4 reach the 20 s limit in the next step
    env.ep_steps[[1, 3, 4]] = round(cfg.sim.episode_limit / POLICY_DT) - 1
    _, dones, _ = env.step(np.zeros((6, 12)))
    np.testing.assert_array_equal(np.flatnonzero(dones), [1, 3, 4])
    assert len(calls) == 2
    np.testing.assert_array_equal(calls[1], [1, 3, 4])
    for i in (1, 3, 4):
        expected[i] = draw(i)
    check(expected)
    np.testing.assert_array_equal(env.ep_steps, [2, 0, 2, 0, 0, 2])
    np.testing.assert_array_equal(env.pos[[1, 3, 4]], np.tile(
        [0.0, 0.0, cfg.robot.stand_height + cfg.sim.spawn_drop_height], (3, 1)))


@pytest.mark.parametrize("randomize", [True, False])
def test_spawn_draws_bitwise_equal_to_per_env_uniform_draws(planner, randomize):
    """One random(out=row) per env gives, bit for bit, the commands, masses
    and frictions and the stream states of sample_command_values and two
    uniform draws per env; without randomized dynamics only the command is
    drawn and mass and friction keep their spawn values."""
    cfg = small_cfg(seed=21)
    cfg = replace(cfg, train=replace(cfg.train, n_envs=64),
                  commands=replace(cfg.commands, vx_range=(-0.3, 1.7), vy_range=(0.0, 0.0)),
                  dr=replace(cfg.dr, randomize_dynamics=randomize,
                             mass_offset_range=(-1.5, 0.7), friction_range=(0.3, 1.1)))
    env = VecLocomotionEnv(cfg, planner, train_mode=True)
    streams = [np.random.default_rng([cfg.seed, 1000 + i]) for i in range(64)]
    base = env.base_params

    def check(idx):
        for i in idx:
            rng = streams[i]
            cmd = sample_command_values(rng, cfg.commands.ranges)
            mass, friction = base.trunk_mass, base.friction
            if randomize:
                mass = base.trunk_mass + rng.uniform(*cfg.dr.mass_offset_range)
                friction = rng.uniform(*cfg.dr.friction_range)
            assert_same_bits(env.cmd[i], cmd)
            assert_same_bits([env.mass[i], env.friction[i]], [mass, friction])
        for rng, ref in zip(env.rngs, streams):
            assert rng.bit_generator.state == ref.bit_generator.state

    check(range(64))
    respawn = np.array([3, 17, 40, 63])
    env._reset_env(respawn)
    check(respawn)


def test_trunk_height_reward_reads_the_stand_height(planner):
    """The trunk-height term is centred on robot.stand_height, the height the
    robot spawns and stands at, so a config that changes it rewards the new
    height."""
    cfg = small_cfg()
    cfg = replace(cfg, robot=replace(cfg.robot, stand_height=0.30))
    env = VecLocomotionEnv(cfg, planner, train_mode=False)
    _, _, info = env.step(np.zeros((4, 12)))
    h_err = env.pos[:, 2] - 0.30
    expected = cfg.reward.trunk_height * POLICY_DT * (1.0 - np.exp(-(h_err * h_err) / 8.1e-4))
    assert_same_bits(info["terms"]["trunk_height"], expected)
