from dataclasses import astuple

import numpy as np
import pytest

from conftest import (
    allocating_backward,
    allocating_forward_cached,
    assert_config_rejects,
    assert_same_bits,
    central_difference,
    in_fresh_process,
)
from cpgrl.config import RunConfig
from cpgrl.nn import Adam, Mlp, Workspace
from cpgrl.ppo import (
    LOG_2PI,
    GaussianPolicy,
    NonFiniteLoss,
    PpoConfig,
    RolloutBuffer,
    UpdateStats,
    adaptive_lr,
    gae,
    minibatch_grads,
    ppo_update,
)


TRAIN = RunConfig().train


def toy_policy(seed=0, obs_dim=6, act_dim=3, hidden=(8, 8), log_std_init=-0.5):
    return GaussianPolicy(obs_dim, act_dim, hidden, np.random.default_rng(seed),
                          log_std_init=log_std_init, lr=TRAIN.lr_init, actor_out_scale=1.0)


def toy_buffer(policy, seed=1, horizon=10, n_envs=4):
    rng = np.random.default_rng(seed)
    buf = RolloutBuffer.empty(Workspace(), horizon, n_envs, policy.obs_dim, policy.action_dim)
    buf.observations[:] = rng.normal(size=buf.observations.shape)
    buf.sample_log_std = policy.log_std.copy()
    for t in range(horizon):
        a, lp, mean = policy.sample(buf.observations[t], rng)
        buf.actions[t] = a
        buf.log_probs[t] = lp
        buf.action_means[t] = mean
        buf.values[t] = policy.value(buf.observations[t])
    buf.rewards[:] = rng.normal(size=buf.rewards.shape)
    buf.dones[:] = rng.random(buf.dones.shape) < 0.1
    buf.bootstrap_values[:] = rng.normal(size=n_envs)
    return buf


# ------------------------------------------------------------------- gae

def brute_force_gae(rewards, values, dones, bootstrap, gamma, lam):
    """Independent oracle: A_t = sum_k (gamma*lam)^k delta_{t+k} with masking."""
    horizon = len(rewards)
    values_ext = np.append(values, bootstrap)
    not_done = 1.0 - dones
    deltas = np.array(
        [rewards[t] + gamma * values_ext[t + 1] * not_done[t] - values[t] for t in range(horizon)]
    )
    adv = np.zeros(horizon)
    for t in range(horizon):
        acc, factor = 0.0, 1.0
        for k in range(t, horizon):
            acc += factor * deltas[k]
            if dones[k]:
                break
            factor *= gamma * lam
        adv[t] = acc
    return adv


def test_gae_single_terminal_step():
    adv, ret = gae(np.array([1.0]), np.array([0.0]), np.array([1.0]),
                   np.array(0.0), 0.99, 0.95)
    assert adv[0] == 1.0
    assert ret[0] == 1.0


def test_gae_lambda_zero_is_td_residual():
    rng = np.random.default_rng(0)
    r = rng.normal(size=10)
    v = rng.normal(size=10)
    d = np.zeros(10)
    boot = 0.3
    adv, _ = gae(r, v, d, np.array(boot), 0.99, 0.0)
    v_ext = np.append(v, boot)
    expected = r + 0.99 * v_ext[1:] - v
    np.testing.assert_allclose(adv, expected, atol=1e-12)


def test_gae_matches_brute_force_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        horizon = int(rng.integers(3, 30))
        r = rng.normal(size=horizon)
        v = rng.normal(size=horizon)
        d = (rng.random(horizon) < 0.25).astype(float)
        boot = float(rng.normal())
        adv, ret = gae(r, v, d, np.array(boot), 0.99, 0.95)
        expected = brute_force_gae(r, v, d, boot, 0.99, 0.95)
        assert np.max(np.abs(adv - expected)) <= 1e-10
        np.testing.assert_allclose(ret, adv + v, atol=1e-12)


def test_gae_batched_matches_per_env():
    rng = np.random.default_rng(2)
    horizon, n_envs = 12, 5
    r = rng.normal(size=(horizon, n_envs))
    v = rng.normal(size=(horizon, n_envs))
    d = (rng.random((horizon, n_envs)) < 0.2).astype(float)
    boot = rng.normal(size=n_envs)
    adv, _ = gae(r, v, d, boot, 0.99, 0.95)
    for e in range(n_envs):
        adv_e, _ = gae(r[:, e], v[:, e], d[:, e], np.array(boot[e]), 0.99, 0.95)
        np.testing.assert_array_equal(adv[:, e], adv_e)


# ------------------------------------------------------------------- policy

def test_log_prob_at_mean():
    policy = toy_policy()
    obs = np.zeros(6)
    mean = policy.mean_action(obs)
    lp = policy.log_prob(mean, mean)
    expected = -np.sum(policy.log_std) - 0.5 * policy.action_dim * LOG_2PI
    assert lp == pytest.approx(expected, abs=1e-12)


def test_sample_std_statistical():
    policy = toy_policy(log_std_init=-1.0)
    rng = np.random.default_rng(4)
    obs = np.tile(np.ones(6), (100000, 1))
    actions, _, _ = policy.sample(obs, rng)
    emp_std = actions.std(axis=0)
    np.testing.assert_allclose(emp_std, np.exp(-1.0), rtol=0.02)


def test_entropy_analytic():
    policy = toy_policy(log_std_init=-0.7)
    expected = np.sum(policy.log_std + 0.5 * np.log(2 * np.pi * np.e))
    assert policy.entropy() == pytest.approx(expected, abs=1e-12)


def test_policy_views_alias_params():
    policy = toy_policy()
    optimizer = Adam(policy.n_params)
    actor, critic = policy.actor, policy.critic
    for stage in ("constructed", "updated"):
        for view in [*actor.weights, *actor.biases, *critic.weights, *critic.biases,
                     policy.log_std]:
            assert np.shares_memory(view, policy.params), stage
        for view in [*actor.grad_ws, *actor.grad_bs, *critic.grad_ws, *critic.grad_bs,
                     policy.grad_log_std]:
            assert np.shares_memory(view, policy.grads), stage
        # the checkpoint layout: each net's weights then biases; actor | critic | log_std
        expected = np.concatenate(
            [w.ravel() for w in actor.weights] + [b.ravel() for b in actor.biases]
            + [w.ravel() for w in critic.weights] + [b.ravel() for b in critic.biases]
            + [policy.log_std])
        flat = policy.get_flat()
        np.testing.assert_array_equal(flat, expected)
        assert not np.shares_memory(flat, policy.params)
        ppo_update(policy, optimizer, toy_buffer(policy), PpoConfig(n_epochs=1),
                   np.random.default_rng(6))
    assert not np.array_equal(policy.params, flat)


# ------------------------------------------------------------------- lr rule

def lr_rule(lr, approx_kl):
    """adaptive_lr with the configured target KL (0.01) and clamp."""
    return adaptive_lr(lr, approx_kl, TRAIN.ppo.desired_kl, TRAIN.ppo.lr_min, TRAIN.ppo.lr_max)


def test_adaptive_lr_shrinks():
    assert lr_rule(1e-3, 0.03) == pytest.approx(1e-3 / 1.5)


def test_adaptive_lr_grows():
    assert lr_rule(1e-3, 0.004) == pytest.approx(1.5e-3)


def test_adaptive_lr_dead_zone():
    assert lr_rule(1e-3, 0.01) == 1e-3


def test_adaptive_lr_clamps():
    assert lr_rule(1.5e-6, 0.05) == 1e-6
    assert lr_rule(9e-3, 0.001) == 1e-2


# ------------------------------------------------------------------- losses

def test_clip_arithmetic():
    # ratio 1.5, A = 1, clip 0.2: objective min(1.5, 1.2) = 1.2
    ratio = 1.5
    adv = 1.0
    clipped = np.clip(ratio, 0.8, 1.2) * adv
    assert min(ratio * adv, clipped) == pytest.approx(1.2)


def test_policy_loss_zero_at_ratio_one_with_normalized_advantages():
    policy = toy_policy()
    buf = toy_buffer(policy)
    config = PpoConfig()
    n = buf.size
    obs = buf.observations.reshape(n, -1)
    actions = buf.actions.reshape(n, -1)
    old_logp = buf.log_probs.reshape(n)
    adv, ret = gae(buf.rewards, buf.values, buf.dones, buf.bootstrap_values,
                   config.gamma, config.gae_lambda)
    adv = adv.reshape(n)
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    _, pl, _, _, kl = minibatch_grads(policy, obs, actions, old_logp, adv,
                                      ret.reshape(n), config,
                                      buf.action_means.reshape(n, -1), buf.sample_log_std)
    # fresh policy: ratio = 1 everywhere, loss = -mean(adv) ~ 0, kl = 0
    assert pl == pytest.approx(0.0, abs=1e-10)
    assert kl == pytest.approx(0.0, abs=1e-12)


def test_minibatch_grads_match_finite_differences():
    policy = toy_policy(seed=7)
    rng = np.random.default_rng(8)
    m = 16
    obs = rng.normal(size=(m, 6))
    actions, logp, means = policy.sample(obs, rng)
    log_std = policy.log_std.copy()
    # perturb old_logp slightly so ratios differ from 1 but stay unclipped
    old_logp = logp + rng.uniform(-0.05, 0.05, size=m)
    adv = rng.normal(size=m)
    ret = rng.normal(size=m)
    config = PpoConfig()

    # the returned gradient is the live policy.grads buffer: copy it
    grads = minibatch_grads(policy, obs, actions, old_logp, adv, ret, config,
                            means, log_std)[0].copy()

    def total_loss():
        _, pl, vl, ent, _ = minibatch_grads(policy, obs, actions, old_logp, adv, ret, config,
                                            means, log_std)
        return pl + config.value_coef * vl - config.entropy_coef * ent

    idx_rng = np.random.default_rng(9)
    picks = list(idx_rng.choice(policy.n_params, size=40, replace=False))
    picks += list(range(policy.n_params - 3, policy.n_params))  # log_std entries
    for idx in picks:
        fd = central_difference(policy.params, idx, 1e-6, total_loss)
        assert fd == pytest.approx(grads[idx], rel=1e-4, abs=1e-7)


def test_vanilla_policy_gradient_equivalence():
    # with clip = +inf the surrogate gradient equals the plain importance-
    # weighted policy gradient d/dtheta of -mean(ratio * A)
    policy = toy_policy(seed=10)
    rng = np.random.default_rng(11)
    m = 12
    obs = rng.normal(size=(m, 6))
    actions, logp, means = policy.sample(obs, rng)
    old_logp = logp + rng.uniform(-0.3, 0.3, size=m)
    adv = rng.normal(size=m)
    ret = np.zeros(m)
    config = PpoConfig(clip=1e9, entropy_coef=0.0, value_coef=0.0)

    grads = minibatch_grads(policy, obs, actions, old_logp, adv, ret, config,
                            means, policy.log_std.copy())[0].copy()

    def vanilla_loss():
        mean = policy.mean_action(obs)
        lp = policy.log_prob(actions, mean)
        return -float(np.mean(np.exp(lp - old_logp) * adv))

    actor_n = policy.actor.n_params
    picks = list(np.random.default_rng(12).choice(actor_n, size=25, replace=False))
    picks += [actor_n + policy.critic.n_params + j for j in range(3)]
    for idx in picks:
        fd = central_difference(policy.params, idx, 1e-6, vanilla_loss)
        assert fd == pytest.approx(grads[idx], rel=1e-4, abs=1e-7)


def test_update_decreases_surrogate_on_fixed_buffer():
    policy = toy_policy(seed=13)
    buf = toy_buffer(policy, seed=14)
    config = PpoConfig(n_epochs=1, n_minibatches=1)
    n = buf.size
    obs = buf.observations.reshape(n, -1)
    actions = buf.actions.reshape(n, -1)
    old_logp = buf.log_probs.reshape(n)
    adv, ret = gae(buf.rewards, buf.values, buf.dones, buf.bootstrap_values,
                   config.gamma, config.gae_lambda)
    advn = adv.reshape(n)
    advn = (advn - advn.mean()) / (advn.std() + 1e-8)

    means = buf.action_means.reshape(n, -1)

    def total_loss():
        _, pl, vl, ent, _ = minibatch_grads(policy, obs, actions, old_logp, advn,
                                            ret.reshape(n), config, means, buf.sample_log_std)
        return pl + config.value_coef * vl - config.entropy_coef * ent

    before = total_loss()
    optimizer = Adam(policy.n_params)
    ppo_update(policy, optimizer, buf, config, np.random.default_rng(15))
    after = total_loss()
    assert after < before


def test_update_stats_and_reproducibility():
    def run():
        policy = toy_policy(seed=16)
        buf = toy_buffer(policy, seed=17)
        optimizer = Adam(policy.n_params)
        stats = ppo_update(policy, optimizer, buf, PpoConfig(), np.random.default_rng(18))
        return policy.get_flat(), stats

    p1, s1 = run()
    p2, s2 = run()
    np.testing.assert_array_equal(p1, p2)
    assert s1 == s2
    assert isinstance(s1, UpdateStats)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_aborts():
    policy = toy_policy(seed=19)
    buf = toy_buffer(policy, seed=20)
    buf.rewards[0, 0] = np.inf
    optimizer = Adam(policy.n_params)
    with pytest.raises(NonFiniteLoss):
        ppo_update(policy, optimizer, buf, PpoConfig(), np.random.default_rng(21))


def allocating_ppo_update(policy, optimizer, buffer, config, rng):
    """The earlier ppo_update, which gathered every minibatch by fancy indexing."""
    n = buffer.size
    obs = buffer.observations.reshape(n, -1)
    actions = buffer.actions.reshape(n, -1)
    old_logp = buffer.log_probs.reshape(n)
    old_means = buffer.action_means.reshape(n, -1)
    advantages, returns = gae(buffer.rewards, buffer.values, buffer.dones,
                              buffer.bootstrap_values, config.gamma, config.gae_lambda)
    advantages = advantages.reshape(n)
    returns = returns.reshape(n)
    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
    stats = {"policy_loss": [], "value_loss": [], "entropy": [], "kl": []}
    for _ in range(config.n_epochs):
        epoch_kl = []
        for idx in np.array_split(rng.permutation(n), config.n_minibatches):
            grads, pl, vl, ent, kl = minibatch_grads(
                policy, obs[idx], actions[idx], old_logp[idx], advantages[idx],
                returns[idx], config, old_means[idx], buffer.sample_log_std)
            optimizer.step(policy.params, grads, policy.lr)
            for key, value in zip(stats, (pl, vl, ent, kl)):
                stats[key].append(value)
            epoch_kl.append(kl)
        policy.lr = adaptive_lr(policy.lr, float(np.mean(epoch_kl)), config.desired_kl,
                                config.lr_min, config.lr_max)
    return UpdateStats(*(float(np.mean(v)) for v in stats.values()), new_lr=policy.lr)


def test_update_bitwise_equal_to_allocating_update(monkeypatch):
    """15 transitions in 4 minibatches of 4/4/4/3 rows, so every epoch shrinks
    and regrows the workspace's views; +-0 lanes in the observations."""
    def run(update):
        policy = toy_policy(seed=24)
        buf = toy_buffer(policy, seed=25, horizon=5, n_envs=3)
        buf.observations[0, 0, :3] = [0.0, -0.0, 0.0]
        buf.observations[2, 1, 2:4] = -0.0
        optimizer = Adam(policy.n_params)
        stats = update(policy, optimizer, buf, PpoConfig(), np.random.default_rng(26))
        return policy, optimizer, stats

    policy, optimizer, stats = run(ppo_update)
    with monkeypatch.context() as m:
        m.setattr(Mlp, "forward_cached", allocating_forward_cached)
        m.setattr(Mlp, "backward", allocating_backward)
        ref_policy, ref_optimizer, ref_stats = run(allocating_ppo_update)
    assert_same_bits(policy.params, ref_policy.params)
    assert_same_bits(optimizer.m, ref_optimizer.m)
    assert_same_bits(optimizer.v, ref_optimizer.v)
    assert_same_bits(astuple(stats), astuple(ref_stats))


def test_update_rejects_an_empty_minibatch():
    """1 x 2 transitions cannot fill 4 minibatches: a usage error raised before
    any step, not a non-finite loss from the empty one."""
    policy = toy_policy(seed=27)
    buf = toy_buffer(policy, seed=28, horizon=1, n_envs=2)
    before = policy.get_flat()
    optimizer = Adam(policy.n_params)
    with pytest.raises(ValueError, match="minibatches"):
        ppo_update(policy, optimizer, buf, PpoConfig(n_minibatches=4), np.random.default_rng(29))
    np.testing.assert_array_equal(policy.params, before)


def desk_update_faults():
    """Minor page faults of three desk-shaped updates (64 x 24 transitions,
    128/64/32 nets, 4 minibatches), each on a new buffer."""
    import resource

    policy = GaussianPolicy(61, 12, (128, 64, 32), np.random.default_rng(30),
                            log_std_init=TRAIN.log_std_init, lr=TRAIN.lr_init,
                            actor_out_scale=TRAIN.actor_out_scale)
    optimizer = Adam(policy.n_params)
    rng = np.random.default_rng(31)
    faults = []
    for seed in (32, 33, 34):
        buf = toy_buffer(policy, seed=seed, horizon=24, n_envs=64)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        ppo_update(policy, optimizer, buf, PpoConfig(), rng)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return faults


def test_update_does_not_fault_in_its_temporaries():
    """After a warm-up, an update makes at most a few hundred minor faults.

    Allocating the minibatch temporaries per call made 6,000-15,000 per
    update: glibc handed them back to the OS and faulted them in again,
    zeroed. Whether it does depends on the heap's history (its thresholds
    adapt to earlier frees), so the count is taken in a fresh process."""
    pytest.importorskip("resource")
    faults = in_fresh_process("test_ppo", "desk_update_faults")
    assert max(faults[1:]) <= 300, faults


def test_buffer_capacity():
    buf = RolloutBuffer.empty(Workspace(), 24, 8, 61, 12)
    assert buf.size == 192
    assert buf.observations.shape == (24, 8, 61)


def test_config_validation():
    """PpoConfig's values are checked as config keys."""
    assert_config_rejects("train.ppo.gamma", 1.2)
    assert_config_rejects("train.ppo.clip", 0.0)
    assert_config_rejects("train.ppo.n_epochs", 0)
