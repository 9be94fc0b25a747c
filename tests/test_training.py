import csv
import json

import numpy as np
import pytest
from dataclasses import replace

from cpgrl.config import RunConfig, config_hash
from cpgrl.env import VecLocomotionEnv
from cpgrl.nn import Adam
from cpgrl.ppo import GaussianPolicy
from cpgrl.randomization import CurriculumState
from cpgrl.task import OBS_DIM, REWARD_TERMS
from cpgrl.training import (
    ACTION_DIM,
    collect_rollouts,
    load_checkpoint,
    planner_from_config,
    policy_from_checkpoint,
    save_checkpoint,
    train,
)


def tiny_cfg(seed=0, iterations=3):
    cfg = RunConfig()
    return replace(
        cfg,
        seed=seed,
        train=replace(cfg.train, n_envs=8, horizon=24, hidden=(32, 16),
                      iterations=iterations, checkpoint_every=2),
    )


@pytest.fixture(scope="module")
def fitted():
    cfg = tiny_cfg()
    planner, report = planner_from_config(cfg)
    return cfg, planner, report


def test_planner_pipeline_quality(fitted):
    _, planner, report = fitted
    assert report.val_rmse < 5e-3
    assert planner.orbit.period_ticks in range(119, 122)


def test_collect_rollouts_shapes(fitted):
    cfg, planner, _ = fitted
    env = VecLocomotionEnv(cfg, planner, train_mode=True)
    policy = GaussianPolicy(OBS_DIM, ACTION_DIM, cfg.train.hidden, np.random.default_rng(0))
    buf, stats = collect_rollouts(env, policy, np.random.default_rng(1), horizon=24)
    assert buf.size == 8 * 24
    assert buf.observations.shape == (24, 8, OBS_DIM)
    assert buf.actions.shape == (24, 8, 12)
    assert 0.0 <= stats["tracking_fraction"] <= 1.0
    for name in REWARD_TERMS:
        assert name in stats


def test_zero_actor_actions_are_pure_noise(fitted):
    cfg, planner, _ = fitted
    env = VecLocomotionEnv(cfg, planner, train_mode=False)
    policy = GaussianPolicy(OBS_DIM, ACTION_DIM, cfg.train.hidden,
                            np.random.default_rng(0), log_std_init=-1.0)
    for w in policy.actor.weights:
        w[:] = 0.0
    buf, _ = collect_rollouts(env, policy, np.random.default_rng(2), horizon=24)
    actions = buf.actions.reshape(-1, 12)
    assert abs(actions.mean()) < 0.02
    assert np.allclose(actions.std(axis=0), np.exp(-1.0), rtol=0.15)
    # the planner still drives motion: the robots move even with a zero actor
    assert np.abs(env.pos[:, 0]).max() > 0.02


def test_train_writes_metrics_and_checkpoints(fitted, tmp_path):
    cfg, planner, _ = fitted
    metrics = train(cfg, planner, tmp_path / "run", log=None)
    rows = list(csv.DictReader(open(metrics)))
    assert len(rows) == 3
    assert (tmp_path / "run" / "checkpoint_000002.npz").exists()
    assert (tmp_path / "run" / "checkpoint_000003.npz").exists()
    assert (tmp_path / "run" / "config.yaml").exists()
    for field in ("tracking_fraction", "mean_reward", "approx_kl", "lr"):
        assert field in rows[0]


def test_resume_reproduces_metrics_bit_identically(fitted, tmp_path):
    cfg, planner, _ = fitted
    cfg5 = replace(cfg, train=replace(cfg.train, iterations=5, checkpoint_every=2))

    full = train(cfg5, planner, tmp_path / "full", log=None)
    full_rows = list(csv.DictReader(open(full)))

    cfg2 = replace(cfg5, train=replace(cfg5.train, iterations=2))
    train(cfg2, planner, tmp_path / "part", log=None)
    resumed = train(cfg5, planner, tmp_path / "part",
                    resume_from=tmp_path / "part" / "checkpoint_000002.npz", log=None)
    resumed_rows = list(csv.DictReader(open(resumed)))

    assert len(resumed_rows) == 5
    for a, b in zip(full_rows[2:], resumed_rows[2:]):
        for key in ("mean_reward", "tracking_fraction", "approx_kl", "lr",
                    "policy_loss", "value_loss"):
            assert a[key] == b[key], key


def test_checkpoint_round_trip(fitted, tmp_path):
    cfg, planner, _ = fitted
    env = VecLocomotionEnv(cfg, planner, train_mode=True)
    policy = GaussianPolicy(OBS_DIM, ACTION_DIM, cfg.train.hidden, np.random.default_rng(3))
    optimizer = Adam(policy.n_params, lr=policy.lr)
    rng = np.random.default_rng(4)
    collect_rollouts(env, policy, rng, horizon=4)

    path = tmp_path / "ck.npz"
    save_checkpoint(path, policy, optimizer, env, rng,
                    CurriculumState(12.0, 1.2, 0.5), 7, cfg, planner)
    ck = load_checkpoint(path)
    assert ck["meta"]["iteration"] == 7
    assert ck["meta"]["config_hash"] == config_hash(cfg)
    np.testing.assert_array_equal(ck["policy_flat"], policy.get_flat())
    restored = policy_from_checkpoint(ck)
    obs = np.zeros(OBS_DIM)
    np.testing.assert_array_equal(restored.mean_action(obs), policy.mean_action(obs))
    np.testing.assert_array_equal(ck["planner"].baseline_table(), planner.baseline_table())
    restored_adam = Adam(policy.n_params)
    restored_adam.load_state_dict(ck["optimizer"])
    for key, value in optimizer.state_dict().items():
        np.testing.assert_array_equal(getattr(restored_adam, key), value)


def test_checkpoint_version_1_rejected(fitted, tmp_path):
    cfg, planner, _ = fitted
    env = VecLocomotionEnv(cfg, planner, train_mode=True)
    policy = GaussianPolicy(OBS_DIM, ACTION_DIM, cfg.train.hidden, np.random.default_rng(3))
    path = tmp_path / "ck.npz"
    save_checkpoint(path, policy, Adam(policy.n_params), env, np.random.default_rng(4),
                    CurriculumState(), 1, cfg, planner)
    with np.load(path) as data:
        arrays = dict(data)
    meta = json.loads(str(arrays["meta"]))
    meta["version"] = 1
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match="version 1"):
        load_checkpoint(path)


def test_resume_rejects_config_mismatch(fitted, tmp_path):
    cfg, planner, _ = fitted
    cfg2 = replace(cfg, train=replace(cfg.train, iterations=2))
    train(cfg2, planner, tmp_path / "a", log=None)
    other = replace(cfg2, seed=99)
    with pytest.raises(ValueError):
        train(other, planner, tmp_path / "b",
              resume_from=tmp_path / "a" / "checkpoint_000002.npz", log=None)
