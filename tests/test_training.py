import csv
import os
import shutil

import numpy as np
import pytest
from dataclasses import replace

from conftest import set_checkpoint_meta
from cpgrl import training
from cpgrl.config import RunConfig, config_hash
from cpgrl.env import VecLocomotionEnv
from cpgrl.gait_planner import load_planner_model, save_planner_model
from cpgrl.nn import Adam, DimensionMismatch
from cpgrl.randomization import CurriculumState, initial_curriculum
from cpgrl.task import OBS_DIM, REWARD_TERMS
from cpgrl.training import (
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


def write_checkpoint(path, cfg, planner):
    """An iteration-1 checkpoint of a fresh policy, optimizer and env."""
    env = VecLocomotionEnv(cfg, planner, train_mode=True)
    policy = training._new_policy(cfg, cfg.train.lr_init)
    save_checkpoint(path, policy, Adam(policy.n_params), env, np.random.default_rng(4),
                    initial_curriculum(cfg.curriculum, cfg.dr), 1, cfg, planner)


def test_planner_pipeline_quality(fitted):
    _, planner, report = fitted
    assert report.val_rmse < 5e-3
    assert planner.orbit.period_ticks in range(119, 122)


def test_collect_rollouts_shapes(fitted):
    cfg, planner, _ = fitted
    env = VecLocomotionEnv(cfg, planner, train_mode=True)
    policy = training._new_policy(cfg, cfg.train.lr_init)
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
    policy = training._new_policy(cfg, cfg.train.lr_init)
    for w in policy.actor.weights:
        w[:] = 0.0
    buf, _ = collect_rollouts(env, policy, np.random.default_rng(2), horizon=24)
    actions = buf.actions.reshape(-1, 12)
    assert abs(actions.mean()) < 0.02
    assert np.allclose(actions.std(axis=0), np.exp(cfg.train.log_std_init), rtol=0.15)
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
    # a version-3 file from the earlier writer also stored Adam's unused "adam_lr"
    shutil.copytree(tmp_path / "part", tmp_path / "legacy")
    set_checkpoint_meta(tmp_path / "legacy" / "checkpoint_000002.npz", adam_lr=123.0)
    for run in ("part", "legacy"):
        resumed = train(cfg5, planner, tmp_path / run,
                        resume_from=tmp_path / run / "checkpoint_000002.npz", log=None)
        resumed_rows = list(csv.DictReader(open(resumed)))

        assert len(resumed_rows) == 5
        for a, b in zip(full_rows[2:], resumed_rows[2:]):
            for key in ("mean_reward", "tracking_fraction", "approx_kl", "lr",
                        "policy_loss", "value_loss"):
                assert a[key] == b[key], (run, key)


def test_checkpoint_round_trip(fitted, tmp_path):
    cfg, planner, _ = fitted
    env = VecLocomotionEnv(cfg, planner, train_mode=True)
    policy = training._new_policy(cfg, cfg.train.lr_init)
    optimizer = Adam(policy.n_params)
    rng = np.random.default_rng(4)
    collect_rollouts(env, policy, rng, horizon=4)
    assert policy.obs_norm.count == 4 * cfg.train.n_envs

    path = tmp_path / "ck.npz"
    save_checkpoint(path, policy, optimizer, env, rng,
                    CurriculumState(12.0, 1.2), 7, cfg, planner)
    ck = load_checkpoint(path)
    assert ck["meta"]["iteration"] == 7
    assert ck["meta"]["config_hash"] == config_hash(cfg)
    assert "adam_lr" not in ck["meta"]
    np.testing.assert_array_equal(ck["policy_flat"], policy.get_flat())
    restored = policy_from_checkpoint(ck)
    assert restored.obs_norm.count == policy.obs_norm.count
    np.testing.assert_array_equal(restored.obs_norm.mean, policy.obs_norm.mean)
    np.testing.assert_array_equal(restored.obs_norm.var, policy.obs_norm.var)
    obs = np.zeros(OBS_DIM)
    np.testing.assert_array_equal(restored.mean_action(obs), policy.mean_action(obs))
    np.testing.assert_array_equal(ck["planner"].baseline_table(), planner.baseline_table())
    restored_adam = Adam(policy.n_params)
    restored_adam.load_state_dict(ck["optimizer"])
    for key, value in optimizer.state_dict().items():
        np.testing.assert_array_equal(getattr(restored_adam, key), value)


@pytest.mark.parametrize("size", [1, -1], ids=["length-1", "one-short"])
def test_checkpoint_policy_size_mismatch_rejected(fitted, tmp_path, size):
    cfg, planner, _ = fitted
    path = tmp_path / "ck.npz"
    write_checkpoint(path, cfg, planner)
    ck = load_checkpoint(path)
    ck["policy_flat"] = ck["policy_flat"][:size]
    with pytest.raises(DimensionMismatch):
        policy_from_checkpoint(ck)


@pytest.mark.parametrize("version", [1, 2])
def test_old_checkpoint_version_rejected(fitted, tmp_path, version):
    cfg, planner, _ = fitted
    path = tmp_path / "ck.npz"
    write_checkpoint(path, cfg, planner)
    set_checkpoint_meta(path, version=version)
    with pytest.raises(ValueError, match=f"unsupported checkpoint version {version}"):
        load_checkpoint(path)


def test_resume_rejects_config_mismatch(fitted, tmp_path):
    cfg, planner, _ = fitted
    cfg2 = replace(cfg, train=replace(cfg.train, iterations=2))
    train(cfg2, planner, tmp_path / "a", log=None)
    other = replace(cfg2, seed=99)
    with pytest.raises(ValueError):
        train(other, planner, tmp_path / "b",
              resume_from=tmp_path / "a" / "checkpoint_000002.npz", log=None)


def test_interrupted_writes_leave_earlier_file_intact(fitted, tmp_path, monkeypatch):
    cfg, planner, _ = fitted
    writers = {
        "ck.npz": lambda path: write_checkpoint(path, cfg, planner),
        "planner.npz": lambda path: save_planner_model(planner, path),
    }
    real_savez = np.savez

    def partial_savez(file, *args, **kwargs):
        fh = open(file, "wb") if isinstance(file, (str, os.PathLike)) else file
        fh.write(b"PK\x03\x04 partial archive")
        fh.flush()
        raise OSError("disk full")

    for name, write in writers.items():
        path = tmp_path / name
        write(path)
        before = path.read_bytes()
        monkeypatch.setattr(np, "savez", partial_savez)
        with pytest.raises(OSError, match="disk full"):
            write(path)
        with pytest.raises(OSError, match="disk full"):
            write(tmp_path / f"new_{name}")
        monkeypatch.setattr(np, "savez", real_savez)
        assert path.read_bytes() == before
        assert not (tmp_path / f"new_{name}").exists()
    load_checkpoint(tmp_path / "ck.npz")
    load_planner_model(tmp_path / "planner.npz")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.npz", "planner.npz"]


def test_resume_after_crash_truncates_metrics(fitted, tmp_path, monkeypatch):
    """A crash while saving checkpoint 4 leaves rows 3 and 4 past checkpoint 2;
    resuming from checkpoint 2 gives the rows of an uninterrupted run."""
    cfg, planner, _ = fitted
    cfg5 = replace(cfg, train=replace(cfg.train, iterations=5, checkpoint_every=2))
    full_rows = list(csv.DictReader(open(train(cfg5, planner, tmp_path / "full", log=None))))

    real_save = training.save_checkpoint

    def crash_at_4(path, *args):
        if args[-3] == 4:
            raise KeyboardInterrupt
        real_save(path, *args)

    monkeypatch.setattr(training, "save_checkpoint", crash_at_4)
    with pytest.raises(KeyboardInterrupt):
        train(cfg5, planner, tmp_path / "part", log=None)
    monkeypatch.setattr(training, "save_checkpoint", real_save)
    resumed = train(cfg5, planner, tmp_path / "part",
                    resume_from=tmp_path / "part" / "checkpoint_000002.npz", log=None)
    resumed_rows = list(csv.DictReader(open(resumed)))

    assert [r["iteration"] for r in resumed_rows] == ["1", "2", "3", "4", "5"]
    for row in full_rows + resumed_rows:
        del row["wall_time_s"]
    assert resumed_rows == full_rows


ROWS = "iteration,x\r\n1,a\r\n2,b\r\n"


@pytest.mark.parametrize("text, kept", [
    (ROWS + "3,c\r\n4,d\r\n", ROWS),   # rows past the checkpoint
    (ROWS + "1", ROWS),                  # a row cut off inside its iteration number, e.g. 12
    (ROWS, ROWS),
    ("iteration,x", ""),                 # no whole header line
])
def test_truncate_metrics(tmp_path, text, kept):
    path = tmp_path / "metrics.csv"
    path.write_bytes(text.encode())
    training.truncate_metrics(path, 2)
    assert path.read_bytes() == kept.encode()
