import csv
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
import yaml
from dataclasses import replace

from conftest import set_checkpoint_meta
from cpgrl import training
from cpgrl.config import ConfigError, RunConfig, config_from_dict, config_hash, config_to_dict
from cpgrl.env import VecLocomotionEnv
from cpgrl.gait_planner import (
    generate_demo_trot,
    load_planner_model,
    planner_arrays,
    save_planner_model,
)
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
    # files from earlier writers also stored Adam's unused "adam_lr", the "hidden"
    # sizes the config holds, and the env's "ep_time" and "phase", which derive from
    # "ep_steps"; the reader ignores such entries
    shutil.copytree(tmp_path / "part", tmp_path / "legacy")
    legacy = tmp_path / "legacy" / "checkpoint_000002.npz"
    with np.load(legacy) as data:
        steps = data["env_ep_steps"]
    set_checkpoint_meta(legacy, adam_lr=123.0, hidden=list(cfg.train.hidden),
                        add_arrays={"env_ep_time": steps * 0.02, "env_phase": steps * 4})
    rows = {}
    for run in ("part", "legacy"):
        resumed = train(cfg5, planner, tmp_path / run,
                        resume_from=tmp_path / run / "checkpoint_000002.npz", log=None)
        resumed_rows = list(csv.DictReader(open(resumed)))
        rows[run] = [{k: v for k, v in row.items() if k != "wall_time_s"} for row in resumed_rows]

        assert len(resumed_rows) == 5
        for a, b in zip(full_rows[2:], resumed_rows[2:]):
            for key in ("mean_reward", "tracking_fraction", "approx_kl", "lr",
                        "policy_loss", "value_loss"):
                assert a[key] == b[key], (run, key)
    assert rows["legacy"] == rows["part"]


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
    assert "adam_lr" not in ck["meta"] and "hidden" not in ck["meta"]
    assert sorted(ck["env_arrays"]) == sorted(VecLocomotionEnv._ARRAY_FIELDS)
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


@pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
def test_old_checkpoint_version_rejected(fitted, tmp_path, version):
    """Versions up to 5 embed a config with a terrain section and the reward
    weights under reward.weights next to reward.h_star; up to 4 it still sets
    demo.freq, demo.sample_rate, planner.burn_in_ticks and
    train.ppo.adaptive_lr, and up to 3 cpg.tick_rate. The message names the
    file and the version, not a key."""
    cfg, planner, _ = fitted
    path = tmp_path / "ck.npz"
    write_checkpoint(path, cfg, planner)
    config = config_to_dict(cfg)
    config["terrain"] = {"kind": "flat", "angle_rad": 0.17453292519943295}
    config["reward"] = {"h_star": 0.32, "weights": config["reward"]}
    del config["sim"]["slope_rad"]
    if version <= 4:
        config["demo"].update(freq=1.5, sample_rate=180.0)
        config["planner"]["burn_in_ticks"] = 5000
        config["train"]["ppo"]["adaptive_lr"] = True
    if version <= 3:
        config["cpg"]["tick_rate"] = 200.0
    set_checkpoint_meta(path, version=version, config=config)
    message = f"{path}: unsupported checkpoint version {version}"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value, message", [
    ("sim.wobble", 1.0, "the embedded config has unknown key sim.wobble"),
    ("sim.slope_rad", None, "the embedded config has missing key sim.slope_rad"),
    ("sim.gravity", float("nan"), "sim.gravity must be positive and finite, got nan"),
], ids=["added", "deleted", "nan"])
def test_checkpoint_config_is_checked_by_key(fitted, tmp_path, key, value, message):
    """A version-6 file whose embedded config gains a key, lacks one (which
    would load as today's default) or holds a value outside its domain is
    rejected, and the message names the file and the key."""
    cfg, planner, _ = fitted
    path = tmp_path / "ck.npz"
    write_checkpoint(path, cfg, planner)
    config = config_to_dict(cfg)
    section, name = key.split(".")
    if value is None:
        del config[section][name]
    else:
        config[section][name] = value
    set_checkpoint_meta(path, config=config)
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
        load_checkpoint(path)


def test_planner_fit_does_not_read_the_physics_rate():
    """The fit works in orbit ticks: the desk profile at sim.dt 5 ms and at
    2.5 ms (8 substeps per policy step) gives byte-equal planner arrays and
    an equal report."""
    with open(Path(__file__).resolve().parents[1] / "configs" / "desk_acceptance.yaml") as fh:
        data = yaml.safe_load(fh)
    fits = []
    for dt in (0.005, 0.0025):
        data["sim"]["dt"] = dt
        planner, report = planner_from_config(config_from_dict(data))
        fits.append((planner_arrays(planner), report))
    (arrays, report), (arrays_fast, report_fast) = fits
    assert sorted(arrays) == sorted(arrays_fast)
    for name, value in arrays.items():
        a, b = np.asarray(value), np.asarray(arrays_fast[name])
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert report == report_fast


@pytest.mark.parametrize("phi, ticks", [(0.05, 126), (0.07, 90), (0.1047, 60)])
def test_synthetic_demo_has_one_sample_per_orbit_tick(monkeypatch, phi, ticks):
    """The synthetic trot is drawn on the orbit's own ticks at any cpg.phi,
    and the fit stays within criterion 4's 5 mm."""
    demos = []

    def recording(*args):
        demos.append(generate_demo_trot(*args))
        return demos[-1]

    monkeypatch.setattr(training, "generate_demo_trot", recording)
    cfg = RunConfig()
    planner, report = planner_from_config(replace(cfg, cpg=replace(cfg.cpg, phi=phi)))
    assert planner.orbit.period_ticks == ticks
    assert demos[0].feet.shape == (4, ticks, 3)
    assert demos[0].samples_per_period == ticks
    assert max(report.train_rmse, report.val_rmse) < 5e-3


@pytest.mark.parametrize("section, field, value", [
    ("cpg", "phi", 0.1047), ("cpg", "alpha", 0.02),
    ("planner", "h", 19), ("planner", "sigma", 0.2),
])
def test_train_rejects_a_planner_fitted_with_other_settings(fitted, tmp_path,
                                                            section, field, value):
    """The env steps the planner's orbit and RBF layer, so a config whose
    oscillator or RBF settings differ from the planner's is rejected before
    anything is written, naming the field."""
    cfg, planner, _ = fitted
    other = replace(cfg, **{section: replace(getattr(cfg, section), **{field: value})})
    fitted_value = getattr(getattr(cfg, section), field)
    message = f"the planner was fitted with {section}.{field} {fitted_value}, the config sets {value}"
    with pytest.raises(ValueError, match=re.escape(message)):
        train(other, planner, tmp_path / "run", log=None)
    assert not (tmp_path / "run").exists()


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
