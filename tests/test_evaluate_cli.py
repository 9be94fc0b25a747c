import csv
import shutil

import numpy as np
import pytest
from dataclasses import replace

from conftest import save_demo_csv, set_checkpoint_meta
from cpgrl import cli
from cpgrl.cli import main
from cpgrl.config import RunConfig, save_config
from cpgrl.env import substeps_per_policy_step
from cpgrl.evaluate import (
    TRACE_COLUMNS,
    constant_profile,
    contact_gait_stats,
    export_gait,
    ramp_profile,
    run_eval,
)
from cpgrl.gait_planner import (
    SingularFit,
    generate_demo_trot,
    load_planner_model,
    save_planner_model,
)
from cpgrl.ppo import NonFiniteLoss
from cpgrl.training import planner_from_config, train


def tiny_cfg(seed=0, iterations=2):
    cfg = RunConfig()
    return replace(
        cfg,
        seed=seed,
        train=replace(cfg.train, n_envs=4, horizon=12, hidden=(32, 16),
                      iterations=iterations, checkpoint_every=2),
    )


@pytest.fixture(scope="module")
def fitted():
    cfg = tiny_cfg()
    planner, _ = planner_from_config(cfg)
    return cfg, planner


@pytest.fixture(scope="module")
def checkpoint(fitted, tmp_path_factory):
    """The last checkpoint of a two-iteration tiny training run."""
    cfg, planner = fitted
    out = tmp_path_factory.mktemp("train")
    train(cfg, planner, out, log=None)
    return out / "checkpoint_000002.npz"


def synthetic_demo():
    cfg = tiny_cfg()
    return generate_demo_trot(cfg.demo, cfg.leg_geometry(), cfg.robot.stand_height)


# ----------------------------------------------------------------- profiles

def test_constant_profile():
    p = constant_profile(0.4)
    np.testing.assert_array_equal(p(3.0), [0.4, 0.0, 0.0])


def test_ramp_profile_shape():
    p = ramp_profile(peak=1.0, duration=10.0)
    assert p(0.0)[0] == 0.0
    assert p(4.5)[0] == pytest.approx(0.5)
    assert p(9.0)[0] == pytest.approx(1.0)
    assert p(9.9)[0] == pytest.approx(1.0)  # held at the peak for the last 1 s


# ----------------------------------------------------------------- run_eval

def test_eval_trace_rate_and_columns(fitted, tmp_path):
    cfg, planner = fitted
    trace = tmp_path / "trace.csv"
    summary, data = run_eval(cfg, planner, None, constant_profile(0.0), 4.0,
                             trace_path=trace)
    rows = list(csv.reader(open(trace)))
    assert rows[0] == list(TRACE_COLUMNS)
    assert abs((len(rows) - 1) - 4.0 * 50) <= 1
    assert data.shape[1] == len(TRACE_COLUMNS)
    assert summary.duration == 4.0


def test_eval_baseline_walks(fitted):
    cfg, planner = fitted
    summary, data = run_eval(cfg, planner, None, constant_profile(0.0), 6.0)
    assert summary.falls == 0
    assert summary.mean_vx_body > 0.2  # open-loop gait advances

    period_steps = planner.orbit.period_ticks // substeps_per_policy_step(cfg.sim.dt)
    stats = contact_gait_stats(data, period_steps)
    assert stats["diag_lag_dist"] <= 1
    assert stats["stance_fraction"].mean() > 0.5


def test_eval_longer_than_an_episode_does_not_reset(fitted):
    cfg, planner = fitted
    settle, duration = 2.0, 20.0
    assert settle + duration > cfg.sim.episode_limit
    summary, data = run_eval(cfg, planner, None, constant_profile(0.5), duration,
                             settle_time=settle)
    col = {name: i for i, name in enumerate(TRACE_COLUMNS)}
    pos = data[:, [col["pos_x"], col["pos_y"], col["pos_z"]]]
    # a timeout reset would send the trunk back to the spawn point in one row
    assert np.linalg.norm(np.diff(pos, axis=0), axis=1).max() < 0.05
    assert summary.falls == 0
    assert summary.distance > 1.0


def test_contact_gait_stats_uses_the_given_period():
    # synthetic trot, 40 policy steps per period: FR/RL in phase, FL/RR half a period later
    period, stance = 40, 24
    k = np.arange(5 * period)
    data = np.zeros((k.size, len(TRACE_COLUMNS)))
    col = {name: i for i, name in enumerate(TRACE_COLUMNS)}
    for name, offset in (("FR", 0), ("FL", period // 2), ("RR", period // 2), ("RL", 0)):
        data[:, col[f"contact_{name}"]] = (k + offset) % period < stance
    stats = contact_gait_stats(data, period)
    assert stats["period_steps"] == period
    assert stats["diag_lag_dist"] == 0
    assert stats["adj_lag_dist"] == 0
    np.testing.assert_allclose(stats["stance_fraction"], stance / period)


# ----------------------------------------------------------------- export

def test_export_gait_rows(fitted, tmp_path):
    cfg, planner = fitted
    path = tmp_path / "gait.csv"
    n = export_gait(planner, cfg.leg_geometry(), 2, path)
    rows = list(csv.reader(open(path)))
    assert n == 2 * planner.orbit.period_ticks
    assert len(rows) - 1 == n
    # periodic: row k and row k + T carry identical signals
    t = planner.orbit.period_ticks
    assert rows[1][2:] == rows[1 + t][2:]


# ----------------------------------------------------------------- cli

def test_cli_bc_fit_train_eval_export(tmp_path, capsys):
    cfg_path = tmp_path / "config.yaml"
    save_config(tiny_cfg(), cfg_path)

    rc = main(["bc-fit", "--config", str(cfg_path), "--out", str(tmp_path / "fit")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "val foot RMSE" in out
    model = tmp_path / "fit" / "planner.npz"
    assert model.exists()
    assert (tmp_path / "fit" / "fit_metrics.csv").exists()

    rc = main(["train", "--config", str(cfg_path), "--model", str(model),
               "--out", str(tmp_path / "train")])
    assert rc == 0
    ck = tmp_path / "train" / "checkpoint_000002.npz"
    assert ck.exists()
    assert (tmp_path / "train" / "metrics.csv").exists()

    rc = main(["eval", "--checkpoint", str(ck), "--out", str(tmp_path / "eval"),
               "--profile", "constant", "--command", "0.3", "--duration", "2.0"])
    assert rc == 0
    assert (tmp_path / "eval" / "trace.csv").exists()
    assert (tmp_path / "eval" / "config.yaml").exists()

    rc = main(["export-gait", "--model", str(model), "--periods", "1",
               "--out", str(tmp_path / "gait")])
    assert rc == 0
    assert (tmp_path / "gait" / "gait.csv").exists()


def test_cli_bc_fit_deterministic(tmp_path):
    cfg_path = tmp_path / "config.yaml"
    save_config(tiny_cfg(), cfg_path)
    main(["bc-fit", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    main(["bc-fit", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
    a = load_planner_model(tmp_path / "a" / "planner.npz")
    b = load_planner_model(tmp_path / "b" / "planner.npz")
    np.testing.assert_array_equal(a.motor.weights, b.motor.weights)
    np.testing.assert_array_equal(a.motor.bias, b.motor.bias)


def test_cli_bc_fit_csv_demo(tmp_path):
    demo = synthetic_demo()
    demo_path = tmp_path / "demo.csv"
    save_demo_csv(demo, demo_path)
    rc = main(["bc-fit", "--demo", str(demo_path), "--demo-freq", "1.5",
               "--out", str(tmp_path / "fit")])
    assert rc == 0


def test_cli_train_requires_model(tmp_path):
    rc = main(["train", "--model", str(tmp_path / "missing.npz"),
               "--out", str(tmp_path / "x")])
    assert rc == 2


def test_cli_missing_demo_csv(tmp_path):
    rc = main(["bc-fit", "--demo", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "x")])
    assert rc != 0


def test_cli_bad_config(tmp_path):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text("train:\n  n_envs: 0\n")
    rc = main(["bc-fit", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
    assert rc == 2


def test_cli_train_negative_gain_exit_code(fitted, tmp_path, capsys):
    cfg, planner = fitted
    cfg_path = tmp_path / "bad_gain.yaml"
    save_config(replace(cfg, robot=replace(cfg.robot, kp=-1.0)), cfg_path)
    model = tmp_path / "planner.npz"
    save_planner_model(planner, model)
    rc = main(["train", "--config", str(cfg_path), "--model", str(model),
               "--out", str(tmp_path / "train")])
    assert rc == 2
    assert "gains must be >= 0" in capsys.readouterr().err


def test_cli_train_empty_minibatch_exit_code(fitted, tmp_path, capsys):
    """1 env x 2 steps cannot fill 4 minibatches: a config error (2), not the
    non-finite loss of an empty minibatch (3)."""
    cfg, planner = fitted
    train = replace(cfg.train, n_envs=1, horizon=2, ppo=replace(cfg.train.ppo, n_minibatches=4))
    cfg_path = tmp_path / "tiny_batch.yaml"
    save_config(replace(cfg, train=train), cfg_path)
    model = tmp_path / "planner.npz"
    save_planner_model(planner, model)
    rc = main(["train", "--config", str(cfg_path), "--model", str(model),
               "--out", str(tmp_path / "train")])
    assert rc == 2
    assert "minibatch" in capsys.readouterr().err


def test_cli_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["bc-fit", "--bogus-flag"])
    assert err.value.code == 2


def test_cli_eval_config_hash_mismatch(tmp_path):
    cfg_path = tmp_path / "config.yaml"
    save_config(tiny_cfg(), cfg_path)
    main(["bc-fit", "--config", str(cfg_path), "--out", str(tmp_path / "fit")])
    main(["train", "--config", str(cfg_path), "--model",
          str(tmp_path / "fit" / "planner.npz"), "--out", str(tmp_path / "train")])
    other_path = tmp_path / "other.yaml"
    save_config(tiny_cfg(seed=42), other_path)
    rc = main(["eval", "--checkpoint", str(tmp_path / "train" / "checkpoint_000002.npz"),
               "--config", str(other_path), "--out", str(tmp_path / "eval")])
    assert rc == 2


def test_cli_eval_ramp_to_zero_commands_zero(checkpoint, tmp_path):
    rc = main(["eval", "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval"),
               "--profile", "ramp", "--command", "0", "--duration", "2.0"])
    assert rc == 0
    with open(tmp_path / "eval" / "trace.csv", newline="") as fh:
        cmd_vx = [float(row["cmd_vx"]) for row in csv.DictReader(fh)]
    assert len(cmd_vx) == 100
    assert all(v == 0.0 for v in cmd_vx)


def test_cli_eval_rejects_version_2_checkpoint(checkpoint, tmp_path, capsys):
    old = tmp_path / "old.npz"
    shutil.copy(checkpoint, old)
    set_checkpoint_meta(old, version=2)
    rc = main(["eval", "--checkpoint", str(old), "--out", str(tmp_path / "eval")])
    assert rc == 2
    assert "unsupported checkpoint version 2" in capsys.readouterr().err


@pytest.mark.parametrize("duration", ["0", "0.004", "-1", "inf"])
def test_cli_eval_window_under_one_policy_step_exit_code(checkpoint, tmp_path, capsys, duration):
    """A window with no policy step, or with no finite count of them, is a usage error."""
    rc = main(["eval", "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval"),
               "--duration", duration])
    assert rc == 2
    assert "policy steps" in capsys.readouterr().err
    assert not (tmp_path / "eval" / "trace.csv").exists()


@pytest.mark.parametrize("periods", ["0", "-2"])
def test_cli_export_gait_needs_a_period_exit_code(fitted, tmp_path, capsys, periods):
    """An export of no period is a usage error, not an empty table."""
    model = tmp_path / "planner.npz"
    save_planner_model(fitted[1], model)
    rc = main(["export-gait", "--model", str(model), "--periods", periods,
               "--out", str(tmp_path / "gait")])
    assert rc == 2
    assert "at least one period" in capsys.readouterr().err
    assert not (tmp_path / "gait" / "gait.csv").exists()


def test_cli_bc_fit_unreachable_demo_exit_code(tmp_path, capsys):
    demo = synthetic_demo()
    far = replace(demo, feet=demo.feet + np.array([0.0, 0.0, -1.0]))
    demo_path = tmp_path / "far.csv"
    save_demo_csv(far, demo_path)
    rc = main(["bc-fit", "--demo", str(demo_path), "--out", str(tmp_path / "fit")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command, target, exc", [
    ("bc-fit", "planner_from_config", SingularFit("design matrix rank 3 < 20")),
    ("train", "train", NonFiniteLoss(2, 1)),
])
def test_cli_numerical_failure_exit_code(fitted, tmp_path, monkeypatch, capsys,
                                         command, target, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, target, fail)
    model = tmp_path / "planner.npz"
    save_planner_model(fitted[1], model)
    argv = {"bc-fit": ["bc-fit"], "train": ["train", "--model", str(model)]}[command]
    rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
