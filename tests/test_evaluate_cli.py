import csv
import os
import shutil
import struct
import zipfile

import numpy as np
import pytest
import yaml
from dataclasses import replace

from conftest import config_with, save_demo_csv, set_checkpoint_meta
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
    planner_arrays,
    planner_from_arrays,
    save_planner_model,
)
from cpgrl.oscillator import find_limit_cycle
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
    return generate_demo_trot(cfg.demo, cfg.leg_geometry(), cfg.robot.stand_height,
                              find_limit_cycle(cfg.cpg).period_ticks)


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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_profiles_reject_a_non_finite_command(value):
    with pytest.raises(ValueError, match="not finite"):
        constant_profile(value)
    with pytest.raises(ValueError, match="not finite"):
        ramp_profile(peak=value, duration=10.0)


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


@pytest.mark.parametrize("rows", [20, 29])
def test_contact_gait_stats_needs_a_whole_period(rows):
    """A perfect trot shorter than its 30-step period would read diagonal lag
    10 and adjacent lag 14 at 20 rows; it is rejected instead."""
    period = 30
    k = np.arange(rows)
    data = np.zeros((rows, len(TRACE_COLUMNS)))
    col = {name: i for i, name in enumerate(TRACE_COLUMNS)}
    for name, offset in (("FR", 0), ("FL", period // 2), ("RR", period // 2), ("RL", 0)):
        data[:, col[f"contact_{name}"]] = (k + offset) % period < 18
    with pytest.raises(ValueError, match=f"one period of 30 steps, the trace has {rows}"):
        contact_gait_stats(data, period)


# ----------------------------------------------------------------- export

def test_export_gait_rows(fitted, tmp_path):
    cfg, planner = fitted
    path = tmp_path / "gait.csv"
    n = export_gait(planner, cfg.leg_geometry(), 1.0 / cfg.sim.dt, 2, path)
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
    assert "robot.kp" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value", [
    ("sim", "episode_limit", "0.0"),
    ("sim", "episode_limit", ".nan"),
    ("sim", "reflected_inertia", "0.0"),
    ("robot", "residual_limit", "-0.1"),
    ("robot", "tau_limit", "-5.0"),
    ("sim", "trunk_inertia", "[0.0, 0.25, 0.3]"),
    ("sim", "trunk_mass", "-1.0"),
    ("robot", "kp", "-1.0"),
    # what each of these did before the domain table, under train --envs 4 --iterations 2
    ("sim", "dt", ".inf"),                         # exit 1, 0 substeps per policy step
    ("sim", "gravity", "-9.81"),                   # exit 0
    ("sim", "gravity", ".nan"),                    # exit 3
    ("sim", "tangential_gain", "-100.0"),          # exit 3
    ("", "seed", "-1"),                            # exit 2, no key named, config.yaml written
    ("train", "hidden", "[0.5, 256, 128]"),        # exit 1
    ("train", "hidden", "[0, 256, 128]"),          # exit 2, no key named, files written
    ("sim", "collision_margin", ".nan"),           # exit 0, no collision ever detected
    ("reward", "foot_position", ".nan"),           # exit 3
    ("curriculum", "threshold", "2.0"),            # exit 0
    ("dr", "friction_range", "[-1.0, -0.5]"),      # exit 0
    ("train.ppo", "clip", ".nan"),                 # exit 3
    ("commands", "vx_range", "[.nan, .nan]"),      # exit 3
    ("sim", "spawn_drop_height", ".nan"),          # exit 3
    ("sim", "trunk_half_extents", "[0.0, 0.0, 0.0]"),  # exit 0
    ("dr", "impulse_interval_init", ".nan"),       # exit 2, no key named
    ("train", "log_std_init", ".inf"),             # exit 3
    ("train", "checkpoint_every", "0"),            # exit 0, a checkpoint every iteration
    ("robot", "stand_height", "1.0"),              # exit 2 from the IK, config.yaml written
    ("robot", "knee_limits", "[0.5, -0.5]"),       # exit 0 under bc-fit and train
    # and before the cross-field rules on the drawn trunk mass and the substep count
    ("sim", "trunk_mass", "0.5"),                  # train drew trunks of -0.4 kg
    ("sim", "dt", "1.0e-12"),                      # train never returned: 2e10 substeps
    ("sim", "dt", "1.0e-300"),                     # train never returned: 2e298 substeps
])
def test_cli_train_bad_physical_constant_exit_code(fitted, tmp_path, capsys,
                                                   section, key, value):
    """A config value outside its domain is a usage error for bc-fit and
    train alike: exit 2, a message naming the key, and no output directory."""
    dotted = f"{section}.{key}" if section else key
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(yaml.safe_dump(config_with(dotted, yaml.safe_load(value))))
    model = tmp_path / "planner.npz"
    save_planner_model(fitted[1], model)
    for command in (["bc-fit"], ["train", "--model", str(model), "--envs", "4",
                                 "--iterations", "2"]):
        out = tmp_path / command[0]
        rc = main([*command, "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2, command[0]
        assert dotted in capsys.readouterr().err
        assert not out.exists()


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


def test_cli_eval_shorter_than_a_gait_period(checkpoint, tmp_path, capsys):
    """A 0.4 s window holds 20 of the 30 policy steps of one gait period: the
    eval runs, and prints why it has no gait statistics in place of them."""
    rc = main(["eval", "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval"),
               "--duration", "0.4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "need one period of 30 steps, the window has 20" in out
    assert "stance fraction" not in out and "diag contact lag" not in out


@pytest.mark.parametrize("duration", ["0", "0.004", "-1", "inf"])
def test_cli_eval_window_under_one_policy_step_exit_code(checkpoint, tmp_path, capsys, duration):
    """A window with no policy step, or with no finite count of them, is a usage error."""
    rc = main(["eval", "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval"),
               "--duration", duration])
    assert rc == 2
    assert "policy steps" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("profile", ["constant", "ramp"])
@pytest.mark.parametrize("command", ["nan", "inf", "-inf"])
def test_cli_eval_non_finite_command_exit_code(checkpoint, tmp_path, capsys, profile, command):
    """A non-finite command is a usage error, not a numerical failure or a run."""
    rc = main(["eval", "--checkpoint", str(checkpoint), "--out", str(tmp_path / "eval"),
               "--profile", profile, f"--command={command}", "--duration", "1.0"])
    assert rc == 2
    assert "not finite" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("periods", ["0", "-2"])
def test_cli_export_gait_needs_a_period_exit_code(fitted, tmp_path, capsys, periods):
    """An export of no period is a usage error, not an empty table."""
    model = tmp_path / "planner.npz"
    save_planner_model(fitted[1], model)
    rc = main(["export-gait", "--model", str(model), "--periods", periods,
               "--out", str(tmp_path / "gait")])
    assert rc == 2
    assert "at least one period" in capsys.readouterr().err
    assert not (tmp_path / "gait").exists()


@pytest.mark.parametrize("freq", ["400", "1000"])
def test_cli_bc_fit_demo_period_too_short_exit_code(tmp_path, capsys, freq):
    """A --demo-freq that leaves fewer than 8 of the CSV's samples per gait
    period is a usage error, not an IndexError."""
    demo_path = tmp_path / "demo.csv"
    save_demo_csv(synthetic_demo(), demo_path)
    rc = main(["bc-fit", "--demo", str(demo_path), "--demo-freq", freq,
               "--out", str(tmp_path / "fit")])
    assert rc == 2
    assert "too few to resolve one gait cycle" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


def test_cli_bc_fit_demo_freq_needs_a_csv_demo(tmp_path, capsys):
    """The synthetic demo has one sample per orbit tick, so a --demo-freq
    without a CSV --demo is a usage error, not a flag ignored."""
    rc = main(["bc-fit", "--demo-freq", "3", "--out", str(tmp_path / "fit")])
    assert rc == 2
    assert "--demo-freq needs a CSV --demo" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize("freq", ["nan", "inf", "0", "-1.5", "1e-320"])
def test_cli_bc_fit_demo_freq_not_finite_and_positive_exit_code(tmp_path, capsys, freq):
    """A CSV demo's gait frequency that is not finite and positive exits 2 and
    names the file and the value; at 1e-320 Hz the period overflows to infinity."""
    demo_path = tmp_path / "demo.csv"
    save_demo_csv(synthetic_demo(), demo_path)
    rc = main(["bc-fit", "--demo", str(demo_path), "--demo-freq", freq,
               "--out", str(tmp_path / "fit")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{demo_path}: gait frequency must be finite and positive, got {float(freq)}" in err
    assert not (tmp_path / "fit").exists()


def test_cli_train_rejects_a_planner_fitted_with_another_oscillator(tmp_path, capsys):
    """A planner fitted at cpg.phi 0.1047 (a 60-tick orbit) does not train
    under a config that sets the default phi: exit 2, naming the field,
    before --out is made."""
    fast_path = tmp_path / "fast.yaml"
    fast_path.write_text("cpg:\n  phi: 0.1047\n")
    rc = main(["bc-fit", "--config", str(fast_path), "--out", str(tmp_path / "fit")])
    assert rc == 0
    capsys.readouterr()
    cfg_path = tmp_path / "config.yaml"
    save_config(tiny_cfg(), cfg_path)
    rc = main(["train", "--config", str(cfg_path), "--model", str(tmp_path / "fit" / "planner.npz"),
               "--iterations", "1", "--out", str(tmp_path / "train")])
    assert rc == 2
    assert "the planner was fitted with cpg.phi 0.1047" in capsys.readouterr().err
    assert not (tmp_path / "train").exists()


def test_cli_bc_fit_unreachable_demo_exit_code(tmp_path, capsys):
    demo = synthetic_demo()
    far = replace(demo, feet=demo.feet + np.array([0.0, 0.0, -1.0]))
    demo_path = tmp_path / "far.csv"
    save_demo_csv(far, demo_path)
    rc = main(["bc-fit", "--demo", str(demo_path), "--out", str(tmp_path / "fit")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


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


def test_cli_rejected_resume_leaves_the_run_as_it_was(fitted, checkpoint, tmp_path, capsys):
    """A resume whose config differs only in seed exits 2 and rewrites no file."""
    run = tmp_path / "run"
    shutil.copytree(checkpoint.parent, run)
    save_planner_model(fitted[1], tmp_path / "planner.npz")
    other_path = tmp_path / "other.yaml"
    save_config(tiny_cfg(seed=42), other_path)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    rc = main(["train", "--config", str(other_path), "--model", str(tmp_path / "planner.npz"),
               "--checkpoint", str(run / checkpoint.name), "--out", str(run)])
    assert rc == 2
    assert "different config" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_cli_resume_with_another_planner_leaves_the_run_as_it_was(fitted, checkpoint,
                                                                  tmp_path, capsys):
    """A resume whose planner differs from the checkpoint's in one bit of one
    motor weight exits 2, names the entry, and rewrites no file."""
    cfg, planner = fitted
    run = tmp_path / "run"
    shutil.copytree(checkpoint.parent, run)
    arrays = planner_arrays(planner)
    arrays["weights"] = arrays["weights"].copy()
    arrays["weights"][0, 0] = np.nextafter(arrays["weights"][0, 0], np.inf)
    save_planner_model(planner_from_arrays(arrays), tmp_path / "other.npz")
    cfg_path = tmp_path / "config.yaml"
    save_config(cfg, cfg_path)
    before = {p.name: p.read_bytes() for p in run.iterdir()}
    rc = main(["train", "--config", str(cfg_path), "--model", str(tmp_path / "other.npz"),
               "--checkpoint", str(run / checkpoint.name), "--out", str(run)])
    assert rc == 2
    assert "different planner: 'weights' differs" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_cli_bc_fit_rejects_a_dt_off_the_policy_period(tmp_path, capsys):
    """A 3 ms substep does not divide the 20 ms policy step: exit 2 before the fit."""
    cfg_path = tmp_path / "dt.yaml"
    cfg_path.write_text("sim:\n  dt: 0.003\n")
    rc = main(["bc-fit", "--config", str(cfg_path), "--out", str(tmp_path / "fit")])
    assert rc == 2
    assert "must divide the policy period" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


def test_cli_bc_fit_rejects_a_cpg_tick_rate(tmp_path, capsys):
    """The oscillator ticks once per substep of sim.dt, so a config that still
    sets its own rate exits 2 and names the key."""
    cfg_path = tmp_path / "rate.yaml"
    cfg_path.write_text("cpg:\n  tick_rate: 200.0\n")
    rc = main(["bc-fit", "--config", str(cfg_path), "--out", str(tmp_path / "fit")])
    assert rc == 2
    assert "cpg: unknown keys ['tick_rate']" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


def test_cli_export_gait_reads_a_planner_file_with_a_tick_rate(fitted, tmp_path):
    """Planner files from earlier writers hold a tick_rate entry; they load,
    and export the same gait table as the file without it."""
    save_planner_model(fitted[1], tmp_path / "new.npz")
    with np.load(tmp_path / "new.npz") as data:
        np.savez(tmp_path / "old.npz", tick_rate=np.float64(200.0), **data)
    old = load_planner_model(tmp_path / "old.npz")
    for name, value in planner_arrays(fitted[1]).items():
        np.testing.assert_array_equal(planner_arrays(old)[name], value)
    for name in ("new", "old"):
        rc = main(["export-gait", "--model", str(tmp_path / f"{name}.npz"),
                   "--out", str(tmp_path / name)])
        assert rc == 0
    tables = [(tmp_path / name / "gait.csv").read_bytes() for name in ("new", "old")]
    assert tables[0] == tables[1]


@pytest.mark.parametrize("cpg", ["alpha: 5.0", "phi: 0.001"])
def test_cli_bc_fit_without_a_limit_cycle_exit_code(tmp_path, capsys, cpg):
    """An oscillator whose orbit never closes within the search budget is a
    configuration error (2), not a crash."""
    cfg_path = tmp_path / "cpg.yaml"
    cfg_path.write_text(f"cpg:\n  {cpg}\n")
    rc = main(["bc-fit", "--config", str(cfg_path), "--out", str(tmp_path / "fit")])
    assert rc == 2
    assert "no period found" in capsys.readouterr().err
    assert not (tmp_path / "fit").exists()


def _cut_in_half(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _drop_adam_m(path):
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "adam_m"}
    np.savez(path, **arrays)


def _not_an_archive(path):
    path.write_text("iteration,reward\n1,0.5\n")


def _single_array(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


def _flip_a_policy_byte(path):
    """Corrupt one byte of the stored policy array, past its .npy header."""
    with zipfile.ZipFile(path) as archive:
        offset = archive.getinfo("policy_flat.npy").header_offset
    with open(path, "r+b") as fh:
        fh.seek(offset + 26)  # name and extra-field lengths in the local file header
        name_len, extra_len = struct.unpack("<HH", fh.read(4))
        fh.seek(offset + 30 + name_len + extra_len + 200)
        byte = fh.read(1)[0]
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte ^ 0xFF]))


@pytest.mark.parametrize("command, damaged, damage, part", [
    ("eval", "checkpoint", _cut_in_half, "not a whole npz archive"),
    ("train", "checkpoint", _cut_in_half, "not a whole npz archive"),
    ("train", "model", _cut_in_half, "not a whole npz archive"),
    ("export-gait", "model", _cut_in_half, "not a whole npz archive"),
    ("eval", "checkpoint", _drop_adam_m, "missing entry 'adam_m'"),
    ("eval", "checkpoint", _not_an_archive, "not a whole npz archive"),
    ("eval", "checkpoint", _single_array, "not an npz archive"),
    ("eval", "checkpoint", _flip_a_policy_byte, "damaged archive entry"),
], ids=["eval-cut", "train-checkpoint-cut", "train-model-cut", "export-gait-cut",
        "eval-no-adam_m", "eval-not-an-archive", "eval-single-array", "eval-bad-crc"])
def test_cli_damaged_run_file_exit_code(fitted, checkpoint, tmp_path, capsys,
                                        command, damaged, damage, part):
    """A damaged model or checkpoint is a usage error whose message names the
    file and the damaged part, and the command writes no --out."""
    files = {"model": tmp_path / "planner.npz", "checkpoint": tmp_path / "checkpoint.npz"}
    save_planner_model(fitted[1], files["model"])
    shutil.copy(checkpoint, files["checkpoint"])
    cfg_path = tmp_path / "config.yaml"
    save_config(fitted[0], cfg_path)
    damage(files[damaged])
    argv = {
        "eval": ["eval", "--checkpoint", str(files["checkpoint"])],
        "train": ["train", "--config", str(cfg_path), "--model", str(files["model"])]
        + (["--checkpoint", str(files["checkpoint"])] if damaged == "checkpoint" else []),
        "export-gait": ["export-gait", "--model", str(files["model"])],
    }[command]
    rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(files[damaged]) in err
    assert part in err
    assert not (tmp_path / "out").exists()
