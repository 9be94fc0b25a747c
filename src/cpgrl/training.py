"""Residual-policy training: the planner stays frozen while PPO trains the
feedback policy on top of it.

Checkpoints capture everything mutable (policy, observation normalizer,
optimizer moments, env state arrays, every RNG stream, curriculum), so an
interrupted run resumed from its checkpoint reproduces subsequent metrics
bit-identically.
"""

import csv
import json
import time
from pathlib import Path

import numpy as np

from .config import RunConfig, config_hash, config_to_dict, embedded_config, save_config
from .env import POLICY_DT, VecLocomotionEnv
from .gait_planner import (
    GaitPlannerModel,
    build_planner,
    fit_motor_layer,
    fitted_planner,
    generate_demo_trot,
    open_run_file,
    planner_arrays,
    planner_from_arrays,
    savez_atomic,
)
from .nn import Adam, DimensionMismatch
from .ppo import GaussianPolicy, PpoConfig, RolloutBuffer, ppo_update
from .randomization import CurriculumState, curriculum_update, initial_curriculum
from .task import OBS_DIM, REWARD_TERMS

ACTION_DIM = 12
_POLICY_STREAM = 500
_TRAIN_STREAM = 501
CHECKPOINT_VERSION = 6


def planner_from_config(cfg: RunConfig, demo=None):
    """The behavior-cloning pipeline: oscillator, centers, fitted motor map."""
    geometry = cfg.leg_geometry()
    model = build_planner(cfg.cpg, cfg.planner, cfg.env_params().nominal_q)
    if demo is None:
        demo = generate_demo_trot(cfg.demo, geometry, cfg.robot.stand_height,
                                  model.orbit.period_ticks)
    motor, report = fit_motor_layer(demo, model, geometry, split_seed=cfg.seed)
    return fitted_planner(model, motor), report


def collect_rollouts(env: VecLocomotionEnv, policy: GaussianPolicy,
                     rng: np.random.Generator, horizon: int,
                     curriculum: CurriculumState | None = None):
    """Fill a fresh buffer with horizon policy steps from every env."""
    buf = RolloutBuffer.empty(horizon, env.n, OBS_DIM, ACTION_DIM)
    term_totals = {name: 0.0 for name in REWARD_TERMS}
    tracking_sum = 0.0
    buf.sample_log_std = policy.log_std.copy()
    for t in range(horizon):
        obs = policy.prepare_obs(env.observe(), update=True)
        actions, logp, means = policy.sample(obs, rng)
        values = policy.value(obs)
        rewards, dones, info = env.step(actions, curriculum)
        buf.observations[t] = obs
        buf.actions[t] = actions
        buf.log_probs[t] = logp
        buf.values[t] = values
        buf.rewards[t] = rewards
        buf.dones[t] = dones
        buf.action_means[t] = means
        for name, value in info["terms"].items():
            term_totals[name] += float(np.sum(value))
        w = env.cfg.reward.lin_vel_tracking
        if w != 0.0:
            tracking_sum += float(np.sum(info["terms"]["lin_vel_tracking"])) / (w * POLICY_DT)
    buf.bootstrap_values = policy.value(policy.prepare_obs(env.observe()))

    n_samples = horizon * env.n
    stats = {name: total / n_samples for name, total in term_totals.items()}
    stats["tracking_fraction"] = tracking_sum / n_samples
    stats["mean_reward"] = float(np.mean(buf.rewards))
    return buf, stats


METRICS_COLUMNS = (
    ["iteration", "env_steps", "wall_time_s", "mean_reward", "tracking_fraction"]
    + list(REWARD_TERMS)
    + ["episodes_finished", "mean_episode_len", "mean_episode_return",
       "policy_loss", "value_loss", "entropy", "approx_kl", "lr",
       "curriculum_interval", "curriculum_cap"]
)


def save_checkpoint(path, policy: GaussianPolicy, optimizer: Adam,
                    env: VecLocomotionEnv, train_rng: np.random.Generator,
                    curriculum: CurriculumState, iteration: int,
                    cfg: RunConfig, planner: GaitPlannerModel) -> None:
    env_state = env.state_dict()
    rng_states = env_state.pop("rng_states")
    adam = optimizer.state_dict()
    norm = policy.obs_norm.state_dict()
    meta = {
        "version": CHECKPOINT_VERSION,
        "iteration": iteration,
        "policy_lr": policy.lr,
        "adam_t": adam["t"],
        "norm_count": norm["count"],
        "curriculum": {
            "impulse_interval": curriculum.impulse_interval,
            "impulse_mag_cap": curriculum.impulse_mag_cap,
        },
        "train_rng": train_rng.bit_generator.state,
        "env_rngs": rng_states,
        "config": config_to_dict(cfg),
        "config_hash": config_hash(cfg),
    }
    savez_atomic(
        path,
        policy_flat=policy.params,
        adam_m=adam["m"],
        adam_v=adam["v"],
        norm_mean=norm["mean"],
        norm_var=norm["var"],
        meta=np.array(json.dumps(meta)),
        **planner_arrays(planner, prefix="planner_"),
        **{f"env_{k}": v for k, v in env_state.items()},
    )


def load_checkpoint(path) -> dict:
    with open_run_file(path) as data:
        meta = json.loads(str(data["meta"]))
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {meta['version']}")
        return {
            "meta": meta,
            "policy_flat": data["policy_flat"],
            "optimizer": {"m": data["adam_m"], "v": data["adam_v"], "t": meta["adam_t"]},
            "planner": planner_from_arrays(data, prefix="planner_"),
            "env_arrays": {k[4:]: data[k] for k in data.files if k.startswith("env_")},
            "obs_norm": {"count": meta["norm_count"], "mean": data["norm_mean"],
                         "var": data["norm_var"]},
            "config": embedded_config(meta["config"], path),
        }


def truncate_metrics(path, iteration: int) -> None:
    """Cut metrics.csv after the row of the given iteration.

    A run that stopped after its last checkpoint has already logged the rows
    that a resume from that checkpoint writes again. Rows are cut from the
    first one past the iteration, or from a line left unfinished; a file
    without a whole header line is emptied.
    """
    with open(path, "r+b") as fh:
        keep = fh.tell() if fh.readline().endswith(b"\n") else 0
        for line in iter(fh.readline, b""):
            if not line.endswith(b"\n") or int(line.split(b",", 1)[0]) > iteration:
                break
            keep = fh.tell()
        fh.truncate(keep)


def _new_policy(cfg: RunConfig, lr: float) -> GaussianPolicy:
    """Fresh policy drawn from the seed's policy stream."""
    return GaussianPolicy(
        OBS_DIM, ACTION_DIM, cfg.train.hidden,
        np.random.default_rng([cfg.seed, _POLICY_STREAM]),
        log_std_init=cfg.train.log_std_init, lr=lr,
        actor_out_scale=cfg.train.actor_out_scale,
    )


def policy_from_checkpoint(ck: dict) -> GaussianPolicy:
    policy = _new_policy(ck["config"], ck["meta"]["policy_lr"])
    flat = np.asarray(ck["policy_flat"], dtype=float)
    if flat.shape != policy.params.shape:
        raise DimensionMismatch(
            f"checkpoint holds {flat.size} policy params, the config gives {policy.n_params}")
    policy.params[...] = flat
    policy.obs_norm.load_state_dict(ck["obs_norm"])
    return policy


def train(cfg: RunConfig, planner: GaitPlannerModel, out_dir,
          resume_from=None, log=print):
    """Run PPO for the configured iterations; returns the metrics path.

    The planner's oscillator and RBF layer are checked against cfg, and a
    resume's checkpoint is loaded and checked, before out_dir is written:
    its config hash, and its planner bit for bit against the given one.
    On NumericalDivergence the exception propagates after the message is
    logged; the last scheduled checkpoint stays on disk.
    """
    cfg.validate()
    for name, theirs, ours in (("cpg.phi", planner.params.phi, cfg.cpg.phi),
                               ("cpg.alpha", planner.params.alpha, cfg.cpg.alpha),
                               ("planner.h", planner.rbf.h, cfg.planner.h),
                               ("planner.sigma", planner.rbf.sigma, cfg.planner.sigma)):
        if theirs != ours:
            raise ValueError(f"the planner was fitted with {name} {theirs}, the config sets {ours}")
    if resume_from is not None:
        ck = load_checkpoint(resume_from)
        if ck["meta"]["config_hash"] != config_hash(cfg):
            raise ValueError("checkpoint was produced by a different config")
        theirs = planner_arrays(ck["planner"])
        for name, value in planner_arrays(planner).items():
            a, b = np.asarray(value), np.asarray(theirs[name])
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                raise ValueError(f"checkpoint was produced with a different planner: "
                                 f"{name!r} differs")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_config(cfg, out_dir / "config.yaml")

    env = VecLocomotionEnv(cfg, planner, train_mode=True)
    policy = _new_policy(cfg, cfg.train.lr_init)
    optimizer = Adam(policy.n_params)
    train_rng = np.random.default_rng([cfg.seed, _TRAIN_STREAM])
    curriculum = initial_curriculum(cfg.curriculum, cfg.dr)
    start_iteration = 0

    if resume_from is not None:
        policy = policy_from_checkpoint(ck)
        optimizer.load_state_dict(ck["optimizer"])
        train_rng.bit_generator.state = ck["meta"]["train_rng"]
        env.load_state_dict({**ck["env_arrays"], "rng_states": ck["meta"]["env_rngs"]})
        curriculum = CurriculumState(**ck["meta"]["curriculum"])
        start_iteration = ck["meta"]["iteration"]

    metrics_path = out_dir / "metrics.csv"
    if resume_from is not None and metrics_path.exists():
        truncate_metrics(metrics_path, start_iteration)
        mode = "a" if metrics_path.stat().st_size else "w"
    else:
        mode = "w"
    ppo_cfg: PpoConfig = cfg.train.ppo
    horizon = cfg.train.horizon
    t_start = time.perf_counter()

    with open(metrics_path, mode, newline="") as fh:
        writer = csv.writer(fh)
        if mode == "w":
            writer.writerow(METRICS_COLUMNS)
        for iteration in range(start_iteration, cfg.train.iterations):
            buf, roll_stats = collect_rollouts(env, policy, train_rng, horizon, curriculum)
            if cfg.dr.apply_impulses:
                curriculum = curriculum_update(
                    curriculum, min(1.0, max(0.0, roll_stats["tracking_fraction"])),
                    cfg.curriculum,
                )
            update_stats = ppo_update(policy, optimizer, buf, ppo_cfg, train_rng)
            lengths, returns = env.drain_episode_stats()

            row = [
                iteration + 1,
                (iteration + 1) * horizon * env.n,
                time.perf_counter() - t_start,
                roll_stats["mean_reward"],
                roll_stats["tracking_fraction"],
            ]
            row += [roll_stats[name] for name in REWARD_TERMS]
            row += [
                len(lengths),
                float(np.mean(lengths)) if lengths else 0.0,
                float(np.mean(returns)) if returns else 0.0,
                update_stats.policy_loss,
                update_stats.value_loss,
                update_stats.entropy,
                update_stats.approx_kl,
                update_stats.new_lr,
                curriculum.impulse_interval,
                curriculum.impulse_mag_cap,
            ]
            writer.writerow(row)
            fh.flush()

            if (iteration + 1) % cfg.train.checkpoint_every == 0 or (
                iteration + 1 == cfg.train.iterations
            ):
                save_checkpoint(
                    out_dir / f"checkpoint_{iteration + 1:06d}.npz",
                    policy, optimizer, env, train_rng, curriculum,
                    iteration + 1, cfg, planner,
                )
            if log is not None and (
                (iteration + 1) % 10 == 0 or iteration == start_iteration
            ):
                log(
                    f"iter {iteration + 1:4d}/{cfg.train.iterations}: "
                    f"reward/step {roll_stats['mean_reward']:+.4f} "
                    f"tracking {roll_stats['tracking_fraction']:.3f} "
                    f"kl {update_stats.approx_kl:.4f} lr {update_stats.new_lr:.1e}"
                )
    return metrics_path
