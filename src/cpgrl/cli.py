"""Command-line entry points: bc-fit, train, eval, export-gait.

Exit codes: 0 success, 2 configuration/usage errors, 3 numerical failure.
"""

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, load_config, save_config
from .env import substeps_per_policy_step
from .evaluate import constant_profile, contact_gait_stats, export_gait, ramp_profile, run_eval
from .gait_planner import SingularFit, load_demo_csv, load_planner_model, save_planner_model
from .ppo import NonFiniteLoss
from .simulator import NumericalDivergence
from .training import (
    load_checkpoint,
    planner_from_config,
    policy_from_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "envs", None) is not None:
        cfg = replace(cfg, train=replace(cfg.train, n_envs=args.envs))
    if getattr(args, "iterations", None) is not None:
        cfg = replace(cfg, train=replace(cfg.train, iterations=args.iterations))
    cfg.validate()
    return cfg


def cmd_bc_fit(args) -> int:
    if args.demo == "synthetic" and args.demo_freq is not None:
        raise ValueError("--demo-freq needs a CSV --demo; the synthetic demo "
                         "has one sample per orbit tick")
    cfg = _load_run_config(args)
    demo = None
    if args.demo != "synthetic":
        demo = load_demo_csv(args.demo, gait_frequency=args.demo_freq)
    planner, report = planner_from_config(cfg, demo=demo)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "planner.npz"
    save_planner_model(planner, model_path)
    save_config(cfg, out / "config.yaml")
    with open(out / "fit_metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["train_mse", "val_mse", "train_rmse", "val_rmse",
                         "init_train_mse", "n_train", "n_val", "refine_steps_used"])
        writer.writerow([report.train_mse, report.val_mse, report.train_rmse,
                         report.val_rmse, report.init_train_mse, report.n_train,
                         report.n_val, report.refine_steps_used])
    print(f"planner model      {model_path}")
    print(f"orbit period       {planner.orbit.period_ticks} ticks "
          f"({planner.orbit.frequency(1.0 / cfg.sim.dt):.3f} Hz)")
    print(f"train foot RMSE    {report.train_rmse * 1000:.3f} mm ({report.n_train} samples)")
    print(f"val foot RMSE      {report.val_rmse * 1000:.3f} mm ({report.n_val} samples)")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    model_path = Path(args.model)
    if not model_path.exists():
        print(f"error: planner model not found: {model_path} (run bc-fit first)",
              file=sys.stderr)
        return EXIT_CONFIG
    planner = load_planner_model(model_path)
    metrics = train(cfg, planner, args.out, resume_from=args.checkpoint)
    print(f"metrics            {metrics}")
    return EXIT_OK


def cmd_eval(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    cfg = ck["config"]
    policy = policy_from_checkpoint(ck)
    if args.profile == "constant":
        profile = constant_profile(args.command)
    else:
        profile = ramp_profile(peak=args.command, duration=args.duration)
    # run_eval checks the window and creates --out for the trace it writes
    out = Path(args.out)
    trace_path = out / "trace.csv"
    summary, data = run_eval(cfg, ck["planner"], policy, profile, args.duration,
                             trace_path=trace_path)
    save_config(cfg, out / "config.yaml")
    period_steps = ck["planner"].orbit.period_ticks // substeps_per_policy_step(cfg.sim.dt)
    print(f"trace              {trace_path}")
    for line in summary.lines():
        print(line)
    if len(data) < period_steps:
        print(f"gait statistics    need one period of {period_steps} steps, "
              f"the window has {len(data)}")
        return EXIT_OK
    gait = contact_gait_stats(data, period_steps)
    print(f"stance fraction    {np.round(gait['stance_fraction'], 3)} "
          f"(mean {gait['stance_fraction'].mean():.3f})")
    print(f"diag contact lag   {gait['diag_lag_dist']} steps from 0")
    return EXIT_OK


def cmd_export_gait(args) -> int:
    planner = load_planner_model(args.model)
    cfg = load_config(args.config) if args.config else RunConfig()
    # export_gait checks the period count and creates --out for the table
    out = Path(args.out)
    path = out / "gait.csv"
    rows = export_gait(planner, cfg.leg_geometry(), 1.0 / cfg.sim.dt, args.periods, path)
    save_config(cfg, out / "config.yaml")
    print(f"gait table         {path} ({rows} rows, "
          f"{planner.orbit.period_ticks} ticks/period)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpgrl",
        description="CPG gait planner + residual PPO locomotion at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("bc-fit", help="fit the motor layer from a demonstration")
    fit.add_argument("--config", help="YAML run config")
    fit.add_argument("--seed", type=int, help="master seed override")
    fit.add_argument("--out", default="runs/bc_fit", help="output directory")
    fit.add_argument("--demo", default="synthetic",
                     help="'synthetic' or a path to a demo CSV")
    fit.add_argument("--demo-freq", type=float, default=None,
                     help="gait frequency of a CSV demo (default: one period per file)")
    fit.set_defaults(func=cmd_bc_fit)

    tr = sub.add_parser("train", help="train the residual policy with PPO")
    tr.add_argument("--config", help="YAML run config")
    tr.add_argument("--seed", type=int, help="master seed override")
    tr.add_argument("--model", required=True, help="fitted planner model (.npz)")
    tr.add_argument("--out", default="runs/train", help="output directory")
    tr.add_argument("--checkpoint", help="resume from this checkpoint")
    tr.add_argument("--envs", type=int, help="parallel env count override")
    tr.add_argument("--iterations", type=int, help="iteration count override")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("eval", help="deterministic evaluation rollout")
    ev.add_argument("--checkpoint", required=True, help="training checkpoint (.npz)")
    ev.add_argument("--out", default="runs/eval", help="output directory")
    ev.add_argument("--profile", choices=["constant", "ramp"], default="constant")
    ev.add_argument("--command", type=float, default=0.5,
                    help="forward velocity command (constant) or ramp peak")
    ev.add_argument("--duration", type=float, default=10.0, help="seconds")
    ev.set_defaults(func=cmd_eval)

    ex = sub.add_parser("export-gait", help="export the baseline gait table")
    ex.add_argument("--model", required=True, help="fitted planner model (.npz)")
    ex.add_argument("--config", help="YAML run config (geometry, and sim.dt for the time column)")
    ex.add_argument("--periods", type=int, default=2)
    ex.add_argument("--out", default="runs/gait", help="output directory")
    ex.set_defaults(func=cmd_export_gait)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalDivergence, NonFiniteLoss, SingularFit) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
