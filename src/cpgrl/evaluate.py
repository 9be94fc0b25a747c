"""Deterministic policy evaluation: trace export and trunk-state summaries."""

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import quat
from .config import RunConfig
from .env import POLICY_DT, POLICY_RATE, VecLocomotionEnv
from .gait_planner import GaitPlannerModel, circular_xcorr_lag, cyclic_lag_distance
from .kinematics import LEG_NAMES, forward_kinematics_all
from .ppo import GaussianPolicy
from .task import REWARD_TERMS


def constant_profile(value: float):
    if not np.isfinite(value):
        raise ValueError(f"command {value} m/s is not finite")

    def profile(t: float) -> np.ndarray:
        return np.array([value, 0.0, 0.0])

    return profile


# seconds at the peak at the end of a ramp, so the trace ends on a steady command
RAMP_HOLD = 1.0


def ramp_profile(peak: float, duration: float):
    """Command rising linearly to the peak, then held for the final RAMP_HOLD seconds."""
    if not np.isfinite(peak):
        raise ValueError(f"command {peak} m/s is not finite")
    ramp_time = max(duration - RAMP_HOLD, 1e-9)

    def profile(t: float) -> np.ndarray:
        vx = peak * min(t / ramp_time, 1.0)
        return np.array([vx, 0.0, 0.0])

    return profile


TRACE_COLUMNS = (
    ["time", "cmd_vx", "cmd_vy", "cmd_wz",
     "pos_x", "pos_y", "pos_z", "roll", "pitch", "yaw",
     "vel_x", "vel_y", "vel_z", "vx_body",
     "angvel_x", "angvel_y", "angvel_z"]
    + [f"q_{i}" for i in range(12)]
    + [f"qdot_{i}" for i in range(12)]
    + [f"contact_{name}" for name in LEG_NAMES]
    + [f"foot_{name}_{ax}_world" for name in LEG_NAMES for ax in "xyz"]
    + [f"foot_{name}_{ax}_body" for name in LEG_NAMES for ax in "xyz"]
    + [f"reward_{name}" for name in REWARD_TERMS]
    + ["reward_total"]
)


@dataclass(frozen=True)
class EvalSummary:
    duration: float
    mean_vx_body: float
    std_vx_body: float
    mean_height: float
    std_height: float
    mean_pitch_deg: float
    std_pitch_deg: float
    mean_roll_deg: float
    std_roll_deg: float
    falls: int
    distance: float

    def lines(self) -> list:
        return [
            f"duration          {self.duration:.2f} s",
            f"velocity (body x) {self.mean_vx_body:.3f} +- {self.std_vx_body:.3f} m/s",
            f"height            {self.mean_height:.3f} +- {self.std_height:.3f} m",
            f"pitch             {self.mean_pitch_deg:.3f} +- {self.std_pitch_deg:.3f} deg",
            f"roll              {self.mean_roll_deg:.3f} +- {self.std_roll_deg:.3f} deg",
            f"falls             {self.falls}",
            f"distance          {self.distance:.3f} m",
        ]


def run_eval(cfg: RunConfig, planner: GaitPlannerModel, policy: GaussianPolicy | None,
             profile, duration: float, trace_path=None, settle_time: float = 2.0):
    """Deterministic rollout in a noise-free env; returns (summary, rows).

    policy=None runs the pure planner baseline (zero residual). The robot
    first settles for settle_time seconds under zero command; the trace and
    the summary cover only the commanded window, which must be finite and
    hold at least one policy step.
    """
    if not (np.isfinite(duration) and round(duration * POLICY_RATE) >= 1):
        raise ValueError(f"eval duration {duration} s is not a finite number of policy "
                         f"steps of {POLICY_DT} s, at least one")
    n_steps = int(round(duration * POLICY_RATE))
    # the episode must outlast the eval, or a timeout reset lands inside the trace
    episode_limit = max(cfg.sim.episode_limit, settle_time + duration + POLICY_DT)
    cfg = replace(cfg, sim=replace(cfg.sim, episode_limit=episode_limit))
    env = VecLocomotionEnv(cfg, planner, n_envs=1, train_mode=False)
    zero_cmd = np.zeros((1, 3))
    falls = 0
    n_settle = int(round(settle_time * POLICY_RATE))
    start_x = None
    # the window's per-row state; the derived columns are computed after the loop
    log = {name: np.empty((n_steps, width)) for name, width in (
        ("t", 1), ("cmd", 3), ("pos", 3), ("rot", 4), ("linvel", 3), ("angvel", 3),
        ("q", 12), ("qdot", 12), ("contacts", 4), ("terms", len(REWARD_TERMS)),
        ("reward", 1))}

    for k in range(n_settle + n_steps):
        in_window = k >= n_settle
        t = (k - n_settle) * POLICY_DT if in_window else 0.0
        cmd = profile(t) if in_window else zero_cmd[0]
        env.set_commands(cmd[None, :])
        obs = env.observe()
        if policy is None:
            action = np.zeros((1, 12))
        else:
            action = policy.mean_action(policy.prepare_obs(obs))
        rewards, dones, info = env.step(action)
        if not in_window:
            continue
        if start_x is None:
            start_x = float(env.pos[0, 0])
        if info["collision"][0]:
            falls += 1
        i = k - n_settle
        log["t"][i] = t
        log["cmd"][i] = cmd
        log["pos"][i] = env.pos[0]
        log["rot"][i] = env.rot[0]
        log["linvel"][i] = env.linvel[0]
        log["angvel"][i] = env.angvel[0]
        log["q"][i] = env.q[0]
        log["qdot"][i] = env.qdot[0]
        log["contacts"][i] = env.contacts[0]
        log["terms"][i] = [info["terms"][name][0] for name in REWARD_TERMS]
        log["reward"][i] = rewards[0]

    rot = log["rot"]
    feet_b = forward_kinematics_all(log["q"], env.geometry)
    feet_w = log["pos"][:, None, :] + quat.rotate(rot[:, None, :], feet_b)
    data = np.concatenate(
        [log["t"], log["cmd"], log["pos"], quat.to_euler_zyx(rot), log["linvel"],
         quat.rotate_inv(rot, log["linvel"])[:, :1], log["angvel"], log["q"], log["qdot"],
         log["contacts"], feet_w.reshape(n_steps, 12), feet_b.reshape(n_steps, 12),
         log["terms"], log["reward"]],
        axis=1,
    )
    col = {name: i for i, name in enumerate(TRACE_COLUMNS)}
    summary = EvalSummary(
        duration=duration,
        mean_vx_body=float(data[:, col["vx_body"]].mean()),
        std_vx_body=float(data[:, col["vx_body"]].std()),
        mean_height=float(data[:, col["pos_z"]].mean()),
        std_height=float(data[:, col["pos_z"]].std()),
        mean_pitch_deg=float(np.degrees(data[:, col["pitch"]]).mean()),
        std_pitch_deg=float(np.degrees(data[:, col["pitch"]]).std()),
        mean_roll_deg=float(np.degrees(data[:, col["roll"]]).mean()),
        std_roll_deg=float(np.degrees(data[:, col["roll"]]).std()),
        falls=falls,
        distance=float(data[-1, col["pos_x"]] - start_x),
    )
    if trace_path is not None:
        trace_path = Path(trace_path)
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_COLUMNS)
            contact_cols = [col[f"contact_{name}"] for name in LEG_NAMES]
            for row in data.tolist():
                for j in contact_cols:
                    row[j] = int(row[j])
                writer.writerow(row)
    return summary, data


def export_gait(planner: GaitPlannerModel, geometry, tick_rate: float, n_periods: int,
                path) -> int:
    """Baseline joint targets and body-frame FK feet, one row per tick of
    1/tick_rate seconds."""
    if n_periods < 1:
        raise ValueError(f"gait export needs at least one period, got {n_periods}")
    table = planner.baseline_table()
    feet = planner.desired_feet_table(geometry)
    t_ticks = planner.orbit.period_ticks
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = (
        ["tick", "time"]
        + [f"q_{i}" for i in range(12)]
        + [f"foot_{name}_{ax}" for name in LEG_NAMES for ax in "xyz"]
    )
    n_rows = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for k in range(n_periods * t_ticks):
            i = k % t_ticks
            writer.writerow([k, k / tick_rate, *table[i], *feet[i].ravel()])
            n_rows += 1
    return n_rows


def contact_gait_stats(data: np.ndarray, period_steps: int):
    """Trot structure from an eval trace: diagonal/adjacent contact lags and
    per-foot stance fractions, on the 50 Hz contact log.

    period_steps is the gait period in policy steps, period_ticks // substeps.
    A shorter trace would correlate lags past its end, so it is rejected.
    """
    if len(data) < period_steps:
        raise ValueError(f"gait statistics need one period of {period_steps} steps, "
                         f"the trace has {len(data)}")
    col = {name: i for i, name in enumerate(TRACE_COLUMNS)}
    contacts = np.stack(
        [data[:, col[f"contact_{name}"]] for name in LEG_NAMES], axis=1
    )
    stance_fraction = contacts.mean(axis=0)
    diag = circular_xcorr_lag(contacts[:, 0], contacts[:, 3], period_steps)
    adj = circular_xcorr_lag(contacts[:, 0], contacts[:, 1], period_steps)
    return {
        "stance_fraction": stance_fraction,
        "diag_lag_dist": cyclic_lag_distance(diag, 0, period_steps),
        "adj_lag_dist": cyclic_lag_distance(adj, period_steps // 2, period_steps),
        "period_steps": period_steps,
    }
