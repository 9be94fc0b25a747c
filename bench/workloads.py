"""The three benchmark workloads.

Each workload runs in passes. A pass sets up from scratch (planner fit plus
env and policy construction), then runs a fixed number of units, so every pass
of one seed does identical arithmetic and ends in the same fingerprint. Every
call the benchmark times goes through `unit_scope()`, and the set-up through
`setup_scope()`; the traced run hands in scopes that install the tracer, the
untraced run scopes that only add up wall time.

The program is driven through its public functions, looked up on the module
at call time so that an installed tracer sees the calls.
"""

import csv
import hashlib
import json
import shutil
import time
from dataclasses import dataclass, field, replace

import numpy as np

from cpgrl import evaluate, training
from cpgrl.env import POLICY_RATE, VecLocomotionEnv
from cpgrl.nn import RunningNorm
from cpgrl.ppo import GaussianPolicy, NonFiniteLoss
from cpgrl.randomization import curriculum_update, initial_curriculum
from cpgrl.simulator import NumericalDivergence
from cpgrl.task import OBS_DIM

ACTION_DIM = 12
UNIT_ERRORS = (NumericalDivergence, NonFiniteLoss)

DESK_ITERATIONS = 20       # PPO iterations per desk_train pass
ROLLOUT_ENVS = 1024
ROLLOUT_UNITS = 4          # collect_rollouts calls per rollout_1024 pass
EVAL_UNITS = 3             # run_eval calls per eval_single pass
EVAL_COMMAND = 0.5         # m/s, the documented eval command
EVAL_DURATION = 10.0       # s
EVAL_SETTLE = 2.0          # s
EVAL_MAX_ROW_JUMP = 0.05   # m per 20 ms row; a reset teleports the trunk


@dataclass
class PassResult:
    setup_s: float = float("nan")
    unit_s: list = field(default_factory=list)        # wall time of each good unit
    attempted: int = 0
    failed: int = 0
    env_steps: int = 0                                 # transitions in good units
    fingerprint: str | None = None
    problems: list = field(default_factory=list)      # failed output checks
    info: dict = field(default_factory=dict)
    expected_counts: dict = field(default_factory=dict)  # tracer name -> calls
    n_envs: int = 1


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def fingerprint(env_arrays: dict, rng_states, policy_flat, extra=()) -> str:
    """sha256 over env state arrays, env RNG states, policy parameters and extras."""
    h = hashlib.sha256()
    for key in sorted(env_arrays):
        arr = np.ascontiguousarray(env_arrays[key])
        h.update(key.encode())
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    h.update(json.dumps(rng_states, sort_keys=True).encode())
    h.update(np.ascontiguousarray(policy_flat, dtype=float).tobytes())
    for value in extra:
        h.update(repr(float(value)).encode())
    return h.hexdigest()


def fresh_policy(cfg, obs_norm: bool) -> GaussianPolicy:
    """The policy train() starts from, drawn from the seed's policy stream."""
    policy = GaussianPolicy(
        OBS_DIM, ACTION_DIM, cfg.train.hidden,
        np.random.default_rng([cfg.seed, training._POLICY_STREAM]),
        log_std_init=cfg.train.log_std_init, lr=cfg.train.lr_init,
        actor_out_scale=cfg.train.actor_out_scale,
    )
    if obs_norm:
        policy.obs_norm = RunningNorm(OBS_DIM)
    return policy


def desk_train_pass(cfg, out_dir, setup_scope, unit_scope) -> PassResult:
    """train() on the desk profile; one unit is one PPO iteration."""
    cfg = replace(cfg, train=replace(cfg.train, iterations=DESK_ITERATIONS))
    res = PassResult(n_envs=cfg.train.n_envs)
    with setup_scope():
        t0 = time.perf_counter()
        planner, _report = training.planner_from_config(cfg)
        fit_s = time.perf_counter() - t0

    run_dir = out_dir / "desk_train"
    shutil.rmtree(run_dir, ignore_errors=True)
    first_log = []

    def log(_message):
        # train() logs right after the first iteration's metrics row
        if not first_log:
            first_log.append(time.perf_counter())

    error = None
    with unit_scope():
        t_call = time.perf_counter()
        try:
            training.train(cfg, planner, run_dir, log=log)
        except UNIT_ERRORS as exc:
            error = exc

    with open(run_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    horizon, n = cfg.train.horizon, cfg.train.n_envs
    prev_wall = 0.0
    for i, row in enumerate(rows, start=1):
        values = [float(v) for v in row.values()]
        wall = float(row["wall_time_s"])
        ok = (_finite(values) and int(row["iteration"]) == i
              and int(row["env_steps"]) == i * horizon * n)
        res.attempted += 1
        if ok:
            res.unit_s.append(wall - prev_wall)
            res.env_steps += horizon * n
        else:
            res.failed += 1
            res.problems.append(f"metrics.csv row {i} is not finite or miscounted")
        prev_wall = wall
    if first_log and rows:
        # train()'s own set-up: config write, env, policy, optimizer
        res.setup_s = fit_s + (first_log[0] - float(rows[0]["wall_time_s"]) - t_call)
    if error is not None:
        res.attempted += 1
        res.failed += 1
        res.info["error"] = f"{type(error).__name__}: {error}"
        return res
    if len(rows) != DESK_ITERATIONS:
        res.problems.append(f"metrics.csv has {len(rows)} rows, expected {DESK_ITERATIONS}")
        return res

    ppo_cfg = cfg.train.ppo
    res.expected_counts = {
        "ppo.minibatch_grads": DESK_ITERATIONS * ppo_cfg.n_epochs * ppo_cfg.n_minibatches,
        "randomization.add_sensor_noise": DESK_ITERATIONS * n * (horizon + 1),
        "env.step": DESK_ITERATIONS * horizon,
        "training.save_checkpoint": 1,
    }
    tracking = float(rows[-1]["tracking_fraction"])
    with np.load(run_dir / f"checkpoint_{DESK_ITERATIONS:06d}.npz", allow_pickle=False) as ck:
        meta = json.loads(str(ck["meta"]))
        env_arrays = {k[4:]: ck[k] for k in ck.files if k.startswith("env_")}
        policy_flat = ck["policy_flat"]
        if not _finite(policy_flat, ck["adam_m"], ck["adam_v"], *env_arrays.values()):
            res.problems.append("checkpoint holds non-finite values")
        res.fingerprint = fingerprint(env_arrays, meta["env_rngs"], policy_flat, [tracking])
    res.info["tracking_fraction"] = tracking
    return res


def rollout_1024_pass(cfg, out_dir, setup_scope, unit_scope) -> PassResult:
    """collect_rollouts() over 1024 envs with full DR; no PPO update."""
    res = PassResult(n_envs=ROLLOUT_ENVS)
    with setup_scope():
        t0 = time.perf_counter()
        planner, _report = training.planner_from_config(cfg)
        env = VecLocomotionEnv(cfg, planner, n_envs=ROLLOUT_ENVS, train_mode=True)
        policy = fresh_policy(cfg, obs_norm=True)
        rng = np.random.default_rng([cfg.seed, training._TRAIN_STREAM])
        curriculum = initial_curriculum(cfg.curriculum, cfg.dr)
        res.setup_s = time.perf_counter() - t0

    horizon = cfg.train.horizon
    episodes = 0
    for _ in range(ROLLOUT_UNITS):
        res.attempted += 1
        with unit_scope():
            t0 = time.perf_counter()
            try:
                buf, stats = training.collect_rollouts(env, policy, rng, horizon, curriculum)
            except UNIT_ERRORS as exc:
                res.failed += 1
                res.info["error"] = f"{type(exc).__name__}: {exc}"
                return res
            dt = time.perf_counter() - t0
        ok = (buf.observations.shape == (horizon, ROLLOUT_ENVS, OBS_DIM)
              and _finite(buf.observations, buf.actions, buf.log_probs, buf.values,
                          buf.rewards, buf.dones, buf.bootstrap_values,
                          buf.action_means, list(stats.values())))
        if not ok:
            res.failed += 1
            res.problems.append("rollout buffer is not finite or has the wrong shape")
            continue
        res.unit_s.append(dt)
        res.env_steps += horizon * ROLLOUT_ENVS
        curriculum = curriculum_update(
            curriculum, min(1.0, max(0.0, stats["tracking_fraction"])), cfg.curriculum)
        episodes += len(env.drain_episode_stats()[0])

    res.expected_counts = {
        "randomization.add_sensor_noise": ROLLOUT_UNITS * ROLLOUT_ENVS * (horizon + 1),
        "randomization.schedule_impulse": ROLLOUT_UNITS * ROLLOUT_ENVS * horizon,
        "env.step": ROLLOUT_UNITS * horizon,
        "env.episodes_finished": episodes,
        "simulator.step_core": ROLLOUT_UNITS * horizon * env.substeps,
    }
    state = env.state_dict()
    rng_states = state.pop("rng_states")
    norm = policy.obs_norm
    res.fingerprint = fingerprint(state, rng_states, policy.get_flat(),
                                  [norm.count, *norm.mean, *norm.var])
    res.info["episodes_finished"] = episodes
    return res


def eval_single_pass(cfg, out_dir, setup_scope, unit_scope) -> PassResult:
    """run_eval() for the documented 10 s, 0.5 m/s command; n = 1, no noise."""
    res = PassResult()
    with setup_scope():
        t0 = time.perf_counter()
        planner, _report = training.planner_from_config(cfg)
        policy = fresh_policy(cfg, obs_norm=False)
        res.setup_s = time.perf_counter() - t0

    trace_path = out_dir / "eval_single" / "trace.csv"
    n_rows = int(round(EVAL_DURATION * POLICY_RATE))
    steps_per_unit = int(round((EVAL_SETTLE + EVAL_DURATION) * POLICY_RATE))
    substeps = int(round(1.0 / (cfg.sim.dt * POLICY_RATE)))
    col = {name: i for i, name in enumerate(evaluate.TRACE_COLUMNS)}
    prints = set()
    for _ in range(EVAL_UNITS):
        res.attempted += 1
        with unit_scope():
            t0 = time.perf_counter()
            try:
                summary, data = evaluate.run_eval(
                    cfg, planner, policy, evaluate.constant_profile(EVAL_COMMAND),
                    EVAL_DURATION, trace_path=trace_path, settle_time=EVAL_SETTLE,
                )
            except UNIT_ERRORS as exc:
                res.failed += 1
                res.info["error"] = f"{type(exc).__name__}: {exc}"
                return res
            dt = time.perf_counter() - t0
        problems = []
        if data.shape != (n_rows, len(evaluate.TRACE_COLUMNS)):
            problems.append(f"trace has shape {data.shape}")
        elif not _finite(data, list(vars(summary).values())):
            problems.append("trace or summary is not finite")
        else:
            # no collision and no timeout reset inside the commanded window
            if summary.falls != 0:
                problems.append(f"{summary.falls} collision resets in the window")
            jump = np.abs(np.diff(data[:, [col["pos_x"], col["pos_y"], col["pos_z"]]], axis=0))
            if np.max(jump) > EVAL_MAX_ROW_JUMP:
                problems.append(f"trunk moved {np.max(jump):.3f} m in one row: a reset")
        with open(trace_path) as fh:
            if sum(1 for _ in fh) != n_rows + 1:
                problems.append("trace.csv row count differs from the returned trace")
        if problems:
            res.failed += 1
            res.problems.extend(problems)
            continue
        res.unit_s.append(dt)
        res.env_steps += steps_per_unit
        prints.add(fingerprint({"trace": data}, [], policy.get_flat()))
        res.info["distance_m"] = summary.distance

    if len(prints) > 1:
        res.problems.append("repeated run_eval calls gave different traces")
    res.expected_counts = {
        "randomization.add_sensor_noise": 0,
        "randomization.schedule_impulse": 0,
        "env.step": EVAL_UNITS * steps_per_unit,
        "simulator.step_core": EVAL_UNITS * steps_per_unit * substeps,
    }
    res.fingerprint = prints.pop() if len(prints) == 1 else None
    return res


WORKLOADS = {
    "desk_train": desk_train_pass,
    "rollout_1024": rollout_1024_pass,
    "eval_single": eval_single_pass,
}
