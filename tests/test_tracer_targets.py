"""The benchmark's tracer wraps cpgrl functions by name from outside the
package; a rename or deletion in src/, or a refactor that changes how often
`env.step` makes a traced call, would otherwise only break traced benchmark
runs. This reads bench/tracer.py and changes nothing under bench/."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
from dataclasses import replace

# the tracer looks up every module it wraps, so all of them must be imported
from cpgrl import evaluate, training  # noqa: F401
from cpgrl.config import RunConfig, load_config
from cpgrl.env import VecLocomotionEnv
from cpgrl.randomization import initial_curriculum

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    targets = load_tracer().TARGETS
    assert targets
    for name, module_name, attr, _keep_spans, _after in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            # the tracer replaces the method in the class's own namespace
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(module, cls_name)).get(meth)), name
        else:
            assert callable(getattr(module, attr, None)), name


def test_traced_rollout_call_counts(planner):
    """A traced `collect_rollouts` at n = 8 makes the calls that the traced
    rollout_1024 benchmark checks in `bench/workloads.py`, per rollout."""
    tracer_module = load_tracer()
    cfg = RunConfig()
    # a 0.1 s episode: all envs time out together every 5 steps
    cfg = replace(cfg, sim=replace(cfg.sim, episode_limit=0.1))
    n = 8
    env = VecLocomotionEnv(cfg, planner, n_envs=n, train_mode=True)
    policy = training._new_policy(cfg, cfg.train.lr_init)
    rng = np.random.default_rng([cfg.seed, training._TRAIN_STREAM])
    curriculum = initial_curriculum(cfg.curriculum, cfg.dr)
    horizon = cfg.train.horizon
    with tracer_module.Tracer() as tracer:
        training.collect_rollouts(env, policy, rng, horizon, curriculum)
    calls = {name: stats[0] for name, stats in tracer.stats.items()}
    assert calls["training.collect_rollouts"] == 1
    assert calls["simulator.step_core"] == horizon * env.substeps
    assert calls["env.step"] == horizon
    assert calls["randomization.add_sensor_noise"] == n * (horizon + 1)
    assert calls["randomization.schedule_impulse"] == n * horizon
    # one spawn call per step at most, for all of the step's done envs
    assert tracer.counters["env.episodes_finished"] > calls["env.step"]
    assert 0 < calls["env.reset_env"] <= calls["env.step"]


def test_traced_setup_counts_the_fit():
    """The tracer's set-up hook reads the FitReport that `fit_motor_layer`
    returns, as `bench/run.py --trace 1` reports it per set-up."""
    tracer_module = load_tracer()
    cfg = load_config(ROOT / "configs" / "desk_acceptance.yaml")
    with tracer_module.Tracer() as tracer:
        _planner, report = training.planner_from_config(cfg)
    assert tracer.stats["gait_planner.fit_motor_layer"][0] == 1
    # the hook adds the key on its first call, so its presence shows the hook ran
    assert "gait_planner.refine_steps" in tracer.counters
    assert tracer.counters["gait_planner.refine_steps"] == report.refine_steps_used
