"""Golden hashes of the desk planner fit, a short desk-profile training run
and a short eval.

Any change to the behavior-cloning fit (oscillator, kinematics, refinement)
changes the planner hash; any change to the arithmetic of the env, the
reward, the policy or the update changes the training hash; any change to the
eval path (observation, env step, trace rows) changes the eval hash. A
refactor that must be bit-identical keeps the literal; a change that alters
the numerics on purpose updates it and says so.

The literals were taken with numpy 2.4 on x86-64 (OpenBLAS); another BLAS or
libm may round differently and give another hash with no change to the code.
The training run's GEMMs round differently with another BLAS thread count, so
it runs in a subprocess with BLAS pinned to one thread, as `bench/run.py` pins it.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from cpgrl.config import load_config
from cpgrl.evaluate import constant_profile, run_eval
from cpgrl.gait_planner import planner_arrays
from cpgrl.training import _new_policy, planner_from_config

ROOT = Path(__file__).resolve().parents[1]
DESK_CONFIG = ROOT / "configs" / "desk_acceptance.yaml"

GOLDEN_PLANNER = "c0d56a1a9795b6f255b62c433fd0bc538e36646fe31e706c82b4fc40a842f474"
GOLDEN_STATE = "d4f27c77b846beaa55f7e4abab567a862c00175a5d9be455a89aa6b4b5320b95"
GOLDEN_METRICS = "81662f833634191ec180e461ceefe9efb94be83f5389ef2048c6dc84f9017cd0"
GOLDEN_EVAL = "74226072b4106e6ecb242efbed36e74e435dba0d0aa8c9d713a21f89ad5a7fa6"
GOLDEN_TRACE_CSV = "e057edd6ab4cc54cfe83bff4d4f15249f356348d3dfce07afcab10d6cc4291cd"

# two desk iterations with 8 envs; argv: config path, output directory
TRAIN_SCRIPT = """
import sys
from dataclasses import replace
from cpgrl.config import load_config
from cpgrl.training import planner_from_config, train
cfg = load_config(sys.argv[1])
cfg = replace(cfg, train=replace(cfg.train, n_envs=8, iterations=2, checkpoint_every=2))
planner, _report = planner_from_config(cfg)
train(cfg, planner, sys.argv[2], log=None)
"""


def _state_hash(checkpoint) -> str:
    """sha256 over the env state arrays, the policy and every RNG state."""
    h = hashlib.sha256()
    with np.load(checkpoint, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        for key in sorted(k for k in data.files if k.startswith("env_")):
            arr = np.ascontiguousarray(data[key])
            h.update(key.encode())
            h.update(str(arr.dtype).encode())
            h.update(arr.tobytes())
        h.update(np.ascontiguousarray(data["policy_flat"]).tobytes())
    h.update(json.dumps([meta["env_rngs"], meta["train_rng"]], sort_keys=True).encode())
    return h.hexdigest()


def _metrics_hash(metrics_path) -> str:
    """sha256 over the metrics.csv rows with the wall-clock column dropped."""
    with open(metrics_path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_time_s")
    text = "\n".join(",".join(v for j, v in enumerate(row) if j != drop) for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def desk_fit():
    cfg = load_config(DESK_CONFIG)
    planner, report = planner_from_config(cfg)
    return cfg, planner, report


def test_desk_planner_golden_hash(desk_fit):
    """sha256 over the fitted planner's arrays and every FitReport field."""
    _cfg, planner, report = desk_fit
    h = hashlib.sha256()
    for key, value in sorted(planner_arrays(planner).items()):
        arr = np.ascontiguousarray(value)
        h.update(key.encode())
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    h.update(json.dumps(asdict(report), sort_keys=True).encode())
    assert h.hexdigest() == GOLDEN_PLANNER


def test_desk_training_golden_hash(tmp_path):
    env = dict(os.environ)
    # BLAS reads its thread count when numpy loads, so it is set before the child starts
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", TRAIN_SCRIPT, str(DESK_CONFIG), str(tmp_path)],
                   env=env, check=True, timeout=600)
    assert _state_hash(tmp_path / "checkpoint_000002.npz") == GOLDEN_STATE
    assert _metrics_hash(tmp_path / "metrics.csv") == GOLDEN_METRICS


def test_eval_golden_hash(desk_fit, tmp_path):
    """A 2 s, n=1 eval of the fresh desk policy at 0.5 m/s, hashed over its
    trace array and over the bytes of its trace.csv."""
    cfg, planner, _report = desk_fit
    policy = _new_policy(cfg, cfg.train.lr_init)
    trace = tmp_path / "trace.csv"
    _summary, data = run_eval(cfg, planner, policy, constant_profile(0.5), 2.0, trace_path=trace)
    h = hashlib.sha256(str(data.shape).encode())
    h.update(np.ascontiguousarray(data, dtype=float).tobytes())
    assert h.hexdigest() == GOLDEN_EVAL
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == GOLDEN_TRACE_CSV
