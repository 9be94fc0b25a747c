"""Golden hashes of a short desk-profile training run and a short eval.

Any change to the arithmetic of the env, the reward, the policy or the update
changes the training hash; any change to the eval path (observation, env step,
trace rows) changes the eval hash. A refactor that must be bit-identical keeps the literal; a
change that alters the numerics on purpose updates it and says so.

The literal was taken with numpy 2.4 on x86-64 (OpenBLAS); another BLAS or
libm may round differently and give another hash with no change to the code.
"""

import csv
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from cpgrl.config import load_config
from cpgrl.evaluate import constant_profile, run_eval
from cpgrl.training import _new_policy, planner_from_config, train

DESK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "desk_acceptance.yaml"

GOLDEN_STATE = "2cf746edae6b71bbcd0657e7d6d538c7d55fb6e68fecf7efb020be6e61af8fd5"
GOLDEN_METRICS = "a47e469b23a50872abb4a969c2772da369f6760ac12accfaf4edaea7b262000e"
GOLDEN_EVAL = "74226072b4106e6ecb242efbed36e74e435dba0d0aa8c9d713a21f89ad5a7fa6"


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


def test_desk_training_golden_hash(tmp_path):
    cfg = load_config(DESK_CONFIG)
    cfg = replace(cfg, train=replace(cfg.train, n_envs=8, iterations=2, checkpoint_every=2))
    planner, _report = planner_from_config(cfg)
    metrics = train(cfg, planner, tmp_path, log=None)
    assert _state_hash(tmp_path / "checkpoint_000002.npz") == GOLDEN_STATE
    assert _metrics_hash(metrics) == GOLDEN_METRICS


def test_eval_golden_hash():
    """A 2 s, n=1 eval of the fresh desk policy at 0.5 m/s, hashed over its trace."""
    cfg = load_config(DESK_CONFIG)
    planner, _report = planner_from_config(cfg)
    policy = _new_policy(cfg, cfg.train.lr_init)
    _summary, data = run_eval(cfg, planner, policy, constant_profile(0.5), 2.0)
    h = hashlib.sha256(str(data.shape).encode())
    h.update(np.ascontiguousarray(data, dtype=float).tobytes())
    assert h.hexdigest() == GOLDEN_EVAL
