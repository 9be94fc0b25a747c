import numpy as np
import pytest
from dataclasses import replace

from cpgrl.config import (
    ConfigError,
    RunConfig,
    config_from_dict,
    config_hash,
    load_config,
    save_config,
)


def test_default_config_validates():
    RunConfig().validate()


def test_yaml_round_trip(tmp_path):
    cfg = RunConfig()
    path = tmp_path / "config.yaml"
    save_config(cfg, path)
    back = load_config(path)
    assert back == cfg
    assert config_hash(back) == config_hash(cfg)


def test_unknown_keys_rejected(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("cpg:\n  phi: 0.05\n  wobble: 3\n")
    with pytest.raises(ConfigError, match="wobble"):
        load_config(path)


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="turbo"):
        config_from_dict({"turbo": True})


def test_partial_override(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text("seed: 5\nrobot:\n  stand_height: 0.3\n")
    cfg = load_config(path)
    assert cfg.seed == 5
    assert cfg.robot.stand_height == 0.3
    assert cfg.robot.thigh_len == 0.213  # untouched default


def test_validation_catches_bad_values():
    with pytest.raises(ConfigError):
        config_from_dict({"terrain": {"kind": "lava"}})
    with pytest.raises(ConfigError):
        config_from_dict({"train": {"n_envs": 0}})
    with pytest.raises(ConfigError):
        config_from_dict({"cpg": {"phi": -1.0}})
    with pytest.raises(ConfigError):
        config_from_dict({"commands": {"vx_range": [1.0, -1.0]}})
    with pytest.raises(ConfigError):
        config_from_dict({"cpg": {"tick_rate": 100.0}})  # != 1/sim.dt
    with pytest.raises(ConfigError, match="minibatch"):
        config_from_dict({"train": {"n_envs": 1, "horizon": 2, "ppo": {"n_minibatches": 4}}})
    for width in (-0.1, float("inf"), float("nan")):
        with pytest.raises(ConfigError):
            config_from_dict({"dr": {"noise_joint_vel": width}})
    # the env filters with this alpha unchecked, so the config must hold it in (0, 1]
    for alpha in (0.0, -0.1, 1.5, float("nan")):
        with pytest.raises(ConfigError, match="filter_alpha"):
            config_from_dict({"robot": {"filter_alpha": alpha}})


def test_hash_ignores_run_length():
    cfg = RunConfig()
    longer = replace(cfg, train=replace(cfg.train, iterations=999))
    assert config_hash(cfg) == config_hash(longer)
    other = replace(cfg, seed=1)
    assert config_hash(cfg) != config_hash(other)


def test_env_params_builder():
    cfg = RunConfig()
    params = cfg.env_params()
    assert params.trunk_mass == cfg.sim.trunk_mass
    assert params.kp == cfg.robot.kp
    np.testing.assert_array_equal(params.terrain_normal, [0.0, 0.0, 1.0])
    sloped = replace(cfg, terrain=replace(cfg.terrain, kind="slope"))
    normal = sloped.env_params().terrain_normal
    assert normal[2] == pytest.approx(np.cos(cfg.terrain.angle_rad))


def test_leg_geometry_builder():
    geom = RunConfig().leg_geometry()
    assert geom.hip_mounts.shape == (4, 3)
    # FR is right side (negative y), FL left
    assert geom.hip_mounts[0, 1] < 0 < geom.hip_mounts[1, 1]
    np.testing.assert_array_equal(geom.side_signs, [-1, 1, -1, 1])
