from pathlib import Path

import numpy as np
import pytest
import yaml
from dataclasses import replace

from cpgrl.config import (
    ConfigError,
    RunConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    load_config,
    save_config,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_default_config_validates():
    RunConfig().validate()


def test_shipped_configs_load():
    # defaults.yaml is documented as the full default tree: every key, no more
    with open(CONFIGS / "defaults.yaml") as fh:
        assert yaml.safe_load(fh) == config_to_dict(RunConfig())
    assert load_config(CONFIGS / "defaults.yaml") == RunConfig()
    load_config(CONFIGS / "desk_acceptance.yaml")


def leaf_keys(tree, prefix=""):
    keys = set()
    for name, value in tree.items():
        if isinstance(value, dict):
            keys |= leaf_keys(value, f"{prefix}{name}.")
        else:
            keys.add(prefix + name)
    return keys


def test_acceptance_profile_names_every_key():
    """A key left out of the acceptance profile would silently take the
    library default, so the profile states every key, no more."""
    with open(CONFIGS / "desk_acceptance.yaml") as fh:
        profile = yaml.safe_load(fh)
    assert leaf_keys(profile) == leaf_keys(config_to_dict(RunConfig()))


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
    # the slope is sim.slope_rad, and the reward's trunk height is robot.stand_height
    with pytest.raises(ConfigError, match="unknown keys"):
        config_from_dict({"terrain": {"kind": "slope"}})
    with pytest.raises(ConfigError, match=r"reward: unknown keys \['h_star'\]"):
        config_from_dict({"reward": {"h_star": 0.32}})
    for slope in (np.pi / 2, -2.0, float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="slope_rad"):
            config_from_dict({"sim": {"slope_rad": slope}})
    with pytest.raises(ConfigError):
        config_from_dict({"train": {"n_envs": 0}})
    with pytest.raises(ConfigError):
        config_from_dict({"cpg": {"phi": -1.0}})
    with pytest.raises(ConfigError):
        config_from_dict({"commands": {"vx_range": [1.0, -1.0]}})
    # the oscillator ticks once per substep of sim.dt; it has no rate of its own
    with pytest.raises(ConfigError, match=r"cpg: unknown keys \['tick_rate'\]"):
        config_from_dict({"cpg": {"tick_rate": 200.0}})
    with pytest.raises(ConfigError, match="minibatch"):
        config_from_dict({"train": {"n_envs": 1, "horizon": 2, "ppo": {"n_minibatches": 4}}})
    for width in (-0.1, float("inf"), float("nan")):
        with pytest.raises(ConfigError):
            config_from_dict({"dr": {"noise_joint_vel": width}})
    # the env filters with this alpha unchecked, so the config must hold it in (0, 1]
    for alpha in (0.0, -0.1, 1.5, float("nan")):
        with pytest.raises(ConfigError, match="filter_alpha"):
            config_from_dict({"robot": {"filter_alpha": alpha}})
    # an impulse is drawn within the curriculum's cap, which starts at cap_init
    with pytest.raises(ConfigError, match="cap_init"):
        config_from_dict({"curriculum": {"cap_init": -0.1}})
    with pytest.raises(ConfigError, match="cap_init"):
        config_from_dict({"curriculum": {"cap_init": 2.0, "cap_max": 1.8}})
    with pytest.raises(ConfigError, match="interval_floor"):
        config_from_dict({"curriculum": {"interval_floor": 0.0}})
    # a substep count of 1/(50 * dt) = 6.67: the 20 ms policy step is no whole substep count
    with pytest.raises(ConfigError, match="divide the policy period"):
        config_from_dict({"sim": {"dt": 0.003}})
    for lr in (0.0, -1e-3):
        with pytest.raises(ConfigError, match="lr_init"):
            config_from_dict({"train": {"lr_init": lr}})
    # lr_min > lr_max would clamp every adapted rate to lr_max
    for lr_min, lr_max in ((0.0, 1e-2), (-1e-6, 1e-2), (1e-2, 1e-3)):
        with pytest.raises(ConfigError, match="lr_min"):
            config_from_dict({"train": {"ppo": {"lr_min": lr_min, "lr_max": lr_max}}})
    for interval in (0.0, -10.0):
        with pytest.raises(ConfigError, match="resample_interval"):
            config_from_dict({"commands": {"resample_interval": interval}})


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
    # flat is exactly (+0.0, 0.0, 1.0): a -0.0 would flip zero signs in the contact sums
    assert params.terrain_normal.tobytes() == np.array([0.0, 0.0, 1.0]).tobytes()
    angle = np.radians(10.0)
    sloped = replace(cfg, sim=replace(cfg.sim, slope_rad=angle))
    normal = sloped.env_params().terrain_normal
    np.testing.assert_array_equal(normal, [-np.sin(angle), 0.0, np.cos(angle)])


def test_leg_geometry_builder():
    geom = RunConfig().leg_geometry()
    assert geom.hip_mounts.shape == (4, 3)
    # FR is right side (negative y), FL left
    assert geom.hip_mounts[0, 1] < 0 < geom.hip_mounts[1, 1]
    np.testing.assert_array_equal(geom.side_signs, [-1, 1, -1, 1])
