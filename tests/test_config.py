import re
from pathlib import Path

import numpy as np
import pytest
import yaml
from dataclasses import replace

from conftest import config_with
from cpgrl.config import (
    DOMAINS,
    ConfigError,
    RunConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    leaves,
    load_config,
    save_config,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
DEFAULTS = dict(leaves(config_to_dict(RunConfig())))


def test_default_config_validates():
    RunConfig().validate()


def test_shipped_configs_load():
    # defaults.yaml is documented as the full default tree: every key, no more
    with open(CONFIGS / "defaults.yaml") as fh:
        assert yaml.safe_load(fh) == config_to_dict(RunConfig())
    assert load_config(CONFIGS / "defaults.yaml") == RunConfig()
    load_config(CONFIGS / "desk_acceptance.yaml")


def test_acceptance_profile_names_every_key():
    """A key left out of the acceptance profile would silently take the
    library default, so the profile states every key, no more."""
    with open(CONFIGS / "desk_acceptance.yaml") as fh:
        profile = yaml.safe_load(fh)
    assert dict(leaves(profile)).keys() == DEFAULTS.keys()


def test_shipped_configs_parse_to_the_same_hash():
    """The type-checked coercion changes no value the shipped configs load to."""
    assert config_hash(load_config(CONFIGS / "defaults.yaml")) == (
        "6bea3a4eff101c020ff098aa22999e1d510dc2eea72cea9425102cc728c16e47")
    assert config_hash(load_config(CONFIGS / "desk_acceptance.yaml")) == (
        "991a05836862a5e00de6e35aefd6189ddbcbd1bb0b06e1783f0ee27c4b8acaf6")


TINY = 5e-324          # the smallest positive float
MAX = np.finfo(float).max
ABOVE_1 = np.nextafter(1.0, 2.0)
BELOW_1 = np.nextafter(1.0, 0.0)
INF = float("inf")

# Per domain of config.DOMAINS: values on its edge, or next to an open end,
# that it holds, and values just outside it.
DOMAIN_EDGES = {
    "finite": ([-MAX, MAX], [-INF, INF]),
    "a finite (low, high) pair": ([[-MAX, MAX], [0.5, 0.5]],
                                  [[-INF, 0.0], [0.0, INF], [0.5, 0.25], [0.0]]),
    "a (low, high) pair with 0 <= low": ([[0.0, 0.0], [0.0, MAX]],
                                         [[-TINY, 1.0], [0.0, INF], [1.0, 0.5], [0.5, 1.0, 2.0]]),
    "positive and finite": ([TINY, MAX], [0.0, INF]),
    "three positive finite numbers": ([[TINY, TINY, MAX]],
                                      [[0.0, 1.0, 1.0], [1.0, 1.0, INF], [1.0, 1.0]]),
    "non-negative and finite": ([0.0, MAX], [-TINY, INF]),
    "in [0, 1]": ([0.0, 1.0], [-TINY, ABOVE_1]),
    "in (0, 1]": ([TINY, 1.0], [0.0, ABOVE_1]),
    "in [0.5, 1)": ([0.5, BELOW_1], [np.nextafter(0.5, 0.0), 1.0]),
    "in (0, pi)": ([TINY, np.nextafter(np.pi, 0.0)], [0.0, np.pi]),
    "an integer >= 1": ([1], [0]),
    "integers >= 1": ([[1], [], [1, 1, 1]], [[0], [256, 0]]),
    "an integer >= 0": ([0], [-1]),
    "true or false": ([True, False], [1, "no"]),
}


def test_every_leaf_has_one_domain():
    """A new config field needs a row in config.DOMAINS, and every domain
    needs its edge values here."""
    keys = [key for _, _, row in DOMAINS for key in row.split()]
    assert sorted(keys) == sorted(DEFAULTS)
    assert {text for text, _, _ in DOMAINS} == DOMAIN_EDGES.keys()


@pytest.mark.parametrize("key", sorted(DEFAULTS))
def test_domain_edges(key):
    """NaN and a value just outside the key's domain fail, naming the key;
    a value on the edge passes the domain, though a cross-field rule (the
    policy period for sim.dt, say) may still refuse it."""
    text = next(text for text, _, row in DOMAINS if key in row.split())
    inside, outside = DOMAIN_EDGES[text]
    default = DEFAULTS[key]
    nan = [float("nan"), *default[1:]] if isinstance(default, list) else float("nan")
    for value in (nan, *outside):
        with pytest.raises(ConfigError, match=re.escape(key)):
            config_from_dict(config_with(key, value))
    for value in inside:
        try:
            config_from_dict(config_with(key, value))
        except ConfigError as exc:
            assert f"{key} must be {text}" not in str(exc)


@pytest.mark.parametrize("key, value", [
    ("train.n_envs", 2.7),          # was cut to 2
    ("seed", 3.9),                  # was cut to 3
    ("dr.add_noise", "no"),         # was True
    ("dr.add_noise", 0),
    ("train.n_envs", True),
    ("sim.gravity", True),
    ("sim.gravity", "9.81"),
    ("train.hidden", [0.5, 256, 128]),
    ("train.hidden", 128),
    ("commands.vx_range", 1.0),
    ("sim.trunk_inertia", [0.1, 0.25]),
])
def test_a_value_of_another_type_is_rejected(key, value):
    with pytest.raises(ConfigError, match=re.escape(key)):
        config_from_dict(config_with(key, value))


def test_an_int_widens_and_an_integral_float_narrows():
    cfg = config_from_dict({"sim": {"gravity": 10, "trunk_inertia": [1, 2, 3]},
                            "train": {"n_envs": 8.0, "hidden": [64.0, 32]}})
    assert type(cfg.sim.gravity) is float and cfg.sim.gravity == 10.0
    assert all(type(x) is float for x in cfg.sim.trunk_inertia)
    assert type(cfg.train.n_envs) is int and cfg.train.n_envs == 8
    assert cfg.train.hidden == (64, 32) and all(type(x) is int for x in cfg.train.hidden)


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
    # the standing pose puts each foot below its hip, so the height must be in the leg's reach
    for height, thigh in ((1.0, 0.213), (0.426, 0.213), (0.1, 0.4)):
        with pytest.raises(ConfigError, match="robot.stand_height"):
            config_from_dict({"robot": {"stand_height": height, "thigh_len": thigh}})


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
