"""Quadruped locomotion: an oscillator-driven gait planner fitted by
behavior cloning, plus a residual PPO feedback policy trained in a
desk-scale contact simulator."""

__version__ = "0.1.0"

from .config import RunConfig, load_config, save_config
from .gait_planner import (
    GaitPlannerModel,
    build_planner,
    fit_motor_layer,
    generate_demo_trot,
    load_planner_model,
    save_planner_model,
)
from .oscillator import OscillatorParams, find_limit_cycle, step_oscillator
from .simulator import EnvParams

__all__ = [
    "RunConfig",
    "load_config",
    "save_config",
    "GaitPlannerModel",
    "build_planner",
    "fit_motor_layer",
    "generate_demo_trot",
    "load_planner_model",
    "save_planner_model",
    "OscillatorParams",
    "find_limit_cycle",
    "step_oscillator",
    "EnvParams",
    "__version__",
]
