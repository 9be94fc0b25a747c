import numpy as np
import pytest

from cpgrl.config import RunConfig
from cpgrl.gait_planner import MotorLayer, build_planner, fitted_planner


@pytest.fixture(scope="session")
def planner():
    """A planner with a small random motor map: cheap, no behavior cloning."""
    cfg = RunConfig()
    model = build_planner(cfg.cpg, h=cfg.planner.h, sigma=cfg.planner.sigma,
                          nominal_q=cfg.env_params().nominal_q)
    rng = np.random.default_rng(0)
    motor = MotorLayer(weights=rng.normal(scale=0.02, size=(cfg.planner.h, 12)),
                       bias=cfg.env_params().nominal_q)
    return fitted_planner(model, motor)
