import numpy as np
import pytest

from conftest import assert_same_bits, with_special_lanes
from cpgrl.config import RunConfig
from cpgrl.oscillator import (
    NoOscillation,
    OscillatorParams,
    PeriodicOrbit,
    find_limit_cycle,
    step_oscillator,
)

PARAMS = OscillatorParams()  # phi=pi/60, alpha=0.01, 200 Hz
BURN_IN = RunConfig().planner.burn_in_ticks

# pinned from the long-run iteration oracle: amplitude after 10,000 ticks from
# (0.2, 0), and the amplitude band over one converged cycle
GOLDEN_AMPLITUDE = 0.19595870977857882
AMPLITUDE_BAND = (0.19506676662670452, 0.20135489262012674)


def amplitude(state):
    return float(np.hypot(state[..., 0], state[..., 1]))


def test_origin_is_fixed_point():
    out = step_oscillator(np.zeros(2), PARAMS)
    assert out[0] == 0.0 and out[1] == 0.0


def test_linearization_near_origin():
    eps = 1e-6
    out = step_oscillator(np.array([eps, 0.0]), PARAMS)
    expected = 1.01 * eps * np.array([np.cos(np.pi / 60), -np.sin(np.pi / 60)])
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_long_run_amplitude_golden():
    s = np.array([0.2, 0.0])
    hist = []
    for _ in range(10000):
        s = step_oscillator(s, PARAMS)
        hist.append(amplitude(s))
    assert hist[-1] == pytest.approx(GOLDEN_AMPLITUDE, abs=1e-12)
    # phase slip (true period 120.36 ticks) caps same-tick-offset amplitude
    # constancy at ~2e-4; converged means the residual stays under 5e-4
    assert abs(hist[-1] - hist[-121]) < 5e-4


def test_boundedness():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = rng.uniform(-0.99, 0.99, size=2)
        for _ in range(500):
            s = step_oscillator(s, PARAMS)
            assert np.all(np.abs(s) < 1.0)


def test_attractivity_from_varied_starts():
    lo, hi = AMPLITUDE_BAND
    rng = np.random.default_rng(1)
    norms = [1e-3, 0.05, 0.3, 0.99]
    for norm in norms:
        theta = rng.uniform(0, 2 * np.pi)
        s = norm * np.array([np.cos(theta), np.sin(theta)])
        for _ in range(10000):
            s = step_oscillator(s, PARAMS)
        assert lo - 1e-4 <= amplitude(s) <= hi + 1e-4


def test_batched_step_matches_scalar():
    rng = np.random.default_rng(2)
    batch = rng.uniform(-0.5, 0.5, size=(7, 2))
    stepped = step_oscillator(batch, PARAMS)
    for i in range(7):
        np.testing.assert_array_equal(stepped[i], step_oscillator(batch[i], PARAMS))


def stack_step_oscillator(state, params):
    """The earlier step_oscillator, which stacked its two tanh lanes."""
    o0, o1 = state[..., 0], state[..., 1]
    gain = 1.0 + params.alpha
    c, s = np.cos(params.phi), np.sin(params.phi)
    return np.stack(
        [np.tanh(gain * (c * o0 + s * o1)), np.tanh(gain * (-s * o0 + c * o1))], axis=-1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lead", [(), (1,), (64,), (1024,)])
def test_step_bitwise_equal_to_stack_form(lead):
    rng = np.random.default_rng(sum(lead) + 1)
    state = with_special_lanes(rng, lead + (2,))
    stepped = step_oscillator(state, PARAMS)
    assert_same_bits(stepped, stack_step_oscillator(state, PARAMS))
    for i in np.ndindex(lead):
        assert_same_bits(stepped[i], stack_step_oscillator(state[i], PARAMS))


def test_limit_cycle_period_default():
    orbit = find_limit_cycle(PARAMS, BURN_IN)
    assert abs(orbit.period_ticks - 120) <= 1
    assert orbit.samples.shape == (orbit.period_ticks, 2)
    assert 1.5 <= orbit.frequency(PARAMS.tick_rate) <= 1.8


def test_limit_cycle_period_double_speed():
    orbit = find_limit_cycle(OscillatorParams(phi=np.pi / 30), BURN_IN)
    assert abs(orbit.period_ticks - 60) <= 1


@pytest.mark.parametrize("phi", [np.pi / 120, np.pi / 60, np.pi / 30])
def test_period_scaling(phi):
    orbit = find_limit_cycle(OscillatorParams(phi=phi), BURN_IN)
    assert orbit.period_ticks * phi == pytest.approx(2 * np.pi, rel=0.02)


def test_orbit_closure():
    orbit = find_limit_cycle(PARAMS, BURN_IN)
    wrapped = step_oscillator(orbit.samples[-1], PARAMS)
    assert np.max(np.abs(wrapped - orbit.samples[0])) < orbit.closure_tol


def test_no_oscillation_for_contracting_gain():
    with pytest.raises(NoOscillation):
        find_limit_cycle(OscillatorParams(alpha=-0.5), BURN_IN)


def test_burn_in_minimum_enforced():
    with pytest.raises(ValueError):
        find_limit_cycle(PARAMS, burn_in_ticks=100)


def test_params_validation():
    with pytest.raises(ValueError):
        OscillatorParams(phi=0.0).validate()
    with pytest.raises(ValueError):
        OscillatorParams(alpha=0.0).validate()
    with pytest.raises(ValueError):
        OscillatorParams(tick_rate=-1.0).validate()


def test_orbit_validate_rejects_bad_shape():
    orbit = find_limit_cycle(PARAMS, BURN_IN)
    bad = PeriodicOrbit(samples=orbit.samples[:-1], period_ticks=orbit.period_ticks)
    with pytest.raises(ValueError):
        bad.validate(PARAMS)
