import numpy as np
import pytest

from conftest import assert_config_rejects, assert_same_bits, with_special_lanes
from cpgrl.oscillator import (
    BURN_IN_TICKS,
    CLOSURE_TOL,
    NoOscillation,
    OscillatorParams,
    PeriodicOrbit,
    find_limit_cycle,
    step_oscillator,
)

PARAMS = OscillatorParams()  # phi=pi/60, alpha=0.01, 200 Hz

# pinned from the long-run iteration oracle: amplitude after 10,000 ticks from
# (0.2, 0), and the amplitude band over one converged cycle
GOLDEN_AMPLITUDE = 0.19595870977857882
AMPLITUDE_BAND = (0.19506676662670452, 0.20135489262012674)


def amplitude(state):
    return float(np.hypot(*state))


def test_origin_is_fixed_point():
    out = step_oscillator(np.float64(0.0), np.float64(0.0), PARAMS)
    assert out[0] == 0.0 and out[1] == 0.0


def test_linearization_near_origin():
    eps = 1e-6
    out = step_oscillator(np.float64(eps), np.float64(0.0), PARAMS)
    expected = 1.01 * eps * np.array([np.cos(np.pi / 60), -np.sin(np.pi / 60)])
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_long_run_amplitude_golden():
    s = (np.float64(0.2), np.float64(0.0))
    hist = []
    for _ in range(10000):
        s = step_oscillator(*s, PARAMS)
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
            s = step_oscillator(*s, PARAMS)
            assert np.all(np.abs(s) < 1.0)


def test_attractivity_from_varied_starts():
    lo, hi = AMPLITUDE_BAND
    rng = np.random.default_rng(1)
    norms = [1e-3, 0.05, 0.3, 0.99]
    for norm in norms:
        theta = rng.uniform(0, 2 * np.pi)
        s = norm * np.array([np.cos(theta), np.sin(theta)])
        for _ in range(10000):
            s = step_oscillator(*s, PARAMS)
        assert lo - 1e-4 <= amplitude(s) <= hi + 1e-4


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
    """One state at a time equals each lane of the stacked step."""
    rng = np.random.default_rng(sum(lead) + 1)
    state = with_special_lanes(rng, lead + (2,))
    stacked = stack_step_oscillator(state, PARAMS)
    for i in np.ndindex(lead):
        o0, o1 = step_oscillator(*state[i], PARAMS)
        assert type(o0) is type(o1) is np.float64
        assert_same_bits([o0, o1], stacked[i])


def array_find_limit_cycle(params):
    """The earlier find_limit_cycle, which stepped a (2,) state array with the
    broadcasting step and returned (samples, period) or raised ValueError."""
    def step(state):
        o0, o1 = state[..., 0], state[..., 1]
        gain = 1.0 + params.alpha
        c, s = np.cos(params.phi), np.sin(params.phi)
        out = np.empty(state.shape)
        out[..., 0] = np.tanh(gain * (c * o0 + s * o1))
        out[..., 1] = np.tanh(gain * (-s * o0 + c * o1))
        return out

    state = np.array([0.2, 0.0])
    for _ in range(BURN_IN_TICKS):
        state = step(state)
    crossings, samples, prev = [], [], state
    for _ in range(int(np.ceil(10.0 * params.analytic_period))):
        cur = step(prev)
        samples.append(cur)
        if prev[1] <= 0.0 < cur[1]:
            crossings.append(len(samples) - 1)
            if len(crossings) == 2:
                first, second = crossings
                samples = np.asarray(samples[first:second])
                err = np.max(np.abs(step(samples[-1]) - samples[0]))
                if err > 1e-2:
                    raise ValueError(f"orbit does not close: max component error {err:.3e}")
                return samples, second - first
        prev = cur
    raise AssertionError("no period")


@pytest.mark.parametrize("phi, alpha", [
    (np.pi / 60, 0.01), (0.1047, 0.01), (0.05, 0.02), (0.07, 0.01), (np.pi / 30, 0.05),
    (0.04, 0.01), (0.3, 0.1), (0.2, 0.01)])
def test_find_limit_cycle_bitwise_equal_to_array_loop(phi, alpha):
    """Same samples and period bit for bit as the (2,)-array loop; where that
    loop's orbit does not close, the same message."""
    params = OscillatorParams(phi=phi, alpha=alpha)
    try:
        samples, period = array_find_limit_cycle(params)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            find_limit_cycle(params)
        return
    orbit = find_limit_cycle(params)
    assert orbit.period_ticks == period
    assert_same_bits(orbit.samples, samples)


def test_limit_cycle_period_default():
    orbit = find_limit_cycle(PARAMS)
    assert abs(orbit.period_ticks - 120) <= 1
    assert orbit.samples.shape == (orbit.period_ticks, 2)
    assert 1.5 <= orbit.frequency(200.0) <= 1.8  # one tick per 5 ms substep


def test_limit_cycle_period_double_speed():
    orbit = find_limit_cycle(OscillatorParams(phi=np.pi / 30))
    assert abs(orbit.period_ticks - 60) <= 1


@pytest.mark.parametrize("phi", [np.pi / 120, np.pi / 60, np.pi / 30])
def test_period_scaling(phi):
    orbit = find_limit_cycle(OscillatorParams(phi=phi))
    assert orbit.period_ticks * phi == pytest.approx(2 * np.pi, rel=0.02)


def test_orbit_closure():
    orbit = find_limit_cycle(PARAMS)
    wrapped = step_oscillator(*orbit.samples[-1], PARAMS)
    assert np.max(np.abs(np.subtract(wrapped, orbit.samples[0]))) < CLOSURE_TOL


def test_no_oscillation_for_contracting_gain():
    with pytest.raises(NoOscillation):
        find_limit_cycle(OscillatorParams(alpha=-0.5))


def test_params_validation():
    """The oscillator's parameters are checked as config keys."""
    assert_config_rejects("cpg.phi", 0.0)
    assert_config_rejects("cpg.alpha", 0.0)


def test_orbit_validate_rejects_bad_shape():
    orbit = find_limit_cycle(PARAMS)
    bad = PeriodicOrbit(samples=orbit.samples[:-1], period_ticks=orbit.period_ticks)
    with pytest.raises(ValueError):
        bad.validate(PARAMS)
