"""Two-neuron SO(2) oscillator and limit-cycle extraction.

The oscillator state is a plain ndarray [o0, o1]; every function here
broadcasts over arbitrary leading axes, so a (n_envs, 2) batch steps with
the same call as a single (2,) state.
"""

from dataclasses import dataclass, field

import numpy as np


class NoOscillation(RuntimeError):
    """Raised when the state decays to the origin instead of oscillating."""


class PeriodNotFound(RuntimeError):
    """Raised when no zero crossing appears within the search budget."""


@dataclass(frozen=True)
class OscillatorParams:
    """Parameters of the recurrent map o' = tanh((1+alpha) * R(phi) * o)."""

    phi: float = np.pi / 60.0  # rotation per tick, rad; sets the period 2*pi/phi
    alpha: float = 0.01        # gain offset; recurrent gain 1+alpha must exceed 1
    tick_rate: float = 200.0   # oscillator ticks per second

    def validate(self) -> None:
        if not (0.0 < self.phi < np.pi):
            raise ValueError(f"phi must be in (0, pi), got {self.phi}")
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be > 0 for a limit cycle, got {self.alpha}")
        if self.tick_rate <= 0.0:
            raise ValueError(f"tick_rate must be > 0, got {self.tick_rate}")

    @property
    def analytic_period(self) -> float:
        return 2.0 * np.pi / self.phi


@dataclass(frozen=True)
class PeriodicOrbit:
    """One period of the converged oscillator trajectory.

    samples[i] is the state i ticks after the detected cycle start; stepping
    samples[-1] once returns (within closure_tol) to samples[0].

    The closure is approximate: the componentwise tanh makes the true period
    slightly non-integer (120.36 ticks for phi=pi/60, alpha=0.01), so the best
    integer-period closure is ~amplitude*phi*frac(true period), a few 1e-3.
    Downstream consumers cycle the stored samples, which is exactly periodic.
    """

    samples: np.ndarray  # (period_ticks, 2)
    period_ticks: int
    closure_tol: float = field(default=1e-2, repr=False)

    def validate(self, params: OscillatorParams) -> None:
        if self.samples.shape != (self.period_ticks, 2):
            raise ValueError("samples must have shape (period_ticks, 2)")
        wrapped = step_oscillator(self.samples[-1], params)
        err = np.max(np.abs(wrapped - self.samples[0]))
        if err > self.closure_tol:
            raise ValueError(f"orbit does not close: max component error {err:.3e}")

    def frequency(self, tick_rate: float) -> float:
        """Oscillation frequency in Hz when ticked at tick_rate."""
        return tick_rate / self.period_ticks


def step_oscillator(state, params: OscillatorParams) -> np.ndarray:
    """Advance the oscillator one tick; pure, broadcasts over leading axes."""
    state = np.asarray(state, dtype=np.float64)
    o0 = state[..., 0]
    o1 = state[..., 1]
    gain = 1.0 + params.alpha
    c = np.cos(params.phi)
    s = np.sin(params.phi)
    out = np.empty(state.shape)
    out[..., 0] = np.tanh(gain * (c * o0 + s * o1))
    out[..., 1] = np.tanh(gain * (-s * o0 + c * o1))
    return out


# any non-zero point inside the basin works; attractivity pulls it onto the cycle
_SEED_STATE = np.array([0.2, 0.0])


def find_limit_cycle(params: OscillatorParams, burn_in_ticks: int) -> PeriodicOrbit:
    """Iterate to convergence, then sample one period of the limit cycle.

    The period is the integer tick count between consecutive positive-going
    zero crossings of o1 (no sub-tick interpolation: RBF centers index whole
    orbit samples).
    """
    if burn_in_ticks < 5000:
        raise ValueError("burn_in_ticks must be >= 5000 for convergence")
    # alpha is deliberately not validated here: a non-oscillating gain is
    # reported through NoOscillation after the burn-in, not as a ValueError
    if not (0.0 < params.phi < np.pi):
        raise ValueError(f"phi must be in (0, pi), got {params.phi}")

    state = _SEED_STATE.copy()
    for _ in range(burn_in_ticks):
        state = step_oscillator(state, params)

    if float(np.hypot(state[0], state[1])) < 1e-4:
        raise NoOscillation(
            f"amplitude {np.hypot(state[0], state[1]):.3e} after burn-in; "
            f"gain {1.0 + params.alpha} does not sustain an oscillation"
        )

    max_ticks = int(np.ceil(10.0 * params.analytic_period))
    crossings: list[int] = []
    samples: list[np.ndarray] = []
    prev = state
    for _ in range(max_ticks):
        cur = step_oscillator(prev, params)
        samples.append(cur)
        if prev[1] <= 0.0 < cur[1]:
            crossings.append(len(samples) - 1)
            if len(crossings) == 2:
                first, second = crossings
                orbit = PeriodicOrbit(
                    samples=np.asarray(samples[first:second]),
                    period_ticks=second - first,
                )
                orbit.validate(params)
                return orbit
        prev = cur
    raise PeriodNotFound(f"no period found within {max_ticks} ticks")
