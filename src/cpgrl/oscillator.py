"""Two-neuron SO(2) oscillator and limit-cycle extraction.

The oscillator steps one state (o0, o1) of numpy float64 scalars at a time;
the limit cycle is stored as a (period_ticks, 2) array of such states.
"""

from dataclasses import dataclass

import numpy as np


class NoOscillation(ValueError):
    """Raised when the state decays to the origin instead of oscillating."""


class PeriodNotFound(ValueError):
    """Raised when no zero crossing appears within the search budget."""


@dataclass(frozen=True)
class OscillatorParams:
    """Parameters of the recurrent map o' = tanh((1+alpha) * R(phi) * o)."""

    phi: float = np.pi / 60.0  # rotation per tick, rad; sets the period 2*pi/phi
    alpha: float = 0.01        # gain offset; recurrent gain 1+alpha must exceed 1

    @property
    def analytic_period(self) -> float:
        return 2.0 * np.pi / self.phi


@dataclass(frozen=True)
class PeriodicOrbit:
    """One period of the converged oscillator trajectory.

    samples[i] is the state i ticks after the detected cycle start; stepping
    samples[-1] once returns (within CLOSURE_TOL) to samples[0].

    The closure is approximate: the componentwise tanh makes the true period
    slightly non-integer (120.36 ticks for phi=pi/60, alpha=0.01), so the best
    integer-period closure is ~amplitude*phi*frac(true period), a few 1e-3.
    Downstream consumers cycle the stored samples, which is exactly periodic.
    """

    samples: np.ndarray  # (period_ticks, 2)
    period_ticks: int

    def validate(self, params: OscillatorParams) -> None:
        if self.samples.shape != (self.period_ticks, 2):
            raise ValueError("samples must have shape (period_ticks, 2)")
        o0, o1 = step_oscillator(*self.samples[-1], params)
        err = max(abs(o0 - self.samples[0, 0]), abs(o1 - self.samples[0, 1]))
        if err > CLOSURE_TOL:
            raise ValueError(f"orbit does not close: max component error {err:.3e}")

    def frequency(self, tick_rate: float) -> float:
        """Oscillation frequency in Hz when ticked at tick_rate."""
        return tick_rate / self.period_ticks


# largest componentwise gap allowed between samples[0] and samples[-1] stepped once
CLOSURE_TOL = 1e-2


def step_oscillator(o0, o1, params: OscillatorParams):
    """Advance the state (o0, o1) one tick; returns the new (o0, o1).

    np.tanh, not math.tanh: the two differ in the last bit on some inputs,
    and the orbit samples are pinned to np.tanh's.
    """
    gain = 1.0 + params.alpha
    c = np.cos(params.phi)
    s = np.sin(params.phi)
    return np.tanh(gain * (c * o0 + s * o1)), np.tanh(gain * (-s * o0 + c * o1))


# any non-zero point inside the basin works; attractivity pulls it onto the cycle
_SEED_STATE = (np.float64(0.2), np.float64(0.0))

# ticks iterated before the period search, enough to converge onto the cycle
BURN_IN_TICKS = 5000


def find_limit_cycle(params: OscillatorParams) -> PeriodicOrbit:
    """Iterate to convergence, then sample one period of the limit cycle.

    The period is the integer tick count between consecutive positive-going
    zero crossings of o1 (no sub-tick interpolation: RBF centers index whole
    orbit samples).
    """
    # alpha is deliberately not validated here: a non-oscillating gain is
    # reported through NoOscillation after the burn-in
    if not (0.0 < params.phi < np.pi):
        raise ValueError(f"phi must be in (0, pi), got {params.phi}")

    o0, o1 = _SEED_STATE
    for _ in range(BURN_IN_TICKS):
        o0, o1 = step_oscillator(o0, o1, params)

    amplitude = np.hypot(o0, o1)
    if amplitude < 1e-4:
        raise NoOscillation(
            f"amplitude {amplitude:.3e} after burn-in; "
            f"gain {1.0 + params.alpha} does not sustain an oscillation"
        )

    max_ticks = int(np.ceil(10.0 * params.analytic_period))
    crossings: list[int] = []
    samples: list[tuple] = []
    for _ in range(max_ticks):
        prev1 = o1
        o0, o1 = step_oscillator(o0, o1, params)
        samples.append((o0, o1))
        if prev1 <= 0.0 < o1:
            crossings.append(len(samples) - 1)
            if len(crossings) == 2:
                first, second = crossings
                orbit = PeriodicOrbit(
                    samples=np.array(samples[first:second]),
                    period_ticks=second - first,
                )
                orbit.validate(params)
                return orbit
    raise PeriodNotFound(f"no period found within {max_ticks} ticks")
