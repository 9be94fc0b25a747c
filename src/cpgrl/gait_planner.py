"""Gait planner: RBF layer over the oscillator limit cycle, linear motor
layer to 12 joint targets, a synthetic trot demonstration generator, and
behavior cloning of the motor weights from foot-end trajectories.

The fit runs in two stages: inverse-kinematics targets solved by ridge
least squares (convex warm start), then gradient refinement of the actual
foot-space MSE through the analytic leg Jacobian.
"""

import csv
import os
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .kinematics import (
    LEG_NAMES,
    LegGeometry,
    Unreachable,
    forward_kinematics_all,
    inverse_kinematics,
    joint_torques,
    leg_kinematics,
)
from .oscillator import OscillatorParams, PeriodicOrbit, find_limit_cycle


class TooManyCenters(ValueError):
    """More RBF centers requested than orbit samples available."""


class SingularFit(RuntimeError):
    """RBF design matrix is rank-deficient beyond ridge repair."""


class IkUnreachable(ValueError):
    """A demonstration foot point lies outside the leg workspace."""

    def __init__(self, leg: int, sample: int, cause: Unreachable):
        self.leg = leg
        self.sample = sample
        super().__init__(f"leg {LEG_NAMES[leg]} sample {sample}: {cause}")


class ParseError(ValueError):
    """CSV cell failed to parse; carries row/column location."""

    def __init__(self, row: int, column: str, detail: str):
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column '{column}': {detail}")


class SchemaError(ValueError):
    """CSV structure does not match the demo trajectory schema."""


@dataclass(frozen=True)
class RbfLayer:
    centers: np.ndarray  # (H, 2) points on the oscillator limit cycle
    sigma: float

    def __post_init__(self):
        object.__setattr__(self, "centers", np.asarray(self.centers, dtype=float))
        if self.centers.ndim != 2 or self.centers.shape[1] != 2 or len(self.centers) < 1:
            raise ValueError("centers must be (H, 2) with H >= 1")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @property
    def h(self) -> int:
        return len(self.centers)


@dataclass(frozen=True)
class MotorLayer:
    weights: np.ndarray  # (H, 12)
    bias: np.ndarray     # (12,)

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "bias", np.asarray(self.bias, dtype=float))
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.bias))):
            raise ValueError("motor layer entries must be finite")


@dataclass(frozen=True)
class GaitPlannerModel:
    params: OscillatorParams
    orbit: PeriodicOrbit
    rbf: RbfLayer
    motor: MotorLayer

    def baseline_table(self) -> np.ndarray:
        """(period_ticks, 12) joint targets over one gait cycle."""
        return planner_forward(self.orbit.samples, self)

    def desired_feet_table(self, geometry: LegGeometry) -> np.ndarray:
        """(period_ticks, 4, 3) body-frame foot targets over one cycle."""
        return forward_kinematics_all(self.baseline_table(), geometry)


def sample_rbf_centers(orbit: PeriodicOrbit, h: int) -> np.ndarray:
    """h centers at uniform index spacing along the orbit: floor(i*T/h)."""
    if h > orbit.period_ticks:
        raise TooManyCenters(f"{h} centers > {orbit.period_ticks} orbit samples")
    idx = (np.arange(h) * orbit.period_ticks) // h
    return orbit.samples[idx].copy()


def rbf_activations(state, rbf: RbfLayer) -> np.ndarray:
    """Gaussian activations exp(-dist^2 / sigma^2); (..., 2) -> (..., H)."""
    state = np.asarray(state, dtype=float)
    d0 = state[..., 0:1] - rbf.centers[:, 0]
    d1 = state[..., 1:2] - rbf.centers[:, 1]
    return np.exp(-(d0 * d0 + d1 * d1) / (rbf.sigma * rbf.sigma))


def planner_forward(state, model: GaitPlannerModel) -> np.ndarray:
    """Baseline joint targets for oscillator state(s): (..., 2) -> (..., 12)."""
    acts = rbf_activations(state, model.rbf)
    return acts @ model.motor.weights + model.motor.bias


@dataclass(frozen=True)
class PlannerConfig:
    h: int = 20
    sigma: float = 0.1


def build_planner(params: OscillatorParams, config: PlannerConfig,
                  nominal_q: np.ndarray) -> GaitPlannerModel:
    """Planner with centers on the limit cycle and a zero (unfitted) motor map.

    The bias starts at nominal_q so an unfitted planner holds a pose.
    """
    orbit = find_limit_cycle(params)
    rbf = RbfLayer(centers=sample_rbf_centers(orbit, config.h), sigma=config.sigma)
    motor = MotorLayer(weights=np.zeros((config.h, 12)), bias=nominal_q)
    return GaitPlannerModel(params=params, orbit=orbit, rbf=rbf, motor=motor)


# ------------------------------------------------------------------ demos

@dataclass(frozen=True)
class DemoTrajectory:
    """Per-leg foot-end positions in the body frame, legs FR, FL, RR, RL."""

    feet: np.ndarray          # (4, N, 3) meters
    samples_per_period: int   # samples in one gait cycle, at most N

    def __post_init__(self):
        object.__setattr__(self, "feet", np.asarray(self.feet, dtype=float))

    def validate(self) -> None:
        if self.feet.ndim != 3 or self.feet.shape[0] != 4 or self.feet.shape[2] != 3:
            raise ValueError(f"feet must be (4, N, 3), got {self.feet.shape}")
        if not np.all(np.isfinite(self.feet)):
            raise ValueError("feet contain non-finite values")
        if self.samples_per_period < 8:
            raise ValueError(f"{self.samples_per_period} samples per gait period, too few to "
                             "resolve one gait cycle (at least 8)")
        if self.samples_per_period > self.feet.shape[1]:
            raise ValueError("demo shorter than one gait period")


# trot phasing: diagonal pairs (FR, RL) and (FL, RR); adjacent legs antiphase
_LEG_PHASE = np.array([0.0, 0.5, 0.5, 0.0])


@dataclass(frozen=True)
class DemoConfig:
    """Synthetic trot demonstration parameters for the fitting pipeline.

    The trot is drawn at one sample per orbit tick, so the robot trots at
    1/(period_ticks * sim.dt), 1.667 Hz at the defaults, and a 120-tick orbit
    puts the swing apex exactly on a sample. The backward stance offset keeps
    the support line behind the COM, countering the tail-down pitch that
    stance-sweep friction otherwise induces in an open-loop trot on point feet.
    """

    clearance_front: float = 0.07
    clearance_rear: float = 0.04
    step_length: float = 0.2
    stance_fraction: float = 0.6
    stance_x_offset: float = -0.06


def generate_demo_trot(demo: DemoConfig, geometry: LegGeometry,
                       stand_height: float, n: int) -> DemoTrajectory:
    """One gait cycle of n samples. Parametric trot: linear backward sweep in
    stance at constant height, half-sine vertical lift in swing peaking at
    the per-leg clearance.
    """
    stance_fraction, step_length = demo.stance_fraction, demo.step_length
    clearances = np.array([demo.clearance_front, demo.clearance_front,
                           demo.clearance_rear, demo.clearance_rear])
    feet = np.zeros((4, n, 3))
    u = np.arange(n) / n
    for leg in range(4):
        phase = (u + _LEG_PHASE[leg]) % 1.0
        in_stance = phase < stance_fraction
        x = np.where(
            in_stance,
            step_length * (0.5 - phase / stance_fraction),
            -step_length / 2
            + step_length
            * (1.0 - np.cos(np.pi * (phase - stance_fraction) / (1.0 - stance_fraction)))
            / 2.0,
        )
        z = np.where(
            in_stance,
            -stand_height,
            -stand_height
            + clearances[leg]
            * np.sin(np.pi * (phase - stance_fraction) / (1.0 - stance_fraction)),
        )
        center = geometry.hip_mounts[leg] + np.array(
            [demo.stance_x_offset, geometry.side_signs[leg] * geometry.hip_offset, 0.0]
        )
        feet[leg, :, 0] = center[0] + x
        feet[leg, :, 1] = center[1]
        feet[leg, :, 2] = z
    trajectory = DemoTrajectory(feet=feet, samples_per_period=n)
    trajectory.validate()
    return trajectory


_CSV_COLUMNS = ("t", "leg", "x", "y", "z")


def load_demo_csv(path, gait_frequency: float | None = None) -> DemoTrajectory:
    """Parse a demo trajectory CSV.

    When gait_frequency is omitted the file is assumed to hold exactly one
    gait period; otherwise a period is round(sample_rate / gait_frequency)
    samples, with the sample rate taken from the t column.
    """
    per_leg: dict[str, list] = {name: [] for name in LEG_NAMES}
    times: dict[str, list] = {name: [] for name in LEG_NAMES}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file") from None
        header = [h.strip() for h in header]
        missing = [c for c in _CSV_COLUMNS if c not in header]
        if missing:
            raise SchemaError(f"missing columns: {missing}")
        col = {name: header.index(name) for name in _CSV_COLUMNS}
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            leg = row[col["leg"]].strip()
            if leg not in per_leg:
                raise ParseError(row_num, "leg", f"unknown leg '{leg}'")
            point = []
            for name in ("t", "x", "y", "z"):
                raw = row[col[name]].strip()
                try:
                    value = float(raw)
                except ValueError:
                    raise ParseError(row_num, name, f"not a number: '{raw}'") from None
                if not np.isfinite(value):
                    raise ParseError(row_num, name, f"non-finite value '{raw}'")
                point.append(value)
            times[leg].append(point[0])
            per_leg[leg].append(point[1:])

    lengths = {name: len(rows) for name, rows in per_leg.items()}
    present = [name for name, n in lengths.items() if n > 0]
    if len(present) != 4:
        raise SchemaError(f"need all four legs, found {present} with rows")
    if len(set(lengths.values())) != 1:
        raise SchemaError(f"legs have different lengths: {lengths}")

    n = lengths[LEG_NAMES[0]]
    if n < 2:
        raise SchemaError("need at least two samples per leg")
    t0 = np.asarray(times[LEG_NAMES[0]])
    for name in LEG_NAMES:
        t = np.asarray(times[name])
        if np.any(np.diff(t) <= 0):
            raise SchemaError(f"t not strictly increasing for leg {name}")
        if np.max(np.abs(t - t0)) > 1e-9:
            raise SchemaError(f"t of leg {name} differs from leg {LEG_NAMES[0]}'s by more "
                              "than 1e-9 s; the legs must share one set of sample times")
    sample_rate = float((n - 1) / (t0[-1] - t0[0]))
    freq = gait_frequency
    if freq is not None and not (0.0 < freq < np.inf and sample_rate / freq < np.inf):
        raise ValueError(f"{path}: gait frequency must be finite and positive, got {freq}")
    samples_per_period = n if freq is None else int(round(sample_rate / freq))
    feet = np.stack([np.asarray(per_leg[name]) for name in LEG_NAMES])
    demo = DemoTrajectory(feet=feet, samples_per_period=samples_per_period)
    demo.validate()
    return demo


# ------------------------------------------------------------------ fitting

@dataclass(frozen=True)
class FitReport:
    """Foot-space errors in m^2 (MSE over samples x legs of squared distance)."""

    train_mse: float
    val_mse: float
    init_train_mse: float
    n_train: int
    n_val: int
    refine_steps_used: int

    @property
    def train_rmse(self) -> float:
        return float(np.sqrt(self.train_mse))

    @property
    def val_rmse(self) -> float:
        return float(np.sqrt(self.val_mse))


def detect_liftoff_index(z: np.ndarray) -> int:
    """First cyclic index where the foot leaves the stance level."""
    z = np.asarray(z, dtype=float)
    stance = z.min()
    tol = 1e-9 + 0.02 * (z.max() - stance)
    airborne = z > stance + tol
    if not airborne.any() or airborne.all():
        return 0
    prev = np.roll(airborne, 1)
    idx = np.nonzero(airborne & ~prev)[0]
    return int(idx[0])


def _resample_cyclic(values: np.ndarray, n_out: int) -> np.ndarray:
    """Linear interpolation of a cyclic sequence (n_in, ...) onto n_out points."""
    n_in = values.shape[0]
    pos = np.arange(n_out) * (n_in / n_out)
    lo = np.floor(pos).astype(int) % n_in
    hi = (lo + 1) % n_in
    frac = (pos - np.floor(pos))[:, None]
    return (1.0 - frac) * values[lo] + frac * values[hi]


def prepare_demo_period(demo: DemoTrajectory, period_ticks: int, align_phase: bool = True) -> np.ndarray:
    """One gait period resampled to (period_ticks, 4, 3).

    With align_phase, the sequence is rolled so the front-right foot's
    liftoff sits at sample 0, giving a canonical demo-to-orbit pairing that
    is independent of where the recording started.
    """
    demo.validate()
    n_per = demo.samples_per_period
    feet = demo.feet  # (4, N, 3)
    start = detect_liftoff_index(feet[0, :, 2]) if align_phase else 0
    idx = (start + np.arange(n_per)) % feet.shape[1]
    one_period = feet[:, idx, :]  # (4, n_per, 3)
    resampled = np.stack(
        [_resample_cyclic(one_period[leg], period_ticks) for leg in range(4)], axis=1
    )  # (period_ticks, 4, 3)
    return resampled


def refine_loss_and_grads(
    weights: np.ndarray,
    bias: np.ndarray,
    phi: np.ndarray,
    target_feet: np.ndarray,
    geometry: LegGeometry,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Foot-space MSE of the linear motor map and its analytic gradients.

    phi is (N, H) RBF activations, target_feet (N, 4, 3). The gradient flows
    through forward kinematics via the analytic leg Jacobian.
    """
    n = phi.shape[0]
    q_flat = phi @ weights + bias  # (N, 12)
    # the kinematics run component-major: feet (3, 4, N), Jacobians (3, 3, 4, N)
    feet, jac = leg_kinematics(q_flat.T, geometry, jacobian=True)
    err = feet - target_feet.T
    # the long sums below round by memory order, so they run over (N, ...) copies
    sq = np.ascontiguousarray((err * err).sum(axis=0).T)
    # np.mean's own arithmetic (one sum, then / count) without its Python wrapper
    loss = float(sq.sum() / sq.size)
    grad_q = np.ascontiguousarray(((2.0 / (n * 4)) * joint_torques(jac, err)).T)
    return loss, phi.T @ grad_q, grad_q.sum(axis=0)


# conditions the warm start's normal equations: a numerical guard, not a model choice
_RIDGE_LAMBDA = 1e-6


def fit_motor_layer(
    demo: DemoTrajectory,
    model: GaitPlannerModel,
    geometry: LegGeometry,
    split_seed: int = 0,
    refine_steps: int = 2000,
    refine_lr: float = 1e-2,
    align_phase: bool = True,
) -> tuple[MotorLayer, FitReport]:
    """Behavior-clone the motor layer from a foot-end demonstration.

    Stage 1 solves joint targets (inverse kinematics) by ridge least squares
    on a seeded 7:3 time-sample split; stage 2 descends the foot-space MSE
    through the analytic Jacobian with step halving on any loss increase, so
    the training loss never ends above the warm start.
    """
    t = model.orbit.period_ticks
    target_feet = prepare_demo_period(demo, t, align_phase=align_phase)  # (T, 4, 3)

    # inverse kinematics of every demo point; unreachable points abort the fit
    q_demo = np.zeros((t, 12))
    for i in range(t):
        for leg in range(4):
            try:
                q_demo[i, 3 * leg : 3 * leg + 3] = inverse_kinematics(
                    target_feet[i, leg], geometry, leg
                )
            except Unreachable as exc:
                raise IkUnreachable(leg, i, exc) from exc

    phi = rbf_activations(model.orbit.samples, model.rbf)  # (T, H)
    h = model.rbf.h
    singular_values = np.linalg.svd(phi, compute_uv=False)
    if singular_values[-1] <= singular_values[0] * 1e-10:
        raise SingularFit(
            f"design matrix rank {int(np.sum(singular_values > singular_values[0] * 1e-10))} < {h}"
        )

    rng = np.random.default_rng(split_seed)
    perm = rng.permutation(t)
    n_train = int(round(0.7 * t))
    train_idx, val_idx = perm[:n_train], perm[n_train:]

    # ridge with the intercept eliminated by centering (exact as lambda -> 0)
    phi_tr = phi[train_idx]
    q_tr = q_demo[train_idx]
    phi_mean = phi_tr.mean(axis=0)
    q_mean = q_tr.mean(axis=0)
    phi_c = phi_tr - phi_mean
    gram = phi_c.T @ phi_c + _RIDGE_LAMBDA * np.eye(h)
    w = np.linalg.solve(gram, phi_c.T @ (q_tr - q_mean))
    b = q_mean - phi_mean @ w

    # gradient refinement of the true foot-space loss; each step evaluates
    # the loss and gradients once, at the candidate, and keeps both on accept
    tf_train = target_feet[train_idx]
    loss, grad_w, grad_b = refine_loss_and_grads(w, b, phi_tr, tf_train, geometry)
    init_train_mse = loss
    lr = refine_lr
    steps_used = 0
    for step in range(refine_steps):
        w_new = w - lr * grad_w
        b_new = b - lr * grad_b
        new_loss, new_grad_w, new_grad_b = refine_loss_and_grads(
            w_new, b_new, phi_tr, tf_train, geometry)
        if new_loss <= loss:
            converged = loss - new_loss < 1e-18
            w, b, loss, grad_w, grad_b = w_new, b_new, new_loss, new_grad_w, new_grad_b
            steps_used = step + 1
            if converged:
                break
        else:
            lr *= 0.5
            if lr < 1e-14:
                break

    motor = MotorLayer(weights=w, bias=b)
    val_mse = refine_loss_and_grads(w, b, phi[val_idx], target_feet[val_idx], geometry)[0]
    report = FitReport(
        train_mse=loss,
        val_mse=val_mse,
        init_train_mse=init_train_mse,
        n_train=n_train,
        n_val=t - n_train,
        refine_steps_used=steps_used,
    )
    return motor, report


def fitted_planner(model: GaitPlannerModel, motor: MotorLayer) -> GaitPlannerModel:
    return replace(model, motor=motor)


# ------------------------------------------------------------------ analysis

def circular_xcorr_lag(a: np.ndarray, b: np.ndarray, max_lag: int | None = None) -> int:
    """Lag in [0, max_lag) maximizing the circular cross-correlation of a and b.

    The returned lag is the cyclic shift of b that best aligns it with a:
    b delayed by half a period relative to a reports len/2. max_lag defaults
    to len(a); among equally good lags the largest wins.
    """
    a = np.asarray(a, dtype=float) - np.mean(a)
    b = np.asarray(b, dtype=float) - np.mean(b)
    n = len(a) if max_lag is None else max_lag
    scores = np.array([np.dot(a, np.roll(b, -lag)) for lag in range(n)])
    return n - 1 - int(np.argmax(scores[::-1]))


def cyclic_lag_distance(lag: int, target: int, n: int) -> int:
    """Cyclic distance between a measured lag and a target lag."""
    d = abs(lag - target) % n
    return int(min(d, n - d))


# ------------------------------------------------------------------ model io

_MODEL_VERSION = 1


def planner_arrays(model: GaitPlannerModel, prefix: str = "") -> dict:
    """The model as named npz arrays; `planner_from_arrays` inverts it."""
    arrays = {
        "phi": model.params.phi,
        "alpha": model.params.alpha,
        "orbit_samples": model.orbit.samples,
        "period_ticks": model.orbit.period_ticks,
        "centers": model.rbf.centers,
        "sigma": model.rbf.sigma,
        "weights": model.motor.weights,
        "bias": model.motor.bias,
    }
    return {prefix + k: v for k, v in arrays.items()}


def planner_from_arrays(data, prefix: str = "") -> GaitPlannerModel:
    params = OscillatorParams(phi=float(data[prefix + "phi"]), alpha=float(data[prefix + "alpha"]))
    orbit = PeriodicOrbit(
        samples=data[prefix + "orbit_samples"], period_ticks=int(data[prefix + "period_ticks"])
    )
    rbf = RbfLayer(centers=data[prefix + "centers"], sigma=float(data[prefix + "sigma"]))
    motor = MotorLayer(weights=data[prefix + "weights"], bias=data[prefix + "bias"])
    return GaitPlannerModel(params=params, orbit=orbit, rbf=rbf, motor=motor)


def savez_atomic(path, **arrays) -> None:
    """np.savez to path, or to path + ".npz" as np.savez names it, atomically.

    The archive is written to a temporary file in the same directory, synced,
    and renamed over the final name, so a failed or interrupted write leaves
    any earlier file intact and never a partial one.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class DamagedRunFile(ValueError):
    """A saved model or checkpoint that is not a whole npz archive or lacks an entry."""


@contextmanager
def open_run_file(path):
    """The npz archive at path, opened for reading; a file cut short, not an
    archive, or without an entry the caller reads raises DamagedRunFile."""
    try:
        data = np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise DamagedRunFile(f"{path}: not a whole npz archive ({exc})") from exc
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise DamagedRunFile(f"{path}: not an npz archive")
    with data:
        try:
            yield data
        except zipfile.BadZipFile as exc:
            raise DamagedRunFile(f"{path}: damaged archive entry ({exc})") from exc
        except KeyError as exc:
            key = str(exc.args[0]).removesuffix(" is not a file in the archive")
            raise DamagedRunFile(f"{path}: missing entry '{key}'") from exc


def save_planner_model(model: GaitPlannerModel, path) -> None:
    savez_atomic(path, version=_MODEL_VERSION, **planner_arrays(model))


def load_planner_model(path) -> GaitPlannerModel:
    with open_run_file(path) as data:
        version = int(data["version"])
        if version != _MODEL_VERSION:
            raise ValueError(f"{path}: unsupported planner model version {version}")
        return planner_from_arrays(data)
