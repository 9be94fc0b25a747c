from dataclasses import replace

import numpy as np
import pytest

from conftest import assert_config_rejects, foot_clearances, save_demo_csv
from cpgrl.config import RunConfig
from cpgrl.gait_planner import (
    DemoTrajectory,
    FitReport,
    IkUnreachable,
    MotorLayer,
    ParseError,
    RbfLayer,
    SchemaError,
    SingularFit,
    TooManyCenters,
    _RIDGE_LAMBDA,
    build_planner,
    circular_xcorr_lag,
    cyclic_lag_distance,
    detect_liftoff_index,
    fit_motor_layer,
    fitted_planner,
    generate_demo_trot,
    load_demo_csv,
    load_planner_model,
    planner_forward,
    prepare_demo_period,
    rbf_activations,
    refine_loss_and_grads,
    sample_rbf_centers,
    save_planner_model,
)
from cpgrl.kinematics import forward_kinematics_all, inverse_kinematics, standing_pose
from cpgrl.oscillator import find_limit_cycle

CFG = RunConfig()
GEOM = CFG.leg_geometry()
NOMINAL_Q = standing_pose(GEOM, 0.32)
PERIOD_TICKS = find_limit_cycle(CFG.cpg).period_ticks


def trot(n=PERIOD_TICKS, **changes):
    """The configured synthetic trot at n samples per cycle (one per tick of
    the configured orbit), with the given demo fields changed."""
    return generate_demo_trot(replace(CFG.demo, **changes), GEOM, CFG.robot.stand_height, n)


@pytest.fixture(scope="module")
def planner():
    return build_planner(CFG.cpg, CFG.planner, NOMINAL_Q)


# ---------------------------------------------------------------- rbf layer

def test_centers_single(planner):
    centers = sample_rbf_centers(planner.orbit, 1)
    np.testing.assert_array_equal(centers[0], planner.orbit.samples[0])


def test_centers_uniform_spacing(planner):
    t = planner.orbit.period_ticks
    centers = sample_rbf_centers(planner.orbit, 20)
    expected_idx = (np.arange(20) * t) // 20
    np.testing.assert_array_equal(centers, planner.orbit.samples[expected_idx])


def test_too_many_centers(planner):
    with pytest.raises(TooManyCenters):
        sample_rbf_centers(planner.orbit, planner.orbit.period_ticks + 1)


def test_activation_at_center_is_one(planner):
    for h in range(planner.rbf.h):
        acts = rbf_activations(planner.rbf.centers[h], planner.rbf)
        assert acts[h] == 1.0


def test_activation_at_distance():
    rbf = RbfLayer(centers=np.array([[0.0, 0.0]]), sigma=0.1)
    act = rbf_activations(np.array([0.1, 0.0]), rbf)
    assert act[0] == pytest.approx(np.exp(-1.0), abs=1e-12)
    act = rbf_activations(np.array([0.0, 0.3]), rbf)
    assert act[0] == pytest.approx(np.exp(-9.0), abs=1e-16)


def test_rbf_coverage_along_orbit(planner):
    acts = rbf_activations(planner.orbit.samples, planner.rbf)
    assert acts.max(axis=1).min() >= 0.5


# ---------------------------------------------------------------- planner map

def test_zero_weights_yield_bias(planner):
    out = planner_forward(np.array([0.05, -0.1]), planner)
    np.testing.assert_array_equal(out, planner.motor.bias)


def test_forward_linearity(planner):
    rng = np.random.default_rng(0)
    w = rng.normal(size=(20, 12))
    model = fitted_planner(planner, MotorLayer(weights=w, bias=np.zeros(12)))
    state = planner.orbit.samples[7]
    acts = rbf_activations(state, model.rbf)
    np.testing.assert_allclose(planner_forward(state, model), acts @ w, atol=1e-15)


def test_output_periodic_over_orbit(planner):
    rng = np.random.default_rng(1)
    model = fitted_planner(
        planner, MotorLayer(weights=rng.normal(size=(20, 12)), bias=NOMINAL_Q)
    )
    t = model.orbit.period_ticks
    idx = np.arange(100 * t) % t
    table = model.baseline_table()
    seq = table[idx]
    # cycling the stored orbit is exactly periodic: no drift over 100 periods
    assert np.max(np.abs(seq[:t] - seq[-t:])) < 1e-6
    assert np.max(np.abs(seq[:t] - seq[-t:])) == 0.0


# ---------------------------------------------------------------- demo gen

def test_demo_trot_phasing():
    demo = trot()
    n = demo.samples_per_period
    z = demo.feet[:, :, 2]
    assert circular_xcorr_lag(z[0], z[3]) == 0
    assert cyclic_lag_distance(circular_xcorr_lag(z[0], z[1]), n // 2, n) <= 1


def test_demo_trot_clearances_exact():
    demo = trot()
    z = demo.feet[:, :, 2]
    stance = z.min(axis=1)
    peaks = z.max(axis=1) - stance
    np.testing.assert_allclose(peaks, [0.07, 0.07, 0.04, 0.04], atol=1e-9)


def test_demo_trot_stance_fraction():
    demo = trot()
    z = demo.feet[:, :, 2]
    at_stance = np.isclose(z, z.min(axis=1, keepdims=True), atol=1e-12)
    assert (at_stance.mean(axis=1) > 0.5).all()


def test_demo_trot_rejects_bad_params():
    # the trot's shape is checked as config keys
    assert_config_rejects("demo.stance_fraction", 0.3)
    assert_config_rejects("demo.clearance_front", -0.01)
    # the floor of 8 samples per period is DemoTrajectory's, shared with CSV demos
    with pytest.raises(ValueError, match="too few to resolve one gait cycle"):
        trot(n=7)


# ---------------------------------------------------------------- csv io

def test_csv_round_trip(tmp_path):
    demo = trot()
    path = tmp_path / "demo.csv"
    save_demo_csv(demo, path, sample_rate=180.0)
    back = load_demo_csv(path, gait_frequency=1.5)
    np.testing.assert_array_equal(back.feet, demo.feet)
    assert back.samples_per_period == demo.samples_per_period == 120
    # without a frequency the file holds one period
    assert load_demo_csv(path).samples_per_period == 120


def test_csv_missing_leg(tmp_path):
    demo = trot()
    path = tmp_path / "demo.csv"
    save_demo_csv(demo, path)
    lines = path.read_text().splitlines()
    kept = [l for l in lines if not l.split(",")[1:2] == ["RL"]]
    path.write_text("\n".join(kept) + "\n")
    with pytest.raises(SchemaError):
        load_demo_csv(path)


def test_csv_legs_must_share_sample_times(tmp_path):
    """The legs are stacked by row, so a leg sampled at other times than FR's
    (here FL, shifted by 0.3 s) is rejected, naming the leg."""
    path = tmp_path / "demo.csv"
    save_demo_csv(trot(), path)
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[1:], start=1):
        t, leg, rest = line.split(",", 2)
        if leg == "FL":
            lines[i] = f"{float(t) + 0.3!r},{leg},{rest}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match="leg FL"):
        load_demo_csv(path)


def test_csv_nan_cell(tmp_path):
    path = tmp_path / "demo.csv"
    path.write_text(
        "t,leg,x,y,z\n"
        "0.0,FR,0.1,0.2,-0.3\n0.01,FR,nan,0.2,-0.3\n"
        "0.0,FL,0.1,0.2,-0.3\n0.01,FL,0.1,0.2,-0.3\n"
        "0.0,RR,0.1,0.2,-0.3\n0.01,RR,0.1,0.2,-0.3\n"
        "0.0,RL,0.1,0.2,-0.3\n0.01,RL,0.1,0.2,-0.3\n"
    )
    with pytest.raises(ParseError) as err:
        load_demo_csv(path)
    assert err.value.column == "x"
    assert err.value.row == 3


def test_csv_missing_columns(tmp_path):
    path = tmp_path / "demo.csv"
    path.write_text("t,leg,x,y\n0.0,FR,0.1,0.2\n")
    with pytest.raises(SchemaError):
        load_demo_csv(path)


def test_csv_non_monotonic_time(tmp_path):
    path = tmp_path / "demo.csv"
    rows = ["t,leg,x,y,z"]
    for name in ("FR", "FL", "RR", "RL"):
        rows.append(f"0.0,{name},0.1,0.2,-0.3")
        rows.append(f"0.0,{name},0.1,0.2,-0.3")
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(SchemaError):
        load_demo_csv(path)


# ---------------------------------------------------------------- fitting

def realizable_demo(planner):
    """One cycle of the feet of a known motor layer, sampled on the orbit."""
    rng = np.random.default_rng(42)
    true_motor = MotorLayer(weights=rng.normal(scale=0.05, size=(20, 12)), bias=NOMINAL_Q)
    true_model = fitted_planner(planner, true_motor)
    feet = forward_kinematics_all(true_model.baseline_table(), GEOM)
    return DemoTrajectory(
        feet=np.transpose(feet, (1, 0, 2)), samples_per_period=planner.orbit.period_ticks)


def test_fit_realizability_oracle(planner):
    # demo produced by a known motor layer is recovered to < 1e-6 m
    demo = realizable_demo(planner)
    motor, report = fit_motor_layer(demo, planner, GEOM, align_phase=False)
    assert report.val_rmse < 1e-6


def test_fit_synthetic_trot(planner):
    demo = trot()
    motor, report = fit_motor_layer(demo, planner, GEOM)
    # acceptance bound 5e-3; pinned regression headroom over the measured 6.2e-4
    assert report.val_rmse < 1.5e-3
    assert report.train_mse <= report.init_train_mse + 1e-18

    fit = fitted_planner(planner, motor)
    feet = fit.desired_feet_table(GEOM)
    clear = foot_clearances(feet)
    np.testing.assert_allclose(clear, [0.07, 0.07, 0.04, 0.04], atol=0.01)

    t = planner.orbit.period_ticks
    z = feet[:, :, 2]
    assert circular_xcorr_lag(z[:, 0], z[:, 3]) == 0
    assert circular_xcorr_lag(z[:, 1], z[:, 2]) == 0
    assert cyclic_lag_distance(circular_xcorr_lag(z[:, 0], z[:, 1]), t // 2, t) <= 1
    assert cyclic_lag_distance(circular_xcorr_lag(z[:, 2], z[:, 3]), t // 2, t) <= 1


def test_fit_reproducible_with_seed(planner):
    demo = trot()
    m1, r1 = fit_motor_layer(demo, planner, GEOM, split_seed=7)
    m2, r2 = fit_motor_layer(demo, planner, GEOM, split_seed=7)
    np.testing.assert_array_equal(m1.weights, m2.weights)
    np.testing.assert_array_equal(m1.bias, m2.bias)
    assert r1.val_mse == r2.val_mse


def test_fit_unreachable_demo(planner):
    demo = trot()
    feet = demo.feet.copy()
    feet[0, 10] = GEOM.hip_mounts[0] + np.array([0.6, -0.08, 0.0])
    bad = replace(demo, feet=feet)
    with pytest.raises(IkUnreachable):
        fit_motor_layer(bad, planner, GEOM)


def test_fit_singular_design(planner):
    degenerate = replace(planner, rbf=RbfLayer(
        centers=np.tile(planner.orbit.samples[0], (20, 1)), sigma=planner.rbf.sigma))
    demo = trot()
    with pytest.raises(SingularFit):
        fit_motor_layer(demo, degenerate, GEOM)


def test_refine_gradients_match_finite_differences(planner):
    rng = np.random.default_rng(5)
    phi = rbf_activations(planner.orbit.samples[:25], planner.rbf)
    w = rng.normal(scale=0.05, size=(20, 12))
    b = NOMINAL_Q + rng.normal(scale=0.02, size=12)
    target = forward_kinematics_all(phi @ w + b, GEOM) + rng.normal(scale=0.01, size=(25, 4, 3))

    loss, grad_w, grad_b = refine_loss_and_grads(w, b, phi, target, GEOM)
    h = 1e-6

    def loss_at(w_, b_):
        return refine_loss_and_grads(w_, b_, phi, target, GEOM)[0]

    for idx in [(0, 0), (3, 5), (19, 11), (10, 2)]:
        dw = np.zeros_like(w)
        dw[idx] = h
        fd = (loss_at(w + dw, b) - loss_at(w - dw, b)) / (2 * h)
        assert fd == pytest.approx(grad_w[idx], rel=1e-4, abs=1e-10)
    for j in [0, 4, 11]:
        db = np.zeros(12)
        db[j] = h
        fd = (loss_at(w, b + db) - loss_at(w, b - db)) / (2 * h)
        assert fd == pytest.approx(grad_b[j], rel=1e-4, abs=1e-10)


def _ridge_oracle_table(demo, planner, split_seed, align_phase):
    """One cycle of joint targets from a ridge fit written apart from the fit:
    inverse kinematics of the demo, then lstsq on the centred train rows of
    the design stacked with sqrt(lambda) I rows."""
    t = planner.orbit.period_ticks
    target_feet = prepare_demo_period(demo, t, align_phase=align_phase)
    q_demo = np.array([[inverse_kinematics(target_feet[i, leg], GEOM, leg) for leg in range(4)]
                       for i in range(t)]).reshape(t, 12)
    phi = rbf_activations(planner.orbit.samples, planner.rbf)
    train_idx = np.random.default_rng(split_seed).permutation(t)[: int(round(0.7 * t))]
    phi_tr, q_tr = phi[train_idx], q_demo[train_idx]
    h = planner.rbf.h
    design = np.vstack([phi_tr - phi_tr.mean(axis=0), np.sqrt(_RIDGE_LAMBDA) * np.eye(h)])
    rhs = np.vstack([q_tr - q_tr.mean(axis=0), np.zeros((h, 12))])
    w = np.linalg.lstsq(design, rhs, rcond=None)[0]
    b = q_tr.mean(axis=0) - phi_tr.mean(axis=0) @ w
    return phi @ w + b


@pytest.mark.parametrize("split_seed", [0, 1, 7])
@pytest.mark.parametrize("demo_kind", ["trot", "realizable"])
def test_warm_start_matches_ridge_oracle(planner, demo_kind, split_seed):
    """The fit without refinement gives the joint targets of an independent
    ridge solve, and reports the foot-space MSE of its own motor map.

    Targets, not weights, are compared: the Gram matrix's condition number is
    about 3e7, so the weights of two solvers agree only to about 1e-9 relative.
    """
    if demo_kind == "trot":
        demo, align_phase = trot(), True
    else:
        demo, align_phase = realizable_demo(planner), False
    motor, report = fit_motor_layer(demo, planner, GEOM, split_seed=split_seed,
                                    refine_steps=0, align_phase=align_phase)
    table = fitted_planner(planner, motor).baseline_table()
    oracle = _ridge_oracle_table(demo, planner, split_seed, align_phase)
    np.testing.assert_allclose(table, oracle, rtol=0, atol=1e-11)

    t = planner.orbit.period_ticks
    target_feet = prepare_demo_period(demo, t, align_phase=align_phase)
    phi = rbf_activations(planner.orbit.samples, planner.rbf)
    perm = np.random.default_rng(split_seed).permutation(t)
    train_idx, val_idx = perm[: report.n_train], perm[report.n_train :]
    assert report.train_mse == refine_loss_and_grads(
        motor.weights, motor.bias, phi[train_idx], target_feet[train_idx], GEOM)[0]
    assert report.val_mse == refine_loss_and_grads(
        motor.weights, motor.bias, phi[val_idx], target_feet[val_idx], GEOM)[0]
    assert report.init_train_mse == report.train_mse
    assert report.refine_steps_used == 0


def _foot_mse(q_flat, target_feet):
    err = forward_kinematics_all(q_flat, GEOM) - target_feet
    return float(np.mean(np.sum(err * err, axis=-1)))


def two_evaluation_refine(demo, planner, split_seed, refine_steps, refine_lr):
    """The refinement as first written: gradients at w, then a second loss at the candidate."""
    warm, _ = fit_motor_layer(demo, planner, GEOM, split_seed=split_seed, refine_steps=0)
    t = planner.orbit.period_ticks
    target_feet = prepare_demo_period(demo, t)
    phi = rbf_activations(planner.orbit.samples, planner.rbf)
    perm = np.random.default_rng(split_seed).permutation(t)
    n_train = int(round(0.7 * t))
    train_idx, val_idx = perm[:n_train], perm[n_train:]
    phi_tr, tf_train = phi[train_idx], target_feet[train_idx]

    w, b = warm.weights.copy(), warm.bias.copy()
    init_train_mse = loss = _foot_mse(phi_tr @ w + b, tf_train)
    lr, steps_used = refine_lr, 0
    for step in range(refine_steps):
        _, grad_w, grad_b = refine_loss_and_grads(w, b, phi_tr, tf_train, GEOM)
        w_new, b_new = w - lr * grad_w, b - lr * grad_b
        new_loss = _foot_mse(phi_tr @ w_new + b_new, tf_train)
        if new_loss <= loss:
            converged = loss - new_loss < 1e-18
            w, b, loss = w_new, b_new, new_loss
            steps_used = step + 1
            if converged:
                break
        else:
            lr *= 0.5
            if lr < 1e-14:
                break
    report = FitReport(
        train_mse=_foot_mse(phi_tr @ w + b, tf_train),
        val_mse=_foot_mse(phi[val_idx] @ w + b, target_feet[val_idx]),
        init_train_mse=init_train_mse, n_train=n_train, n_val=t - n_train,
        refine_steps_used=steps_used,
    )
    return MotorLayer(weights=w, bias=b), report


@pytest.mark.parametrize("refine_steps, refine_lr", [(300, 1e-2), (60, 50.0)])
def test_fit_matches_two_evaluation_refine_bitwise(planner, refine_steps, refine_lr):
    """One evaluation per step gives the motor map and report of two, bit for bit.

    The large learning rate makes steps overshoot, so the halving branch runs too.
    """
    demo = trot()
    ref_motor, ref_report = two_evaluation_refine(demo, planner, 3, refine_steps, refine_lr)
    motor, report = fit_motor_layer(demo, planner, GEOM, split_seed=3,
                                    refine_steps=refine_steps, refine_lr=refine_lr)
    np.testing.assert_array_equal(motor.weights, ref_motor.weights)
    np.testing.assert_array_equal(motor.bias, ref_motor.bias)
    assert report == ref_report


def test_xcorr_lag_tie_goes_to_the_largest_lag():
    a = np.array([1.0, 0.0, 1.0, 0.0])
    assert circular_xcorr_lag(a, a) == 2          # lags 0 and 2 align equally well
    assert circular_xcorr_lag(a, a, max_lag=2) == 0
    assert circular_xcorr_lag(a, np.roll(a, 1), max_lag=3) == 1


def test_liftoff_detection():
    demo = trot()
    n = demo.samples_per_period
    # FR stance occupies [0, 0.6); swing's first sample sits at stance height
    # (half-sine starts at 0), so the first airborne sample is 0.6*n + 1
    assert detect_liftoff_index(demo.feet[0, :, 2]) == int(0.6 * n) + 1


# ---------------------------------------------------------------- model io

def test_model_save_load_round_trip(planner, tmp_path):
    rng = np.random.default_rng(3)
    model = fitted_planner(
        planner, MotorLayer(weights=rng.normal(size=(20, 12)), bias=NOMINAL_Q)
    )
    path = tmp_path / "planner.npz"
    save_planner_model(model, path)
    back = load_planner_model(path)
    np.testing.assert_array_equal(back.motor.weights, model.motor.weights)
    np.testing.assert_array_equal(back.orbit.samples, model.orbit.samples)
    assert back.params == model.params
    np.testing.assert_array_equal(back.baseline_table(), model.baseline_table())
