import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    SPECIAL_LANES,
    aos_step_core,
    assert_config_rejects,
    assert_same_bits,
    assert_same_bits_where_not_nan,
    with_special_lanes,
)
from cpgrl import quat
from cpgrl.config import RunConfig
from cpgrl.env import POLICY_DT, VecLocomotionEnv
from cpgrl.kinematics import forward_kinematics_all, leg_jacobian_all
from cpgrl.simulator import (
    NumericalDivergence,
    _step_core,
    clamp_joints,
    contact_force,
    pd_torque,
    trunk_clearance,
)

PARAMS = RunConfig().env_params()


def sloped(angle_rad):
    cfg = RunConfig()
    return replace(cfg, sim=replace(cfg.sim, slope_rad=angle_rad)).env_params()

STEP_IN = ("pos", "rot", "linvel", "angvel", "q", "qdot", "air")
STEP_OUT = ("pos", "rot", "linvel", "angvel", "q", "qdot", "contacts", "air")


def spawn(params, drop=0.05):
    """One robot's state arrays in the default pose, drop above the stance."""
    return {
        "pos": np.array([0.0, 0.0, params.stand_height + drop]),
        "rot": quat.IDENTITY.copy(),
        "linvel": np.zeros(3),
        "angvel": np.zeros(3),
        "q": params.nominal_q.copy(),
        "qdot": np.zeros(12),
        "contacts": np.zeros(4, dtype=bool),
        "air": np.zeros(4),
    }


def substep(s, targets, params):
    """One `_step_core` substep of a single robot."""
    out = _step_core(*(s[k] for k in STEP_IN), targets, params,
                     params.trunk_mass, params.friction)
    return dict(zip(STEP_OUT, out))


def force(foot_pos, foot_vel, params=PARAMS):
    """Contact force on (..., 3) foot point(s) at the params' own friction."""
    return contact_force(foot_pos.T, foot_vel.T, params, params.friction)[0].T


def settle(params, seconds, drop=0.02):
    s = spawn(params, drop)
    for _ in range(int(round(seconds / params.dt))):
        s = substep(s, params.nominal_q, params)
    return s


def one_env(planner):
    return VecLocomotionEnv(RunConfig(), planner, n_envs=1, train_mode=False)


# ---------------------------------------------------------------- pd_torque

def test_pd_torque_proportional():
    tau = pd_torque(np.full(12, 0.5), np.full(12, 0.4), np.zeros(12), 75.0, 1.5, 23.7)
    np.testing.assert_allclose(tau, 7.5)


def test_pd_torque_derivative():
    tau = pd_torque(np.full(12, 0.5), np.full(12, 0.4), np.ones(12), 75.0, 1.5, 23.7)
    np.testing.assert_allclose(tau, 6.0)


def test_pd_torque_clamps():
    tau = pd_torque(np.full(12, 1.0), np.zeros(12), np.zeros(12), 75.0, 1.5, 23.7)
    np.testing.assert_allclose(tau, 23.7)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("tau_limit", [23.7, 0.0])
def test_pd_torque_bitwise_equal_to_np_clip(tau_limit):
    """Every pre-clamp value in SPECIAL_LANES and on either bound, and random
    inputs with special lanes, clamp as np.clip does, sign of zero included."""
    lanes = np.concatenate([SPECIAL_LANES, [tau_limit, -tau_limit, 5.0, -5.0, 40.0, -40.0]])
    x = np.repeat(lanes[:, None], 12, axis=1)
    zeros = np.zeros(12)
    assert_same_bits(pd_torque(x, zeros, zeros, 1.0, 0.0, tau_limit),
                     np.clip(x, -tau_limit, tau_limit))
    rng = np.random.default_rng(3)
    q_star, q, qdot = (with_special_lanes(rng, (64, 12)) for _ in range(3))
    assert_same_bits(pd_torque(q_star, q, qdot, 75.0, 1.5, tau_limit),
                     np.clip(75.0 * (q_star - q) - 1.5 * qdot, -tau_limit, tau_limit))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_clamp_joints_bitwise_equal_to_np_clip():
    """(12,) bounds with 0.0 and -0.0 on either side, against every input
    lane; clamp_joints takes (12, n) joint vectors."""
    limits = np.array([
        [-0.0, 0.0, -0.0, 0.0, -0.5, -0.5, -0.0, 0.0, -1.0, 0.0, -np.inf, -0.0],
        [0.0, -0.0, -0.0, 0.0, -0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 0.0, np.inf],
    ])
    lanes = np.concatenate([SPECIAL_LANES, [0.5, -0.5, 1.0, -1.0, 2.0, -2.0]])
    x = np.repeat(lanes[:, None], 12, axis=1)
    assert_same_bits(clamp_joints(x.T, limits).T, np.clip(x, limits[0], limits[1]))
    q = with_special_lanes(np.random.default_rng(4), (64, 12))
    assert_same_bits(clamp_joints(q.T, limits).T, np.clip(q, limits[0], limits[1]))
    assert_same_bits(clamp_joints(q.T, PARAMS.joint_limits).T,
                     np.clip(q, PARAMS.joint_limits[0], PARAMS.joint_limits[1]))
    # one robot's (12,) joints
    assert_same_bits(clamp_joints(q[0], limits), np.clip(q[0], limits[0], limits[1]))


# ---------------------------------------------------------------- contact

def test_no_force_above_surface():
    f = force(np.array([0.0, 0.0, 0.01]), np.zeros(3), PARAMS)
    np.testing.assert_array_equal(f, np.zeros(3))


def test_normal_spring_force():
    p = replace(PARAMS, contact_stiffness=3.0e4)
    f = force(np.array([0.0, 0.0, -0.001]), np.zeros(3), p)
    np.testing.assert_allclose(f, [0.0, 0.0, 30.0])


def test_coulomb_saturation():
    # large tangential speed: force = mu * N opposing motion
    p = replace(PARAMS, friction=0.8)
    pen = 30.0 / p.contact_stiffness
    f = force(np.array([0.0, 0.0, -pen]), np.array([5.0, 0.0, 0.0]), p)
    assert f[2] == pytest.approx(30.0)
    assert f[0] == pytest.approx(-24.0)
    assert f[1] == 0.0


def test_viscous_regime_below_cone():
    p = replace(PARAMS, friction=0.8)
    pen = 30.0 / p.contact_stiffness
    v = 0.01
    f = force(np.array([0.0, 0.0, -pen]), np.array([v, 0.0, 0.0]), p)
    assert f[0] == pytest.approx(-p.tangential_gain * v)


def test_contact_force_batched_matches_scalar():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.01, 0.01, size=(16, 3))
    vels = rng.uniform(-1, 1, size=(16, 3))
    batched = force(pts, vels, PARAMS)
    for i in range(16):
        np.testing.assert_array_equal(batched[i], force(pts[i], vels[i], PARAMS))


# ---------------------------------------------------------------- stepping

def test_free_fall_velocity_increment_exact():
    s = spawn(PARAMS, drop=1.0)
    s2 = substep(s, s["q"], PARAMS)
    dv = s2["linvel"][2] - s["linvel"][2]
    assert dv == -(PARAMS.gravity * PARAMS.dt)


def test_standing_settles_near_nominal_height():
    s = settle(PARAMS, 1.0)
    # pinned regression: settled height 0.3061 m; spec example tolerance +-0.02
    assert s["pos"][2] == pytest.approx(0.3061, abs=2e-3)
    assert abs(s["pos"][2] - PARAMS.stand_height) < 0.02
    assert np.linalg.norm(s["linvel"]) < 0.05


def test_settled_contact_forces_balance_weight():
    s = settle(PARAMS, 3.0)
    feet_b = forward_kinematics_all(s["q"], PARAMS.geometry)
    feet_w = s["pos"] + quat.rotate(s["rot"], feet_b)
    jac = leg_jacobian_all(s["q"], PARAMS.geometry)
    v_b = np.einsum("lij,lj->li", jac, s["qdot"].reshape(4, 3))
    v_w = s["linvel"] + quat.rotate(s["rot"], np.cross(s["angvel"], feet_b) + v_b)
    f = force(feet_w, v_w, PARAMS)
    total = f[:, 2].sum()
    assert total == pytest.approx(PARAMS.trunk_mass * PARAMS.gravity, rel=0.02)


def test_passive_settle_dissipates_energy():
    s = settle(PARAMS, 3.0, drop=0.05)
    ke = 0.5 * PARAMS.trunk_mass * np.sum(s["linvel"]**2) + 0.5 * np.sum(
        PARAMS.trunk_inertia * s["angvel"]**2
    )
    assert ke < 1e-3


def test_determinism_bit_identical():
    s1 = settle(PARAMS, 0.5)
    s2 = settle(PARAMS, 0.5)
    for name in ("pos", "rot", "q", "qdot"):
        np.testing.assert_array_equal(s1[name], s2[name])


def test_quaternion_norm_preserved():
    s = spawn(PARAMS)
    s["angvel"] = np.array([0.4, -0.2, 0.9])
    for _ in range(200):
        s = substep(s, PARAMS.nominal_q, PARAMS)
        assert abs(np.linalg.norm(s["rot"]) - 1.0) < 1e-9


def test_no_contact_force_airborne():
    s = spawn(PARAMS, drop=0.5)
    s2 = substep(s, s["q"], PARAMS)
    assert not s2["contacts"].any()
    # velocity change is pure gravity
    np.testing.assert_allclose(
        s2["linvel"] - s["linvel"], [0, 0, -PARAMS.gravity * PARAMS.dt]
    )


def test_air_time_accumulates_then_clears():
    s = spawn(PARAMS, drop=0.3)
    for _ in range(20):
        s = substep(s, PARAMS.nominal_q, PARAMS)
    np.testing.assert_allclose(s["air"], 20 * PARAMS.dt, rtol=1e-12)
    s = settle(PARAMS, 1.0)
    assert np.all(s["air"][s["contacts"]] == 0.0)


def test_divergence_detected(planner):
    env = one_env(planner)
    env.linvel[0] = [0.0, 0.0, 2.0e6]
    with pytest.raises(NumericalDivergence) as err:
        env.step(np.zeros((1, 12)))
    assert err.value.env_index == 0


@st.composite
def batched_states(draw):
    """n robots near the ground, each with its own state, target, mass and friction."""
    n = draw(st.integers(1, 6))

    def field(shape, lo, hi):
        return draw(arrays(np.float64, (n,) + shape, elements=st.floats(lo, hi)))

    pos = field((3,), -0.1, 0.1) + np.array([0.0, 0.0, PARAMS.stand_height])
    rot = quat.normalize(field((4,), -0.2, 0.2) + quat.IDENTITY)
    q = field((12,), -0.3, 0.3) + PARAMS.nominal_q
    state = (pos, rot, field((3,), -1.0, 1.0), field((3,), -2.0, 2.0), q,
             field((12,), -5.0, 5.0), field((4,), 0.0, 0.5))
    targets = field((12,), -0.3, 0.3) + PARAMS.nominal_q
    return state, targets, field((), 10.0, 14.0), field((), 0.4, 1.2)


@settings(deadline=None, max_examples=50)
@given(batched_states())
def test_batched_step_core_equals_each_env_alone(sample):
    """Stepping n envs in one component-major call, env axis last, gives each
    env's slice stepped alone, bit for bit."""
    state, targets, mass, friction = sample
    batched = _step_core(*(x.T for x in state), targets.T, PARAMS, mass, friction)
    for i in range(len(mass)):
        alone = _step_core(*(x[i] for x in state), targets[i], PARAMS, mass[i], friction[i])
        for name, b, a in zip(STEP_OUT, batched, alone):
            b, a = np.asarray(b[..., i]), np.asarray(a)
            assert (b.dtype, b.shape, b.tobytes()) == (a.dtype, a.shape, a.tobytes()), name


@pytest.mark.parametrize("n", [None, 3])
def test_step_core_never_writes_its_inputs(n):
    """Read-only inputs step without error, so the env may keep the pre-step arrays."""
    s = spawn(PARAMS, drop=-0.005)   # feet in contact
    s["angvel"] = np.array([0.4, -0.2, 0.9])
    inputs = [np.array(s[k], dtype=float) for k in STEP_IN]
    inputs += [PARAMS.nominal_q + 0.1, np.array(PARAMS.trunk_mass), np.array(PARAMS.friction)]
    if n is not None:
        # component-major: the env axis goes last
        inputs = [np.repeat(x[..., None], n, axis=-1) for x in inputs]
    before = [x.copy() for x in inputs]
    for x in inputs:
        x.flags.writeable = False
    *state, targets, mass, friction = inputs
    _step_core(*state, targets, PARAMS, mass, friction)
    for x, x0 in zip(inputs, before):
        assert_same_bits(x, x0)


def special_states(rng, n):
    """Component-major states of n robots near the ground. In every even env
    each input holds one SPECIAL_LANES value, the inputs taking the five in
    turn, at a random entry."""
    fields = itertools.count()
    even = np.arange(0, n, 2)

    def field(rows, lo, hi, base=0.0):
        x = rng.uniform(lo, hi, size=rows + (n,)) + base
        entries = x.reshape(-1, n)
        rows_hit = rng.integers(entries.shape[0], size=even.size)
        entries[rows_hit, even] = SPECIAL_LANES[(next(fields) + even) % SPECIAL_LANES.size]
        return x

    nominal = PARAMS.nominal_q[:, None]
    state = [field((3,), -0.05, 0.05, np.array([[0.0], [0.0], [PARAMS.stand_height]])),
             field((4,), -0.2, 0.2, quat.IDENTITY[:, None]),
             field((3,), -1.0, 1.0), field((3,), -2.0, 2.0),
             field((12,), -0.3, 0.3, nominal), field((12,), -5.0, 5.0),
             field((4,), 0.0, 0.5)]
    state[1] = state[1] / np.linalg.norm(state[1], axis=0)
    targets = field((12,), -0.3, 0.3, nominal)
    return state, targets, field((), 10.0, 14.0), field((), 0.4, 1.2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 64, 1024])
def test_step_core_equals_the_array_of_structs_reference(n):
    """60 chained substeps of the component-major `_step_core` equal the
    array-of-structs reference in conftest, with ±0, ±inf and NaN inputs.
    NaN lanes compare as NaN (see assert_same_bits_where_not_nan)."""
    rng = np.random.default_rng(n)
    state, targets, mass, friction = special_states(rng, n)
    ref = [x.T for x in state]
    for _ in range(60):
        out = _step_core(*state, targets, PARAMS, mass, friction)
        ref_out = aos_step_core(*ref, targets.T, PARAMS, mass, friction)
        for name, a, b in zip(STEP_OUT, out, ref_out):
            assert np.asarray(a).dtype == np.asarray(b).dtype, name
            assert_same_bits_where_not_nan(np.asarray(a, dtype=float).T, b)
        state = list(out[:6] + out[7:])
        ref = list(ref_out[:6] + ref_out[7:])
    # the odd envs stay finite, so the comparison covers the physics too
    assert np.isfinite(np.concatenate(state[:6]))[:, 1::2].all()


@pytest.mark.parametrize("n", [None, 3])
def test_leg_sums_start_from_positive_zero(n):
    """numpy's sum over the 4-long leg axis starts from +0.0, so four forces
    of -0.0 sum to +0.0 where a written-out chain of adds keeps -0.0. Airborne
    feet slipping forward on a slope all get an x force of -0.0, and on a
    trunk at linvel_x = -0.0 the sum's sign shows in the new velocity."""
    params = sloped(0.2)
    s = spawn(params, drop=0.5)
    s["linvel"] = np.array([-0.0, 0.0, 0.0])
    s["qdot"] = np.tile([0.0, -1.0, 0.0], 4)
    inputs = [np.asarray(s[k], dtype=float) for k in STEP_IN]
    inputs += [params.nominal_q, np.array(params.trunk_mass), np.array(params.friction)]
    if n is not None:
        inputs = [np.repeat(x[..., None], n, axis=-1) for x in inputs]
    *state, targets, mass, friction = inputs
    out = _step_core(*state, targets, params, mass, friction)
    ref = aos_step_core(*(x.T for x in state), targets.T, params, mass, friction)
    for a, b in zip(out, ref):
        assert_same_bits(np.asarray(a, dtype=float).T, np.asarray(b, dtype=float))
    assert not np.signbit(out[2][0]).any()


# ---------------------------------------------------------------- termination

def test_timeout(planner):
    env = one_env(planner)
    p = env.base_params
    # the step ends exactly on the episode limit
    env.ep_steps[0] = round(p.episode_limit / POLICY_DT) - 1
    _, dones, info = env.step(np.zeros((1, 12)))
    assert info["timeout"][0] and not info["collision"][0]
    assert dones[0] == 1.0


def test_trunk_collision_when_low(planner):
    env = one_env(planner)
    # upside down, so the legs point up and cannot push the trunk off the ground
    env.rot[0] = [0.0, 1.0, 0.0, 0.0]
    env.pos[0] = [0.0, 0.0, 0.02]
    _, dones, info = env.step(np.zeros((1, 12)))
    assert info["collision"][0] and not info["timeout"][0]
    assert dones[0] == 1.0


def test_running_when_nominal(planner):
    env = one_env(planner)
    for _ in range(50):
        _, dones, _ = env.step(np.zeros((1, 12)))
        assert dones[0] == 0.0
    _, dones, info = env.step(np.zeros((1, 12)))
    assert not info["timeout"][0] and not info["collision"][0]
    assert dones[0] == 0.0


def test_trunk_clearance_flat():
    s = spawn(PARAMS)
    c = trunk_clearance(s["pos"], s["rot"], PARAMS)
    expected = s["pos"][2] - PARAMS.trunk_half_extents[2]
    assert c == pytest.approx(expected)


# ---------------------------------------------------------------- slope

def test_slope_terrain_normal():
    p = sloped(np.radians(10.0))
    assert p.terrain_normal[2] == pytest.approx(np.cos(np.radians(10.0)))
    # a foot below the inclined plane feels a force along the normal
    f = force(np.array([0.1, 0.0, 0.1 * np.tan(np.radians(10.0)) - 0.002]),
                      np.zeros(3), p)
    n = p.terrain_normal
    assert f @ n > 0
    # no tangential component for a static foot
    np.testing.assert_allclose(f - (f @ n) * n, 0.0, atol=1e-12)


def test_params_validation():
    """EnvParams' constants are checked as the config keys that fill them."""
    assert_config_rejects("sim.trunk_mass", -1.0)
    assert_config_rejects("sim.friction", -0.1)
    # pd_torque clips unchecked; the gains are checked once, as config keys
    for gain in ("robot.kp", "robot.kd"):
        assert_config_rejects(gain, -1.0)
    # the physics divides by the inertias and clamps torque at tau_limit; NaN fails too
    for key, value in (("sim.trunk_mass", np.nan), ("sim.friction", np.nan),
                       ("robot.kd", np.nan), ("sim.contact_stiffness", np.nan),
                       ("robot.tau_limit", 0.0), ("robot.tau_limit", -5.0),
                       ("sim.reflected_inertia", 0.0), ("sim.reflected_inertia", np.nan),
                       ("sim.trunk_inertia", [0.0, 0.25, 0.3]),
                       ("sim.trunk_inertia", [0.1, np.inf, 0.3])):
        assert_config_rejects(key, value)
