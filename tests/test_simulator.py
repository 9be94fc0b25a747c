import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import assert_same_bits, with_special_lanes
from cpgrl import quat
from cpgrl.config import RunConfig
from cpgrl.env import VecLocomotionEnv
from cpgrl.kinematics import forward_kinematics_all, leg_jacobian_all
from cpgrl.simulator import (
    NumericalDivergence,
    _matvec3_t,
    _step_core,
    contact_force,
    pd_torque,
    trunk_clearance,
)

PARAMS = RunConfig().env_params()

STEP_IN = ("pos", "rot", "linvel", "angvel", "q", "qdot", "air", "ep_time")
STEP_OUT = ("pos", "rot", "linvel", "angvel", "q", "qdot", "contacts", "air", "ep_time")


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
        "ep_time": 0.0,
    }


def substep(s, targets, params):
    """One `_step_core` substep of a single robot."""
    out = _step_core(*(s[k] for k in STEP_IN), targets, params, params.dt,
                     params.trunk_mass, params.friction)
    return dict(zip(STEP_OUT, out))


def force(foot_pos, foot_vel, params=PARAMS):
    """Contact force on foot point(s) at the params' own friction."""
    return contact_force(foot_pos, foot_vel, params, params.friction)[0]


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


def stack_matvec3_t(m, v):
    return np.stack(
        [
            m[..., 0, 0] * v[..., 0] + m[..., 1, 0] * v[..., 1] + m[..., 2, 0] * v[..., 2],
            m[..., 0, 1] * v[..., 0] + m[..., 1, 1] * v[..., 1] + m[..., 2, 1] * v[..., 2],
            m[..., 0, 2] * v[..., 0] + m[..., 1, 2] * v[..., 1] + m[..., 2, 2] * v[..., 2],
        ],
        axis=-1,
    )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lead", [(), (1, 4), (64, 4), (1024, 4)])
def test_matvec3_t_bitwise_equal_to_stack_form(lead):
    rng = np.random.default_rng(sum(lead))
    m = with_special_lanes(rng, lead + (3, 3))
    v = with_special_lanes(rng, lead + (3,))
    assert_same_bits(_matvec3_t(m, v), stack_matvec3_t(m, v))


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
             field((12,), -5.0, 5.0), field((4,), 0.0, 0.5), field((), 0.0, 10.0))
    targets = field((12,), -0.3, 0.3) + PARAMS.nominal_q
    return state, targets, field((), 10.0, 14.0), field((), 0.4, 1.2)


@settings(deadline=None, max_examples=50)
@given(batched_states())
def test_batched_step_core_equals_each_env_alone(sample):
    """Stepping n envs in one call gives each env's slice stepped alone, bit for bit."""
    state, targets, mass, friction = sample
    batched = _step_core(*state, targets, PARAMS, PARAMS.dt, mass, friction)
    for i in range(len(mass)):
        alone = _step_core(*(x[i] for x in state), targets[i], PARAMS, PARAMS.dt,
                           mass[i], friction[i])
        for name, b, a in zip(STEP_OUT, batched, alone):
            b, a = np.asarray(b[i]), np.asarray(a)
            assert (b.dtype, b.shape, b.tobytes()) == (a.dtype, a.shape, a.tobytes()), name


@pytest.mark.parametrize("n", [None, 3])
def test_step_core_never_writes_its_inputs(n):
    """Read-only inputs step without error, so the env may keep the pre-step arrays."""
    s = spawn(PARAMS, drop=-0.005)   # feet in contact
    s["angvel"] = np.array([0.4, -0.2, 0.9])
    inputs = [np.array(s[k], dtype=float) for k in STEP_IN]
    inputs += [PARAMS.nominal_q + 0.1, np.array(PARAMS.trunk_mass), np.array(PARAMS.friction)]
    if n is not None:
        inputs = [np.repeat(x[None], n, axis=0) for x in inputs]
    before = [x.copy() for x in inputs]
    for x in inputs:
        x.flags.writeable = False
    *state, targets, mass, friction = inputs
    _step_core(*state, targets, PARAMS, PARAMS.dt, mass, friction)
    for x, x0 in zip(inputs, before):
        assert_same_bits(x, x0)


# ---------------------------------------------------------------- termination

def test_timeout(planner):
    env = one_env(planner)
    p = env.base_params
    # the step's substeps end exactly on the episode limit
    env.ep_time[0] = p.episode_limit - env.substeps * p.dt
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
    env.ep_time[0] = 5.0
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
    p = PARAMS.with_slope(np.radians(10.0))
    assert p.terrain_normal[2] == pytest.approx(np.cos(np.radians(10.0)))
    # a foot below the inclined plane feels a force along the normal
    f = force(np.array([0.1, 0.0, 0.1 * np.tan(np.radians(10.0)) - 0.002]),
                      np.zeros(3), p)
    n = p.terrain_normal
    assert f @ n > 0
    # no tangential component for a static foot
    np.testing.assert_allclose(f - (f @ n) * n, 0.0, atol=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        replace(PARAMS, trunk_mass=-1.0)
    with pytest.raises(ValueError):
        replace(PARAMS, friction=-0.1)
    # pd_torque clips unchecked; the gains are checked here, once
    for gain in ("kp", "kd"):
        with pytest.raises(ValueError, match="gains"):
            replace(PARAMS, **{gain: -1.0})
