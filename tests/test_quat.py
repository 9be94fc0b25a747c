import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import assert_same_bits, with_special_lanes
from cpgrl import quat

# ------------------------------------------------- reference (stack) forms


def stack_cross(a, b):
    ax, ay, az = a[..., 0], a[..., 1], a[..., 2]
    bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx], axis=-1)


def stack_rotate(q, v):
    w = q[..., 0:1]
    u = q[..., 1:4]
    uv = stack_cross(u, v)
    uuv = stack_cross(u, uv)
    return v + 2.0 * (w * uv + uuv)


def concat_rotate_inv(q, v):
    conj = np.concatenate([q[..., 0:1], -q[..., 1:4]], axis=-1)
    return stack_rotate(conj, v)


def stack_multiply(a, b):
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def concat_from_rotvec(r):
    angle = np.sqrt(np.sum(r * r, axis=-1, keepdims=True))
    half = 0.5 * angle
    small = angle < 1e-12
    scale = np.where(small, 0.5, np.sin(half) / np.where(small, 1.0, angle))
    return np.concatenate([np.cos(half), r * scale], axis=-1)


def sum_normalize(q):
    return q / np.sqrt(np.sum(q * q, axis=-1, keepdims=True))


# leading shapes: one item, the n = 1 env step, and the desk and rollout batches
LEADING = [(), (1, 4), (64, 4), (1024, 4)]


# ------------------------------------------------- bitwise oracles


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lead", LEADING)
def test_kernels_bitwise_equal_to_stack_forms(lead):
    rng = np.random.default_rng(len(lead) + sum(lead))
    q = with_special_lanes(rng, lead + (4,))
    q2 = with_special_lanes(rng, lead + (4,))
    v = with_special_lanes(rng, lead + (3,))
    u = with_special_lanes(rng, lead + (3,))
    assert_same_bits(quat.cross(u, v), stack_cross(u, v))
    assert_same_bits(quat.rotate(q, v), stack_rotate(q, v))
    assert_same_bits(quat.rotate_inv(q, v), concat_rotate_inv(q, v))
    assert_same_bits(quat.multiply(q, q2), stack_multiply(q, q2))
    assert_same_bits(quat.from_rotvec(v), concat_from_rotvec(v))
    assert_same_bits(quat.normalize(q), sum_normalize(q))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 64, 1024])
def test_kernels_bitwise_on_the_step_core_broadcast(n):
    """(n, 1, 4) quaternions against (n, 4, 3) foot vectors, as `_step_core` calls them."""
    rng = np.random.default_rng(n)
    rot4 = with_special_lanes(rng, (n, 1, 4))
    feet = with_special_lanes(rng, (n, 4, 3))
    angvel = with_special_lanes(rng, (n, 1, 3))
    assert_same_bits(quat.rotate(rot4, feet), stack_rotate(rot4, feet))
    assert_same_bits(quat.rotate_inv(rot4, feet), concat_rotate_inv(rot4, feet))
    assert_same_bits(quat.cross(angvel, feet), stack_cross(angvel, feet))
    # a world-frame constant against a batch, as gravity_body calls rotate_inv
    g = np.array([0.0, 0.0, -1.0])
    assert_same_bits(quat.rotate_inv(rot4[:, 0], g), concat_rotate_inv(rot4[:, 0], g))


def test_from_rotvec_zero_and_tiny_angles_bitwise():
    r = np.array([[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [1e-13, 0.0, 0.0], [0.0, -5e-324, 0.0]])
    assert_same_bits(quat.from_rotvec(r), concat_from_rotvec(r))
    assert_same_bits(quat.from_rotvec(r[0]), concat_from_rotvec(r[0]))


@st.composite
def rotations_of_two_blocks(draw):
    """(lead, 1, 4) quaternions and two (lead, k, 3) vector blocks, any float64."""
    lead = draw(st.sampled_from([(), (1,), (64,)]))
    k = draw(st.integers(1, 4))
    floats = st.floats(width=64, allow_nan=True, allow_infinity=True)
    q = draw(arrays(np.float64, lead + (1, 4), elements=floats))
    a = draw(arrays(np.float64, lead + (4, 3), elements=floats))
    b = draw(arrays(np.float64, lead + (k, 3), elements=floats))
    return q, a, b


def assert_same_bits_where_not_nan(a, b):
    """NaN in the same lanes, identical bits (signed zeros and infinities
    included) in every other lane.

    IEEE 754 leaves the sign and payload of a produced NaN unspecified, and
    numpy picks its ufunc loop by array length, so which NaN a lane holds can
    depend on how many rows were rotated together. No output can show it:
    the simulator's divergence check raises on any NaN.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    np.testing.assert_array_equal(nan, np.isnan(b))
    assert_same_bits(np.where(nan, 0.0, a), np.where(nan, 0.0, b))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(rotations_of_two_blocks())
# with a zero quaternion, 0 * inf makes one NaN and 0 * nan passes on another;
# the 5-row and the 1-row rotation keep NaNs of opposite sign
@example((np.zeros((1, 4)), np.zeros((4, 3)), np.array([[np.nan, np.inf, np.inf]])))
def test_rotating_a_concatenation_equals_concatenated_rotations(sample):
    """`_step_core` rotates feet with their velocities, and forces with the
    torque, in one call each."""
    q, a, b = sample
    for rotate in (quat.rotate, quat.rotate_inv):
        joined = rotate(q, np.concatenate([a, b], axis=-2))
        assert_same_bits_where_not_nan(
            joined, np.concatenate([rotate(q, a), rotate(q, b)], axis=-2))


# ------------------------------------------------- properties

quats = arrays(np.float64, 4, elements=st.floats(-1.0, 1.0)).filter(
    lambda q: np.linalg.norm(q) > 0.1
).map(quat.normalize)
vecs = arrays(np.float64, 3, elements=st.floats(-10.0, 10.0))


@given(quats, vecs)
def test_rotate_round_trip_and_norm(q, v):
    w = quat.rotate(q, v)
    scale = max(1.0, float(np.linalg.norm(v)))
    assert abs(np.linalg.norm(w) - np.linalg.norm(v)) <= 1e-12 * scale
    np.testing.assert_allclose(quat.rotate_inv(q, w), v, rtol=0, atol=1e-12 * scale)


@given(quats, quats, vecs)
def test_multiply_composes_rotations(a, b, v):
    scale = max(1.0, float(np.linalg.norm(v)))
    np.testing.assert_allclose(
        quat.rotate(quat.multiply(a, b), v), quat.rotate(a, quat.rotate(b, v)),
        rtol=0, atol=1e-12 * scale,
    )


@given(arrays(np.float64, 3, elements=st.floats(-3.0, 3.0)), vecs)
def test_from_rotvec_matches_rodrigues(r, v):
    angle = np.linalg.norm(r)
    axis = r / angle if angle > 0 else np.zeros(3)
    rodrigues = (v * np.cos(angle) + np.cross(axis, v) * np.sin(angle)
                 + axis * (axis @ v) * (1.0 - np.cos(angle)))
    scale = max(1.0, float(np.linalg.norm(v)))
    np.testing.assert_allclose(quat.rotate(quat.from_rotvec(r), v), rodrigues,
                               rtol=0, atol=1e-12 * scale)
