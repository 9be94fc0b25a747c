import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    assert_same_bits,
    assert_same_bits_where_not_nan,
    concat_from_rotvec,
    concat_rotate_inv,
    stack_cross,
    stack_multiply,
    stack_rotate,
    sum_normalize,
    with_special_lanes,
)
from cpgrl import quat

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
    assert_same_bits(quat._cross(u.T, v.T), stack_cross(u, v).T)
    assert_same_bits(quat.rotate(q, v), stack_rotate(q, v))
    assert_same_bits(quat.rotate_inv(q, v), concat_rotate_inv(q, v))
    assert_same_bits(quat.multiply(q, q2), stack_multiply(q, q2))
    assert_same_bits(quat.from_rotvec(v), concat_from_rotvec(v))
    assert_same_bits(quat.normalize(q), sum_normalize(q))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n", [1, 64, 1024])
def test_kernels_bitwise_on_the_step_core_broadcast(n):
    """(4, 1, n) quaternions against (3, 4, n) foot vectors, component-major
    as `_step_core` calls the kernels, and the (n, 1, 4) and (n, 4, 3)
    array-of-structs forms through the public functions (the cross product
    has none)."""
    rng = np.random.default_rng(n)
    rot4 = with_special_lanes(rng, (n, 1, 4))
    feet = with_special_lanes(rng, (n, 4, 3))
    angvel = with_special_lanes(rng, (n, 1, 3))
    assert_same_bits(quat.rotate(rot4, feet), stack_rotate(rot4, feet))
    assert_same_bits(quat.rotate_inv(rot4, feet), concat_rotate_inv(rot4, feet))
    # a world-frame constant against a batch, as gravity_body calls rotate_inv
    g = np.array([0.0, 0.0, -1.0])
    assert_same_bits(quat.rotate_inv(rot4[:, 0], g), concat_rotate_inv(rot4[:, 0], g))

    rot4_c, feet_c, angvel_c = (x.transpose(2, 1, 0) for x in (rot4, feet, angvel))
    w, u = rot4_c[0], rot4_c[1:4]
    assert_same_bits(quat._rotate(w, u, feet_c), stack_rotate(rot4, feet).transpose(2, 1, 0))
    assert_same_bits(quat._rotate(w, -u, feet_c),
                     concat_rotate_inv(rot4, feet).transpose(2, 1, 0))
    assert_same_bits(quat._cross(angvel_c, feet_c), stack_cross(angvel, feet).transpose(2, 1, 0))
    # and on the contiguous (3, 1, n) and (3, 4, n) arrays `_step_core` holds
    assert_same_bits(quat._cross(np.ascontiguousarray(angvel_c), np.ascontiguousarray(feet_c)),
                     stack_cross(angvel, feet).transpose(2, 1, 0))
    # the trunk update: one rotation vector and quaternion per env
    rot, r = rot4[:, 0], angvel[:, 0]
    assert_same_bits(quat._cross(r.T, feet[:, 0].T), stack_cross(r, feet[:, 0]).T)
    assert_same_bits(quat._from_rotvec(r.T), concat_from_rotvec(r).T)
    assert_same_bits(quat._multiply(rot.T, rot4[::-1, 0].T), stack_multiply(rot, rot4[::-1, 0]).T)
    assert_same_bits(quat._normalize(rot.T), sum_normalize(rot).T)


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
