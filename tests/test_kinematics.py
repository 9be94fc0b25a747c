from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import assert_same_bits, one_leg_foot, one_leg_jacobian, with_special_lanes
from cpgrl.config import RunConfig
from cpgrl.kinematics import (
    LEG_INDEX,
    Unreachable,
    foot_velocities,
    forward_kinematics_all,
    inverse_kinematics,
    joint_torques,
    leg_jacobian_all,
    leg_kinematics,
    standing_pose,
)

GO1 = RunConfig().leg_geometry()
GEOM = replace(GO1, hip_mounts=np.zeros((4, 3)))  # mounts at origin for hand checks
FR = LEG_INDEX["FR"]
FL = LEG_INDEX["FL"]


def random_reachable_joints(rng, n, below_axis=False):
    """Joint samples away from the full-extension singularity.

    With below_axis=True, keeps only configurations whose foot lies clearly
    below the abduction axis: the domain on which IK's branch choice is
    unique, so the angle round trip is exact.
    """
    out = []
    while len(out) < n:
        q = np.array(
            [rng.uniform(-0.7, 0.7), rng.uniform(-0.6, 1.2), rng.uniform(-2.4, -0.3)]
        )
        if below_axis:
            t, c = GO1.thigh_len, GO1.calf_len
            z = -t * np.cos(q[1]) - c * np.cos(q[1] + q[2])
            if z > -0.02:
                continue
        out.append(q)
    return np.array(out)


def test_fk_zero_pose_points_straight_down():
    foot = one_leg_foot(np.zeros(3), GEOM, FR)
    np.testing.assert_allclose(foot, [0.0, -0.08, -0.426], atol=1e-15)


def test_fk_right_angle_knee():
    foot = one_leg_foot(np.array([0.0, 0.0, -np.pi / 2]), GEOM, FR)
    np.testing.assert_allclose(foot, [0.213, -0.08, -0.213], atol=1e-12)


def test_fk_abduction_matches_rotation_matrix_oracle():
    # independent homogeneous-transform chain: Rot_x(q_abd) applied to the
    # (y_offset, sagittal) assembly
    rng = np.random.default_rng(3)
    for _ in range(50):
        q = random_reachable_joints(rng, 1)[0]
        t, c = GEOM.thigh_len, GEOM.calf_len
        x = -t * np.sin(q[1]) - c * np.sin(q[1] + q[2])
        z = -t * np.cos(q[1]) - c * np.cos(q[1] + q[2])
        local = np.array([x, -0.08, z])
        ca, sa = np.cos(q[0]), np.sin(q[0])
        rot_x = np.array([[1, 0, 0], [0, ca, -sa], [0, sa, ca]])
        np.testing.assert_allclose(
            one_leg_foot(q, GEOM, FR), rot_x @ local, atol=1e-12
        )


def test_fk_all_matches_per_leg():
    """Each leg's foot depends on its own three joints only."""
    rng = np.random.default_rng(4)
    q12 = random_reachable_joints(rng, 4).reshape(12)
    feet = forward_kinematics_all(q12, GO1)
    for leg in range(4):
        np.testing.assert_array_equal(
            feet[leg], one_leg_foot(q12[3 * leg : 3 * leg + 3], GO1, leg)
        )


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-6
    qs = random_reachable_joints(rng, 100)
    for q in qs:
        jac = one_leg_jacobian(q, GO1, FR)
        fd = np.zeros((3, 3))
        for j in range(3):
            dq = np.zeros(3)
            dq[j] = h
            fd[:, j] = (
                one_leg_foot(q + dq, GO1, FR) - one_leg_foot(q - dq, GO1, FR)
            ) / (2 * h)
        np.testing.assert_allclose(jac, fd, rtol=1e-5, atol=1e-8)


def test_jacobian_specific_point():
    q = np.array([0.1, 0.4, -0.8])
    jac = one_leg_jacobian(q, GO1, FR)
    h = 1e-6
    fd = np.zeros((3, 3))
    for j in range(3):
        dq = np.zeros(3)
        dq[j] = h
        fd[:, j] = (
            one_leg_foot(q + dq, GO1, FR) - one_leg_foot(q - dq, GO1, FR)
        ) / (2 * h)
    np.testing.assert_allclose(jac, fd, rtol=1e-5, atol=1e-9)


def test_jacobian_singular_at_full_extension():
    jac = one_leg_jacobian(np.array([0.2, 0.3, 0.0]), GO1, FR)
    scale = GO1.max_reach**3
    assert abs(np.linalg.det(jac)) < 1e-9 * scale


def test_jacobian_abduction_column_has_zero_x():
    rng = np.random.default_rng(6)
    for q in random_reachable_joints(rng, 20):
        jac = one_leg_jacobian(q, GO1, FR)
        assert jac[0, 0] == 0.0


def test_jacobian_all_matches_per_leg():
    """Each leg's Jacobian depends on its own three joints only."""
    rng = np.random.default_rng(7)
    q12 = random_reachable_joints(rng, 4).reshape(12)
    jacs = leg_jacobian_all(q12, GO1)
    for leg in range(4):
        np.testing.assert_array_equal(
            jacs[leg], one_leg_jacobian(q12[3 * leg : 3 * leg + 3], GO1, leg)
        )


def test_ik_round_trip_specific():
    q = np.array([0.3, 0.5, -1.0])
    p = one_leg_foot(q, GO1, FR)
    q_back = inverse_kinematics(p, GO1, FR)
    np.testing.assert_allclose(q_back, q, atol=1e-9)


def test_fk_ik_round_trip_random_points():
    rng = np.random.default_rng(8)
    n = 10000
    qs = random_reachable_joints(rng, n, below_axis=True)
    legs = rng.integers(0, 4, n)
    for q, leg in zip(qs, legs):
        p = one_leg_foot(q, GO1, int(leg))
        q_back = inverse_kinematics(p, GO1, int(leg))
        p_back = one_leg_foot(q_back, GO1, int(leg))
        assert np.max(np.abs(p_back - p)) <= 1e-9
        # same branch (knee backward, foot below axis) recovers the same angles
        np.testing.assert_allclose(q_back, q, atol=1e-7)


def test_ik_full_extension_boundary():
    # foot exactly at max reach straight down
    p = GO1.hip_mounts[FR] + np.array([0.0, -0.08, -GO1.max_reach])
    q = inverse_kinematics(p, GO1, FR)
    assert q[2] == pytest.approx(0.0, abs=1e-6)


def test_ik_unreachable_too_far():
    p = GO1.hip_mounts[FR] + np.array([0.5, -0.08, 0.0])
    with pytest.raises(Unreachable):
        inverse_kinematics(p, GO1, FR)


def test_ik_unreachable_inside_hip_cylinder():
    p = GO1.hip_mounts[FR] + np.array([0.0, -0.01, 0.0])
    with pytest.raises(Unreachable):
        inverse_kinematics(p, GO1, FR)


def test_mirror_symmetry():
    rng = np.random.default_rng(9)
    for q in random_reachable_joints(rng, 30):
        q_mirror = q * np.array([-1.0, 1.0, 1.0])
        p_fr = one_leg_foot(q, GEOM, FR)
        p_fl = one_leg_foot(q_mirror, GEOM, FL)
        np.testing.assert_allclose(p_fl, p_fr * np.array([1.0, -1.0, 1.0]), atol=1e-12)


def test_standing_pose_height():
    q = standing_pose(GO1, 0.32)
    feet = forward_kinematics_all(q, GO1)
    np.testing.assert_allclose(feet[:, 2], -0.32, atol=1e-12)
    # feet directly below hips (x of mount, y of mount + lateral offset)
    np.testing.assert_allclose(feet[:, 0], GO1.hip_mounts[:, 0], atol=1e-12)


def test_geometry_validation():
    with pytest.raises(ValueError):
        replace(GO1, thigh_len=-0.1)


# ---------------------------------------------------------------- bitwise oracles

def stack_forward_kinematics_all(q12, geom):
    q = q12.reshape(q12.shape[:-1] + (4, 3))
    q_abd, q_hip, q_knee = q[..., 0], q[..., 1], q[..., 2]
    t, c = geom.thigh_len, geom.calf_len
    x = -t * np.sin(q_hip) - c * np.sin(q_hip + q_knee)
    z = -t * np.cos(q_hip) - c * np.cos(q_hip + q_knee)
    y = geom.side_signs * geom.hip_offset
    ca, sa = np.cos(q_abd), np.sin(q_abd)
    foot = np.stack([x, ca * y - sa * z, sa * y + ca * z], axis=-1)
    return geom.hip_mounts + foot


def stack_jacobian(q_abd, q_hip, q_knee, geom, y_off):
    t, c = geom.thigh_len, geom.calf_len
    hk = q_hip + q_knee
    x = -t * np.sin(q_hip) - c * np.sin(q_hip + q_knee)
    z = -t * np.cos(q_hip) - c * np.cos(q_hip + q_knee)
    dx_dhip = -t * np.cos(q_hip) - c * np.cos(hk)
    dz_dhip = t * np.sin(q_hip) + c * np.sin(hk)
    dx_dknee = -c * np.cos(hk)
    dz_dknee = c * np.sin(hk)
    ca, sa = np.cos(q_abd), np.sin(q_abd)
    zero = np.zeros_like(x)
    y_off = np.broadcast_to(y_off, x.shape)
    col_abd = np.stack([zero, -sa * y_off - ca * z, ca * y_off - sa * z], axis=-1)
    col_hip = np.stack([dx_dhip, -sa * dz_dhip, ca * dz_dhip], axis=-1)
    col_knee = np.stack([dx_dknee, -sa * dz_dknee, ca * dz_dknee], axis=-1)
    return np.stack([col_abd, col_hip, col_knee], axis=-1)


# (84,) is the planner refinement's batch: the desk fit's 84 training samples
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lead", [(), (1,), (64,), (1024,), (84,)])
def test_fk_and_jacobian_bitwise_equal_to_stack_forms(lead):
    rng = np.random.default_rng(sum(lead) + 1)
    q12 = with_special_lanes(rng, lead + (12,))
    stack_feet = stack_forward_kinematics_all(q12, GO1)
    assert_same_bits(forward_kinematics_all(q12, GO1), stack_feet)
    q = q12.reshape(lead + (4, 3))
    y_all = GO1.side_signs * GO1.hip_offset
    stack_jac = stack_jacobian(q[..., 0], q[..., 1], q[..., 2], GO1, y_all)
    assert_same_bits(leg_jacobian_all(q12, GO1), stack_jac)
    for leg in range(4):
        y_off = GO1.side_signs[leg] * GO1.hip_offset
        assert_same_bits(one_leg_jacobian(q[..., leg, :], GO1, leg),
                         stack_jacobian(q[..., leg, 0], q[..., leg, 1], q[..., leg, 2], GO1, y_off))
    # the abduction column's x entry is +0.0, as zeros_like gave
    assert not np.signbit(leg_jacobian_all(q12, GO1)[..., 0, 0]).any()
    # leg_kinematics as `_step_core` calls it: (12, ...) joints in, (3, 4, ...)
    # feet and (3, 3, 4, ...) Jacobians out of one pass
    q_c = np.ascontiguousarray(np.moveaxis(q12, -1, 0))
    feet_c, jac_c = leg_kinematics(q_c, GO1, jacobian=True)
    assert_same_bits(feet_c, np.moveaxis(stack_feet, (-1, -2), (0, 1)))
    assert_same_bits(jac_c, np.moveaxis(stack_jac, (-2, -1, -3), (0, 1, 2)))


def stack_matvec3(m, v):
    return np.stack(
        [
            m[..., 0, 0] * v[..., 0] + m[..., 0, 1] * v[..., 1] + m[..., 0, 2] * v[..., 2],
            m[..., 1, 0] * v[..., 0] + m[..., 1, 1] * v[..., 1] + m[..., 1, 2] * v[..., 2],
            m[..., 2, 0] * v[..., 0] + m[..., 2, 1] * v[..., 1] + m[..., 2, 2] * v[..., 2],
        ],
        axis=-1,
    )


def stack_matvec3_t(m, v):
    return np.stack(
        [
            m[..., 0, 0] * v[..., 0] + m[..., 1, 0] * v[..., 1] + m[..., 2, 0] * v[..., 2],
            m[..., 0, 1] * v[..., 0] + m[..., 1, 1] * v[..., 1] + m[..., 2, 1] * v[..., 2],
            m[..., 0, 2] * v[..., 0] + m[..., 1, 2] * v[..., 1] + m[..., 2, 2] * v[..., 2],
        ],
        axis=-1,
    )


# the leading axes of the stack forms end in the 4-long leg axis: one robot,
# then the n = 1 env step and the desk and rollout batches
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("lead", [(4,), (1, 4), (64, 4), (1024, 4)])
def test_foot_velocities_and_joint_torques_bitwise_equal_to_stack_forms(lead):
    """(3, 3, 4, ...) Jacobians, (12, ...) joint velocities and (3, 4, ...)
    foot forces, component-major as `_step_core` passes them, against the
    stack forms on (..., 3, 3) matrices and (..., 3) vectors."""
    rng = np.random.default_rng(sum(lead))
    m = with_special_lanes(rng, lead + (3, 3))
    v = with_special_lanes(rng, lead + (3,))
    m_c = np.moveaxis(m, (-2, -1, -3), (0, 1, 2))
    v_c = np.moveaxis(v, (-1, -2), (0, 1))
    joints = lead[:-1] + (12,)
    qdot = np.moveaxis(v.reshape(joints), -1, 0)
    assert_same_bits(joint_torques(m_c, v_c),
                     np.moveaxis(stack_matvec3_t(m, v).reshape(joints), -1, 0))
    assert_same_bits(foot_velocities(m_c, qdot),
                     np.moveaxis(stack_matvec3(m, v), (-1, -2), (0, 1)))


# ---------------------------------------------------------------- properties

@given(
    st.floats(-0.7, 0.7), st.floats(-0.6, 1.2), st.floats(-2.4, -0.3),
    st.integers(0, 3),
)
def test_fk_ik_fk_round_trip_property(q_abd, q_hip, q_knee, leg):
    t, c = GO1.thigh_len, GO1.calf_len
    # IK picks the branch with the foot below the abduction axis
    assume(-t * np.cos(q_hip) - c * np.cos(q_hip + q_knee) <= -0.02)
    q = np.array([q_abd, q_hip, q_knee])
    p = one_leg_foot(q, GO1, leg)
    q_back = inverse_kinematics(p, GO1, leg)
    assert np.max(np.abs(one_leg_foot(q_back, GO1, leg) - p)) <= 1e-9
    np.testing.assert_allclose(q_back, q, atol=1e-7)
