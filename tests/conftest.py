import ast
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpgrl.config import ConfigError, RunConfig, config_from_dict
from cpgrl.gait_planner import MotorLayer, build_planner, fitted_planner
from cpgrl.kinematics import LEG_NAMES, forward_kinematics_all, leg_jacobian_all
from cpgrl.nn import elu, elu_grad
from cpgrl.simulator import pd_torque

# values a rewritten kernel must carry through bit for bit: both zeros, both infinities, NaN
SPECIAL_LANES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def assert_same_bits(a, b):
    """Equal shape and identical float64 bit patterns (sign of zero, inf, NaN)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def config_with(key, value):
    """The config dict that sets one dotted key, e.g. config_with("sim.dt", 0.01)."""
    *sections, name = key.split(".")
    data = {name: value}
    for section in reversed(sections):
        data = {section: data}
    return data


def assert_config_rejects(key, value):
    """Loading a config that sets only this key to value raises a ConfigError
    naming the key."""
    with pytest.raises(ConfigError, match=re.escape(key)):
        config_from_dict(config_with(key, value))


def set_checkpoint_meta(path, add_arrays=None, **entries):
    """Rewrite entries of a checkpoint's meta, and add arrays, as an earlier
    writer would have set them."""
    with np.load(path) as data:
        arrays = dict(data)
    arrays.update(add_arrays or {})
    meta = json.loads(str(arrays["meta"]))
    meta.update(entries)
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


def in_fresh_process(module, function):
    """module.function()'s value, called in a new interpreter that imports
    from tests/ and src/; for figures such as page faults and the peak
    resident set, which depend on a process's history."""
    tests = Path(__file__).parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tests), str(tests.parent / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", f"import {module}; print({module}.{function}())"],
        env=env, check=True, timeout=600, capture_output=True, text=True).stdout
    return ast.literal_eval(out.strip().splitlines()[-1])


def central_difference(params, idx, h, loss):
    """(loss() at params[idx] + h  -  loss() at params[idx] - h) / 2h.

    Perturbs the live parameter buffer in place and assigns the saved value
    back, so the model is unchanged afterwards.
    """
    saved = params[idx]
    params[idx] = saved + h
    up = loss()
    params[idx] = saved - h
    down = loss()
    params[idx] = saved
    return (up - down) / (2 * h)


def with_special_lanes(rng, shape, share=0.2):
    """Standard-normal array with about `share` of its entries set to SPECIAL_LANES."""
    x = rng.normal(size=shape)
    mask = rng.random(shape) < share
    x[mask] = rng.choice(SPECIAL_LANES, size=int(mask.sum()))
    return x


def save_demo_csv(demo, path, sample_rate=180.0):
    """Write the demo CSV schema `t,leg,x,y,z` that `load_demo_csv` reads,
    sampled at sample_rate Hz (a 120-sample cycle is then 1.5 Hz); repr
    floats round-trip bit-exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("t", "leg", "x", "y", "z"))
        n = demo.feet.shape[1]
        for leg, name in enumerate(LEG_NAMES):
            for k in range(n):
                t = k / sample_rate
                x, y, z = demo.feet[leg, k]
                writer.writerow(
                    [repr(float(t)), name, repr(float(x)), repr(float(y)), repr(float(z))]
                )


def foot_clearances(feet_table):
    """Peak swing height above stance level per leg; feet_table (T, 4, 3)."""
    z = feet_table[..., 2]
    return z.max(axis=0) - z.min(axis=0)


def _in_leg_slot(q, leg):
    """(..., 3) joints of one leg placed in an otherwise zero (..., 12) vector."""
    q = np.asarray(q, dtype=float)
    q12 = np.zeros(q.shape[:-1] + (12,))
    q12[..., 3 * leg:3 * leg + 3] = q
    return q12


def one_leg_foot(q, geom, leg):
    """One leg's foot (..., 3) from its (..., 3) joints, through forward_kinematics_all."""
    return forward_kinematics_all(_in_leg_slot(q, leg), geom)[..., leg, :]


def one_leg_jacobian(q, geom, leg):
    """One leg's (..., 3, 3) Jacobian from its (..., 3) joints, through leg_jacobian_all."""
    return leg_jacobian_all(_in_leg_slot(q, leg), geom)[..., leg, :, :]


def allocating_forward_cached(net, x):
    """The earlier Mlp.forward_cached, which allocated every array it cached."""
    x = np.asarray(x, dtype=float)
    inputs = [x]
    pres = []
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        pre = inputs[-1] @ w + b
        pres.append(pre)
        if i < net.n_layers - 1:
            inputs.append(elu(pre))
    return pres[-1], (inputs, pres)


def allocating_take(workspace, name, shape):
    """A Workspace.take that hands out new zeroed memory on every call, as the
    earlier RolloutBuffer.empty and the earlier networks did."""
    return np.zeros(shape)


def allocating_backward(net, cache, grad_out):
    """The earlier Mlp.backward, which allocated the running gradient per layer."""
    inputs, pres = cache
    g = np.asarray(grad_out, dtype=float)
    for i in range(net.n_layers - 1, -1, -1):
        if i < net.n_layers - 1:
            g = g * elu_grad(pres[i])
        x = inputs[i]
        g2 = g.reshape(-1, g.shape[-1])
        np.matmul(x.reshape(-1, x.shape[-1]).T, g2, out=net.grad_ws[i])
        g2.sum(axis=0, out=net.grad_bs[i])
        if i > 0:
            g = g @ net.weights[i].T
    return net.grads


# ------------------------------------------------ array-of-structs physics
#
# The physics as it ran before it went component-major: every array kept its
# 3- or 4-long component axis last and broadcast over leading env axes. The
# quaternion stack forms were bit-equal to the quaternion functions of that
# version, so they stand in for them here.


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


def aos_leg_kinematics(q, geom, y_off, mounts, jacobian=False):
    """Feet (..., 3) and Jacobians (..., 3, 3) of legs whose joints are q's last axis."""
    q_abd, q_hip, q_knee = q[..., 0], q[..., 1], q[..., 2]
    t, c = geom.thigh_len, geom.calf_len
    hk = q_hip + q_knee
    sin_h, cos_h = np.sin(q_hip), np.cos(q_hip)
    sin_hk, cos_hk = np.sin(hk), np.cos(hk)
    ca, sa = np.cos(q_abd), np.sin(q_abd)
    z = -t * cos_h - c * cos_hk
    foot_y = ca * y_off - sa * z

    foot = np.empty(z.shape + (3,))
    foot[..., 0] = -t * sin_h - c * sin_hk
    foot[..., 1] = foot_y
    foot[..., 2] = sa * y_off + ca * z
    foot += mounts
    if not jacobian:
        return foot, None

    dx_dknee = -c * cos_hk
    dz_dknee = c * sin_hk
    dz_dhip = t * sin_h + dz_dknee
    neg_sa = -sa
    jac = np.empty(z.shape + (3, 3))
    jac[..., 0, 0] = 0.0
    jac[..., 1, 0] = neg_sa * y_off - ca * z
    jac[..., 2, 0] = foot_y
    jac[..., 0, 1] = z
    jac[..., 1, 1] = neg_sa * dz_dhip
    jac[..., 2, 1] = ca * dz_dhip
    jac[..., 0, 2] = dx_dknee
    jac[..., 1, 2] = neg_sa * dz_dknee
    jac[..., 2, 2] = ca * dz_dknee
    return foot, jac


def aos_clamp_joints(q, joint_limits):
    return np.minimum(np.maximum(q, joint_limits[0]), joint_limits[1])


def aos_contact_force(foot_pos, foot_vel, params, friction):
    n = params.terrain_normal
    height = (
        foot_pos[..., 0] * n[0] + foot_pos[..., 1] * n[1] + foot_pos[..., 2] * n[2]
    )
    pen = -height
    in_contact = pen > 0.0

    v_n = foot_vel[..., 0] * n[0] + foot_vel[..., 1] * n[1] + foot_vel[..., 2] * n[2]
    normal_mag = np.where(
        in_contact,
        np.maximum(0.0, params.contact_stiffness * pen - params.contact_damping * v_n),
        0.0,
    )

    v_t = foot_vel - v_n[..., None] * n
    speed = np.sqrt((v_t * v_t).sum(axis=-1))
    cap = friction * normal_mag
    tangential_mag = np.minimum(cap, params.tangential_gain * speed)
    safe_speed = np.where(speed > 0.0, speed, 1.0)
    f_t = -(tangential_mag / safe_speed)[..., None] * v_t

    return normal_mag[..., None] * n + f_t, pen


def aos_matvec3(m, v):
    return (
        m[..., 0] * v[..., 0:1] + m[..., 1] * v[..., 1:2] + m[..., 2] * v[..., 2:3]
    )


def aos_matvec3_t(m, v):
    return (
        m[..., 0, :] * v[..., 0:1] + m[..., 1, :] * v[..., 1:2] + m[..., 2, :] * v[..., 2:3]
    )


def aos_step_core(pos, rot, linvel, angvel, q, qdot, air, targets, params, mass, friction):
    """One substep on (..., 3), (..., 4) and (..., 12) arrays; leading axes broadcast."""
    dt = params.dt
    tau = pd_torque(targets, q, qdot, params.kp, params.kd, params.tau_limit)

    geom = params.geometry
    feet_b, jac_b = aos_leg_kinematics(q.reshape(q.shape[:-1] + (4, 3)), geom,
                                       geom.side_signs * geom.hip_offset, geom.hip_mounts,
                                       jacobian=True)
    rot4 = rot[..., None, :]
    qdot_legs = np.reshape(qdot, qdot.shape[:-1] + (4, 3))
    v_feet_b = aos_matvec3(jac_b, qdot_legs)
    feet_v_w = stack_rotate(rot4, np.concatenate(
        [feet_b, stack_cross(angvel[..., None, :], feet_b) + v_feet_b], axis=-2))
    feet_w = pos[..., None, :] + feet_v_w[..., :4, :]
    v_feet_w = linvel[..., None, :] + feet_v_w[..., 4:, :]

    f_w, pen = aos_contact_force(feet_w, v_feet_w, params,
                                 np.asarray(friction, dtype=float)[..., None])
    torque_w = stack_cross(feet_w - pos[..., None, :], f_w).sum(axis=-2)
    wrench_b = concat_rotate_inv(rot4, np.concatenate([f_w, torque_w[..., None, :]], axis=-2))
    f_b = wrench_b[..., :4, :]
    torque_b = wrench_b[..., 4, :]

    joint_reaction = np.reshape(aos_matvec3_t(jac_b, f_b), qdot.shape)

    qddot = (tau + joint_reaction) / params.reflected_inertia
    qdot_new = qdot + dt * qddot
    q_unclamped = q + dt * qdot_new
    q_new = aos_clamp_joints(q_unclamped, params.joint_limits)
    qdot_new = np.where(q_new != q_unclamped, 0.0, qdot_new)

    mass_arr = np.asarray(mass, dtype=float)
    f_sum = f_w.sum(axis=-2)
    accel = f_sum / mass_arr[..., None]
    accel[..., 2] = accel[..., 2] - params.gravity
    linvel_new = linvel + dt * accel
    pos_new = pos + dt * linvel_new

    inertia = params.trunk_inertia
    ang_mom = inertia * angvel
    gyro = stack_cross(angvel, ang_mom)
    angvel_new = angvel + dt * (torque_b - gyro) / inertia
    rot_new = sum_normalize(stack_multiply(rot, concat_from_rotvec(angvel_new * dt)))

    contacts_new = pen > 0.0
    air_new = np.where(contacts_new, 0.0, air + dt)

    return pos_new, rot_new, linvel_new, angvel_new, q_new, qdot_new, contacts_new, air_new


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


def random_motor_planner():
    """A planner with a small random motor map: cheap, no behavior cloning."""
    cfg = RunConfig()
    model = build_planner(cfg.cpg, cfg.planner, cfg.env_params().nominal_q)
    rng = np.random.default_rng(0)
    motor = MotorLayer(weights=rng.normal(scale=0.02, size=(cfg.planner.h, 12)),
                       bias=cfg.env_params().nominal_q)
    return fitted_planner(model, motor)


@pytest.fixture(scope="session")
def planner():
    return random_motor_planner()
