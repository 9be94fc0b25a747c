"""Quaternion helpers, (w, x, y, z) convention, body-to-world rotation.

All functions broadcast over leading axes and are written componentwise so a
batched call produces bit-identical results to per-item calls.

The kernels build their outputs by index gathers and by writes into
`np.empty` arrays, not by `np.stack`/`np.concatenate`, whose call overhead
outweighs the arithmetic at n = 1. Every output component is still the same
products summed in the same order as the written-out formula, so each result
equals the stack form bit for bit, sign of zero, inf and NaN included;
`tests/test_quat.py` keeps the stack forms as the reference.
"""

import numpy as np

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])

# component gathers for the cross product: (a x b)_i = a_{i+1} b_{i+2} - a_{i+2} b_{i+1}
_YZX = np.array([1, 2, 0])
_ZXY = np.array([2, 0, 1])


def normalize(q):
    q = np.asarray(q, dtype=float)
    n = np.sqrt((q * q).sum(axis=-1, keepdims=True))
    return q / n


def multiply(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    w = aw * bw - ax * bx - ay * by - az * bz
    out = np.empty(w.shape + (4,))
    out[..., 0] = w
    out[..., 1] = aw * bx + ax * bw + ay * bz - az * by
    out[..., 2] = aw * by - ax * bz + ay * bw + az * bx
    out[..., 3] = aw * bz + ax * by - ay * bx + az * bw
    return out


def rotate(q, v):
    """Rotate vector(s) v from body to world frame by quaternion(s) q."""
    q = np.asarray(q, dtype=float)
    return _rotate(q[..., 0:1], q[..., 1:4], np.asarray(v, dtype=float))


def rotate_inv(q, v):
    """Rotate vector(s) v from world to body frame."""
    q = np.asarray(q, dtype=float)
    # the conjugate's vector part; negation is exact
    return _rotate(q[..., 0:1], -q[..., 1:4], np.asarray(v, dtype=float))


def _rotate(w, u, v):
    """v + 2 (w (u x v) + u x (u x v)) for the quaternion with parts w, u.

    Both cross products are _cross's, sharing one gather of u's components.
    """
    u_yzx, u_zxy = u[..., _YZX], u[..., _ZXY]
    uv = u_yzx * v[..., _ZXY] - u_zxy * v[..., _YZX]
    uuv = u_yzx * uv[..., _ZXY] - u_zxy * uv[..., _YZX]
    return v + 2.0 * (w * uv + uuv)


def _cross(a, b):
    return a[..., _YZX] * b[..., _ZXY] - a[..., _ZXY] * b[..., _YZX]


cross = _cross


def from_rotvec(r):
    """Exponential map: rotation vector (rad) -> unit quaternion."""
    r = np.asarray(r, dtype=float)
    angle = np.sqrt((r * r).sum(axis=-1, keepdims=True))
    half = 0.5 * angle
    # sinc form is finite at angle = 0
    small = angle < 1e-12
    scale = np.where(small, 0.5, np.sin(half) / np.where(small, 1.0, angle))
    out = np.empty(r.shape[:-1] + (4,))
    np.cos(half, out=out[..., 0:1])
    np.multiply(r, scale, out=out[..., 1:4])
    return out


def gravity_body(q, g_world=(0.0, 0.0, -1.0)):
    """Unit gravity direction expressed in the body frame."""
    return rotate_inv(q, np.asarray(g_world, dtype=float))


def to_euler_zyx(q):
    """Roll, pitch, yaw (x, y, z intrinsic) from quaternion; radians."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    roll = np.arctan2(2 * (w * x + y * z), 1 - 2 * (x * x + y * y))
    pitch = np.arcsin(np.clip(2 * (w * y - z * x), -1.0, 1.0))
    yaw = np.arctan2(2 * (w * z + x * y), 1 - 2 * (y * y + z * z))
    return np.stack([roll, pitch, yaw], axis=-1)
