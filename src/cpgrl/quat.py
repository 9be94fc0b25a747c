"""Quaternion helpers, (w, x, y, z) convention, body-to-world rotation.

The kernels (`_normalize`, `_multiply`, `_rotate`, `_cross`, `_from_rotvec`)
take component-major arrays: the 3 or 4 components lead, and any env or item
axes trail and broadcast, so each arithmetic call runs over whole rows of
envs. The physics substep calls them on that layout directly, and it is
`_cross`'s only caller. The public functions take the array-of-structs
layout, components on the last axis and leading axes broadcasting, and move
the axes around the same kernels.

Every output component is the same products summed in the same order as the
written-out formula, so each result equals the stack form bit for bit, sign
of zero, inf and NaN included; `tests/test_quat.py` keeps the stack forms as
the reference. The kernels build their outputs by index gathers and by writes
into `np.empty` arrays, not by `np.stack`/`np.concatenate`, whose call
overhead outweighs the arithmetic at n = 1.
"""

import numpy as np

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])

# component gathers for the cross product: (a x b)_i = a_{i+1} b_{i+2} - a_{i+2} b_{i+1}
_YZX = np.array([1, 2, 0])
_ZXY = np.array([2, 0, 1])


def normalize(q):
    return _components_last(_normalize(np.asarray(q, dtype=float).T))


def multiply(a, b):
    a, b = _components_first(a, b)
    return _components_last(_multiply(a, b))


def rotate(q, v):
    """Rotate vector(s) v from body to world frame by quaternion(s) q."""
    q, v = _components_first(q, v)
    return _components_last(_rotate(q[0], q[1:4], v))


def rotate_inv(q, v):
    """Rotate vector(s) v from world to body frame."""
    q, v = _components_first(q, v)
    # the conjugate's vector part; negation is exact
    return _components_last(_rotate(q[0], -q[1:4], v))


def from_rotvec(r):
    """Exponential map: rotation vector (rad) -> unit quaternion."""
    return _components_last(_from_rotvec(np.asarray(r, dtype=float).T))


_GRAVITY_WORLD = np.array([0.0, 0.0, -1.0])


def gravity_body(q):
    """Unit gravity direction expressed in the body frame."""
    return rotate_inv(q, _GRAVITY_WORLD)


def to_euler_zyx(q):
    """Roll, pitch, yaw (x, y, z intrinsic) from quaternion; radians."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    roll = np.arctan2(2 * (w * x + y * z), 1 - 2 * (x * x + y * y))
    pitch = np.arcsin(np.clip(2 * (w * y - z * x), -1.0, 1.0))
    yaw = np.arctan2(2 * (w * z + x * y), 1 - 2 * (y * y + z * z))
    return np.stack([roll, pitch, yaw], axis=-1)


def _components_first(a, b):
    """Two array-of-structs (..., c) arrays as component-major views: the
    leading axes of the one with fewer are padded with ones, then every axis
    is reversed (`.T`), which keeps them broadcasting as before."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim < b.ndim:
        a = a.reshape((1,) * (b.ndim - a.ndim) + a.shape)
    elif b.ndim < a.ndim:
        b = b.reshape((1,) * (a.ndim - b.ndim) + b.shape)
    return a.T, b.T


def _components_last(x):
    """A kernel's component-major result back to C-contiguous (..., c)."""
    return np.ascontiguousarray(x.T)


def _normalize(q):
    qq = q * q
    # numpy reduces this 4-long axis left to right, starting from +0.0
    return q / np.sqrt(qq.sum(axis=0))


def _multiply(a, b):
    aw, ax, ay, az = a[0], a[1], a[2], a[3]
    bw, bx, by, bz = b[0], b[1], b[2], b[3]
    w = aw * bw - ax * bx - ay * by - az * bz
    out = np.empty((4,) + w.shape)
    out[0] = w
    out[1] = aw * bx + ax * bw + ay * bz - az * by
    out[2] = aw * by - ax * bz + ay * bw + az * bx
    out[3] = aw * bz + ax * by - ay * bx + az * bw
    return out


def _rotate(w, u, v):
    """v + 2 (w (u x v) + u x (u x v)) for the quaternion with parts w, u.

    Both cross products are _cross's, sharing one gather of u's components.
    The later steps write into the temporaries they consume, operands in the
    formula's order, which saves an allocation and a pass per step on the
    substep's (3, 8, n) block.
    """
    u_yzx, u_zxy = u[_YZX], u[_ZXY]
    uv = u_yzx * v[_ZXY]
    uv -= u_zxy * v[_YZX]
    uuv = u_yzx * uv[_ZXY]
    uuv -= u_zxy * uv[_YZX]
    out = np.multiply(w, uv, out=uv)
    out += uuv
    out *= 2.0
    return np.add(v, out, out=out)


def _cross(a, b):
    return a[_YZX] * b[_ZXY] - a[_ZXY] * b[_YZX]


def _from_rotvec(r):
    angle = np.sqrt((r * r).sum(axis=0))
    half = 0.5 * angle
    # sinc form is finite at angle = 0
    small = angle < 1e-12
    scale = np.where(small, 0.5, np.sin(half) / np.where(small, 1.0, angle))
    out = np.empty((4,) + r.shape[1:])
    np.cos(half, out=out[0:1])
    np.multiply(r, scale, out=out[1:4])
    return out
