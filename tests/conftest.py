import json

import numpy as np
import pytest

from cpgrl.config import RunConfig
from cpgrl.gait_planner import MotorLayer, build_planner, fitted_planner
from cpgrl.nn import elu, elu_grad

# values a rewritten kernel must carry through bit for bit: both zeros, both infinities, NaN
SPECIAL_LANES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def assert_same_bits(a, b):
    """Equal shape and identical float64 bit patterns (sign of zero, inf, NaN)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def set_checkpoint_meta(path, **entries):
    """Rewrite entries of a checkpoint's meta, as an earlier writer would have set them."""
    with np.load(path) as data:
        arrays = dict(data)
    meta = json.loads(str(arrays["meta"]))
    meta.update(entries)
    arrays["meta"] = np.array(json.dumps(meta))
    np.savez(path, **arrays)


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


@pytest.fixture(scope="session")
def planner():
    """A planner with a small random motor map: cheap, no behavior cloning."""
    cfg = RunConfig()
    model = build_planner(cfg.cpg, cfg.planner, cfg.env_params().nominal_q)
    rng = np.random.default_rng(0)
    motor = MotorLayer(weights=rng.normal(scale=0.02, size=(cfg.planner.h, 12)),
                       bias=cfg.env_params().nominal_q)
    return fitted_planner(model, motor)
