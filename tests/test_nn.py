import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import assert_same_bits
from cpgrl.nn import Adam, DimensionMismatch, Mlp, elu, elu_grad


def test_elu_values():
    assert elu(np.array(2.0)) == 2.0
    assert elu(np.array(-1.0)) == pytest.approx(np.exp(-1.0) - 1.0, abs=1e-12)
    assert elu(np.array(0.0)) == 0.0


def where_elu(x):
    return np.where(x > 0.0, x, np.expm1(x))


def where_elu_grad(x):
    return np.where(x > 0.0, 1.0, np.exp(x))


SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                    5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
                    -2.2250738585072014e-308, 1e-17, -1e-17, 1e300, -1e300,
                    709.0, 710.0, -745.0, -746.0, 1.0, -1.0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_elu_kernels_bitwise_on_special_values():
    """Every special value, in every SIMD lane position and as a 0-d array."""
    for v in SPECIAL:
        assert_same_bits(elu(np.array(v)), where_elu(np.array(v)))
        assert_same_bits(elu_grad(np.array(v)), where_elu_grad(np.array(v)))
    rng = np.random.default_rng(0)
    for n in range(1, 70):
        for shift in range(len(SPECIAL)):
            x = rng.normal(scale=3.0, size=max(n, len(SPECIAL)))
            x[(np.arange(len(SPECIAL)) + shift) % x.size] = SPECIAL
            x = x[:n]
            for arr in (x, x[::2], x.reshape(1, -1)):
                assert_same_bits(elu(arr), where_elu(arr))
                assert_same_bits(elu_grad(arr), where_elu_grad(arr))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 40)),
              elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_elu_kernels_bitwise_property(x):
    assert_same_bits(elu(x), where_elu(x))
    assert_same_bits(elu_grad(x), where_elu_grad(x))


def test_elu_kernels_bitwise_on_network_sized_arrays():
    rng = np.random.default_rng(1)
    for shape in [(384, 128), (384, 64), (64, 32), (1, 128)]:
        x = rng.normal(scale=2.0, size=shape)
        assert_same_bits(elu(x), where_elu(x))
        assert_same_bits(elu_grad(x), where_elu_grad(x))


def test_zero_weights_output_bias():
    rng = np.random.default_rng(0)
    net = Mlp([4, 8, 3], rng)
    for w in net.weights:
        w[:] = 0.0
    net.biases[-1][:] = np.array([0.5, -0.25, 1.0])
    out = net.forward(rng.normal(size=(5, 4)))
    np.testing.assert_allclose(out, np.tile([0.5, -0.25, 1.0], (5, 1)))


def test_dimension_mismatch():
    net = Mlp([4, 8, 3], np.random.default_rng(0))
    with pytest.raises(DimensionMismatch):
        net.forward(np.zeros(5))


def test_gradient_matches_finite_differences_toy_net():
    # scalar output net per the gradient-suite contract: 4 -> 8 -> 1
    rng = np.random.default_rng(1)
    net = Mlp([4, 8, 1], rng)
    x = rng.normal(size=(7, 4))

    def loss_flat(flat):
        saved = net.get_flat()
        net.set_flat(flat)
        out = float(np.sum(net.forward(x)))
        net.set_flat(saved)
        return out

    out, cache = net.forward_cached(x)
    grad_ws, grad_bs = net.backward(cache, np.ones_like(out))
    analytic = net.flat_grads(grad_ws, grad_bs)

    flat = net.get_flat()
    h = 1e-5
    rng_idx = np.random.default_rng(2)
    for idx in rng_idx.choice(flat.size, size=30, replace=False):
        e = np.zeros_like(flat)
        e[idx] = h
        fd = (loss_flat(flat + e) - loss_flat(flat - e)) / (2 * h)
        assert fd == pytest.approx(analytic[idx], rel=1e-4, abs=1e-8)


def test_gradient_with_batch_weighting():
    # per-sample upstream gradients flow correctly (not just all-ones)
    rng = np.random.default_rng(3)
    net = Mlp([3, 6, 2], rng)
    x = rng.normal(size=(5, 3))
    w = rng.normal(size=(5, 2))

    def loss_flat(flat):
        saved = net.get_flat()
        net.set_flat(flat)
        out = float(np.sum(net.forward(x) * w))
        net.set_flat(saved)
        return out

    out, cache = net.forward_cached(x)
    grad_ws, grad_bs = net.backward(cache, w)
    analytic = net.flat_grads(grad_ws, grad_bs)
    flat = net.get_flat()
    h = 1e-5
    for idx in np.random.default_rng(4).choice(flat.size, size=20, replace=False):
        e = np.zeros_like(flat)
        e[idx] = h
        fd = (loss_flat(flat + e) - loss_flat(flat - e)) / (2 * h)
        assert fd == pytest.approx(analytic[idx], rel=1e-4, abs=1e-8)


def test_flat_round_trip():
    rng = np.random.default_rng(5)
    net = Mlp([4, 8, 3], rng)
    flat = net.get_flat()
    out1 = net.forward(np.ones(4))
    net.set_flat(flat)
    np.testing.assert_array_equal(net.forward(np.ones(4)), out1)


def test_out_scale_shrinks_last_layer():
    rng1 = np.random.default_rng(6)
    rng2 = np.random.default_rng(6)
    a = Mlp([4, 8, 3], rng1)
    b = Mlp([4, 8, 3], rng2, out_scale=0.01)
    np.testing.assert_array_equal(a.weights[0], b.weights[0])
    np.testing.assert_allclose(b.weights[-1], a.weights[-1] * 0.01)


def test_adam_converges_on_quadratic():
    target = np.array([1.0, -2.0, 0.5])
    params = np.zeros(3)
    opt = Adam(3, lr=0.05)
    for _ in range(500):
        grads = 2.0 * (params - target)
        params = opt.step(params, grads)
    np.testing.assert_allclose(params, target, atol=1e-3)


def test_adam_state_round_trip():
    opt = Adam(4, lr=1e-3)
    params = np.ones(4)
    for _ in range(10):
        params = opt.step(params, params * 0.1)
    state = opt.state_dict()
    p_ref = opt.step(params.copy(), params * 0.1)

    opt2 = Adam(4)
    opt2.load_state_dict(state)
    p_new = opt2.step(params.copy(), params * 0.1)
    np.testing.assert_array_equal(p_ref, p_new)
