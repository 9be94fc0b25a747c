import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (
    SPECIAL_LANES,
    allocating_backward,
    allocating_forward,
    allocating_forward_cached,
    allocating_normalize,
    assert_same_bits,
    central_difference,
)
from cpgrl.nn import (
    NORM_EPS,
    OBS_CLIP,
    Adam,
    DimensionMismatch,
    Mlp,
    RunningNorm,
    Workspace,
    elu,
    elu_grad,
)


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_elu_in_place_bitwise_equal_to_elu():
    """elu(x, out=x) reads x whole before it writes it: every special value,
    in every lane position, and network-sized arrays."""
    rng = np.random.default_rng(10)
    for n in (1, 7, 64, len(SPECIAL) + 3):
        for shift in range(len(SPECIAL)):
            x = rng.normal(scale=3.0, size=max(n, len(SPECIAL)))
            x[(np.arange(len(SPECIAL)) + shift) % x.size] = SPECIAL
            x = x[:n]
            expected = elu(x)
            assert elu(x, out=x) is x
            assert_same_bits(x, expected)
    for shape in [(1024, 128), (64, 32)]:
        x = rng.normal(scale=2.0, size=shape)
        x[-1, :SPECIAL_LANES.size] = SPECIAL_LANES
        expected = elu(x)
        assert_same_bits(elu(x, out=x, scratch=np.empty(shape)), expected)


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

    out, cache = net.forward_cached(x)
    analytic = net.backward(cache, np.ones_like(out)).copy()

    rng_idx = np.random.default_rng(2)
    for idx in rng_idx.choice(net.n_params, size=30, replace=False):
        fd = central_difference(net.params, idx, 1e-5, lambda: float(np.sum(net.forward(x))))
        assert fd == pytest.approx(analytic[idx], rel=1e-4, abs=1e-8)


def test_gradient_with_batch_weighting():
    # per-sample upstream gradients flow correctly (not just all-ones)
    rng = np.random.default_rng(3)
    net = Mlp([3, 6, 2], rng)
    x = rng.normal(size=(5, 3))
    w = rng.normal(size=(5, 2))

    out, cache = net.forward_cached(x)
    analytic = net.backward(cache, w).copy()
    for idx in np.random.default_rng(4).choice(net.n_params, size=20, replace=False):
        fd = central_difference(net.params, idx, 1e-5, lambda: float(np.sum(net.forward(x) * w)))
        assert fd == pytest.approx(analytic[idx], rel=1e-4, abs=1e-8)


def test_layers_are_views_into_params():
    """Every weight, then every bias, in layer order, in the one flat buffer."""
    net = Mlp([4, 8, 3], np.random.default_rng(5))
    expected = np.concatenate([w.ravel() for w in net.weights] + [b.ravel() for b in net.biases])
    np.testing.assert_array_equal(net.params, expected)
    assert net.n_params == 4 * 8 + 8 * 3 + 8 + 3
    for view in [*net.weights, *net.biases]:
        assert np.shares_memory(view, net.params)
    for view in [*net.grad_ws, *net.grad_bs]:
        assert np.shares_memory(view, net.grads)
    out1 = net.forward(np.ones(4))
    net.params[-3:] += 1.0  # the output bias
    np.testing.assert_array_equal(net.forward(np.ones(4)), out1 + 1.0)


def test_backward_overwrites_every_gradient_slot():
    rng = np.random.default_rng(6)
    net = Mlp([3, 5, 2], rng)
    out, cache = net.forward_cached(rng.normal(size=(4, 3)))
    grad_out = rng.normal(size=out.shape)
    fresh = net.backward(cache, grad_out).copy()
    net.grads[:] = np.nan
    assert net.backward(cache, grad_out) is net.grads
    assert_same_bits(net.grads, fresh)


def signed_zero_lanes(rng, shape, special_row=False):
    """Standard normals with a fifth of the entries +-0, and optionally the
    last row's leading entries set to SPECIAL_LANES. An inf or NaN reaches
    every unit of its row and every weight gradient, so at most one row has
    them and the other calls stay finite."""
    x = rng.normal(size=shape)
    zeros = rng.random(shape) < 0.2
    x[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    if special_row:
        x[-1, :SPECIAL_LANES.size] = SPECIAL_LANES
    return x


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_workspace_path_bitwise_equal_to_allocating_formulas():
    """Two nets sharing one workspace, called in minibatch_grads' order (each
    net's forward_cached, then its backward, before the next net's
    forward_cached), over a grow-shrink-grow row sequence; each backward runs
    twice on its cache."""
    sizes = [61, 128, 64, 32, 12]
    workspace = Workspace()
    nets = [Mlp(sizes, np.random.default_rng(s), workspace=workspace) for s in (7, 8)]
    twins = [Mlp(sizes, np.random.default_rng(s)) for s in (7, 8)]
    rng = np.random.default_rng(9)
    for rows in (1, 3, 384, 3, 1, 384, 3):
        x = signed_zero_lanes(rng, (rows, sizes[0]), special_row=rows == 3)
        for net, twin in zip(nets, twins):
            out, (inputs, pres) = net.forward_cached(x)
            ref_out, (ref_inputs, ref_pres) = allocating_forward_cached(twin, x)
            assert_same_bits(out, ref_out)
            for a, b in zip(inputs + pres, ref_inputs + ref_pres, strict=True):
                assert_same_bits(a, b)
            grad_out = signed_zero_lanes(rng, (rows, sizes[-1]))
            expected = allocating_backward(twin, (ref_inputs, ref_pres), grad_out)
            assert_same_bits(net.backward((inputs, pres), grad_out), expected)
            assert_same_bits(net.backward((inputs, pres), grad_out), expected)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("rows", [1, 2, 3, 64, 1024])
def test_forward_in_place_bitwise_equal_to_allocating_forward(rows):
    """forward's in-place bias and ELU give the bits of x @ w + b, then elu,
    for the desk actor and critic, with one row of SPECIAL_LANES; the input
    is left as it was and every call returns a new array."""
    rng = np.random.default_rng(11)
    for sizes in ([61, 128, 64, 32, 12], [61, 128, 64, 32, 1]):
        net = Mlp(sizes, rng)
        for b in net.biases:
            b[...] = rng.normal(size=b.shape)
        x = signed_zero_lanes(rng, (rows, sizes[0]), special_row=True)
        x_before = x.copy()
        out = net.forward(x)
        assert_same_bits(out, allocating_forward(net, x))
        assert_same_bits(x, x_before)
        assert not np.shares_memory(net.forward(x), out)
        assert_same_bits(net.forward(x[0]), allocating_forward(net, x[0]))


def test_out_scale_shrinks_last_layer():
    rng1 = np.random.default_rng(6)
    rng2 = np.random.default_rng(6)
    a = Mlp([4, 8, 3], rng1)
    b = Mlp([4, 8, 3], rng2, out_scale=0.01)
    np.testing.assert_array_equal(a.weights[0], b.weights[0])
    np.testing.assert_allclose(b.weights[-1], a.weights[-1] * 0.01)


@pytest.mark.parametrize("size", [1, 60], ids=["length-1", "one-short"])
@pytest.mark.parametrize("field", ["mean", "var"])
def test_running_norm_state_of_wrong_size_rejected(field, size):
    """A checkpoint's normalizer of the wrong size fails at load; a length-1
    state would otherwise broadcast over all 61 slots."""
    norm = RunningNorm(61)
    state = {"count": 5.0, "mean": np.zeros(61), "var": np.ones(61), field: np.ones(size)}
    with pytest.raises(DimensionMismatch):
        norm.load_state_dict(state)
    norm.load_state_dict({**state, field: np.ones(61)})
    assert norm.normalize(np.ones(61)).shape == (61,)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("filled", [False, True], ids=["empty", "filled"])
def test_normalize_into_a_row_bitwise_equal_to_allocating_normalize(filled):
    """normalize(obs, out=row) writes the bits of the allocating form into a
    row of a rollout-shaped array and returns that row, with values at and
    past +-OBS_CLIP, SPECIAL_LANES and NaN among the inputs; out may be obs."""
    rng = np.random.default_rng(12)
    norm = RunningNorm(61)
    if filled:
        norm.update(rng.normal(loc=0.5, scale=2.0, size=(40, 61)))
    std = np.sqrt(norm.var + NORM_EPS)
    obs = signed_zero_lanes(rng, (5, 61), special_row=True)
    k = np.array([OBS_CLIP, -OBS_CLIP, 1.5 * OBS_CLIP, -1.5 * OBS_CLIP, np.nan])
    obs[0, :k.size] = norm.mean[:k.size] + k * std[:k.size]
    obs[1, :k.size] = k
    expected = allocating_normalize(norm, obs)
    rows = np.full((3, 5, 61), np.nan)
    row = rows[1]
    assert norm.normalize(obs, out=row) is row
    assert_same_bits(row, expected)
    assert np.isnan(rows[[0, 2]]).all()
    assert_same_bits(norm.normalize(obs), expected)
    assert_same_bits(norm.normalize(obs, out=obs), expected)


def test_adam_converges_on_quadratic():
    target = np.array([1.0, -2.0, 0.5])
    params = np.zeros(3)
    opt = Adam(3)
    for _ in range(500):
        opt.step(params, 2.0 * (params - target), 0.05)
    np.testing.assert_allclose(params, target, atol=1e-3)


def test_adam_state_round_trip():
    opt = Adam(4)
    params = np.ones(4)
    for _ in range(10):
        opt.step(params, params * 0.1, 1e-3)
    state = opt.state_dict()
    p_ref = params.copy()
    opt.step(p_ref, params * 0.1, 1e-3)

    opt2 = Adam(4)
    opt2.load_state_dict(state)
    p_new = params.copy()
    opt2.step(p_new, params * 0.1, 1e-3)
    np.testing.assert_array_equal(p_ref, p_new)


@pytest.mark.parametrize("size", [1, 3])
def test_adam_state_of_wrong_size_rejected(size):
    """A checkpoint's moments of the wrong size fail at load, not at the first update."""
    state = Adam(size).state_dict()
    with pytest.raises(DimensionMismatch):
        Adam(4).load_state_dict(state)


def out_of_place_adam(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The earlier Adam.step, which returned fresh params, m and v."""
    m = beta1 * m + (1.0 - beta1) * grads
    v = beta2 * v + (1.0 - beta2) * grads * grads
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return params - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def test_in_place_adam_matches_out_of_place_bitwise():
    rng = np.random.default_rng(7)
    n = 37
    params = rng.normal(size=n)
    lr = 3e-3
    opt = Adam(n)
    ref_params, ref_m, ref_v = params.copy(), np.zeros(n), np.zeros(n)
    for t in range(1, 201):
        grads = rng.normal(scale=10.0 ** rng.uniform(-6, 1), size=n)
        lanes = rng.random(n) < 0.2
        grads[lanes] = rng.choice([0.0, -0.0], size=int(lanes.sum()))
        ref_params, ref_m, ref_v = out_of_place_adam(
            ref_params, grads, ref_m, ref_v, t, lr)
        opt.step(params, grads, lr)
        assert_same_bits(params, ref_params)
        assert_same_bits(opt.m, ref_m)
        assert_same_bits(opt.v, ref_v)
