"""Minimal fully-connected network with analytic backprop, plus Adam.

Kept in plain numpy: networks here are tiny, training must be bit-reproducible
across runs and resume, and every gradient is checked against central finite
differences in the test suite.
"""

import math

import numpy as np


# normalized observations are clipped to +-OBS_CLIP, the usual PPO guard
# against outliers in a young running estimate, not a quantity to tune
OBS_CLIP = 10.0
# added to the running variance so constant observation slots divide finitely
NORM_EPS = 1e-8


class DimensionMismatch(ValueError):
    pass


def elu(x, out=None, scratch=None):
    """max(0, x) + min(0, expm1(x)) of a float array, without a masked select.

    Bit-identical to np.where(x > 0, x, np.expm1(x)) for every input,
    including -0.0 (the 0.0 operands come first, so np.maximum and np.minimum
    return the -0.0), +-inf, NaN and subnormals. Two buffers of x's shape and
    no temporaries: `scratch` receives the expm1 term, then `out` the result,
    each freshly allocated when not given. x is read in full before `out` is
    written, so `out` may be x itself; `scratch` may alias neither.
    """
    neg = np.expm1(x, out=np.empty_like(x) if scratch is None else scratch)
    out = np.maximum(0.0, x, out=np.empty_like(x) if out is None else out)
    out += np.minimum(0.0, neg, out=neg)
    return out


def elu_grad(x, out=None):
    """Derivative of elu; bit-identical to np.where(x > 0, 1.0, np.exp(x)).

    Written into `out` when given, which may not alias x if x is still needed.
    """
    out = np.exp(x, out=np.empty_like(x) if out is None else out)
    return np.minimum(out, 1.0, out=out)


class Workspace:
    """Named scratch arrays that are reused from call to call.

    take(name, shape) returns a C-contiguous view of that shape into the
    name's flat buffer: its first prod(shape) elements, so the rows of a
    smaller batch are the leading rows of a larger one. The buffer is
    reallocated only when a request needs more elements than it holds, so
    batches of one size allocate nothing after the first. The next take of
    the same name hands out the same memory again.
    """

    def __init__(self):
        self._flat = {}

    def take(self, name, shape) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(shape)


def layer_views(flat: np.ndarray, sizes):
    """([W...], [b...]) as views into flat: every weight, then every bias.

    The one statement of the layout, used for parameters and gradients alike.
    """
    weights = []
    biases = []
    offset = 0
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[offset : offset + n_in * n_out].reshape(n_in, n_out))
        offset += n_in * n_out
    for n_out in sizes[1:]:
        biases.append(flat[offset : offset + n_out])
        offset += n_out
    return weights, biases


def mlp_n_params(sizes) -> int:
    return sum((n_in + 1) * n_out for n_in, n_out in zip(sizes[:-1], sizes[1:]))


class Mlp:
    """Affine layers with ELU on hidden layers and a linear output head.

    Weights and biases are views into the flat `params` buffer, their
    gradients views into `grads`. A network inside a larger model is handed
    zeroed slices of the model's buffers; a standalone one allocates its own.

    forward_cached and backward write every batch-sized array into one
    `workspace`: the cache under ("pre", i) and ("act", i), the ELU scratch
    under "elu" and the backward's running gradient under "g". Nets that
    each finish backward before the next one's forward_cached (the actor and
    the critic of one policy) may share it, and then share their caches; a
    standalone net makes its own. forward takes nothing from it.
    """

    def __init__(self, sizes, rng: np.random.Generator, out_scale: float = 1.0,
                 params: np.ndarray | None = None, grads: np.ndarray | None = None,
                 workspace: Workspace | None = None):
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.sizes = tuple(int(s) for s in sizes)
        n = mlp_n_params(self.sizes)
        self.params = np.zeros(n) if params is None else params
        self.grads = np.zeros(n) if grads is None else grads
        self.weights, self.biases = layer_views(self.params, self.sizes)
        self.grad_ws, self.grad_bs = layer_views(self.grads, self.sizes)
        for w in self.weights:
            n_in, n_out = w.shape
            limit = np.sqrt(6.0 / (n_in + n_out))
            w[...] = rng.uniform(-limit, limit, size=(n_in, n_out))
        self.weights[-1] *= out_scale
        self._ws = Workspace() if workspace is None else workspace

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def n_params(self) -> int:
        return self.params.size

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The output for x, a fresh array on every call; x is not written.

        Each layer's matmul allocates its output and the bias and ELU are
        applied to it in place, so a call holds one layer's activations and
        one ELU scratch at a time.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.sizes[0]:
            raise DimensionMismatch(f"input width {x.shape[-1]} != {self.sizes[0]}")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = x @ w
            x += b
            if i < self.n_layers - 1:
                elu(x, out=x)
        return x

    def forward_cached(self, x: np.ndarray):
        """Forward pass keeping inputs and pre-activations for backward().

        The output and the cache are views into the workspace: the next
        forward_cached of any net on that workspace overwrites them, so a
        caller finishes this net's backward, and its reads of the output,
        first. backward() only reads the cache, so it may run on it any
        number of times before then.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.sizes[0]:
            raise DimensionMismatch(f"input width {x.shape[-1]} != {self.sizes[0]}")
        lead = x.shape[:-1]
        inputs = [x]
        pres = []
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            shape = lead + (w.shape[1],)
            pre = np.matmul(inputs[-1], w, out=self._ws.take(("pre", i), shape))
            pre += b
            pres.append(pre)
            if i < self.n_layers - 1:
                inputs.append(elu(pre, out=self._ws.take(("act", i), shape),
                                  scratch=self._ws.take("elu", shape)))
        return pres[-1], (inputs, pres)

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """Parameter gradients for a batch; grad_out is dLoss/d(output).

        Overwrites every slot of the `grads` buffer and returns it; batch
        items are summed, so the caller bakes any 1/N into grad_out. The
        running gradient lives in two workspace buffers: "elu" holds
        g * elu_grad(pre) of the layer at hand, "g" its product with the
        layer's weights, the next layer's g. The cache is only read.
        """
        inputs, pres = cache
        g = np.asarray(grad_out, dtype=float)
        for i in range(self.n_layers - 1, -1, -1):
            if i < self.n_layers - 1:
                d = elu_grad(pres[i], out=self._ws.take("elu", pres[i].shape))
                g = np.multiply(g, d, out=d)
            x = inputs[i]
            g2 = g.reshape(-1, g.shape[-1])
            np.matmul(x.reshape(-1, x.shape[-1]).T, g2, out=self.grad_ws[i])
            g2.sum(axis=0, out=self.grad_bs[i])
            if i > 0:
                g = np.matmul(g, self.weights[i].T,
                              out=self._ws.take("g", g.shape[:-1] + (self.sizes[i],)))
        return self.grads


class RunningNorm:
    """Per-dimension running mean/variance normalizer (Welford batches).

    Updated on rollout batches during training, frozen at evaluation; keeps
    the 61 mixed-scale observation slots comparable for the tiny networks.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.count = 0.0
        self.mean = np.zeros(dim)
        self.var = np.ones(dim)

    def update(self, batch: np.ndarray) -> None:
        batch = np.asarray(batch, dtype=float).reshape(-1, self.dim)
        n = batch.shape[0]
        if n == 0:
            return
        batch_mean = batch.mean(axis=0)
        batch_var = batch.var(axis=0)
        total = self.count + n
        delta = batch_mean - self.mean
        new_mean = self.mean + delta * (n / total)
        m_a = self.var * self.count
        m_b = batch_var * n
        new_var = (m_a + m_b + delta * delta * (self.count * n / total)) / total
        self.mean = new_mean
        self.var = new_var
        self.count = total

    def normalize(self, obs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """clip((obs - mean) / std, -OBS_CLIP, OBS_CLIP), or obs itself as
        floats while no batch has been seen.

        Every step writes into `out`, allocated once when not given; `out`
        may be obs, and is filled with a copy of obs while the normalizer is
        empty. Without `out` an empty normalizer returns obs, not a copy.
        """
        if self.count == 0:
            if out is None:
                return np.asarray(obs, dtype=float)
            out[...] = obs
            return out
        std = np.sqrt(self.var + NORM_EPS)
        out = np.subtract(obs, self.mean, out=out)
        out /= std
        return np.clip(out, -OBS_CLIP, OBS_CLIP, out=out)

    def state_dict(self) -> dict:
        return {"count": self.count, "mean": self.mean.copy(), "var": self.var.copy()}

    def load_state_dict(self, state: dict) -> None:
        mean = np.asarray(state["mean"], dtype=float)
        var = np.asarray(state["var"], dtype=float)
        if mean.shape != (self.dim,) or var.shape != (self.dim,):
            raise DimensionMismatch(
                f"expected {self.dim} normalizer slots, got {mean.size} and {var.size}")
        self.count = float(state["count"])
        self.mean = mean.copy()
        self.var = var.copy()


# Kingma & Ba's defaults; no run tunes them, only the learning rate passed to step
ADAM_BETA1 = 0.9    # first-moment decay: a gradient average over about 10 steps
ADAM_BETA2 = 0.999  # second-moment decay: a squared-gradient average over about 1000 steps
ADAM_EPS = 1e-8     # keeps the step finite where the second moment is still zero


class Adam:
    """Adaptive-moment gradient descent on a flat parameter vector."""

    def __init__(self, n_params: int):
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0
        # scratch for the step's intermediates, so a step allocates nothing
        self._a = np.empty(n_params)
        self._b = np.empty(n_params)

    def step(self, params: np.ndarray, grads: np.ndarray, lr: float) -> None:
        """One update of params, m and v, all in place, at learning rate lr.

        params -= lr * m_hat / (sqrt(v_hat) + eps), with every product and
        quotient in the order of that formula.
        """
        a, b = self._a, self._b
        self.t += 1
        self.m *= ADAM_BETA1
        np.multiply(1.0 - ADAM_BETA1, grads, out=a)
        self.m += a
        self.v *= ADAM_BETA2
        np.multiply(1.0 - ADAM_BETA2, grads, out=a)
        a *= grads
        self.v += a
        np.divide(self.m, 1.0 - ADAM_BETA1**self.t, out=a)           # m_hat
        np.divide(self.v, 1.0 - ADAM_BETA2**self.t, out=b)           # v_hat
        np.sqrt(b, out=b)
        b += ADAM_EPS
        np.multiply(lr, a, out=a)
        a /= b
        params -= a

    def state_dict(self) -> dict:
        return {"m": self.m.copy(), "v": self.v.copy(), "t": self.t}

    def load_state_dict(self, state: dict) -> None:
        m = np.asarray(state["m"], dtype=float)
        v = np.asarray(state["v"], dtype=float)
        if m.shape != self.m.shape or v.shape != self.v.shape:
            raise DimensionMismatch(
                f"expected {self.m.size} moments, got {m.size} and {v.size}")
        self.m = m.copy()
        self.v = v.copy()
        self.t = int(state["t"])
