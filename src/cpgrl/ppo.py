"""PPO with a diagonal-Gaussian policy over residual joint commands.

The actor and critic are Mlp instances; the log standard deviation is a
state-independent learned vector. All three are views into one flat
parameter buffer, and their gradients views into one flat gradient buffer,
which Adam updates in place. Gradients of the clipped surrogate, the
value loss, and the entropy bonus are assembled analytically and checked
against finite differences in the tests.
"""

from dataclasses import dataclass

import numpy as np

from .nn import Adam, Mlp, RunningNorm, Workspace, mlp_n_params

LOG_2PI = np.log(2.0 * np.pi)


class NonFiniteLoss(RuntimeError):
    """Update aborted: a minibatch produced a non-finite loss."""

    def __init__(self, epoch: int, minibatch: int):
        self.epoch = epoch
        self.minibatch = minibatch
        super().__init__(f"non-finite loss in epoch {epoch}, minibatch {minibatch}")


@dataclass(frozen=True)
class PpoConfig:
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip: float = 0.2
    entropy_coef: float = 0.01
    desired_kl: float = 0.01
    n_epochs: int = 5
    n_minibatches: int = 4
    value_coef: float = 1.0
    lr_min: float = 1e-6
    lr_max: float = 1e-2
    max_grad_norm: float = 0.0  # 0 disables clipping


class GaussianPolicy:
    """Actor-critic pair plus learned log-std; everything the update touches.

    `params` holds actor | critic | log_std and `grads` their gradients in the
    same layout; the networks' weights and biases and `log_std` are views into
    `params`, so they are only ever written in place. `workspace` holds the
    update's minibatch observation gather and the scratch that the actor and
    the critic share.
    """

    def __init__(self, obs_dim: int, action_dim: int, hidden,
                 rng: np.random.Generator, *, log_std_init: float, lr: float,
                 actor_out_scale: float):
        actor_sizes = [obs_dim, *hidden, action_dim]
        critic_sizes = [obs_dim, *hidden, 1]
        a = mlp_n_params(actor_sizes)
        c = a + mlp_n_params(critic_sizes)
        self.params = np.zeros(c + action_dim)
        self.grads = np.zeros(c + action_dim)
        self.workspace = Workspace()
        self.actor = Mlp(actor_sizes, rng, out_scale=actor_out_scale,
                         params=self.params[:a], grads=self.grads[:a], scratch=self.workspace)
        self.critic = Mlp(critic_sizes, rng, params=self.params[a:c], grads=self.grads[a:c],
                          scratch=self.workspace)
        self.log_std = self.params[c:]
        self.log_std[...] = float(log_std_init)
        self.grad_log_std = self.grads[c:]
        self.lr = lr
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        # passes observations through unchanged until its first update
        self.obs_norm = RunningNorm(obs_dim)

    def prepare_obs(self, obs, update: bool = False) -> np.ndarray:
        """Apply the policy's input normalizer.

        Rollout collection passes update=True so the running statistics track
        the training distribution; evaluation keeps them frozen.
        """
        if update:
            self.obs_norm.update(obs)
        return self.obs_norm.normalize(obs)

    # ---- distribution

    def mean_action(self, obs: np.ndarray) -> np.ndarray:
        return self.actor.forward(obs)

    def sample(self, obs: np.ndarray, rng: np.random.Generator):
        """Draw actions, their exact log densities and the means; obs (..., obs_dim)."""
        mean = self.actor.forward(obs)
        std = np.exp(self.log_std)
        noise = rng.standard_normal(mean.shape)
        action = mean + std * noise
        logp = self.log_prob(action, mean)
        return action, logp, mean

    def log_prob(self, action: np.ndarray, mean: np.ndarray) -> np.ndarray:
        z = (action - mean) / np.exp(self.log_std)
        return -0.5 * np.sum(z * z, axis=-1) - np.sum(self.log_std) - 0.5 * self.action_dim * LOG_2PI

    def entropy(self) -> float:
        """Analytic entropy of the diagonal Gaussian."""
        return float(np.sum(self.log_std + 0.5 * (LOG_2PI + 1.0)))

    def value(self, obs: np.ndarray) -> np.ndarray:
        return self.critic.forward(obs)[..., 0]

    @property
    def n_params(self) -> int:
        return self.params.size

    def get_flat(self) -> np.ndarray:
        """A copy of the parameters (actor | critic | log_std)."""
        return self.params.copy()


@dataclass
class RolloutBuffer:
    """horizon x n_envs transition storage consumed whole by ppo_update.

    action_means and sample_log_std snapshot the sampling-time distribution
    so the update can measure the analytic Gaussian KL per state.
    """

    observations: np.ndarray  # (T, N, obs_dim)
    actions: np.ndarray       # (T, N, act_dim)
    log_probs: np.ndarray     # (T, N)
    values: np.ndarray        # (T, N)
    rewards: np.ndarray       # (T, N)
    dones: np.ndarray         # (T, N)
    bootstrap_values: np.ndarray  # (N,)
    action_means: np.ndarray  # (T, N, act_dim)
    sample_log_std: np.ndarray  # (act_dim,)

    @classmethod
    def empty(cls, horizon: int, n_envs: int, obs_dim: int, act_dim: int) -> "RolloutBuffer":
        return cls(
            observations=np.zeros((horizon, n_envs, obs_dim)),
            actions=np.zeros((horizon, n_envs, act_dim)),
            log_probs=np.zeros((horizon, n_envs)),
            values=np.zeros((horizon, n_envs)),
            rewards=np.zeros((horizon, n_envs)),
            dones=np.zeros((horizon, n_envs)),
            bootstrap_values=np.zeros(n_envs),
            action_means=np.zeros((horizon, n_envs, act_dim)),
            sample_log_std=np.zeros(act_dim),
        )

    @property
    def horizon(self) -> int:
        return self.observations.shape[0]

    @property
    def n_envs(self) -> int:
        return self.observations.shape[1]

    @property
    def size(self) -> int:
        return self.horizon * self.n_envs


def gae(rewards, values, dones, bootstrap_value, gamma: float, lam: float):
    """Raw GAE advantages and returns; time runs along axis 0.

    dones mark resets: the value bootstrap and the advantage recursion are
    both cut at a done step. Advantage normalization is ppo_update's job so
    these match the brute-force discounted-sum oracle exactly.
    """
    rewards = np.asarray(rewards, dtype=float)
    values = np.asarray(values, dtype=float)
    not_done = 1.0 - np.asarray(dones, dtype=float)
    horizon = rewards.shape[0]
    advantages = np.zeros_like(rewards)
    next_value = np.asarray(bootstrap_value, dtype=float)
    carry = np.zeros_like(next_value)
    for t in range(horizon - 1, -1, -1):
        delta = rewards[t] + gamma * next_value * not_done[t] - values[t]
        carry = delta + gamma * lam * not_done[t] * carry
        advantages[t] = carry
        next_value = values[t]
    return advantages, advantages + values


def adaptive_lr(lr: float, approx_kl: float, desired_kl: float, lo: float,
                hi: float) -> float:
    """Shrink on KL overshoot, grow when updates are timid; clamped."""
    if approx_kl > 2.0 * desired_kl:
        lr = lr / 1.5
    elif approx_kl < desired_kl / 2.0:
        lr = lr * 1.5
    return float(np.clip(lr, lo, hi))


@dataclass(frozen=True)
class UpdateStats:
    policy_loss: float
    value_loss: float
    entropy: float
    approx_kl: float
    new_lr: float


def gaussian_kl(old_mean, old_log_std, new_mean, new_log_std) -> float:
    """Mean analytic KL(old || new) between diagonal Gaussians per state."""
    old_var = np.exp(2.0 * old_log_std)
    new_var = np.exp(2.0 * new_log_std)
    per_dim = (
        new_log_std - old_log_std
        + (old_var + (old_mean - new_mean) ** 2) / (2.0 * new_var)
        - 0.5
    )
    return float(np.mean(np.sum(per_dim, axis=-1)))


def minibatch_grads(policy: GaussianPolicy, obs, actions, old_logp, advantages,
                    returns, config: PpoConfig, old_means, old_log_std):
    """Flat gradient of the PPO loss on one minibatch, plus its statistics.

    Total loss = clipped surrogate + value_coef * value MSE
    - entropy_coef * entropy. Gradients flow to the actor through the
    Gaussian log density, to log_std through both the density and the
    entropy, and to the critic through the value error. The reported KL is
    the analytic Gaussian KL from the sampling-time distribution (old_means,
    old_log_std) to the current one.

    The gradient returned is policy.grads itself, overwritten by the next call.
    """
    m = obs.shape[0]
    std = np.exp(policy.log_std)

    mean, actor_cache = policy.actor.forward_cached(obs)
    z = (actions - mean) / std
    logp = -0.5 * np.sum(z * z, axis=-1) - np.sum(policy.log_std) - 0.5 * policy.action_dim * LOG_2PI
    ratio = np.exp(logp - old_logp)
    surr1 = ratio * advantages
    clipped_ratio = np.clip(ratio, 1.0 - config.clip, 1.0 + config.clip)
    surr2 = clipped_ratio * advantages
    objective = np.minimum(surr1, surr2)
    policy_loss = -float(np.mean(objective))

    values, critic_cache = policy.critic.forward_cached(obs)
    v = values[..., 0]
    value_err = v - returns
    value_loss = float(np.mean(value_err * value_err))

    entropy = policy.entropy()
    total = policy_loss + config.value_coef * value_loss - config.entropy_coef * entropy
    if not np.isfinite(total):
        raise FloatingPointError("non-finite loss")

    # d(policy_loss)/d(logp): the unclipped branch carries the gradient;
    # where the clipped branch is strictly smaller the derivative is zero
    active = (surr1 <= surr2).astype(float)
    dlogp = -(active * ratio * advantages) / m
    dmean = dlogp[:, None] * (z / std)
    policy.actor.backward(actor_cache, dmean)

    dvalue = (2.0 / m) * config.value_coef * value_err
    policy.critic.backward(critic_cache, dvalue[:, None])

    # log_std: density term (z^2 - 1) plus the entropy bonus (d entropy = 1)
    policy.grad_log_std[...] = np.sum(dlogp[:, None] * (z * z - 1.0), axis=0) - config.entropy_coef

    approx_kl = gaussian_kl(old_means, old_log_std, mean, policy.log_std)
    return policy.grads, policy_loss, value_loss, entropy, approx_kl


def ppo_update(policy: GaussianPolicy, optimizer: Adam, buffer: RolloutBuffer,
               config: PpoConfig, rng: np.random.Generator) -> UpdateStats:
    """Epochs of shuffled minibatch steps; lr adapts per epoch on mean KL.

    Each minibatch's observations are gathered into the policy's workspace,
    so the obs array minibatch_grads receives is overwritten by the next
    minibatch.
    """
    n = buffer.size
    if n < config.n_minibatches:
        raise ValueError(
            f"{n} transitions cannot fill {config.n_minibatches} minibatches")
    obs = buffer.observations.reshape(n, -1)
    actions = buffer.actions.reshape(n, -1)
    old_logp = buffer.log_probs.reshape(n)
    old_means = buffer.action_means.reshape(n, -1)
    old_log_std = buffer.sample_log_std

    advantages, returns = gae(
        buffer.rewards, buffer.values, buffer.dones, buffer.bootstrap_values,
        config.gamma, config.gae_lambda,
    )
    advantages = advantages.reshape(n)
    returns = returns.reshape(n)
    advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)

    stats = {"policy_loss": [], "value_loss": [], "entropy": [], "kl": []}
    for epoch in range(config.n_epochs):
        perm = rng.permutation(n)
        splits = np.array_split(perm, config.n_minibatches)
        epoch_kl = []
        for k, idx in enumerate(splits):
            # only the (rows, obs_dim) gather is large enough to fault in when
            # allocated; idx is a slice of a permutation of range(n), so no index
            # can clip, and mode="raise" would copy through a fresh temporary
            mb_obs = np.take(obs, idx, axis=0, mode="clip",
                             out=policy.workspace.take("obs", (idx.size, obs.shape[1])))
            try:
                grads, pl, vl, ent, kl = minibatch_grads(
                    policy, mb_obs, actions[idx], old_logp[idx],
                    advantages[idx], returns[idx], config,
                    old_means=old_means[idx], old_log_std=old_log_std,
                )
            except FloatingPointError:
                raise NonFiniteLoss(epoch, k) from None
            if config.max_grad_norm > 0.0:
                norm = float(np.linalg.norm(grads))
                if norm > config.max_grad_norm:
                    grads *= config.max_grad_norm / norm
            optimizer.step(policy.params, grads, policy.lr)
            stats["policy_loss"].append(pl)
            stats["value_loss"].append(vl)
            stats["entropy"].append(ent)
            stats["kl"].append(kl)
            epoch_kl.append(kl)
        policy.lr = adaptive_lr(
            policy.lr, float(np.mean(epoch_kl)), config.desired_kl,
            config.lr_min, config.lr_max,
        )
    return UpdateStats(
        policy_loss=float(np.mean(stats["policy_loss"])),
        value_loss=float(np.mean(stats["value_loss"])),
        entropy=float(np.mean(stats["entropy"])),
        approx_kl=float(np.mean(stats["kl"])),
        new_lr=policy.lr,
    )
