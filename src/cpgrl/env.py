"""Vectorized locomotion environment: N independent robots in lockstep.

State lives in stacked (n, ...) arrays that the simulator and task kernels
step in one call; the physics substeps run on transposed, component-major
copies (see simulator._step_core). The physics of a batched step is
bit-identical to stepping each env's slice alone. A whole batched rollout is
not: the actor's forward pass is a matrix product whose rounding depends on
how many rows it multiplies (measured for 2, 5, 64 and 1024 rows), so an
env's actions, and from them its trajectory, differ at about 1e-7 from the
same env run alone. Each env owns its RNG stream, seeded from (cfg.seed, env
index), which makes whole runs reproducible and env streams mutually
independent.

An env's one clock is `ep_steps`, its policy steps this episode: its planner
row is `ep_steps * substeps % period` (one planner tick per substep), and it
times out once `ep_steps * POLICY_DT` reaches the episode limit.
"""

import numpy as np

from . import quat
from .config import RunConfig
from .gait_planner import GaitPlannerModel
from .kinematics import forward_kinematics_all
from .randomization import (
    CurriculumState,
    add_sensor_noise,
    sample_command_values,
    schedule_impulse,
)
from .simulator import (
    NumericalDivergence,
    _check_divergence,
    _step_core,
    trunk_clearance,
)
from .task import build_observation_arrays, compose_action, reward_terms_arrays

POLICY_RATE = 50.0  # Hz
POLICY_DT = 1.0 / POLICY_RATE


def substeps_per_policy_step(dt: float) -> int:
    """Physics substeps (and planner ticks) in one policy step."""
    substeps = int(round(1.0 / (dt * POLICY_RATE)))
    if abs(substeps * dt * POLICY_RATE - 1.0) > 1e-9:
        raise ValueError("sim.dt must divide the policy period 1/50 s")
    return substeps


class VecLocomotionEnv:
    """Lockstep batch of simulated quadrupeds driven by residual actions."""

    def __init__(self, cfg: RunConfig, planner: GaitPlannerModel,
                 n_envs: int | None = None, train_mode: bool = True):
        cfg.validate()
        self.cfg = cfg
        self.base_params = cfg.env_params()
        self.geometry = self.base_params.geometry
        self.nominal_q = self.base_params.nominal_q
        self.n = int(n_envs if n_envs is not None else cfg.train.n_envs)
        self.train_mode = train_mode
        self.rngs = [np.random.default_rng([cfg.seed, 1000 + i]) for i in range(self.n)]

        self.baseline = planner.baseline_table()                      # (T, 12)
        self.desired_feet = planner.desired_feet_table(self.geometry)  # (T, 4, 3)
        self.period = planner.orbit.period_ticks

        self.substeps = substeps_per_policy_step(self.base_params.dt)

        n = self.n
        self.pos = np.zeros((n, 3))
        self.rot = np.tile(quat.IDENTITY, (n, 1))
        self.linvel = np.zeros((n, 3))
        self.angvel = np.zeros((n, 3))
        self.q = np.zeros((n, 12))
        self.qdot = np.zeros((n, 12))
        self.contacts = np.zeros((n, 4), dtype=bool)
        self.air = np.zeros((n, 4))
        self.filter_mem = np.zeros((n, 12))
        self.ep_steps = np.zeros(n, dtype=np.int64)
        self.cmd = np.zeros((n, 3))
        self.mass = np.full(n, self.base_params.trunk_mass)
        self.friction = np.full(n, self.base_params.friction)
        self.prev_action = np.zeros((n, 12))
        self.prev_target = np.tile(self.nominal_q, (n, 1))
        self.episode_return = np.zeros(n)
        self.finished_lengths: list[int] = []
        self.finished_returns: list[float] = []

        for i in range(self.n):
            self._reset_env(i)

    # ------------------------------------------------------------- resets

    def _reset_env(self, i: int) -> None:
        """Spawn in the air with the default pose; fresh command and dynamics."""
        rng = self.rngs[i]
        self.pos[i] = [0.0, 0.0, self.base_params.stand_height + self.cfg.sim.spawn_drop_height]
        self.rot[i] = quat.IDENTITY
        self.linvel[i] = 0.0
        self.angvel[i] = 0.0
        self.q[i] = self.nominal_q
        self.qdot[i] = 0.0
        self.contacts[i] = False
        self.air[i] = 0.0
        self.filter_mem[i] = self.nominal_q
        self.ep_steps[i] = 0
        self.prev_action[i] = 0.0
        self.prev_target[i] = self.baseline[0]
        self.episode_return[i] = 0.0
        self.cmd[i] = sample_command_values(rng, self.cfg.commands.ranges)
        if self.train_mode and self.cfg.dr.randomize_dynamics:
            self.mass[i] = self.base_params.trunk_mass + rng.uniform(*self.cfg.dr.mass_offset_range)
            self.friction[i] = rng.uniform(*self.cfg.dr.friction_range)
        else:
            self.mass[i] = self.base_params.trunk_mass
            self.friction[i] = self.base_params.friction

    def set_commands(self, cmd) -> None:
        """Pin commands externally (evaluation profiles)."""
        self.cmd[:] = np.asarray(cmd, dtype=float)

    # ------------------------------------------------------------- observe

    def observe(self) -> np.ndarray:
        """(n, 61) observations; sensor noise only in training mode."""
        gravity_b = quat.gravity_body(self.rot)
        tick = self.ep_steps * self.substeps % self.period
        obs = build_observation_arrays(
            self.cmd, self.angvel, gravity_b, self.q, self.qdot,
            self.contacts, self.prev_action, self.baseline[tick],
            self.nominal_q,
        )
        if self.train_mode and self.cfg.dr.add_noise:
            for i, rng in enumerate(self.rngs):
                obs[i] = add_sensor_noise(obs[i], rng, self.cfg.dr)
        return obs

    # ------------------------------------------------------------- stepping

    def step(self, actions: np.ndarray, curriculum: CurriculumState | None = None):
        """One 50 Hz policy step (4 physics substeps); returns rewards, dones, info.

        Resets finished envs in place: done flags mark transitions whose next
        observation comes from a fresh episode.
        """
        actions = np.asarray(actions, dtype=float)
        p = self.base_params

        # impulse perturbations on episode-time boundaries
        if self.train_mode and self.cfg.dr.apply_impulses and curriculum is not None:
            t_next = ((self.ep_steps + 1) * POLICY_DT).tolist()
            for i, (rng, t) in enumerate(zip(self.rngs, t_next)):
                dv = schedule_impulse(rng, t, curriculum, dt=POLICY_DT)
                if dv is not None:
                    self.linvel[i, :2] += dv

        tick = self.ep_steps * self.substeps % self.period
        target = compose_action(self.baseline[tick], actions,
                                self.cfg.robot.residual_limit)
        # first-order low-pass filter; RunConfig.validate keeps alpha in (0, 1]
        alpha = self.cfg.robot.filter_alpha
        filtered = alpha * target + (1.0 - alpha) * self.filter_mem
        self.filter_mem = filtered

        # _step_core returns new arrays, so the pre-step ones stay untouched
        prev_qdot, prev_contacts, prev_air = self.qdot, self.contacts, self.air

        # the substeps run component-major, env axis last (see _step_core)
        pos, rot, linvel, angvel, q, qdot, air, targets = [
            np.ascontiguousarray(x.T) for x in
            (self.pos, self.rot, self.linvel, self.angvel, self.q, self.qdot, self.air, filtered)]
        for _ in range(self.substeps):
            pos, rot, linvel, angvel, q, qdot, contacts, air = _step_core(
                pos, rot, linvel, angvel, q, qdot, air, targets, p, self.mass, self.friction)
        pos, rot, linvel, angvel, q, qdot, contacts, air = [
            np.ascontiguousarray(x.T) for x in (pos, rot, linvel, angvel, q, qdot, contacts, air)]
        bad = _check_divergence(pos, rot, linvel, angvel, q, qdot, p.divergence_limit)
        if bad.any():
            idx = int(np.argmax(bad))
            raise NumericalDivergence(
                f"env {idx}: state is non-finite or exceeds {p.divergence_limit:.1e}",
                env_index=idx,
            )
        self.pos, self.rot, self.linvel, self.angvel = pos, rot, linvel, angvel
        self.q, self.qdot, self.contacts, self.air = q, qdot, contacts, air
        self.ep_steps = self.ep_steps + 1

        feet_body = forward_kinematics_all(self.q, self.geometry)
        desired = self.desired_feet[self.ep_steps * self.substeps % self.period]
        terms = reward_terms_arrays(
            self.cmd, self.rot, self.linvel, self.angvel, self.pos[:, 2],
            self.q, self.qdot, prev_qdot, self.contacts, prev_contacts, prev_air,
            target, self.prev_target, feet_body, desired,
            self.cfg.reward.weights, self.cfg.reward.h_star, POLICY_DT,
        )
        rewards = np.zeros(self.n)
        for v in terms.values():
            rewards = rewards + v

        # elapsed time on the 20 ms grid; the half-substep margin absorbs rounding
        timeout = self.ep_steps * POLICY_DT >= p.episode_limit - 0.5 * p.dt
        clearance = trunk_clearance(self.pos, self.rot, p)
        collided = clearance < p.collision_margin
        dones = timeout | collided

        self.prev_action = actions.copy()
        self.prev_target = target
        self.episode_return = self.episode_return + rewards

        info = {"terms": terms, "timeout": timeout, "collision": collided}

        for i in np.nonzero(dones)[0]:
            self.finished_lengths.append(int(self.ep_steps[i]))
            self.finished_returns.append(float(self.episode_return[i]))
            self._reset_env(int(i))

        # command resampling on the 10 s grid for surviving envs
        steps = self.ep_steps * POLICY_DT / self.cfg.commands.resample_interval
        due = ~dones & (self.ep_steps != 0) & (np.abs(steps - np.round(steps)) < 1e-9)
        for i in np.flatnonzero(due):
            self.cmd[i] = sample_command_values(self.rngs[i], self.cfg.commands.ranges)

        return rewards, dones.astype(float), info

    def drain_episode_stats(self):
        lengths, returns = self.finished_lengths, self.finished_returns
        self.finished_lengths, self.finished_returns = [], []
        return lengths, returns

    # ------------------------------------------------------------- snapshot

    _ARRAY_FIELDS = (
        "pos", "rot", "linvel", "angvel", "q", "qdot", "contacts", "air",
        "filter_mem", "ep_steps", "cmd", "mass", "friction", "prev_action",
        "prev_target", "episode_return",
    )

    def state_dict(self) -> dict:
        state = {name: getattr(self, name).copy() for name in self._ARRAY_FIELDS}
        state["rng_states"] = [rng.bit_generator.state for rng in self.rngs]
        return state

    def load_state_dict(self, state: dict) -> None:
        for name in self._ARRAY_FIELDS:
            getattr(self, name)[...] = state[name]
        for rng, s in zip(self.rngs, state["rng_states"]):
            rng.bit_generator.state = s
