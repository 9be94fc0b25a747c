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
row is `ep_steps * substeps % period` (one planner tick per substep), it
times out once `ep_steps * POLICY_DT` reaches the episode limit, and it
resamples its command in each step that carries that time past a multiple of
the resample interval, by the boundary test of `schedule_impulse`.
"""

import numpy as np

from . import quat
# the policy rate stays importable from the env, which steps at it
from .config import POLICY_DT, POLICY_RATE, RunConfig, substeps_per_policy_step  # noqa: F401
from .gait_planner import GaitPlannerModel
from .kinematics import forward_kinematics_all
from .randomization import (
    CurriculumState,
    add_sensor_noise,
    noise_bands,
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

class VecLocomotionEnv:
    """Lockstep batch of simulated quadrupeds driven by residual actions."""

    # The per-env state, name -> (trailing shape, dtype): __init__ allocates
    # it, _reset_env spawns it and the snapshots copy it.
    _ARRAY_FIELDS = {
        "pos": ((3,), float), "rot": ((4,), float), "linvel": ((3,), float),
        "angvel": ((3,), float), "q": ((12,), float), "qdot": ((12,), float),
        "contacts": ((4,), bool), "air": ((4,), float), "filter_mem": ((12,), float),
        "ep_steps": ((), np.int64), "cmd": ((3,), float), "mass": ((), float),
        "friction": ((), float), "prev_action": ((12,), float),
        "prev_target": ((12,), float), "episode_return": ((), float),
    }

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
        self._cmd_ranges = np.asarray(cfg.commands.ranges, dtype=float).T  # (lo, hi) rows
        self._noise_bands = noise_bands(cfg.dr)

        # spawn rows: in the air with the default pose; the other fields spawn at zero
        self._spawn = {
            "pos": [0.0, 0.0, self.base_params.stand_height + cfg.sim.spawn_drop_height],
            "rot": quat.IDENTITY, "q": self.nominal_q, "filter_mem": self.nominal_q,
            "prev_target": self.baseline[0], "mass": self.base_params.trunk_mass,
            "friction": self.base_params.friction,
        }
        for name, (shape, dtype) in self._ARRAY_FIELDS.items():
            setattr(self, name, np.zeros((self.n, *shape), dtype=dtype))
        self.finished_lengths: list[int] = []
        self.finished_returns: list[float] = []
        self._reset_env(np.arange(self.n))

    # ------------------------------------------------------------- resets

    def _reset_env(self, idx: np.ndarray) -> None:
        """Spawn the envs idx with fresh commands and dynamics.

        The spawn rows are whole-array writes. Then each env fills one row of
        uniforms from its own stream: its command's three, then its mass's and
        friction's when dynamics are randomized. lo + (hi - lo) * u is
        Generator.uniform's own arithmetic, so this is bit for bit one
        uniform draw per quantity in that order.
        """
        for name in self._ARRAY_FIELDS:
            getattr(self, name)[idx] = self._spawn.get(name, 0)
        dr = self.cfg.dr
        randomize = self.train_mode and dr.randomize_dynamics
        u = np.empty((idx.size, 5 if randomize else 3))
        for j, i in enumerate(idx.tolist()):
            self.rngs[i].random(out=u[j])
        lo, hi = self._cmd_ranges
        self.cmd[idx] = lo + (hi - lo) * u[:, :3]
        if randomize:
            (m_lo, m_hi), (f_lo, f_hi) = dr.mass_offset_range, dr.friction_range
            self.mass[idx] = self.base_params.trunk_mass + (m_lo + (m_hi - m_lo) * u[:, 3])
            self.friction[idx] = f_lo + (f_hi - f_lo) * u[:, 4]

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
            for row, rng in zip(obs, self.rngs):
                add_sensor_noise(row, rng, self._noise_bands)
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
            self.cfg.reward, self.cfg.robot.stand_height, POLICY_DT,
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

        # surviving envs whose episode time crossed a resampling boundary
        t = self.ep_steps * POLICY_DT
        interval = self.cfg.commands.resample_interval
        due = ~dones & (np.floor(t / interval + 1e-12)
                        > np.floor((t - POLICY_DT) / interval + 1e-12))
        done_idx = np.flatnonzero(dones)
        if done_idx.size:
            self.finished_lengths += self.ep_steps[done_idx].tolist()
            self.finished_returns += self.episode_return[done_idx].tolist()
            self._reset_env(done_idx)
        for i in np.flatnonzero(due).tolist():
            self.cmd[i] = sample_command_values(self.rngs[i], self.cfg.commands.ranges)

        return rewards, dones.astype(float), info

    def drain_episode_stats(self):
        lengths, returns = self.finished_lengths, self.finished_returns
        self.finished_lengths, self.finished_returns = [], []
        return lengths, returns

    # ------------------------------------------------------------- snapshot

    def state_dict(self) -> dict:
        state = {name: getattr(self, name).copy() for name in self._ARRAY_FIELDS}
        state["rng_states"] = [rng.bit_generator.state for rng in self.rngs]
        return state

    def load_state_dict(self, state: dict) -> None:
        for name in self._ARRAY_FIELDS:
            getattr(self, name)[...] = state[name]
        for rng, s in zip(self.rngs, state["rng_states"]):
            rng.bit_generator.state = s
