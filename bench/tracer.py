"""In-memory tracer installed around cpgrl's public functions from outside.

Each wrapped call records its wall duration and its self time (duration minus
the time covered by wrapped calls it made). Coarse functions also keep one
span per call (id, parent id, name, start, end, flat self time); functions
called once per env per step, and the tiny helpers the physics calls many
times per substep, keep only aggregate time and count, because a span per call
would cost more than the call itself. Their self time is also added to the
nearest enclosing span as its "flat" time, so the spans alone give every self
time again (see span_self_times). Nothing in src/ is edited: wrappers replace the module and
class attributes and are removed again when the tracer closes.
"""

import functools
import itertools
import os
import sys
import time
from collections import defaultdict


def _batch(x) -> int:
    n = 1
    for d in x.shape[:-1]:
        n *= d
    return n


def _mlp_matmuls(sizes) -> int:
    return sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))


def _forward_flops(tracer, out, args, kwargs):
    mlp, x = args[0], args[1]
    tracer.counters["nn.matmul_flops"] += 2 * _batch(x) * _mlp_matmuls(mlp.sizes)


def _backward_flops(tracer, out, args, kwargs):
    mlp, grad_out = args[0], args[2]
    m = _batch(grad_out)
    sizes = mlp.sizes
    # weight gradient for every layer, input gradient for every layer but the first
    flops = 2 * m * _mlp_matmuls(sizes) + 2 * m * _mlp_matmuls(sizes[1:])
    tracer.counters["nn.matmul_flops"] += flops


def _count_dones(tracer, out, args, kwargs):
    tracer.counters["env.episodes_finished"] += int(out[1].sum())


def _count_impulse(tracer, out, args, kwargs):
    if out is not None:
        tracer.counters["randomization.schedule_impulse.hits"] += 1


def _count_refine(tracer, out, args, kwargs):
    tracer.counters["gait_planner.refine_steps"] += out[1].refine_steps_used


def _checkpoint_bytes(tracer, out, args, kwargs):
    tracer.counters["training.save_checkpoint.bytes"] += os.path.getsize(args[0])


def _trace_bytes(tracer, out, args, kwargs):
    tracer.counters["evaluate.trace_bytes"] += os.path.getsize(kwargs["trace_path"])


# (metric name, module, attribute, keep per-call spans, after-call hook).
# The metric name's first component is the layer. Attributes of the form
# "Class.method" are replaced on the class; plain functions are replaced in
# every cpgrl module that holds them, since most are imported by name.
TARGETS = (
    ("oscillator.find_limit_cycle", "cpgrl.oscillator", "find_limit_cycle", True, None),
    ("oscillator.step_oscillator", "cpgrl.oscillator", "step_oscillator", False, None),
    ("gait_planner.build_planner", "cpgrl.gait_planner", "build_planner", True, None),
    ("gait_planner.generate_demo_trot", "cpgrl.gait_planner", "generate_demo_trot", True, None),
    ("gait_planner.fit_motor_layer", "cpgrl.gait_planner", "fit_motor_layer", True, _count_refine),
    ("gait_planner.refine_loss_and_grads", "cpgrl.gait_planner", "refine_loss_and_grads", False, None),
    ("gait_planner.baseline_table", "cpgrl.gait_planner", "GaitPlannerModel.baseline_table", True, None),
    ("gait_planner.desired_feet_table", "cpgrl.gait_planner", "GaitPlannerModel.desired_feet_table", True, None),
    ("kinematics.forward_kinematics_all", "cpgrl.kinematics", "forward_kinematics_all", False, None),
    ("kinematics.leg_jacobian_all", "cpgrl.kinematics", "leg_jacobian_all", False, None),
    ("kinematics.inverse_kinematics", "cpgrl.kinematics", "inverse_kinematics", False, None),
    ("quat.normalize", "cpgrl.quat", "normalize", False, None),
    ("quat.multiply", "cpgrl.quat", "multiply", False, None),
    ("quat.rotate", "cpgrl.quat", "rotate", False, None),
    ("quat.rotate_inv", "cpgrl.quat", "rotate_inv", False, None),
    ("quat.cross", "cpgrl.quat", "_cross", False, None),
    ("quat.from_rotvec", "cpgrl.quat", "from_rotvec", False, None),
    ("quat.gravity_body", "cpgrl.quat", "gravity_body", False, None),
    ("quat.to_euler_zyx", "cpgrl.quat", "to_euler_zyx", False, None),
    ("simulator.step_core", "cpgrl.simulator", "_step_core", True, None),
    ("simulator.check_divergence", "cpgrl.simulator", "_check_divergence", True, None),
    ("simulator.trunk_clearance", "cpgrl.simulator", "trunk_clearance", True, None),
    ("task.build_observation_arrays", "cpgrl.task", "build_observation_arrays", True, None),
    ("task.compose_action", "cpgrl.task", "compose_action", True, None),
    ("task.reward_terms_arrays", "cpgrl.task", "reward_terms_arrays", True, None),
    ("randomization.add_sensor_noise", "cpgrl.randomization", "add_sensor_noise", False, None),
    ("randomization.schedule_impulse", "cpgrl.randomization", "schedule_impulse", False, _count_impulse),
    ("randomization.sample_command_values", "cpgrl.randomization", "sample_command_values", False, None),
    ("randomization.curriculum_update", "cpgrl.randomization", "curriculum_update", True, None),
    ("env.init", "cpgrl.env", "VecLocomotionEnv.__init__", True, None),
    ("env.reset_env", "cpgrl.env", "VecLocomotionEnv._reset_env", False, None),
    ("env.observe", "cpgrl.env", "VecLocomotionEnv.observe", True, None),
    ("env.step", "cpgrl.env", "VecLocomotionEnv.step", True, _count_dones),
    ("nn.Mlp.forward", "cpgrl.nn", "Mlp.forward", True, _forward_flops),
    ("nn.Mlp.forward_cached", "cpgrl.nn", "Mlp.forward_cached", True, _forward_flops),
    ("nn.Mlp.backward", "cpgrl.nn", "Mlp.backward", True, _backward_flops),
    ("nn.Adam.step", "cpgrl.nn", "Adam.step", True, None),
    ("nn.RunningNorm.update", "cpgrl.nn", "RunningNorm.update", True, None),
    ("nn.RunningNorm.normalize", "cpgrl.nn", "RunningNorm.normalize", True, None),
    ("ppo.sample", "cpgrl.ppo", "GaussianPolicy.sample", True, None),
    ("ppo.gae", "cpgrl.ppo", "gae", True, None),
    ("ppo.minibatch_grads", "cpgrl.ppo", "minibatch_grads", True, None),
    ("ppo.ppo_update", "cpgrl.ppo", "ppo_update", True, None),
    ("training.planner_from_config", "cpgrl.training", "planner_from_config", True, None),
    ("training.collect_rollouts", "cpgrl.training", "collect_rollouts", True, None),
    ("training.save_checkpoint", "cpgrl.training", "save_checkpoint", True, _checkpoint_bytes),
    ("training.train", "cpgrl.training", "train", True, None),
    ("evaluate.run_eval", "cpgrl.evaluate", "run_eval", True, _trace_bytes),
)


class Tracer:
    """Context manager: installs the wrappers on enter, removes them on exit.

    Entering again later adds to the same statistics, so one tracer can cover
    the timed calls of several passes while the checks between them run
    untraced.
    """

    def __init__(self):
        self.stats = {}                      # name -> [calls, total_s, self_s]
        self.counters = defaultdict(float)
        self.spans = []                      # (id, parent id, name, start, end, flat_s)
        # A frame is [time covered by wrapped children, span id, flat self time of
        # span-less calls below it, owning span frame or None if it is one itself].
        # The root frame stands for the time outside every span, with id 0.
        self._root = [0.0, 0, 0.0, None]
        self._stack = [self._root]
        self._ids = itertools.count(1)
        self._undo = []

    def _wrap(self, name, fn, keep_spans, after):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if keep_spans:
                frame = [0.0, next(ids), 0.0, None]
            else:
                frame = [0.0, parent[1], 0.0, parent if parent[3] is None else parent[3]]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                stats[0] += 1
                stats[1] += dur
                self_s = dur - frame[0]
                stats[2] += self_s
                parent[0] += dur
                if keep_spans:
                    spans.append((frame[1], parent[1], name, t0, t1, frame[2]))
                else:
                    frame[3][2] += self_s
            if after is not None:
                after(self, out, args, kwargs)
            return out

        return wrapper

    def __enter__(self):
        for name, module_name, attr, keep_spans, after in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original, keep_spans, after))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, keep_spans, after)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "cpgrl" and not mod_name.startswith("cpgrl."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        return self

    def __exit__(self, *exc):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()
        return False

    def layer_totals(self) -> dict:
        """{layer: (calls, self_s)} summed over the layer's wrapped functions."""
        totals = {}
        for name, (calls, _total, self_s) in self.stats.items():
            layer = name.split(".")[0]
            c, s = totals.get(layer, (0, 0.0))
            totals[layer] = (c + calls, s + self_s)
        return totals

    def span_self_times(self) -> tuple[dict, float, float]:
        """Self times recomputed from the spans' intervals alone.

        Returns ({name: self_s} for the span-keeping functions, the flat self
        time of all span-less calls, the time covered by top-level calls). A
        span's self time is its duration minus the durations of the spans whose
        parent it is, minus its flat time.
        """
        child_s = defaultdict(float)
        for _sid, pid, _name, t0, t1, _flat in self.spans:
            child_s[pid] += t1 - t0
        self_s = defaultdict(float)
        flat_s = self._root[2]
        for sid, _pid, name, t0, t1, flat in self.spans:
            self_s[name] += t1 - t0 - child_s[sid] - flat
            flat_s += flat
        return dict(self_s), flat_s, child_s[0] + self._root[2]

    def spans_table(self) -> dict:
        """Spans in a compact column form, times relative to the first span."""
        columns = ["id", "parent", "name", "start_s", "end_s", "flat_s"]
        if not self.spans:
            return {"names": [], "columns": columns, "rows": []}
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t_base = min(s[3] for s in self.spans)
        rows = [[sid, pid, index[n], round(t0 - t_base, 9), round(t1 - t_base, 9), round(flat, 9)]
                for sid, pid, n, t0, t1, flat in self.spans]
        return {"names": names, "columns": columns, "rows": rows}
