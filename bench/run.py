"""cpgrl benchmark: one workload per process, end-to-end or traced per-layer.

    python3 bench/run.py --workload desk_train --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40

Run from the repository root: the program is imported from src/ and the
metric names and units come from BENCHMARK.json. The untraced run (--trace 0)
reports the end-to-end metrics; the traced run (--trace 1) repeats the same
passes untraced and then traced, and reports the per-layer metrics, the
uncovered remainder and the tracing overhead. The last line of standard output
is one JSON object; a fuller report (run environment, fingerprints, sample
counts, unit times, spans) is written under .bench_out/.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

BLAS_THREADS = "1"
# BLAS reads its thread count when numpy loads, so set it before any import of numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
CONFIG = ROOT / "configs" / "desk_acceptance.yaml"
LAYERS = ("oscillator", "gait_planner", "kinematics", "quat", "simulator", "task",
          "randomization", "env", "nn", "ppo", "training", "evaluate")
WORKLOAD_NAMES = ("desk_train", "rollout_1024", "eval_single")


class Scope:
    """Adds up the wall time of the blocks it wraps; traces them if given a tracer."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall_s = 0.0

    @contextmanager
    def __call__(self):
        with self.tracer or nullcontext():
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.wall_s += time.perf_counter() - t0


def run_passes(pass_fn, cfg, work_dir, budget_s, setup_scope, unit_scope, n_passes=None):
    """Whole passes until the next one would overrun budget_s, or exactly n_passes."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(pass_fn(cfg, work_dir, setup_scope, unit_scope, ))
        if n_passes is not None:
            if len(passes) >= n_passes:
                return passes
            continue
        elapsed = time.perf_counter() - t0
        if elapsed * (len(passes) + 1) / len(passes) > budget_s:
            return passes


def tail(times):
    """(value, percentile): the highest order statistic with ten samples above it,
    or the median when there are too few samples for that to lie above it."""
    s = sorted(times)
    n = len(s)
    if n >= 21:
        return s[n - 11], 100.0 * (n - 10) / n
    return statistics.median(s), 50.0


def end_to_end(passes) -> tuple[dict, dict]:
    times = [t for p in passes for t in p.unit_s]
    setups = [p.setup_s for p in passes if p.setup_s == p.setup_s]
    if not times or not setups:
        raise RuntimeError("no unit completed; nothing to report")
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "iter_s_p50": statistics.median(times),
        "iter_s_tail": tail_s,
        "env_steps_per_s": sum(p.env_steps for p in passes) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": len(setups), "units": len(times), "iter_s_tail_percentile": tail_pct}
    return metrics, samples


def per_layer(setup_tr, unit_tr, traced, untraced_scope, traced_scope, untraced) -> dict:
    units = sum(len(p.unit_s) for p in traced)
    setups = len(traced)
    st = unit_tr.stats

    def calls(name):
        return st.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return st.get(name, [0, 0.0, 0.0])[1]

    def self_s(*names):
        return sum(st.get(n, [0, 0.0, 0.0])[2] for n in names) / units

    m = {
        "gait_planner.build_planner.s":
            setup_tr.stats["gait_planner.build_planner"][1] / setups,
        "gait_planner.fit_motor_layer.s":
            setup_tr.stats["gait_planner.fit_motor_layer"][1] / setups,
        "gait_planner.refine_steps": setup_tr.counters["gait_planner.refine_steps"] / setups,
    }
    for name in ("simulator.step_core", "randomization.add_sensor_noise",
                 "randomization.schedule_impulse", "ppo.minibatch_grads"):
        m[f"{name}.calls"] = calls(name) / units
    for name in ("simulator.step_core", "kinematics.forward_kinematics_all",
                 "kinematics.leg_jacobian_all", "env.step", "env.observe",
                 "randomization.add_sensor_noise", "randomization.schedule_impulse",
                 "task.reward_terms_arrays", "task.build_observation_arrays",
                 "nn.Mlp.forward", "nn.Mlp.forward_cached", "nn.Mlp.backward",
                 "nn.Adam.step", "ppo.ppo_update", "ppo.minibatch_grads", "ppo.gae",
                 "ppo.sample", "training.collect_rollouts", "evaluate.run_eval"):
        m[f"{name}.self_s"] = self_s(name)
    n_envs = traced[0].n_envs
    core_calls = calls("simulator.step_core")
    m["simulator.step_core.us_per_env_substep"] = (
        1e6 * total("simulator.step_core") / (core_calls * n_envs) if core_calls else 0.0)
    impulse_calls = calls("randomization.schedule_impulse")
    m["randomization.schedule_impulse.hit_ratio"] = (
        unit_tr.counters["randomization.schedule_impulse.hits"] / impulse_calls
        if impulse_calls else 0.0)
    m["nn.RunningNorm.self_s"] = self_s("nn.RunningNorm.update", "nn.RunningNorm.normalize")
    m["env.episodes_finished"] = unit_tr.counters["env.episodes_finished"] / units
    flops = unit_tr.counters["nn.matmul_flops"]
    mlp_s = self_s("nn.Mlp.forward", "nn.Mlp.forward_cached", "nn.Mlp.backward") * units
    m["nn.matmul_flops"] = flops / units
    m["nn.matmul_gflops_per_s"] = flops / mlp_s / 1e9 if mlp_s else 0.0
    m["training.save_checkpoint.s"] = total("training.save_checkpoint") / units
    m["training.save_checkpoint.bytes"] = unit_tr.counters["training.save_checkpoint.bytes"] / units
    m["evaluate.trace_bytes"] = unit_tr.counters["evaluate.trace_bytes"] / units
    for layer, (c, s) in unit_tr.layer_totals().items():
        m[f"{layer}.calls"] = c / units
        m[f"{layer}.self_s"] = s / units
    for layer in LAYERS:
        m.setdefault(f"{layer}.calls", 0.0)
        m.setdefault(f"{layer}.self_s", 0.0)

    untraced_units = sum(len(p.unit_s) for p in untraced)
    wall = traced_scope.wall_s / units
    untraced_wall = untraced_scope.wall_s / untraced_units
    m["trace.wall_s"] = wall
    m["trace.self_sum_s"] = sum(s for _c, _t, s in st.values()) / units
    _span_self, _flat, covered = unit_tr.span_self_times()
    m["trace.uncovered_s"] = wall - covered / units
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = wall - untraced_wall
    m["trace.overhead_ratio"] = wall / untraced_wall - 1.0
    return m


def trace_problems(unit_tr, traced, metrics) -> list:
    """Traced call counts against the counts the config fixes, and the check
    that self times and the uncovered remainder add up to the traced wall time.

    The self times the wrappers add up are checked against self times
    recomputed from the recorded span intervals, and the uncovered remainder
    comes from those intervals and the wall clock of the units, not from the
    wrappers' sums."""
    problems = []
    expected = {}
    for p in traced:
        for name, count in p.expected_counts.items():
            expected[name] = expected.get(name, 0) + count
    for name, count in sorted(expected.items()):
        if name in unit_tr.counters:
            seen = unit_tr.counters[name]
        else:
            seen = unit_tr.stats.get(name, [0])[0]
        if seen != count:
            problems.append(f"{name}: {seen:g} calls traced, config gives {count}")
    units = sum(len(p.unit_s) for p in traced)
    span_self, flat, _covered = unit_tr.span_self_times()
    tol = 1e-6 * units
    spanless = 0.0
    for name, (_calls, _total, self_s) in sorted(unit_tr.stats.items()):
        if name in span_self:
            if abs(span_self[name] - self_s) > tol:
                problems.append(f"{name}: self time {self_s:.6f} s, spans give "
                                f"{span_self[name]:.6f} s")
        else:
            spanless += self_s
    if abs(flat - spanless) > tol:
        problems.append(f"span-less self time {spanless:.6f} s, spans give {flat:.6f} s")
    added = metrics["trace.self_sum_s"] + metrics["trace.uncovered_s"]
    if abs(added - metrics["trace.wall_s"]) > 1e-6:
        problems.append("self times and the uncovered remainder do not add up to the wall time")
    if metrics["trace.uncovered_s"] < -1e-6:
        problems.append("wrapped calls cover more than the traced wall time")
    return problems


def environment() -> dict:
    import numpy as np

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        env["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                platform.processor())
    except OSError:
        env["cpu_model"] = platform.processor()
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}_{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    env["caches"] = caches
    return env


def run_workload(args, manifest) -> tuple[dict, dict]:
    from dataclasses import replace

    from cpgrl.config import load_config

    import workloads
    from tracer import Tracer

    cfg = replace(load_config(CONFIG), seed=args.seed)
    pass_fn = workloads.WORKLOADS[args.workload]
    work_dir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "config": str(CONFIG.relative_to(ROOT))}
    try:
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced_scope = Scope()
        untraced = run_passes(pass_fn, cfg, work_dir, budget, Scope(), untraced_scope)
        passes = list(untraced)
        if args.trace:
            setup_tr, unit_tr = Tracer(), Tracer()
            traced_scope = Scope(unit_tr)
            traced = run_passes(pass_fn, cfg, work_dir, budget, Scope(setup_tr), traced_scope,
                                n_passes=len(untraced))
            passes += traced
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    problems = [msg for p in passes for msg in p.problems]
    prints = sorted({p.fingerprint for p in passes if p.fingerprint is not None})
    if len(prints) > 1:
        problems.append(f"fingerprint differs between passes: {prints}")
    if any(p.fingerprint is None and p.failed == 0 for p in passes):
        problems.append("a pass ended without a fingerprint")
    e2e, samples = end_to_end(untraced)
    report.update({
        "passes": len(untraced), "samples": samples,
        "unit_s": [t for p in untraced for t in p.unit_s],
        "setup_s": [p.setup_s for p in untraced],
        "fingerprint": prints[0] if len(prints) == 1 else None,
        "pass_info": [p.info for p in passes],
    })
    if args.trace:
        metrics = per_layer(setup_tr, unit_tr, traced, untraced_scope, traced_scope, untraced)
        problems += trace_problems(unit_tr, traced, metrics)
        report["traced_passes"] = len(traced)
        report["layer_stats"] = {k: {"calls": c, "total_s": t, "self_s": s}
                                 for k, (c, t, s) in sorted(unit_tr.stats.items())}
        report["setup_layer_stats"] = {k: {"calls": c, "total_s": t, "self_s": s}
                                       for k, (c, t, s) in sorted(setup_tr.stats.items())}
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(unit_tr.spans_table()))
        report["spans"] = str(spans_path.relative_to(ROOT))
        listed = manifest["per_layer"]
    else:
        metrics = e2e
        listed = manifest["end_to_end"]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics listed in BENCHMARK.json but not computed: {missing}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in listed},
    }
    report.update({"problems": problems, "error_rate": failed / attempted,
                   "end_to_end": e2e, "result": result})
    if args.trace:
        report["per_layer"] = metrics
    return result, report


def print_summary(result, report):
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"seconds {report['seconds']}  trace {report['trace']}")
    samples = report["samples"]
    print(f"passes {report['passes']}  units {samples['units']}  attempted {result['attempted']}  "
          f"failed {result['failed']}  error_rate {report['error_rate']:.4f}")
    for name, m in result["metrics"].items():
        note = ""
        if name == "iter_s_tail":
            note = f"p{samples['iter_s_tail_percentile']:.1f} of {samples['units']} units"
        elif name == "iter_s_p50":
            note = f"{samples['units']} units"
        elif name == "setup_s":
            note = f"median of {samples['setup_s']} set-ups"
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']:14s} {note}")
    print(f"fingerprint {report['fingerprint']}")
    for problem in report["problems"]:
        print(f"CHECK FAILED: {problem}")


def run_all(args):
    """Each workload in its own process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{name} exited with code {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "BENCHMARK.json", ROOT / "src" / "cpgrl", CONFIG)
               if not p.exists()]
    if missing:
        sys.exit(f"run from the repository root; missing {', '.join(map(str, missing))}")
    if args.workload == "all":
        run_all(args)
        return
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    result, report = run_workload(args, manifest)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1))
    print_summary(result, report)
    print(f"report {path.relative_to(ROOT)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
