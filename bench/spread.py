"""Run-to-run spread of the end-to-end metrics over several seeds, and the
comparison of two such sets.

    python3 bench/spread.py --workloads eval_single --seeds 1 2 3 4 5
    python3 bench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --out .bench_out/set-a.json
    python3 bench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --against .bench_out/set-a.json

Runs the benchmark command from BENCHMARK.json once per workload and seed,
untraced, for BENCHMARK.json's run_seconds, one run at a time, from the
repository root. For each metric it prints the median, the distance between
the first and third quartile as a share of the median, and that metric's
bound from BENCHMARK.json. A spread below a third of the bound is the target
for a steady benchmark. With --against (the --out file of an earlier set, say
of the parent commit) it also prints how much worse each median is than the
earlier one, as a share of the earlier median, and flags any change worse
than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def spread(values) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    med = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None):
    manifest = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", help="write every run's result here as JSON")
    parser.add_argument("--against", help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)
    earlier = json.loads(Path(args.against).read_text()) if args.against else {}

    runs = {}
    ok = True
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            cmd = [*manifest["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(manifest["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed} exited with code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            ok &= result["correct"] and result["failed"] == 0
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        runs[workload] = results
        for metric in manifest["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            med, iqr = spread(values)
            target = metric["bound"] / 3
            flag = "" if iqr < target else "  ABOVE bound/3"
            if workload in earlier:
                before = statistics.median(
                    r["metrics"][metric["name"]]["value"] for r in earlier[workload])
                worse = (med - before) / before
                if metric["better"] == "higher":
                    worse = -worse
                flag += f"  worse {worse:+7.2%}" + ("  ABOVE bound" if worse > metric["bound"] else "")
            print(f"  {metric['name']:18s} median {med:12.5g} {metric['unit']:5s} "
                  f"spread {iqr:7.2%}  bound {metric['bound']:.0%}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1))
    if not ok:
        raise SystemExit("some runs were not correct")


if __name__ == "__main__":
    main()
