"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 --traced 2 --out perfbench/baseline_seed.json

For every workload it makes one end-to-end run per seed and reports each
metric's median, quartiles (``statistics.quantiles(values, n=4)``) and
spread, the quartile distance as a share of the median.  ``--traced N`` adds
N traced runs on the first seed and lists the counters that did not repeat
exactly.  With ``--out`` the raw results are written together with the
machine, CPU model, core count, Python version and git revision.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run

WORKLOADS = ("exact_dressing", "float_evolution", "verify_cli")


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600,
                          check=True, cwd=run.ROOT)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def summarise(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None}
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def git_sha():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True, cwd=run.ROOT).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((run.ROOT / "BENCHMARK.json").read_text())
                        ["run_seconds"])
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = seed_range(args.seeds)

    report = {
        "machine": platform.node(),
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "run_seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            runs.append(bench(workload, seed, args.seconds, 0))
            print(workload, seed, json.dumps(runs[-1]), file=sys.stderr, flush=True)
        entry = {"runs": runs, "summary": summarise(runs)}
        if args.traced:
            traced = [bench(workload, seeds[0], args.seconds, 1)
                      for _ in range(args.traced)]
            first = traced[0]["metrics"]
            entry["traced_seed"] = seeds[0]
            entry["traced"] = traced
            entry["traced_counts_not_repeating"] = sorted(
                k for k, v in first.items() if v["unit"] in ("count", "bits")
                and any(t["metrics"][k]["value"] != v["value"] for t in traced))
        report["workloads"][workload] = entry
        for name, s in entry["summary"].items():
            print(f"{workload:16} {name:12} median {s['median']:.4f} "
                  f"spread {s['spread']:.4f}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
