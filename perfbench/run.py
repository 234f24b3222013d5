"""aknsd benchmark: three closed-loop workloads and a per-layer traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload exact_dressing --seed 1 --seconds 35 --trace 0

``--trace 0`` times whole batches of items with no instrumentation and reports
the end-to-end metrics.  ``--trace 1`` runs set-up and each item of the seed's
first batch three times (plain, with layer spans, counting ``Fraction``
operations) and reports the per-layer metrics.
Every output is checked; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Metric names and units come
from ``BENCHMARK.json``.  Per-item records and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9


def import_package():
    """Import ``aknsd`` from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "aknsd" / "__init__.py").is_file():
        raise SystemExit(f"error: no aknsd sources under {src}")
    sys.path.insert(0, str(src))
    import aknsd

    if Path(aknsd.__file__).resolve().parent != (src / "aknsd").resolve():
        raise SystemExit(f"error: imported aknsd from {aknsd.__file__}")


def metric_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def make_workload(name: str, seed: int):
    import workloads

    return workloads.WORKLOADS[name](ROOT, seed)


def load_reference(workload) -> None:
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    workload.reference = ref[workload.name]


def probe_setup(name: str, seed: int) -> None:
    """Child side of a set-up sample: import, parse configs, make inputs."""
    import_package()
    make_workload(name, seed).batch(0)
    print(repr(time.monotonic()))


def setup_sample(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first item's inputs.

    CLOCK_MONOTONIC (``time.monotonic``) is system-wide on Linux, so the
    child's reading can be compared with the parent's.
    """
    t0 = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(done.stdout.split()[-1]) - t0


def run_batch(workload, items, workdir, log, batch_no):
    """Run the items in order, writing one record per item to ``log``."""
    import workloads

    outcomes = []
    for idx, item in enumerate(items):
        t0 = time.perf_counter()
        out = workloads.run_with_leak_count(workload, item, workdir)
        seconds = time.perf_counter() - t0
        outcomes.append(out)
        record = {"batch": batch_no, "item": idx, "key": workload.key(item),
                  "seconds": seconds, "failed": out.failed,
                  "correct": out.correct, "leak_warnings": out.leak_warnings,
                  "problems": out.problems}
        log.write(json.dumps(record) + "\n")
    return outcomes


def end_to_end(name: str, seed: int, seconds: float, workdir: str):
    """Closed loop over repetitions of the batch for about ``seconds``.

    Another repetition starts while, at the last one's pace, it would end
    less than half a batch past ``seconds``; there is always at least one.
    """
    workload = make_workload(name, seed)
    items = workload.batch(0)
    load_reference(workload)
    setup = [setup_sample(name, seed) for _ in range(SETUP_PROBES)]
    batch_s = []
    outcomes = []
    with open(OUT / f"items-{name}.jsonl", "w", encoding="utf-8") as log:
        began = time.perf_counter()
        b = 0
        while True:
            t0 = time.perf_counter()
            outcomes += run_batch(workload, items, workdir, log, b)
            batch_s.append(time.perf_counter() - t0)
            b += 1
            if time.perf_counter() - began + batch_s[-1] / 2 >= seconds:
                break
            items = workload.batch(b)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(setup),
        "job_s": statistics.median(batch_s),
        "peak_rss_mb": peak_mb,
    }
    return outcomes, metrics


def traced(name: str, seed: int, workdir: str):
    """Set-up and the first batch, each step run plain, spanned and counted.

    The plain and spanned runs of each step alternate, so that the overhead
    (spanned minus plain time) compares runs made seconds apart.
    """
    import tracing
    import workloads

    tracer = tracing.Tracer()
    counter = tracing.FractionCounter()
    plain_s = traced_s = 0.0
    spanned = []
    outcomes = []

    def timed(step, instrument=None):
        with tracing.Patches() as patches:
            if instrument is not None:
                instrument.install(patches)
            t0 = time.perf_counter()
            result = step()
            return time.perf_counter() - t0, result

    def set_up():
        workload = make_workload(name, seed)
        load_reference(workload)
        return workload, workload.batch(0)

    plain_s, _ = timed(set_up)
    traced_s, (workload, items) = timed(set_up, tracer)
    timed(set_up, counter)
    for idx, item in enumerate(items):
        tracer.item_id = f"0.{idx}"

        def step():
            return workloads.run_with_leak_count(workload, item, workdir)

        dt, plain = timed(step)
        plain_s += dt
        dt, out = timed(step, tracer)
        traced_s += dt
        _, counted = timed(step, counter)
        spanned.append(out)
        outcomes += [plain, out, counted]
    tracer.write_jsonl(str(OUT / f"trace-{name}.jsonl"))

    metrics = {
        "scalars.fraction_ops": counter.fraction_ops,
        "scalars.coeff_bits_max": counter.coeff_bits_max,
        "dynamics.leak_warnings": sum(o.leak_warnings for o in spanned),
        "dynamics.leak_ratio_max": tracer.leak_ratio_max,
        "persist.bytes_written": tracer.bytes_written,
        "trace.job_s": traced_s,
        "trace.overhead_s": traced_s - plain_s,
        "trace.uncovered_share": (traced_s - tracer.root_s) / traced_s,
        "bench.failed_ratio": sum(o.failed for o in outcomes) / len(outcomes),
    }
    for span, _ in tracing.LAYER_TARGETS:
        metrics[f"{span}.calls"] = tracer.calls[span]
        metrics[f"{span}.self_s"] = tracer.self_s[span]
    return outcomes, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact_dressing", "float_evolution", "verify_cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    units = metric_units()
    import_package()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.trace:
            outcomes, metrics = traced(args.workload, args.seed, str(workdir))
            wanted = units["per_layer"]
        else:
            outcomes, metrics = end_to_end(args.workload, args.seed, args.seconds,
                                           str(workdir))
            wanted = units["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")
    result = {
        "correct": all(o.correct for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
