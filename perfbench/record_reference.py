"""Record the reference outputs the benchmark checks against.

Run from the root of a checkout, on the commit whose outputs are the
reference (rational outputs must never change; float outputs may move by at
most 1e-12):

    python3 perfbench/record_reference.py

It writes ``perfbench/reference.json``:

* ``exact_dressing``: the dressing digest of every potential in the batch;
* ``float_evolution``: the final potential of every item in the batch, or the
  step at which ``rk4_evolve`` refused it (hard boundary leakage);
* ``verify_cli``: exit code and per-check verdicts of every (config, suite).
"""

from __future__ import annotations

import json
import sys
import tempfile
import warnings

import run


def record() -> dict:
    run.import_package()
    import workloads
    from aknsd import hierarchy
    from aknsd.errors import ConsistencyError

    ref = {}
    exact = run.make_workload("exact_dressing", 0)
    ref["exact_dressing"] = {}
    for item in exact.batch(0):
        cfg = exact.configs[item["config"]]
        state = hierarchy.HierarchyState.solve(cfg.data(), item["u"], cfg.window,
                                               cfg.depth)
        ref["exact_dressing"][exact.key(item)] = workloads.dressing_digest(state)

    evolution = run.make_workload("float_evolution", 0)
    ref["float_evolution"] = {}
    for item in evolution.batch(0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                final = evolution.evolve(item).final
                entry = {"final": workloads.lattice_values(final)}
            except ConsistencyError as exc:
                entry = {"refused_at_step": workloads.refused_step(exc)}
        ref["float_evolution"][evolution.key(item)] = entry

    verify = run.make_workload("verify_cli", 0)
    ref["verify_cli"] = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for item in verify.batch(0):
            code, doc = verify.report(item, tmp)
            ref["verify_cli"][verify.key(item)] = {
                "exit": code,
                "checks": [[c["check"], c["pass"]] for c in doc["checks"]],
            }
    return ref


def main() -> int:
    ref = record()
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
