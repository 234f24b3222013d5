"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402
from aknsd import baker, hierarchy, series  # noqa: E402
from aknsd.hierarchy import Dressing  # noqa: E402
from aknsd.lattice import LatticeFn  # noqa: E402
from aknsd.matrices import SmallMatrix  # noqa: E402


def bench(*args) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, timeout=170,
                          check=True, cwd=run.ROOT)
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_printed_with_its_unit(trace, section):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    result = bench("--workload", "exact_dressing", "--seed", "3",
                   "--seconds", "1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _bump(dressing):
    """Add E_12 to one coefficient, as the perturbation_detected check does."""
    w = dressing.ws[2]
    site = 0
    bump = SmallMatrix.unit(w.values[0].m, 1, 2, w.mode)
    vals = tuple(v + bump if n == site else v for n, v in zip(w.sites(), w.values))
    ws = list(dressing.ws)
    ws[2] = LatticeFn(w.lo, w.hi, vals, w.left_tail, w.right_tail, w.step, w.mode)
    return Dressing(dressing.depth, tuple(ws), dressing.conventions)


def test_perturbed_dressing_fails_an_exact_item(tmp_path, monkeypatch):
    workload = run.make_workload("exact_dressing", 5)
    run.load_reference(workload)
    item = workload.batch(0)[0]
    assert workloads.run_with_leak_count(workload, item, str(tmp_path)).correct

    solve = hierarchy.solve_dressing
    monkeypatch.setattr(hierarchy, "solve_dressing",
                        lambda *a, **k: _bump(solve(*a, **k)))
    out = workloads.run_with_leak_count(workload, item, str(tmp_path))
    assert out.failed and not out.correct
    assert any(p.startswith("dressing residual") for p in out.problems)
    assert any(p.startswith("dressing digest") for p in out.problems)


def test_seed_orders_the_fixed_batch():
    def keys(seed):
        w = run.make_workload("exact_dressing", seed)
        return [[w.key(i) for i in w.batch(b)] for b in range(3)]

    assert keys(7) == keys(7)
    assert keys(7) != keys(8)
    assert all(sorted(a) == sorted(b) for a, b in zip(keys(7), keys(8)))


def test_wrappers_rebound_where_names_were_imported():
    original = series.series_mul
    with tracing.Patches() as patches:
        tracing.Tracer().install(patches)
        assert baker.series_mul is series.series_mul is hierarchy.series_mul
        assert baker.series_mul is not original
    assert baker.series_mul is original is hierarchy.series_mul
