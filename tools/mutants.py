"""Re-run the catalogued mutation checks: each mutant must fail the tests named for it.

``tools/mutants.json`` lists the mutants.  Each is one text replacement in one
file of the repository:

* ``name``: what the mutation breaks, in a few words;
* ``file``: the path from the repository root;
* ``old``: text that occurs exactly once in that file, and ``new``, its replacement;
* ``tests``: the pytest node ids expected to catch it;
* ``change``: the number of the CHANGES.md entry whose mutation checks it comes from.

For each mutant in turn, the repository is copied to a temporary directory,
the replacement is made in the copy, and ``python -m pytest -x -q TESTS`` runs
there.  The mutant is caught when pytest reports a failed test (exit status
1) and missed when the tests pass; any other status (a collection or usage
error) is an error.  The working tree is never edited.

    python tools/mutants.py

Prints one line per mutant and the wall time, and exits 0 when every mutant
is caught, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CATALOG = Path(__file__).resolve().with_name("mutants.json")
_KEYS = {"name", "file", "old", "new", "tests", "change"}
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "out")


def load_catalog(path: Path = CATALOG) -> list:
    """The catalog's entries, each checked to hold exactly the catalog's keys."""
    entries = json.loads(path.read_text(encoding="utf-8"))
    for entry in entries:
        if set(entry) != _KEYS:
            raise ValueError(f"catalog entry {entry.get('name')!r} has keys {sorted(entry)}")
    return entries


def mutate(text: str, entry: dict) -> str:
    """``text`` with the mutant's ``old`` replaced by its ``new``; ``old`` must occur once."""
    count = text.count(entry["old"])
    if count != 1:
        raise ValueError(f"{entry['name']}: old text occurs {count} times in {entry['file']}")
    return text.replace(entry["old"], entry["new"])


def run_mutant(entry: dict) -> str:
    """``caught``, ``missed`` or ``error (pytest exit N)`` for one mutant, run on a copy."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        target = copy / entry["file"]
        target.write_text(mutate(target.read_text(encoding="utf-8"), entry), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        code = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *entry["tests"]],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
    return {0: "missed", 1: "caught"}.get(code, f"error (pytest exit {code})")


def main() -> int:
    entries = load_catalog()
    start = time.perf_counter()
    verdicts = []
    for entry in entries:
        t0 = time.perf_counter()
        verdicts.append(run_mutant(entry))
        print(f"{verdicts[-1]:<8} {time.perf_counter() - t0:6.1f} s  "
              f"{entry['file']}: {entry['name']}", flush=True)
    caught = verdicts.count("caught")
    print(f"{caught}/{len(entries)} caught in {time.perf_counter() - start:.1f} s")
    return 0 if caught == len(entries) else 1


if __name__ == "__main__":
    sys.exit(main())
