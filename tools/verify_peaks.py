"""Peak traced memory of each ``aknsd verify`` item of the benchmark batch.

Each item, ``cli.main(["verify", "--config", C, "--suite", S, "--out", F])``
for one desk config and suite, runs in a process of its own: twice untraced
as a warm-up, then three times under ``tracemalloc``.  Its peak is the
smallest of the three peaks above the traced memory at the run's start, in
KiB.  An item run after other items in the same process would read what
they left behind (free lists, caches), so each is measured alone.  Prints
one JSON line: the peak of each item and the code it ran.

    python tools/verify_peaks.py                      # this checkout's src
    python tools/verify_peaks.py --src OTHER/src      # another checkout
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ("desk_m2", "desk_m3")
SUITES = ("algebra", "resolvent", "bilinear", "dynamics", "limit")


def item_peak(src: str, config: str, suite: str) -> float:
    """The smallest of three traced peaks of one item, after two untraced runs."""
    sys.path.insert(0, src)
    from aknsd import cli

    with tempfile.TemporaryDirectory() as tmp:
        argv = ["verify", "--config", str(ROOT / "configs" / f"{config}.json"),
                "--suite", suite, "--out", str(Path(tmp) / "report.json")]

        def run() -> None:
            with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("ignore")
                cli.main(argv)

        run()
        run()
        tracemalloc.start()
        peaks = []
        for _ in range(3):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        tracemalloc.stop()
    return round(min(peaks) / 1024, 1)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--item", nargs=2, metavar=("CONFIG", "SUITE"),
                        help="measure this one item in this process and print its peak")
    args = parser.parse_args()
    if args.item:
        print(item_peak(args.src, *args.item))
        return
    peaks = {}
    for config in CONFIGS:
        for suite in SUITES:
            child = subprocess.run([sys.executable, __file__, "--src", args.src,
                                    "--item", config, suite],
                                   capture_output=True, text=True, check=True)
            peaks[f"{config}/{suite}"] = float(child.stdout.strip().splitlines()[-1])
    print(json.dumps({"src": args.src, "peak_kib": peaks}, sort_keys=True))


if __name__ == "__main__":
    main()
