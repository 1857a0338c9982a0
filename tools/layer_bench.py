"""Cold timings of the closed-form layers, one fresh process per sample.

Each sample is a new ``python -S`` process that imports ``lmrttg`` from a
source tree and then times one first call of a layer, so the import and
its compile stay outside the timing and every first-call cost is inside
it.  With several ``--tree`` options the trees take turns, sample by
sample, and the order flips every run, so a load that drifts reaches every
tree alike.  The JSON written to ``--out`` holds, for each layer, its call,
and for each tree the samples, their median and interquartile range and a
deterministic work counter, beside the machine and the Python version.

    python tools/layer_bench.py --out BENCH.json
    python tools/layer_bench.py --tree parent=../parent/src --tree change=src --runs 15 --out BENCH.json
    python tools/layer_bench.py --tiny --runs 2 --out bench.json   # a few seconds
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Each layer's call at full size and tiny size, evaluated with ``cli`` and
#: ``scans`` imported; it returns the layer's work counter.
LAYERS = {
    "identity_suite": ("scans.identity_suite(1, 2000).pairs_scanned", "scans.identity_suite(1, 40).pairs_scanned"),
    "classify_csv": ("classify_rows('5..60')", "classify_rows('5..12')"),
    "scan_tie_band": ("scans.scan_tie_band(8, 436).pairs_scanned", "scans.scan_tie_band(8, 30).pairs_scanned"),
    "band_bounds_report": ("scans.band_bounds_report(8, 100).pairs_scanned", "scans.band_bounds_report(8, 20).pairs_scanned"),
}


def classify_rows(ns: str) -> int:
    """Run ``lmrttg classify --n NS --format csv`` in this process; the row count."""
    import io
    from contextlib import redirect_stdout

    from lmrttg import cli

    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(["classify", "--n", ns, "--format", "csv"])
    return out.getvalue().count("\n") - 1


def sample(call: str) -> None:
    """Print ``[seconds, counter]`` of one first call; runs in the child."""
    import time

    from lmrttg import cli, scans  # noqa: F401  (read by the call)

    t0 = time.perf_counter()
    count = eval(call)
    print(json.dumps([time.perf_counter() - t0, count]))


def _child(src: Path, call: str) -> tuple:
    code = f"import sys; sys.path[:0] = [{str(src)!r}, {str(ROOT / 'tools')!r}]; import layer_bench; layer_bench.sample({call!r})"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True, timeout=600)
    return tuple(json.loads(proc.stdout))


def _summary(samples: list) -> dict:
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive") if len(samples) > 1 else samples * 3
    return {"median_s": median, "iqr_s": q3 - q1, "samples_s": samples}


def run(trees: dict, runs: int, tiny: bool) -> dict:
    """Time every layer ``runs`` times on each tree, taking turns."""
    layers = {name: {"call": sizes[tiny], "trees": {label: [] for label in trees}} for name, sizes in LAYERS.items()}
    counts = {}
    for r in range(runs):
        order = list(trees.items())[:: -1 if r % 2 else 1]
        for name, layer in layers.items():
            for label, src in order:
                seconds, count = _child(src, layer["call"])
                layer["trees"][label].append(seconds)
                counts[name, label] = count
    for name, layer in layers.items():
        layer["trees"] = {label: {**_summary(s), "count": counts[name, label]} for label, s in layer["trees"].items()}
    return {
        "machine": {"platform": platform.platform(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "runs": runs,
        "tiny": tiny,
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC", help="a source tree to time (default change=src)")
    parser.add_argument("--runs", type=int, default=15, help="samples per layer and tree")
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, to check the harness itself")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    pairs = [text.partition("=") for text in args.tree or ["change=" + str(ROOT / "src")]]
    trees = {label: Path(src).resolve() for label, _, src in pairs}
    doc = run(trees, args.runs, args.tiny)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
