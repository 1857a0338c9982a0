"""In-process replay of one workload pass, optionally traced.

Run as ``python3 perfbench/replay.py --workload W --seed S --inputs DIR
--trace 0|1`` with ``src`` on ``PYTHONPATH``; ``DIR`` holds the seeded
graph files and their oracle facts.  Each command of the pass is replayed
through the package's public functions.  With ``--trace 1`` the layer
functions below are wrapped where every ``lmrttg`` module refers to them,
so calls made inside the package through those names are traced as well.
Spans stay in memory and are written to ``DIR/spans.jsonl`` at the end.

The last line of standard output is a JSON object with the replay time
of each command and, when traced, the calls and self time of each layer.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import workloads

# Public functions whose calls are recorded as spans, by module.
LAYER_FUNCTIONS = (
    "reliability.n_vector",
    "reliability.reliability_at",
    "reliability.find_lmrttg",
    "graphs.canonical_key",
    "graphs.graph_key",
    "families.build_lmrttg",
    "families.candidate_set",
    "invariants.family_h",
    "invariants.invariant_bundle",
    "classify.classify",
    "quadratic.band_bounds_check",
    "quadratic.count_roots",
    "quadratic.refine_root",
    "scans.scan_uniqueness",
    "scans.verify_seven_pairs",
    "scans.scan_tie_band",
    "scans.band_bounds_report",
    "scans.band_decomposition_violations",
    "scans.identity_suite",
    "scans.sturm_report",
)

MODULES = ("cli", "classify", "families", "graphs", "invariants", "quadratic", "reliability", "scans")


class Tracer:
    """Spans as ``[id, name, start_ns, end_ns, parent_id]``, kept in memory."""

    def __init__(self) -> None:
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [len(spans), name, clock(), 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(span[0])
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()

        return traced

    def instrument(self, names) -> None:
        """Replace each named function wherever an lmrttg module binds it."""
        mods = [m for k, m in list(sys.modules.items()) if k == "lmrttg" or k.startswith("lmrttg.")]
        for qual in names:
            mod_name, attr = qual.split(".")
            fn = getattr(sys.modules[f"lmrttg.{mod_name}"], attr)
            traced = self.wrap(qual, fn)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)

    def layers(self) -> dict:
        """Calls and self time per span name; self time is the span's
        duration minus the durations of its direct children."""
        child_ns = [0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {}
        for sid, name, start, end, _ in self.spans:
            agg = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            agg["calls"] += 1
            agg["self_s"] += (end - start - child_ns[sid]) / 1e9
        return out

    def write(self, path: Path, workload: str) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                rec = {"id": sid, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "workload": workload}
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    lm = SimpleNamespace(**{name: importlib.import_module(f"lmrttg.{name}") for name in MODULES})
    cmds = workloads.commands(args.workload, args.seed, *workloads.load_inputs(args.inputs))

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.instrument(LAYER_FUNCTIONS)
    results = []
    for cmd in cmds:
        t0 = time.perf_counter()
        if tracer:
            ok = tracer.wrap(f"cmd:{cmd.label}", cmd.replay)(lm)
        else:
            ok = cmd.replay(lm)
        results.append({"label": cmd.label, "s": time.perf_counter() - t0, "ok": bool(ok)})
    out = {"commands": results, "layers": {}}
    if tracer:
        out["layers"] = tracer.layers()
        tracer.write(args.inputs / "spans.jsonl", args.workload)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
