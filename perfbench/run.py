"""Benchmark for ``lmrttg``: time to a proof-grade verdict, end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload uniq-dense --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload's pass (see ``workloads.py``) runs as
fresh ``python -m lmrttg`` processes, one command after another, in a
closed loop with one client, for ``--seconds``; every output is checked
against the pinned proof facts.  With ``--trace 1`` one pass runs for
its counters, then the pass is replayed in process twice, untraced and
traced, for the per-layer numbers.  ``--workload all`` runs every
workload in turn.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from replay import LAYER_FUNCTIONS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 15
SETUP_CODE = """
import time
t0 = time.perf_counter()
import lmrttg.cli
lmrttg.cli.build_parser()
print(time.perf_counter() - t0)
"""


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or "unknown", "python": platform.python_version()}


def time_setup() -> float:
    """Time for a fresh interpreter to import the CLI and build its parser,
    as the interpreter itself measures it."""
    argv = [sys.executable, "-c", SETUP_CODE]
    proc = subprocess.run(argv, env=_child_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        _fail(f"set-up command exited with {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return float(proc.stdout)


def run_command(cmd, workdir: Path) -> dict:
    """Run one command as its own process through ``launch.py``; returns
    its output, exit code, wall time and peak RSS."""
    report = workdir / "launch.json"
    argv = [sys.executable, "-S", str(BENCH / "launch.py"), str(report), sys.executable, "-m", "lmrttg", *cmd.argv]
    proc = subprocess.run(argv, capture_output=True, env=_child_env())
    stderr = proc.stderr.decode(errors="replace")
    if proc.returncode != 0:
        _fail(f"launcher exited with {proc.returncode}: {stderr.strip()[-300:]}")
    rec = json.loads(report.read_text())
    return {"out": proc.stdout, "rc": rec["exit_code"], "wall": rec["wall_s"], "rss_kb": rec["rss_kb"], "stderr": stderr}


def check(cmd, res: dict) -> list:
    if res["rc"] != 0:
        return [f"exit code {res['rc']}: {res['stderr'].strip()[-300:]}"]
    try:
        return cmd.check(res["out"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable output: {exc!r}"]


def run_pass(cmds, workdir: Path) -> tuple:
    """One closed-loop pass; returns (wall seconds, per-command results,
    problems by command label).  The pass time is the sum of the commands'
    own wall times; checks run after them."""
    results = [run_command(cmd, workdir) for cmd in cmds]
    wall = sum(r["wall"] for r in results)
    problems = {}
    for cmd, res in zip(cmds, results):
        found = check(cmd, res)
        if found:
            problems[cmd.label] = found
    return wall, results, problems


def run_replay(workload: str, seed: int, inputs: Path, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "replay.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--inputs", str(inputs), "--trace", str(trace)]
    proc = subprocess.run(argv, env=_child_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        _fail(f"replay exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def use_checkout() -> None:
    """Check that ROOT is an lmrttg checkout and put its package and test
    oracles on ``sys.path``; without them the benchmark cannot run."""
    for needed in ("src/lmrttg/__init__.py", "tests/oracles.py", "BENCHMARK.json"):
        if not (ROOT / needed).is_file():
            _fail(f"{needed} is missing; run from the root of an lmrttg checkout")
    for path in (str(ROOT / "tests"), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


class Workload:
    """A workload's commands for one seed, with its inputs prepared
    outside every timed region."""

    def __init__(self, name: str, seed: int) -> None:
        self.name, self.seed = name, seed
        self.dir = OUT / f"{name}-seed{seed}"
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        if name == "uniq-dense":
            workloads.prepare(seed, self.dir)
        self.cmds = workloads.commands(name, seed, *workloads.load_inputs(self.dir))


def measure(wl: Workload, seconds: int) -> tuple:
    """End-to-end metrics with tracing off.

    The pass's commands run round robin, one after another, until the next
    one would end past ``seconds``; the first pass always runs whole.  The
    machine's speed drifts over seconds, so ``wall_s`` is the sum over the
    commands of each command's median wall time, not the median of whole
    passes: a slow spell then spoils one sample of a few commands instead
    of a whole pass.  A set-up sample is taken before every command, so
    set-up time is sampled over the whole run too.  Checks run outside
    every timed region, once for each distinct output of a command."""
    time_setup()  # writes the bytecode caches
    setup, per_command, peak_kb = [], {cmd.label: [] for cmd in wl.cmds}, 0
    checked, problems, attempted, failed = {}, {}, 0, 0
    t0 = time.perf_counter()
    for i in itertools.count():
        cmd = wl.cmds[i % len(wl.cmds)]
        samples = per_command[cmd.label]
        if samples and time.perf_counter() - t0 + statistics.median(samples) > seconds:
            break
        setup.append(time_setup())
        res = run_command(cmd, wl.dir)
        samples.append(res["wall"])
        peak_kb = max(peak_kb, res["rss_kb"])
        key = (cmd.label, res["rc"], res["out"])
        if key not in checked:
            checked[key] = check(cmd, res)
        attempted += 1
        if checked[key]:
            failed += 1
            problems[cmd.label] = checked[key]
    while len(setup) < SETUP_SAMPLES:
        setup.append(time_setup())
    metrics = {
        "wall_s": sum(statistics.median(v) for v in per_command.values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024,
    }
    detail = {
        "samples per command": min(len(v) for v in per_command.values()),
        "setup_s samples": len(setup),
        "failed_ratio": failed / attempted,
        "command_s medians": {label: round(statistics.median(v), 4) for label, v in per_command.items()},
        "command_s samples": {label: [round(x, 4) for x in v] for label, v in per_command.items()},
    }
    return metrics, detail, attempted, failed, problems


def measure_layers(wl: Workload) -> tuple:
    """Per-layer metrics: counters from one end-to-end pass, times from an
    untraced and a traced in-process replay of the same pass."""
    wall, results, problems = run_pass(wl.cmds, wl.dir)
    metrics = workloads.counters(r["out"] for r in results)
    plain = run_replay(wl.name, wl.seed, wl.dir, 0)
    traced = run_replay(wl.name, wl.seed, wl.dir, 1)
    for run in (plain, traced):
        for c in run["commands"]:
            if not c["ok"]:
                problems[f"replay {c['label']}"] = ["verdict does not hold"]
    plain_s = sum(c["s"] for c in plain["commands"])
    traced_s = sum(c["s"] for c in traced["commands"])
    for qual in LAYER_FUNCTIONS:
        layer = traced["layers"].get(qual, {"calls": 0, "self_s": 0.0})
        metrics[f"{qual}.calls"] = layer["calls"]
        metrics[f"{qual}.s"] = layer["self_s"]
    metrics["cli.overhead_s"] = wall - plain_s
    metrics["trace_overhead_ratio"] = traced_s / plain_s
    attempted = len(results) + len(plain["commands"]) + len(traced["commands"])
    detail = {"spans": str((wl.dir / "spans.jsonl").relative_to(ROOT))}
    return metrics, detail, attempted, len(problems), problems


def declared_metrics(trace: int) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    wl = Workload(name, seed)
    measured, detail, attempted, failed, problems = measure_layers(wl) if trace else measure(wl, seconds)
    metrics = {}
    for spec in declared_metrics(trace):
        if spec["name"] not in measured:
            _fail(f"metric {spec['name']} is declared in BENCHMARK.json but not measured")
        metrics[spec["name"]] = {"value": measured[spec["name"]], "unit": spec["unit"]}
    for label, found in problems.items():
        print(f"FAILED {name}: {label}: {'; '.join(found)}")
    shown = ", ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items())
    print(f"{name} seed={seed} trace={trace}: {shown}; {json.dumps(detail)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    use_checkout()
    print(f"machine: {json.dumps(machine_info())}")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    if len(runs) == 1:
        result = runs[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in runs.values()),
            "attempted": sum(r["attempted"] for r in runs.values()),
            "failed": sum(r["failed"] for r in runs.values()),
            "metrics": {f"{n}.{k}": v for n, r in runs.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
