"""The benchmark's workloads: the commands of one pass, the proof facts
each command's output must match, and the seeded input graphs.

A pass runs its commands one after another; each command is one
``python -m lmrttg ...`` process.  Every command also has an in-process
replay through the package's public functions, used by the traced run.
The facts pinned here were computed once with the package as it stands;
they are the paper's claims in checkable form, and a faster program must
reproduce them.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("uniq-dense", "labeled-stream", "closed-form")

# Shape of every seeded reliability slot: the seed picks only the edges,
# so the 2^17 subsets enumerated per graph do not depend on the seed.
GRAPH_N = 8
GRAPH_M = 17
GRAPH_SLOTS = 4
TERMINALS = (0, 1)
AT = "1/2"
ORACLE_FILE = "oracle.json"

IDENTITY_SAMPLES = 2000


def _complete(n):
    return [[u, v] for u in range(n) for v in range(u + 1, n)]


# (n, m, deep) -> (classes_examined, survivors, winner edge list)
BRUTE_FACTS = {
    (7, 14, False): (77520, 120, _complete(3) + [[0, v] for v in range(3, 7)] + [[1, v] for v in range(3, 7)] + [[2, 3], [2, 4], [2, 5]]),
    (7, 21, False): (1, 1, _complete(7)),
    (8, 8, True): (888030, 60, [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [1, 3], [1, 4], [2, 3]]),
    (8, 9, True): (2220075, 15, [[0, 1]] + [[s, v] for s in (0, 1) for v in range(2, 6)]),
}

# (min_n, max_n, m_cap) -> [(n, m, classes_examined, survivors), ...]
THEOREM_MAIN_FACTS = {
    (6, 6, None): [
        (6, 5, 1001, 6), (6, 6, 2002, 6), (6, 7, 3003, 4), (6, 8, 3432, 12),
        (6, 9, 3003, 1), (6, 10, 2002, 6), (6, 11, 1001, 15), (6, 12, 364, 20),
        (6, 13, 91, 15), (6, 14, 14, 6), (6, 15, 1, 1),
    ],
    (7, 7, 12): [
        (7, 5, 4845, 10), (7, 6, 15504, 10), (7, 7, 38760, 10), (7, 8, 77520, 30),
        (7, 9, 125970, 5), (7, 10, 167960, 30), (7, 11, 184756, 1), (7, 12, 167960, 10),
    ],
}

SEVEN_PAIRS_SCANNED = 7
ISTAR_SCANNED = 347  # central-band tie pairs for n in 8..436
BOUNDS_SCANNED = 5069  # central-band pairs for n in 8..100
IDENTITIES_SCANNED = IDENTITY_SAMPLES + 796  # random samples + every family graph, n in 5..12
STURM_BRACKET = ["457520751/1048576", "28595047/65536"]
CLASSIFY_CSV_SHA256 = "ed77332ac56985c7c106d1bc3d8ad05d6b53b281d3a2cfc6cc60e1efe23f87b8"


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple  # arguments after ``python -m lmrttg``
    check: Callable[[bytes], list]  # stdout -> list of problems
    replay: Callable[[object], bool]  # lmrttg modules -> verdict held


# ---------------------------------------------------------------------------
# Seeded inputs.
# ---------------------------------------------------------------------------


def graph_files(seed: int) -> list:
    """The seeded reliability graphs as file bytes, one per slot.

    Each is an n=8, m=17 two-terminal graph with terminals 0 and 1 and
    without the terminal edge; the seed only chooses which edges.
    """
    rnd = random.Random(seed)
    pairs = [(u, v) for u in range(GRAPH_N) for v in range(u + 1, GRAPH_N) if (u, v) != TERMINALS]
    out = []
    for _ in range(GRAPH_SLOTS):
        edges = sorted(rnd.sample(pairs, GRAPH_M))
        obj = {"edges": [list(e) for e in edges], "n": GRAPH_N, "terminals": list(TERMINALS)}
        out.append((json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n").encode())
    return out


def prepare(seed: int, directory: Path) -> None:
    """Write the seeded graph files and, from the independent subset
    oracle in ``tests/oracles.py``, the reliability facts each command's
    output must match.  Needs ``src`` and ``tests`` on ``sys.path``."""
    import oracles
    from lmrttg.graphs import from_json

    directory.mkdir(parents=True, exist_ok=True)
    facts = {}
    for i, data in enumerate(graph_files(seed)):
        path = directory / f"graph-{i}.json"
        path.write_bytes(data)
        nvec = oracles.nvec_oracle(from_json(data.decode()))
        p = Fraction(AT)
        m = len(nvec)
        value = sum((c * p**k * (1 - p) ** (m - k) for k, c in enumerate(nvec, start=1)), Fraction(0))
        facts[path.name] = {"n_vector": list(nvec), "reliability": str(value)}
    (directory / ORACLE_FILE).write_text(json.dumps(facts, sort_keys=True))


def load_inputs(directory: Path) -> tuple:
    """The graph files and oracle facts that ``prepare`` wrote, if any."""
    path = directory / ORACLE_FILE
    facts = json.loads(path.read_text()) if path.exists() else {}
    return [directory / name for name in sorted(facts)], facts


def same_graph(a: dict, b: dict) -> bool:
    """Whether two graph JSON objects are isomorphic with the terminal pair
    kept, by the networkx oracle in ``tests/oracles.py``."""
    import oracles
    from lmrttg.graphs import from_json_obj

    return oracles.iso_oracle(from_json_obj(a), from_json_obj(b))


# ---------------------------------------------------------------------------
# Checks on command output.
# ---------------------------------------------------------------------------


def _differs(obj: dict, **expected) -> list:
    return [f"{k}={obj.get(k)!r}, expected {v!r}" for k, v in expected.items() if obj.get(k) != v]


def _brute(n, m, deep) -> Command:
    examined, survivors, winner = BRUTE_FACTS[(n, m, deep)]
    pinned = {"n": n, "terminals": list(TERMINALS), "edges": winner}

    def check(out):
        rec = json.loads(out)
        problems = _differs(
            rec, ok=True, unique=True, matches_construction=True, classes_examined=examined, survivors=survivors
        )
        if not same_graph(rec["winner_canonical"], pinned):
            problems.append("winner is not the pinned graph")
        return problems

    def replay(lm):
        winners = lm.reliability.find_lmrttg(n, m, max_n=max(n, 7) if deep else None)
        expected = lm.families.build_lmrttg(n, m)
        return len(winners) == 1 and lm.graphs.canonical_key(winners[0]) == lm.graphs.canonical_key(expected)

    argv = ("verify", "brute") + (("--deep",) if deep else ()) + ("--n", str(n), "--m", str(m), "--no-meta")
    return Command(" ".join(argv[:-1]), argv, check, replay)


def _theorem_main(min_n, max_n, m_cap) -> Command:
    facts = THEOREM_MAIN_FACTS[(min_n, max_n, m_cap)]

    def check(out):
        rep = json.loads(out)
        problems = _differs(rep, verdict="pass", pairs_scanned=len(facts))
        found = [(r["n"], r["m"], r["classes_examined"], r["survivors"]) for r in rep["records"]]
        if found != facts:
            problems.append(f"records {found} differ from the pinned counts")
        problems += [f"record n={r['n']} m={r['m']} not ok" for r in rep["records"] if not r["ok"]]
        return problems

    def replay(lm):
        rep = lm.scans.scan_uniqueness(max_n, m_cap=m_cap, n_min=min_n, jobs=1)
        return rep.verdict and rep.pairs_scanned == len(facts)

    argv = ("verify", "theorem-main", "--min-n", str(min_n), "--max-n", str(max_n))
    argv += ("--m-cap", str(m_cap)) if m_cap else ()
    argv += ("--jobs", "1", "--format", "json", "--no-meta")
    return Command(" ".join(argv[:-3]), argv, check, replay)


def _scan(label_argv: tuple, scanned: int, run) -> Command:
    """A verify scan whose JSON report must pass with a pinned pair count;
    ``run`` replays it and returns (verdict, pairs scanned)."""

    def check(out):
        return _differs(json.loads(out), verdict="pass", pairs_scanned=scanned)

    def replay(lm):
        verdict, pairs = run(lm)
        return verdict and pairs == scanned

    return Command(" ".join(label_argv), label_argv + ("--format", "json", "--no-meta"), check, replay)


def _report(rep) -> tuple:
    return rep.verdict, rep.pairs_scanned


def _bounds_replay(lm):
    rep = lm.scans.band_bounds_report(8, 100)
    violations = lm.scans.band_decomposition_violations(8, 100)
    return rep.verdict and not violations, rep.pairs_scanned


def _sturm_problems(rep: dict) -> list:
    return _differs(rep, roots_in_436_437=1, roots_in_437_1e6=0, sign_at_437=1, greatest_root_bracket=STURM_BRACKET)


def _sturm() -> Command:
    return Command(
        "verify sturm",
        ("verify", "sturm", "--no-meta"),
        lambda out: _sturm_problems(json.loads(out)),
        lambda lm: not _sturm_problems(lm.scans.sturm_report()),
    )


CLASSIFY_ARGV = ("classify", "--n", "5..60", "--format", "csv")


def _classify() -> Command:
    def check(out):
        digest = hashlib.sha256(out).hexdigest()
        return [] if digest == CLASSIFY_CSV_SHA256 else [f"classify CSV sha256 {digest}"]

    def replay(lm):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = lm.cli.main(list(CLASSIFY_ARGV))
        return rc == 0 and not check(buf.getvalue().encode())

    return Command(" ".join(CLASSIFY_ARGV), CLASSIFY_ARGV, check, replay)


def _reliability(path: Path, facts: dict) -> Command:
    expected = facts[path.name]

    def check(out):
        return _differs(json.loads(out), at=AT, **expected)

    def replay(lm):
        tg = lm.graphs.from_json(path.read_text())
        value = lm.reliability.reliability_at(tg, Fraction(AT))
        nvec = lm.reliability.n_vector(tg)
        return str(value) == expected["reliability"] and list(nvec) == expected["n_vector"]

    argv = ("reliability", "--graph", str(path), "--at", AT)
    return Command(f"reliability --graph {path.name} --at {AT}", argv, check, replay)


def commands(workload: str, seed: int, graphs: list, facts: dict) -> list:
    """The commands of one pass.  ``graphs`` and ``facts`` are the seeded
    graph files and their oracle facts, used by uniq-dense only."""
    if workload == "uniq-dense":
        return [
            _brute(7, 14, False),
            _brute(7, 21, False),
            _theorem_main(6, 6, None),
        ] + [_reliability(p, facts) for p in graphs]
    if workload == "labeled-stream":
        return [
            _theorem_main(7, 7, 12),
            _brute(8, 8, True),
            _brute(8, 9, True),
            _scan(("verify", "seven-pairs"), SEVEN_PAIRS_SCANNED, lambda lm: _report(lm.scans.verify_seven_pairs())),
        ]
    if workload == "closed-form":
        return [
            _scan(
                ("verify", "istar-scan", "--from", "8", "--to", "436"),
                ISTAR_SCANNED,
                lambda lm: _report(lm.scans.scan_tie_band(8, 436)),
            ),
            _scan(("verify", "bounds", "--from", "8", "--to", "100"), BOUNDS_SCANNED, _bounds_replay),
            _sturm(),
            _scan(
                ("verify", "identities", "--seed", str(seed), "--samples", str(IDENTITY_SAMPLES)),
                IDENTITIES_SCANNED,
                lambda lm: _report(lm.scans.identity_suite(seed=seed, samples=IDENTITY_SAMPLES)),
            ),
            _classify(),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def counters(outputs) -> dict:
    """Deterministic work counters from the JSON the commands printed."""
    candidates = survivors = winner_classes = pairs_scanned = 0
    for out in outputs:
        try:
            obj = json.loads(out)
        except ValueError:
            continue
        if not isinstance(obj, dict):
            continue
        if "pairs_scanned" in obj:
            pairs_scanned += obj["pairs_scanned"]
        for rec in obj.get("records", [obj]):
            if isinstance(rec, dict) and "classes_examined" in rec:
                candidates += rec["classes_examined"]
                survivors += rec["survivors"]
                winner_classes += 1 if rec["unique"] else 0
    return {
        "reliability.candidates": candidates,
        "reliability.survivors": survivors,
        "reliability.keep_ratio": survivors / candidates if candidates else 0.0,
        "reliability.useful_ratio": winner_classes / survivors if survivors else 0.0,
        "scans.pairs_scanned": pairs_scanned,
    }

