"""Command-line interface.

Subcommands: construct, invariants, classify, reliability, verify.
Exit codes: 0 on success or a passing verification, 1 on verification
failure or a broken internal invariant, 2 on usage or domain errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import islice

from .classify import BAND_MIN_N, TABLE_COLUMNS, table
from .errors import DomainError, InvariantError
from .families import LMRTTG_MIN_N, FamilyTag, build_family, build_h_optimal, build_lmrttg
from .graphs import GRAPH_JSON_MAX_N, TwoTerminalGraph, from_json, to_dot, to_json_obj
from .invariants import invariant_bundle
from .reliability import RELIABILITY_MAX_DIGITS, n_vector, probability, reliability_from_counts
from .scans import (
    TIE_SCAN_MAX_N,
    ScanReport,
    band_bounds_report,
    brute_record,
    identity_suite,
    scan_tie_band,
    scan_uniqueness,
    sturm_report,
    uniqueness_pairs,
    verify_seven_pairs,
)


def _print_json(obj) -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True, default=str)`` and a
    newline, encoded in batches of 1,024 chunks so that a long document is
    neither joined whole nor written one token at a time."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True, default=str).iterencode(obj)
    while batch := "".join(islice(chunks, 1024)):
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def _int_at_least(low: int):
    """The argparse type of an integer option whose values start at ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"need an integer of at least {low}; got {text!r}")
        return value

    return parse


#: A vertex count n, the ``--jobs`` count, and an n of a central-band scan.
_n_value, _jobs, _band_n = _int_at_least(0), _int_at_least(1), _int_at_least(BAND_MIN_N)
#: Default last n of ``theorem-main`` and ``verify all``.  The search reaches
#: ``reliability.NVEC_MAX_VERTICES`` = 14, but a bare ``verify all`` then runs
#: for about 36 s with no progress output; up to 10 it takes about a second.
THEOREM_MAX_N_DEFAULT = 10
#: Help of an option that no longer does anything but still parses
#: (``theorem-main --jobs`` still rejects a count below 1).
_NO_EFFECT = "no effect: kept so that old command lines parse"


def _parse_range(text: str) -> tuple:
    """An n range ``A..B``, or one n ``A``, as ``(A, B)``; a descending range is empty."""
    lo, sep, hi = text.partition("..")
    return _n_value(lo), _n_value(hi if sep else lo)


#: What ``construct --family`` builds: a family member by its tag, or an optimal graph.
_CONSTRUCT = {
    **{tag.value: (lambda n, m, tag=tag: build_family(n, m, tag)) for tag in FamilyTag},
    "h": lambda n, m: build_h_optimal(n, m)[1],
    "g": build_lmrttg,
}


def _cmd_construct(args) -> int:
    if args.n > GRAPH_JSON_MAX_N:  # its output is graph JSON, which holds at most this many vertices
        raise DomainError(f"construct: --n must be at most {GRAPH_JSON_MAX_N}, got {args.n}")
    obj = _CONSTRUCT[args.family](args.n, args.m)
    out = to_dot(obj) if args.format == "dot" else json.dumps(to_json_obj(obj), sort_keys=True)
    print(out, end="" if args.format == "dot" else "\n")
    return 0


def _load_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())


def _cmd_invariants(args) -> int:
    obj = _load_graph(args.graph)
    g = obj.graph if isinstance(obj, TwoTerminalGraph) else obj
    _print_json(invariant_bundle(g)._asdict())
    return 0


def _cmd_classify(args) -> int:
    """One write per n, so that an n whose rows do not fit in memory prints
    nothing when it comes first.  Each run of ``table`` fills its fixed
    columns into one ``%`` template, mapped over the run's (m, j, j').  A
    JSON block is the indented JSON of the n's row objects, keys sorted,
    without the list's brackets; joined by commas and bracketed, the blocks
    are the indented JSON of every row."""
    n_lo, n_hi = args.n
    if args.format == "json":
        sep = "["
        for n in range(n_lo, n_hi + 1):
            shared, runs = table(n, args.istar_only)
            k_n, q_n, r_n = map(json.dumps, shared)
            blocks = []
            for lo, hi, s, b, k, j, kp, jp in runs:
                row = (
                    f'\n  {{\n    "R_n": {r_n},\n    "in_J": {b},\n    "j": %d,\n    "jp": %d,'
                    f'\n    "k": {k},\n    "k_n": {k_n},\n    "kp": {kp},\n    "m": %d,'
                    f'\n    "n": {n},\n    "q_n": {q_n},\n    "sign": "{s}"\n  }}'
                )
                cols = zip(range(j, j - hi + lo - 1, -1), range(jp, jp + hi - lo + 1), range(lo, hi + 1))
                blocks.append(",".join(map(row.__mod__, cols)))
            if blocks:
                sys.stdout.write(sep + ",".join(blocks))
                sep = ","
        sys.stdout.write("[]\n" if sep == "[" else "\n]\n")
        return 0
    head = ",".join(TABLE_COLUMNS) + "\n"  # written with the first n
    for n in range(n_lo, n_hi + 1):
        shared, runs = table(n, args.istar_only)
        t = ",".join(map(str, shared))
        blocks = [head]
        for lo, hi, s, b, k, j, kp, jp in runs:
            cols = zip(range(lo, hi + 1), range(j, j - hi + lo - 1, -1), range(jp, jp + hi - lo + 1))
            blocks.append("".join(map(f"{n},%d,{s},{b},{k},%d,{kp},%d,{t}\n".__mod__, cols)))
        sys.stdout.write("".join(blocks))
        head = ""
    sys.stdout.write(head)
    return 0


def _cmd_reliability(args) -> int:
    obj = _load_graph(args.graph)
    if not isinstance(obj, TwoTerminalGraph):
        raise DomainError("graph file must carry terminals for reliability evaluation")
    p = probability(args.at)
    counts = n_vector(obj)
    # the exact value may exceed the interpreter's int-to-text limit (0 is none)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    raised = 0 < limit < RELIABILITY_MAX_DIGITS
    if raised:
        sys.set_int_max_str_digits(RELIABILITY_MAX_DIGITS)
    try:
        _print_json({"at": str(p), "reliability": str(reliability_from_counts(counts, p)), "n_vector": list(counts)})
    finally:
        if raised:
            sys.set_int_max_str_digits(limit)
    return 0


def _outcome(args) -> tuple:
    """Run the check bound to a verify subcommand: (JSON document, passed).  A check
    returns a ScanReport, judged by its ``verdict``, or one record, judged by its boolean ``ok``.
    In md format the result is written here, a report as Markdown and a record as JSON.  The
    check is timed here, and the document gets its ``elapsed`` seconds unless ``--no-meta``."""
    t0 = time.perf_counter()
    result = args.check(args)
    elapsed = round(time.perf_counter() - t0, 3)
    is_report = isinstance(result, ScanReport)
    doc, ok = (result.to_json_obj(), result.verdict) if is_report else (result, result["ok"])
    if not args.no_meta:
        doc["elapsed"] = elapsed
    if args.format == "md" and is_report:
        sys.stdout.write(result.to_markdown())
    elif args.format == "md":
        _print_json(doc)
    return doc, ok


def _cmd_verify(args) -> int:
    doc, ok = _outcome(args)
    if args.format == "json":
        _print_json(doc)
    return 0 if ok else 1


def _cmd_verify_all(args) -> int:
    """Run these single verify commands through the parser and their bound checks:
    md output is theirs in turn, json output is one document."""
    steps = [["seven-pairs"], ["istar-scan"], ["identities", "--seed", str(args.seed)], ["bounds"]]
    uniqueness_pairs(LMRTTG_MIN_N, args.max_n)  # a range the theorem-main steps reject fails before any step runs
    for n in range(LMRTTG_MIN_N, args.max_n + 1):
        steps.append(["theorem-main", "--min-n", str(n), "--max-n", str(n)])
    steps.append(["sturm"])
    shared = ["--format", args.format] + (["--no-meta"] if args.no_meta else [])
    parser = build_parser()
    outcomes = [_outcome(parser.parse_args(["verify", *step, *shared])) for step in steps]
    passed = all(ok for _, ok in outcomes)
    if args.format == "json":
        _print_json({"verdict": "pass" if passed else "fail", "reports": [doc for doc, _ in outcomes]})
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lmrttg", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("construct", help="build a family graph or an optimal graph")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument(
        "--family",
        required=True,
        choices=list(_CONSTRUCT),
        help="family tag, or h (optimal core) / g (optimal two-terminal graph)",
    )
    c.add_argument("--format", choices=["json", "dot"], default="json")
    c.set_defaults(func=_cmd_construct)

    i = sub.add_parser("invariants", help="exact invariants of a graph JSON file")
    i.add_argument("--graph", required=True)
    i.set_defaults(func=_cmd_invariants)

    k = sub.add_parser("classify", help="sign classification over a range of n")
    k.add_argument("--n", type=_parse_range, required=True, help="single value or range A..B")
    k.add_argument("--istar-only", action="store_true", help="only the tie rows")
    k.add_argument("--format", choices=["csv", "json"], default="csv")
    k.set_defaults(func=_cmd_classify)

    r = sub.add_parser("reliability", help="exact reliability of a two-terminal graph")
    r.add_argument("--graph", required=True)
    r.add_argument("--at", required=True, help='edge survival probability, e.g. "1/2"')
    r.set_defaults(func=_cmd_reliability)

    v = sub.add_parser("verify", help="verification scans")
    vsub = v.add_subparsers(dest="verify_cmd", required=True)

    def verify(name, help, check, **kw):
        p = vsub.add_parser(name, help=help, **kw)
        p.add_argument("--format", choices=["md", "json"], default="md")
        p.add_argument("--no-meta", action="store_true", help="omit timing for byte-stable output")
        p.set_defaults(func=_cmd_verify, check=check)
        return p

    verify("seven-pairs", "the seven exceptional tie pairs", lambda a: verify_seven_pairs(), aliases=["lemma7"])

    p = verify("istar-scan", "central-band dominance scan", lambda a: scan_tie_band(a.from_n, a.to_n))
    p.add_argument("--from", dest="from_n", type=_band_n, default=BAND_MIN_N)
    p.add_argument("--to", dest="to_n", type=_band_n, default=TIE_SCAN_MAX_N)

    p = verify(
        "theorem-main",
        "brute-force uniqueness of the construction",
        lambda a: scan_uniqueness(a.max_n, m_cap=a.m_cap, n_min=a.min_n, jobs=a.jobs),
    )
    p.add_argument("--max-n", type=_n_value, default=THEOREM_MAX_N_DEFAULT)
    p.add_argument("--min-n", type=_n_value, default=LMRTTG_MIN_N)
    p.add_argument("--m-cap", type=int, default=None)
    p.add_argument("--jobs", type=_jobs, default=1, help=_NO_EFFECT)

    p = verify("brute", "brute-force one (n, m) pair", lambda a: brute_record(a.n, a.m))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--deep", action="store_true", help=_NO_EFFECT)

    verify("sturm", "root isolation for the dominance margin", lambda a: sturm_report())

    p = verify("identities", "randomized exact identity suite", lambda a: identity_suite(a.seed, a.samples))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_int_at_least(0), default=1000)

    p = verify("bounds", "polynomial bounds on the central band", lambda a: band_bounds_report(a.from_n, a.to_n))
    p.add_argument("--from", dest="from_n", type=_band_n, default=BAND_MIN_N)
    p.add_argument("--to", dest="to_n", type=_band_n, default=TIE_SCAN_MAX_N)

    p = verify("all", "run the single verifications above in turn", None)
    p.set_defaults(func=_cmd_verify_all)
    p.add_argument("--max-n", type=_n_value, default=THEOREM_MAX_N_DEFAULT)
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"error: invariant failed: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        pass  # reported below, once the traceback and the frames it holds are freed
    print("error: out of memory: the input is too large for this machine", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
