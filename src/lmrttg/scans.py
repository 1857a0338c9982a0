"""Verification scans: the exceptional pairs, the central band, and the
end-to-end brute-force check of the optimal construction.

Each check returns either a ScanReport, whose records each carry an ``ok``
flag and whose verdict is derived from them, or one record (``brute_record``,
``sturm_report``) whose boolean ``ok`` is its verdict.  Reports serialize to
JSON (machine) and Markdown (human); neither carries timing, so both are
deterministic.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from .classify import (
    BAND_MIN_N, CLASSIFY_MIN_N, band_n_range, cells, central_band, quasi_complete_m1, quasi_complete_params,
    quasi_star_m1, quasi_star_params, tie_pairs, ties,
)
from .errors import DomainError, SizeLimitError
from .families import (
    LMRTTG_MIN_N, MIRROR_TAGS, SEVEN_PAIR_TAGS, build_h_optimal, build_lmrttg, candidate_set, h_optimal_tag, lmrttg_ms,
)
from .graphs import Graph, canonical_key, complement, form_of_key, graph_key, to_json_obj, vertex_pairs
from .invariants import (
    cell_extremes, complement_residuals, family_h_values, gap_and_spread, h_sum_offset, invariant_bundle, max_m1_graphs,
)
from .quadratic import MARGIN, band_bounds_check, count_roots, refine_root, roots_beyond, sign, sign_at
from .reliability import NVEC_MAX_VERTICES, _search


class ScanReport:
    """A check's scope, its records and the number of pairs it scanned."""

    def __init__(self, scope: str, records: list = None, pairs_scanned: int = 0) -> None:
        self.scope = scope
        self.records = [] if records is None else records
        self.pairs_scanned = pairs_scanned

    @property
    def verdict(self) -> bool:
        """Pass iff every kept record is ``ok`` (a scan that keeps only failures passes empty)."""
        return all(rec["ok"] for rec in self.records)

    def to_json_obj(self) -> dict:
        return {
            "scope": self.scope,
            "verdict": "pass" if self.verdict else "fail",
            "pairs_scanned": self.pairs_scanned,
            "records": self.records,
        }

    def to_markdown(self) -> str:
        lines = [f"## {self.scope}", ""]
        status = "pass" if self.verdict else "FAIL"
        lines.append(f"verdict: **{status}** ({self.pairs_scanned} pairs scanned)")
        if self.records:
            cols = list(dict.fromkeys(key for rec in self.records for key in rec))  # every field, first seen first
            lines.append("")
            lines.append("| " + " | ".join(cols) + " |")
            lines.append("|" + "---|" * len(cols))
            for rec in self.records:
                lines.append("| " + " | ".join(str(rec.get(c, "")) for c in cols) + " |")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Exceptional pairs: exhaustive maximization over ALL labeled graphs,
# by threshold graphs.
# ---------------------------------------------------------------------------


def _h_optima(n: int, m: int):
    """Max first Zagreb index over every labeled graph in G_{n,m}, then max
    h-invariant among the maximizers.  Returns
    (max_m1, max_h, runner_up_h, winner_graphs).

    Exhaustive by isomorphism classes: ``max_m1_graphs`` gives the maximum
    over all of G_{n,m} and one graph per class of maximizers.  h is an
    isomorphism invariant, so max_h, the runner-up and the winner classes
    are those over all labeled maximizers; the winners are the graphs that
    attain max_h, one per class.
    """
    best_m1, graphs = max_m1_graphs(n, m)
    scored = [(invariant_bundle(g).h_value, g) for g in graphs]
    max_h = max(h for h, _ in scored)
    runner_up = max((h for h, _ in scored if h < max_h), default=None)
    winners = [g for h, g in scored if h == max_h]
    return best_m1, max_h, runner_up, winners


def verify_seven_pairs() -> ScanReport:
    """Reproduce the seven exceptional tie pairs and their unique optima.

    The tie lists for n in ``range(CLASSIFY_MIN_N, BAND_MIN_N)``, 5 to 7,
    are recomputed from scratch, and for each pair the unique optimum is
    found by exhaustive maximization over every labeled graph, not just the
    candidate families (``_h_optima``), and compared with the
    construction's choice (``build_h_optimal``).
    """
    report = ScanReport(scope="seven exceptional pairs")
    expected_pairs = sorted(SEVEN_PAIR_TAGS)
    found_pairs = [(n, m) for n in range(CLASSIFY_MIN_N, BAND_MIN_N) for m in tie_pairs(n)]
    pairs_ok = found_pairs == expected_pairs
    report.records.append(
        {"check": "tie pair list", "expected": str(expected_pairs), "found": str(found_pairs), "ok": pairs_ok}
    )
    for n, m in expected_pairs:
        best_m1, max_h, runner_up, winners = _h_optima(n, m)
        tag, predicted = build_h_optimal(n, m)
        pkey = graph_key(predicted)
        single_class = all(graph_key(g) == pkey for g in winners)
        candidates = candidate_set(n, m)
        h_by_tag = {str(t): h for t, h in family_h_values(n, m).items()}
        family_m1 = max(invariant_bundle(g).m1 for _, g in candidates)
        family_agrees = best_m1 == family_m1 and max_h == h_by_tag[str(tag)] == max(h_by_tag.values())
        ok = single_class and family_agrees
        report.records.append(
            {
                "n": n,
                "m": m,
                "tag": str(tag),
                "m1": best_m1,
                "h": max_h,
                "margin": None if runner_up is None else max_h - runner_up,
                "h_by_tag": h_by_tag,
                "winner_classes": 1 if single_class else "several",
                "ok": ok,
            }
        )
        report.pairs_scanned += 1
    return report


# ---------------------------------------------------------------------------
# Central band: closed-form dominance scan.
# ---------------------------------------------------------------------------


#: Last n of the central-band tie scan.  The Sturm report isolates the
#: dominance margin's greatest root in (TIE_SCAN_MAX_N, TIE_SCAN_MAX_N + 1],
#: so from the next n on the margin decides every tie and the scan can stop.
TIE_SCAN_MAX_N = 436


def _tie_band_records(n: int) -> list:
    """One record per tie pair in the central band at this n."""
    out = []
    for m in ties(n, central_band(n)):
        h_by_tag = family_h_values(n, m)
        expected = h_optimal_tag(n, m)
        others = [v for t, v in h_by_tag.items() if t is not expected]
        margin = h_by_tag[expected] - max(others)
        out.append(
            {
                "n": n,
                "m": m,
                "tag": str(expected),
                "margin": margin,
                "h_by_tag": {str(t): v for t, v in h_by_tag.items()},
                "ok": margin > 0,
            }
        )
    return out


def scan_tie_band(n_lo: int, n_hi: int) -> ScanReport:
    """For every central-band tie pair, check that the construction's choice
    (``h_optimal_tag``) wins strictly over all other candidates (closed
    forms)."""
    report = ScanReport(scope=f"central-band ties, n in {n_lo}..{n_hi}")
    for n in band_n_range(n_lo, n_hi):
        report.records.extend(_tie_band_records(n))
    report.pairs_scanned = len(report.records)
    return report


def band_decomposition_violations(n_lo: int, n_hi: int) -> list:
    """Central-band pairs whose decomposition parameters escape
    (n/sqrt(2) - 2, n/sqrt(2) + 1), as ``(n, m, val)``; checked once per
    cell, on which both k and k' are fixed.  Times sqrt(2), the window is
    ``-n + (val + 2) sqrt(2) > 0`` and ``n + (1 - val) sqrt(2) > 0``, each an
    exact ``sign``."""
    bad = []
    for n in band_n_range(n_lo, n_hi):
        for m0, last, k, _, kp, _, _, _ in cells(n, central_band(n)):
            escaped = [val for val in (k, kp) if not (sign(-n, val + 2) > 0 and sign(n, 1 - val) > 0)]
            bad.extend((n, m, val) for m in range(m0, last + 1) for val in escaped)
    return bad


def band_bounds_report(n_lo: int, n_hi: int) -> ScanReport:
    """Exact polynomial-bound checks on every central-band pair, of the gap
    ``h(C1) - h(S1)`` and of the spread among the S-side h values, then the
    decomposition-parameter check on the same range, as one record listing
    its violations.

    The bounds are checked one ``cells`` cell at a time.  A pair passes iff
    its gap is at least an integer threshold at n and its spread at most
    another (``band_bounds_check``), so a cell passes whole iff its least
    gap and greatest spread do (``invariants.cell_extremes``).  A cell
    that fails is walked pair by pair, each from ``family_h_values``, and
    each failing pair gets a record."""
    report = ScanReport(scope=f"band polynomial bounds, n in {n_lo}..{n_hi}")
    for n in band_n_range(n_lo, n_hi):
        for m0, last, k, j, kp, jp, _, _ in cells(n, central_band(n)):
            report.pairs_scanned += last - m0 + 1
            if all(band_bounds_check(n, *cell_extremes(n, k, j, kp, jp, last - m0))):
                continue
            for m in range(m0, last + 1):
                gap_ok, spread_ok = band_bounds_check(n, *gap_and_spread(family_h_values(n, m)))
                if not (gap_ok and spread_ok):
                    report.records.append({"n": n, "m": m, "gap_ok": gap_ok, "spread_ok": spread_ok, "ok": False})
    violations = band_decomposition_violations(n_lo, n_hi)
    if violations:
        report.records.append({"check": "decomposition bounds", "violations": violations, "ok": False})
    return report


# ---------------------------------------------------------------------------
# Brute-force uniqueness of the optimal two-terminal construction.
# ---------------------------------------------------------------------------


def brute_record(n: int, m: int) -> dict:
    """Search one (n, m) pair and compare against the construction."""
    res = _search(n, m)
    rec = {
        "n": n,
        "m": m,
        "unique": len(res["keys"]) == 1,
        "unique_ordered": res["unique_ordered"],
        "classes_examined": res["examined"],
        "survivors": res["survivors"],
        "winner_canonical": to_json_obj(form_of_key(res["keys"][0])),
    }
    if m in lmrttg_ms(n):
        expected = build_lmrttg(n, m)
        rec["matches_construction"] = rec["unique"] and res["keys"][0] == canonical_key(expected)
    else:
        rec["matches_construction"] = None
    rec["ok"] = bool(rec["unique"] and rec["matches_construction"])
    if m == 2 * n - 3:
        rec["note"] = "sparse/dense boundary"
    return rec


def uniqueness_pairs(n_min: int, n_max: int, m_cap: int = None) -> list:
    """The (n, m) pairs that ``scan_uniqueness`` searches: each n in
    [n_min, n_max] with m in ``lmrttg_ms(n)``, up to m_cap if given.  Raises before
    any search when n_max is above NVEC_MAX_VERTICES or the range
    holds no pair."""
    if n_max > NVEC_MAX_VERTICES:
        raise SizeLimitError(f"theorem-main is limited to n <= {NVEC_MAX_VERTICES} (got --max-n {n_max})")
    pairs = []
    for n in range(n_min, n_max + 1):
        pairs.extend((n, m) for m in lmrttg_ms(n) if m_cap is None or m <= m_cap)
    if not pairs:
        cap = "" if m_cap is None else f" and --m-cap {m_cap}"
        raise DomainError(f"theorem-main has no (n, m) pair with m >= 5 for n in {n_min}..{n_max}{cap}")
    return pairs


def scan_uniqueness(n_max: int, m_cap: int = None, n_min: int = LMRTTG_MIN_N, jobs: int = 1) -> ScanReport:
    """Brute-force the unique optimum for every pair in ``uniqueness_pairs``.

    For each pair the lexicographic maximizer set must be a single class
    equal to the construction.  The records are ``brute_record``'s without
    the winner's graph.  ``jobs`` has no effect: the search runs serially,
    and the argument is kept so that old callers still work.
    """
    pairs = uniqueness_pairs(n_min, n_max, m_cap)
    records = [{k: v for k, v in brute_record(n, m).items() if k != "winner_canonical"} for n, m in pairs]
    return ScanReport(scope=f"brute-force uniqueness, n in {n_min}..{n_max}", records=records, pairs_scanned=len(records))


# ---------------------------------------------------------------------------
# Randomized identity suite.
# ---------------------------------------------------------------------------

#: First n of both graph loops in the identity suite.  The identities hold
#: for every graph, so this is the suite's own range, not the classified one.
IDENTITY_MIN_N = 5
#: Vertex bound of the random graphs in the identity suite.
IDENTITY_RANDOM_MAX_N = 9
#: Vertex bound of the family graphs in the identity suite.
IDENTITY_FAMILY_MAX_N = 12


def _p4_by_walk(g: Graph) -> int:
    """Four-vertex paths counted at their middle edge: each edge uv with
    u < v, every neighbour a != v of u and every neighbour b != u, a of v
    give the path a-u-v-b, and every path has one middle edge and so is
    counted once.  Independent of the closed form in ``invariant_bundle``:
    no degree sums or triangle counts."""
    rows = g.rows
    total = 0
    for u, v in g.edges():
        ends = rows[v] & ~(1 << u)
        starts = rows[u] & ~(1 << v)
        while starts:
            a = starts & -starts
            total += (ends & ~a).bit_count()
            starts ^= a
    return total


def _identity_failures(g: Graph, closed: tuple = None) -> list:
    """The identities that fail on g.  ``closed``, when given, is the
    ``(h, M1)`` that a family's closed forms give for g, and both are
    checked against the bundle too."""
    fails = []
    b = invariant_bundle(g)
    bc = invariant_bundle(complement(g))
    p4 = _p4_by_walk(g)
    if p4 != b.p4:
        fails.append("p4 closed form")
    if b.h_value != -3 * b.k3 + p4 + 2 * b.p3 + b.m:
        fails.append("triangle/path expansion of h")
    lhs = 2 * (b.h_value + bc.h_value)
    rhs = (2 * g.n - 9) * b.m1 + 2 * h_sum_offset(g.n, g.m)
    if lhs != rhs:
        fails.append("complement-sum identity")
    if complement_residuals(g.n, b, bc) != (0, 0, 0):
        fails.append("complementation identities")
    if closed is not None:
        h, m1 = closed
        if h != b.h_value:
            fails.append("family h closed form")
        if m1 != b.m1:
            fails.append("M1 closed form")
    return fails


def identity_suite(seed: int = 0, samples: int = 1000) -> ScanReport:
    """Exact identity checks on random graphs plus every family graph."""
    if samples < 0:
        raise DomainError(f"need samples >= 0; got {samples}")
    rnd = random.Random(seed)
    report = ScanReport(scope=f"identity suite (seed={seed}, samples={samples})")
    checked = 0
    pair_tables = {n: vertex_pairs(n) for n in range(IDENTITY_MIN_N, IDENTITY_RANDOM_MAX_N + 1)}
    for _ in range(samples):
        n = rnd.randint(IDENTITY_MIN_N, IDENTITY_RANDOM_MAX_N)
        pairs = pair_tables[n]
        edges = rnd.sample(pairs, rnd.randint(0, len(pairs)))
        g = Graph.from_edges(n, edges)
        fails = _identity_failures(g)
        checked += 1
        if fails:
            report.records.append({"n": n, "edges": edges, "failed": fails, "ok": False})
    for n in range(IDENTITY_MIN_N, IDENTITY_FAMILY_MAX_N + 1):
        for m in range(comb(n, 2) + 1):
            h_by_tag = family_h_values(n, m)
            c_m1 = quasi_complete_m1(*quasi_complete_params(m))
            s_m1 = quasi_star_m1(n, *quasi_star_params(n, m))
            for tag, g in candidate_set(n, m):
                fails = _identity_failures(g, (h_by_tag.get(tag), s_m1 if tag in MIRROR_TAGS else c_m1))
                checked += 1
                if fails:
                    report.records.append({"n": n, "m": m, "tag": str(tag), "failed": fails, "ok": False})
    report.pairs_scanned = checked
    return report


# ---------------------------------------------------------------------------
# Sturm report for the dominance margin polynomial.
# ---------------------------------------------------------------------------


def sturm_report() -> dict:
    """Root isolation facts for the dominance margin polynomial, on the unit
    interval ``(a, a+1]`` that starts where the tie scan ends, ``a =
    TIE_SCAN_MAX_N``.  ``ok`` holds iff there is one root in (a, a+1], none in
    (a+1, +inf), and the margin is positive at a+1.  The record reports the
    roots in (a+1, 10^6]; ``ok`` reads Descartes' rule on the Taylor shift to
    a+1, which counts every root beyond it or raises (``roots_beyond``)."""
    a, b = TIE_SCAN_MAX_N, TIE_SCAN_MAX_N + 1
    lo, hi = refine_root(MARGIN, a, b, Fraction(1, 10**6))
    at_end, beyond, end_sign = count_roots(MARGIN, a, b), count_roots(MARGIN, b, 10**6), sign_at(MARGIN, b)
    return {
        f"roots_in_{a}_{b}": at_end,
        f"roots_in_{b}_1e6": beyond,
        f"sign_at_{b}": end_sign,
        "greatest_root_bracket": [str(lo), str(hi)],
        "bracket_width": str(hi - lo),
        "ok": at_end == 1 and roots_beyond(MARGIN, b) == 0 and end_sign > 0,
    }
