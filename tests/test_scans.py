import json
from collections import Counter
from math import comb
from pathlib import Path

import pytest

from lmrttg import families, invariants, scans
from lmrttg.classify import cells, central_band, quasi_complete_params, quasi_star_params
from lmrttg.errors import DomainError
from lmrttg.families import FamilyTag, build_family, candidate_set
from lmrttg.graphs import Graph, graph_key
from lmrttg.invariants import family_h, family_h_values, invariant_bundle
from lmrttg.scans import (
    ScanReport,
    _h_optima,
    _tie_band_records,
    band_bounds_report,
    band_decomposition_violations,
    brute_record,
    identity_suite,
    scan_tie_band,
    scan_uniqueness,
    sturm_report,
)
from oracles import h_optima_oracle, iso_oracle

GOLDEN = Path(__file__).parent / "golden"


def test_seven_pairs_report(seven_pairs_report):
    rep = seven_pairs_report
    assert rep.verdict
    assert rep.pairs_scanned == 7
    by_pair = {(r["n"], r["m"]): r for r in rep.records if "n" in r}
    assert by_pair[(6, 8)]["h_by_tag"]["s1"] == 61
    assert by_pair[(6, 8)]["h_by_tag"]["c1"] == 59
    assert by_pair[(7, 9)]["h_by_tag"]["s2"] == 81
    assert by_pair[(7, 9)]["h_by_tag"]["c1"] == 78
    assert by_pair[(6, 7)]["tag"] == "s2"
    assert all(r["margin"] > 0 for r in by_pair.values())


def test_seven_pairs_report_matches_golden(seven_pairs_report):
    got = seven_pairs_report.to_json_obj()
    want = json.loads((GOLDEN / "seven_pairs.json").read_text())
    assert got == want


def test_h_optima_match_labeled_oracle():
    pairs = [(n, m) for n in range(1, 7) for m in range(comb(n, 2) + 1)] + [(7, 9), (7, 12)]
    for n, m in pairs:
        got, want = _h_optima(n, m), h_optima_oracle(n, m)
        assert got[:3] == want[:3], (n, m)
        # the winners are labeled winners, and they cover every winner class
        assert {frozenset(g.edges()) for g in got[3]} <= {frozenset(e) for e in want[3]}, (n, m)
        classes = [{graph_key(g) for g in got[3]}, {graph_key(Graph.from_edges(n, e)) for e in want[3]}]
        assert classes[0] == classes[1], (n, m)


def test_central_band_ties_are_exhaustive_h_optima_at_n_8_to_20():
    # the seven-pairs maximisation, run on every central-band tie pair at n = 8..20
    records = [rec for n in range(8, 21) for rec in _tie_band_records(n)]
    ties = [(8, 10), (8, 14), (8, 18), (9, 18), (10, 20), (10, 25), (12, 33), (13, 39)]
    ties += [(15, 45), (15, 60), (16, 60), (17, 64), (17, 68), (17, 72), (20, 95)]
    assert [(r["n"], r["m"]) for r in records] == ties
    for rec in records:
        n, m, tag = rec["n"], rec["m"], FamilyTag(rec["tag"])
        best_m1, max_h, _, winners = _h_optima(n, m)
        assert best_m1 == max(invariant_bundle(g).m1 for _, g in candidate_set(n, m)), (n, m)
        assert len(winners) == 1, (n, m)
        assert max_h == family_h(n, m, tag), (n, m)
        assert iso_oracle(winners[0], build_family(n, m, tag)), (n, m)


def test_seven_pairs_scan_checks_the_construction(monkeypatch):
    # a construction that picks the quasi-star at every exceptional pair is
    # wrong at (6, 7), (7, 9) and (7, 12), where s2 wins
    real = families.h_optimal_tag
    monkeypatch.setattr(
        families, "h_optimal_tag", lambda n, m: FamilyTag.S1 if (n, m) in families.SEVEN_PAIR_TAGS else real(n, m)
    )
    rep = scans.verify_seven_pairs()
    failed = [(r["n"], r["m"]) for r in rep.records if not r["ok"]]
    assert not rep.verdict and failed == [(6, 7), (7, 9), (7, 12)]


def test_tie_band_scan_checks_the_construction(monkeypatch):
    # the scan asks the construction only at band ties; one that always picks
    # c1 there loses to c3 wherever c3 exists, e.g. at (8, 18)
    c3_pairs = {(r["n"], r["m"]) for r in scan_tie_band(8, 20).records if r["tag"] == "c3"}
    monkeypatch.setattr(scans, "h_optimal_tag", lambda n, m: FamilyTag.C1)
    rep = scan_tie_band(8, 20)
    assert (8, 18) in c3_pairs
    assert {(r["n"], r["m"]) for r in rep.records if not r["ok"]} == c3_pairs


def test_tie_band_scan_small():
    rep = scan_tie_band(8, 40)
    assert rep.verdict
    assert rep.pairs_scanned > 0
    assert all(r["margin"] > 0 for r in rep.records)
    # the boundary ties at n = 8 are band members and must be covered
    covered = {(r["n"], r["m"]) for r in rep.records}
    assert (8, 10) in covered and (8, 18) in covered
    with pytest.raises(DomainError):
        scan_tie_band(5, 10)


def test_tie_band_scan_deterministic():
    a = scan_tie_band(8, 20).to_json_obj()
    b = scan_tie_band(8, 20).to_json_obj()
    assert a == b


def test_uniqueness_scan_serial_equals_parallel():
    serial = scan_uniqueness(5, jobs=1)
    parallel = scan_uniqueness(5, jobs=2)
    assert serial.verdict and parallel.verdict
    assert serial.records == parallel.records


def test_brute_record_fields():
    rec = brute_record(4, 5)
    assert rec["unique"] and rec["matches_construction"] and rec["ok"]
    assert rec["classes_examined"] == 5  # C(5,4) labeled candidates carrying the terminal edge
    assert set(rec["winner_canonical"]) == {"n", "terminals", "edges"}
    assert "elapsed" not in rec
    assert rec["unique_ordered"] is True


def test_brute_record_boundary_note():
    rec = brute_record(5, 7)
    assert rec.get("note") == "sparse/dense boundary"
    assert rec["ok"]


def test_brute_force_uniqueness_at_n_9():
    for m in range(5, comb(9, 2) + 1):
        assert brute_record(9, m)["ok"], m


def test_identity_suite_deterministic_and_green():
    a = identity_suite(seed=7, samples=40)
    b = identity_suite(seed=7, samples=40)
    assert a.verdict and b.verdict
    assert a.pairs_scanned == b.pairs_scanned
    assert a.records == b.records == []


def test_identity_suite_checks_the_family_closed_forms(monkeypatch):
    # a wrong C3 offset and a wrong quasi-star M1 each fail the family graphs they touch
    real_h = scans.family_h_values
    monkeypatch.setattr(
        scans, "family_h_values", lambda n, m: {t: h + 2 * (t is FamilyTag.C3) for t, h in real_h(n, m).items()}
    )
    monkeypatch.setattr(scans, "quasi_star_m1", lambda n, kp, jp: -1)
    rep = identity_suite(seed=0, samples=0)
    fails = {(r["tag"], f) for r in rep.records for f in r["failed"]}
    assert fails == {("c3", "family h closed form")} | {(t, "M1 closed form") for t in ("s1", "s2", "s3")}
    assert rep.pairs_scanned == 796


@pytest.mark.parametrize("field, first", [("p4", "p4 closed form"), ("k3", "triangle/path expansion of h")])
def test_identity_suite_catches_a_broken_bundle(monkeypatch, field, first):
    # a bundle whose p4 or k3 is off by one fails the walk or the h expansion,
    # and Goodman's complement identities, on every graph
    def broken(g):
        b = invariant_bundle(g)
        return b._replace(**{field: getattr(b, field) + 1})

    monkeypatch.setattr(scans, "invariant_bundle", broken)
    rep = identity_suite(seed=3, samples=20)
    assert rep.pairs_scanned == 20 + 796 == len(rep.records)
    assert all(r["failed"] == [first, "complementation identities"] for r in rep.records)


def test_band_decomposition_violations_empty():
    assert band_decomposition_violations(8, 60) == []


def test_band_decomposition_violations_solve_no_pair(monkeypatch):
    # k and k' are fixed on a cell, so the check reads them from the cells
    # and solves no decomposition per pair
    calls = []
    for name in ("quasi_complete_params", "quasi_star_params"):
        monkeypatch.setattr(scans, name, lambda *args, fn=getattr(scans, name): calls.append(args) or fn(*args))
    assert band_decomposition_violations(8, 100) == []
    assert calls == []


def test_band_decomposition_violations_list_every_pair_of_a_failing_cell(monkeypatch):
    # over every m the parameters escape on whole cells; each pair is listed
    # once per escaping parameter, k before k', in increasing m
    monkeypatch.setattr(scans, "central_band", lambda n: range(comb(n, 2) + 1))
    expected = [
        (n, m, val)
        for n in range(8, 13)
        for m in range(comb(n, 2) + 1)
        for val in (quasi_complete_params(m)[0], quasi_star_params(n, m)[0])
        if not (n * n < 2 * (val + 2) ** 2 and (val <= 1 or 2 * (val - 1) ** 2 < n * n))
    ]
    assert len(expected) > 100
    assert band_decomposition_violations(8, 12) == expected


def test_band_decomposition_window_agrees_with_squared_comparisons(monkeypatch):
    # every val in 0..n+2 for n in 8..3000, two per cell: cell i holds k = 2i
    # and k' = 2i + 1 on its one pair m = i; the oracle squares both sides
    monkeypatch.setattr(scans, "cells", lambda n, ms: [(i, i, 2 * i, 0, 2 * i + 1, 0, 0, 0) for i in range(n // 2 + 2)])
    for n in range(8, 3001):
        vals = range(2 * (n // 2 + 2))
        inside = [val for val in vals if n * n < 2 * (val + 2) ** 2 and (val <= 1 or 2 * (val - 1) ** 2 < n * n)]
        assert band_decomposition_violations(n, n) == [(n, val // 2, val) for val in vals if val not in inside], n


@pytest.mark.parametrize("scan", [scan_tie_band, band_bounds_report, band_decomposition_violations])
@pytest.mark.parametrize("n_lo, n_hi", [(1, 7), (9, 8)])
def test_band_scans_reject_ranges_outside_the_band(scan, n_lo, n_hi):
    # below the band's first n, or descending: nothing would be checked
    with pytest.raises(DomainError):
        scan(n_lo, n_hi)


def test_band_bounds_report_small():
    rep = band_bounds_report(8, 15)
    assert rep.verdict and rep.pairs_scanned > 0


def test_band_bounds_report_checks_decomposition_on_its_whole_range(monkeypatch):
    # a violation planted above n = 200 must reach the report of a range that reaches it
    cells = scans.cells
    monkeypatch.setattr(scans, "cells", lambda n, ms: [(*c[:4], n, *c[5:]) if n > 200 else c for c in cells(n, ms)])
    rep = band_bounds_report(8, 210)
    assert not rep.verdict
    (rec,) = rep.records
    assert rec["check"] == "decomposition bounds" and {n for n, _, _ in rec["violations"]} == set(range(201, 211))


def test_band_bounds_report_solves_no_decomposition_per_pair(monkeypatch):
    # each cell's pairs read (k, j - i, k', j' + i) from the cell; per pair the
    # old loop solved both decompositions, 5,069 times each on 8..100
    calls = []
    for module in (scans, invariants):
        for name in ("quasi_complete_params", "quasi_star_params"):
            monkeypatch.setattr(module, name, lambda *args, fn=getattr(module, name): calls.append(args) or fn(*args))
    rep = band_bounds_report(8, 100)
    assert rep.verdict and rep.pairs_scanned == 5069
    assert calls == []


@pytest.mark.parametrize("n_hi, every_m", [(200, False), (20, True)])
def test_band_bounds_records_equal_a_per_pair_reference(monkeypatch, n_hi, every_m):
    # each pass puts one threshold at every n one step inside a cell's least
    # gap or greatest spread and leaves the other at its extreme over n, so
    # that this cell fails in part or whole while the others pass or fail;
    # every cell is picked for both thresholds, and every pair is checked on
    # its own.  Every central-band cell's gap has a positive second
    # difference; over every m some have none, so the ends-only rule runs.
    if every_m:
        monkeypatch.setattr(scans, "central_band", lambda n: range(comb(n, 2) + 1))
    band = scans.central_band
    values = {}
    for n in range(8, n_hi + 1):
        for m in band(n):
            h_by_tag = family_h_values(n, m)
            h_s = [h_by_tag[t] for t in (FamilyTag.S1, FamilyTag.S2, FamilyTag.S3) if t in h_by_tag]
            values[n, m] = (h_by_tag[FamilyTag.C1] - h_by_tag[FamilyTag.S1], max(h_s) - min(h_s))
    band_cells = {n: [range(m0, last + 1) for m0, last, *_ in cells(n, band(n))] for n in range(8, n_hi + 1)}
    open_bounds = {n: (min(values[n, m][0] for m in band(n)), max(values[n, m][1] for m in band(n))) for n in band_cells}
    kinds = Counter()
    for index in range(2 * max(map(len, band_cells.values()))):
        side, bounds = index % 2, {}
        for n, ms in band_cells.items():
            picked = [values[n, m][side] for m in ms[index // 2 % len(ms)]]
            bounds[n] = (min(picked) + 1, open_bounds[n][1]) if side == 0 else (open_bounds[n][0], max(picked) - 1)

        def check(n, gap, spread):
            return gap >= bounds[n][0], spread <= bounds[n][1]

        monkeypatch.setattr(scans, "band_bounds_check", check)
        expected = []
        for (n, m), (gap, spread) in values.items():
            gap_ok, spread_ok = check(n, gap, spread)
            if not (gap_ok and spread_ok):
                expected.append({"n": n, "m": m, "gap_ok": gap_ok, "spread_ok": spread_ok, "ok": False})
        rep = band_bounds_report(8, n_hi)
        pair_records = [rec for rec in rep.records if rec.get("check") != "decomposition bounds"]
        assert (pair_records, rep.pairs_scanned) == (expected, len(values)), index
        failing = {(rec["n"], rec["m"]) for rec in expected}
        for n, cell_list in band_cells.items():
            for ms in cell_list:
                failed = sum((n, m) in failing for m in ms)
                kinds["pass" if failed == 0 else "whole" if failed == len(ms) else "part"] += 1
    assert kinds["pass"] and kinds["whole"] and kinds["part"], kinds


def test_sturm_report_contents():
    from fractions import Fraction

    rep = sturm_report()
    assert rep["roots_in_436_437"] == 1
    assert rep["roots_in_437_1e6"] == 0
    assert rep["sign_at_437"] == 1
    lo, hi = (Fraction(x) for x in rep["greatest_root_bracket"])
    assert 436 < lo < hi <= 437
    assert hi - lo < Fraction(1, 10**6)


def _markdown_rows(md):
    """The table of a rendered report as one dict per record, keyed by the header cells."""
    cells = [[c.strip() for c in line.strip()[1:-1].split("|")] for line in md.splitlines() if line.startswith("| ")]
    return [dict(zip(cells[0], row)) for row in cells[1:]]


def test_report_markdown_render(seven_pairs_report):
    md = seven_pairs_report.to_markdown()
    assert "verdict: **pass**" in md
    rows = _markdown_rows(md)
    for col in ("check", "n", "m", "tag", "m1", "h", "margin", "h_by_tag", "winner_classes", "ok"):
        assert col in rows[0], col
    assert rows[0]["check"] == "tie pair list"
    assert {"n": "5", "m": "5", "tag": "s1"}.items() <= rows[1].items()
    assert len(rows) == 8


def test_report_markdown_shows_every_record_field():
    records = [{"n": 8, "ok": False}, {"n": 9, "gap": 3, "ok": True}, {"check": "x", "ok": True}]
    md = ScanReport(scope="two shapes", records=records, pairs_scanned=2).to_markdown()
    assert md.splitlines()[4:] == [
        "| n | ok | gap | check |",
        "|---|---|---|---|",
        "| 8 | False |  |  |",
        "| 9 | True | 3 |  |",
        "|  | True |  | x |",
    ]


def test_report_verdict_follows_its_records():
    report = ScanReport(scope="two records", records=[{"n": 8, "ok": True}, {"n": 9, "ok": False}], pairs_scanned=2)
    assert not report.verdict
    assert report.to_json_obj()["verdict"] == "fail"
    assert "verdict: **FAIL**" in report.to_markdown()
    report.records.pop()
    assert report.verdict
