from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from lmrttg.classify import (
    BAND_MIN_N,
    Sign,
    _m1_gap,
    cells,
    central_band,
    classify,
    quasi_complete_m1,
    quasi_complete_params,
    quasi_star_m1,
    quasi_star_params,
    spectrum,
    tie_pairs,
    ties,
    trivial_tie_ms,
)
from lmrttg.errors import DomainError, InvariantError
from lmrttg.scans import TIE_SCAN_MAX_N
from oracles import m1_race_oracle, threshold_sign_oracle


def coarse_rule(n, m):
    """Outside the central band, with 4 <= m <= C(n,2) - 4, the sign is +
    iff 2m < C(n,2); None elsewhere."""
    c = comb(n, 2)
    if 4 <= m <= c - 4 and not c - n <= 2 * m <= c + n:
        return "+" if 2 * m < c else "-"
    return None


def test_spectrum_small_values():
    s5 = spectrum(5)
    assert (s5.k, s5.q) == (3, 2)
    s6 = spectrum(6)
    assert (s6.k, s6.q) == (4, 0)
    s7 = spectrum(7)
    assert (s7.k, s7.q, s7.r) == (5, -4, Fraction(3, 2))
    with pytest.raises(DomainError):
        spectrum(4)


def test_spectrum_defining_relations():
    for n in range(5, 3000):
        sp = spectrum(n)
        half = Fraction(comb(n, 2), 2)
        assert comb(sp.k, 2) <= half < comb(sp.k + 1, 2)
        assert sp.q == Fraction(1 - 2 * (2 * sp.k - 3) ** 2 + (2 * n - 5) ** 2, 4)


def m1_pair(n, m):
    """``(M1(S1), M1(C1))`` at (n, m), from the closed forms."""
    return quasi_star_m1(n, *quasi_star_params(n, m)), quasi_complete_m1(*quasi_complete_params(m))


def test_classify_examples():
    assert classify(6, 7) is Sign.TIE
    assert classify(6, 5) is Sign.PLUS and m1_pair(6, 5) == (30, 26)
    assert classify(5, 5) is Sign.TIE  # the midpoint m = C(5,2)/2
    assert 2 * 5 == comb(5, 2)


def test_classify_outside_range():
    # n < 5: the closed forms exist but no sign is given
    assert classify(4, 5) is None and m1_pair(4, 5) == (26, 26)
    # m above C(n,2): no decomposition exists
    assert classify(5, 11) is None
    with pytest.raises(DomainError):
        quasi_star_params(5, 11)


def test_band_membership():
    assert 10 in central_band(8) and 18 in central_band(8)
    assert 9 not in central_band(8) and 19 not in central_band(8)
    assert BAND_MIN_N == 8
    assert central_band(7) == range(0)  # the band starts at n = BAND_MIN_N


def test_tie_pairs_filtered():
    assert tie_pairs(5) == [5]
    assert tie_pairs(6) == [6, 7, 8, 9]
    assert tie_pairs(7) == [9, 12]
    # the left-out edge counts are ties too
    assert all(classify(6, m) is Sign.TIE for m in trivial_tie_ms(6))


def test_moptimal_examples():
    # the threshold case analysis, as an independent oracle
    for m in range(6, 10):
        assert threshold_sign_oracle(6, m) == "="
    assert threshold_sign_oracle(7, 9) == "="  # half - r = 21/2 - 3/2
    for n in range(5, 20):
        assert threshold_sign_oracle(n, 2) == "="


def test_coarse_sign_examples():
    assert coarse_rule(10, 10) == "+"
    assert coarse_rule(10, 41) == "-"
    assert coarse_rule(8, 14) is None  # central band
    assert coarse_rule(10, 3) is None and coarse_rule(10, 42) is None  # near-empty, near-complete


def test_predictions_agree_with_exact_classification():
    for n in range(5, 26):
        race = m1_race_oracle(n)
        for m in range(comb(n, 2) + 1):
            sign = str(classify(n, m))
            assert race[m] == sign, (n, m)
            assert threshold_sign_oracle(n, m) == sign, (n, m)
            if n >= 6:
                coarse = coarse_rule(n, m)
                assert coarse is None or coarse == sign, (n, m)


def test_boundary_ties_missed_by_published_side_condition():
    # at n = 8 both constructions hit first Zagreb index 80 at m = alpha = 10
    assert classify(8, 10) is Sign.TIE and m1_pair(8, 10) == (80, 80)
    assert threshold_sign_oracle(8, 10) == "="
    assert threshold_sign_oracle(8, 18) == "="


def test_sign_flips_under_complementation():
    flip = {Sign.PLUS: Sign.MINUS, Sign.MINUS: Sign.PLUS, Sign.TIE: Sign.TIE}
    for n in range(5, 26):
        c = comb(n, 2)
        for m in range(c + 1):
            assert classify(n, c - m) is flip[classify(n, m)], (n, m)


def test_band_decomposition_bounds_exact():
    # inside the central band both decomposition orders stay within
    # (n/sqrt(2) - 2, n/sqrt(2) + 1); exact squared comparisons
    for n in range(8, 101):
        c = comb(n, 2)
        for m in range((c - n + 1) // 2, (c + n) // 2 + 1):
            if m not in central_band(n):
                continue
            for val in (quasi_complete_params(m)[0], quasi_star_params(n, m)[0]):
                assert n * n < 2 * (val + 2) ** 2, (n, m, val)
                assert val <= 1 or 2 * (val - 1) ** 2 < n * n, (n, m, val)


def test_ties_equal_the_pair_by_pair_scan():
    # the solved cells against classify on every pair: each central band the
    # tie scan covers, and every edge count for n <= 60
    for n in range(BAND_MIN_N, TIE_SCAN_MAX_N + 1):
        band = central_band(n)
        assert ties(n, band) == [m for m in band if classify(n, m) is Sign.TIE], n
    for n in range(5, 61):
        ms = range(comb(n, 2) + 1)
        assert ties(n, ms) == [m for m in ms if classify(n, m) is Sign.TIE], n
    assert ties(6, range(6, 10)) == [6, 7, 8, 9]  # a whole cell of ties: slope and gap both 0
    assert ties(8, range(11, 11)) == []


def gap(n, m):
    s1, c1 = m1_pair(n, m)
    return s1 - c1


def test_cells_match_the_parameter_functions_below_n_5():
    # cells walks every n >= 0; the classify rows below n = 5 read their parameters off it
    for n in range(5):
        got = [
            (m0 + i, k, j - i, kp, jp + i, g0 + d * i)
            for m0, last, k, j, kp, jp, g0, d in cells(n, range(comb(n, 2) + 1))
            for i in range(last - m0 + 1)
        ]
        assert got == [(m, *quasi_complete_params(m), *quasi_star_params(n, m), gap(n, m)) for m in range(comb(n, 2) + 1)]
    with pytest.raises(DomainError):
        list(cells(-1, range(0)))


def test_cell_step_is_the_gap_difference():
    # the closed-form step d of every cell equals the gap's difference across the cell's first step
    for n in [*range(61), 200, 436]:
        for m0, last, k, j, kp, jp, g0, d in cells(n, range(comb(n, 2) + 1)):
            assert d == (_m1_gap(n, k, j - 1, kp, jp + 1) - g0 if last > m0 else 0), (n, m0)


@given(st.data())
def test_gap_has_zero_second_difference_on_each_cell(data):
    # a cell is where both decomposition orders stay fixed: k on
    # C(k,2) <= m < C(k+1,2), and k' on C(k',2) <= C(n,2) - m < C(k'+1,2)
    n = data.draw(st.integers(5, 10**4), label="n")
    c = comb(n, 2)
    m = data.draw(st.integers(0, c), label="m")
    k, kp = quasi_complete_params(m)[0], quasi_star_params(n, m)[0]
    lo = max(comb(k, 2), c - comb(kp + 1, 2) + 1)
    hi = min(comb(k + 1, 2) - 1, c - comb(kp, 2))
    assert lo <= m <= hi
    assume(hi - lo >= 2)
    t = data.draw(st.integers(lo, hi - 2), label="t")
    assert gap(n, t + 2) - 2 * gap(n, t + 1) + gap(n, t) == 0


def test_ties_confirms_each_solved_tie(monkeypatch):
    # a solved tie that classify rejects is a broken invariant, raised and not asserted
    monkeypatch.setattr("lmrttg.classify.classify", lambda n, m: Sign.MINUS)
    with pytest.raises(InvariantError):
        ties(8, central_band(8))


def test_ties_domain():
    for n, ms in ((4, range(3)), (8, range(0, 30)), (8, range(-1, 3)), (8, range(0, 10, 2))):
        with pytest.raises(DomainError):
            ties(n, ms)
    assert ties(8, range(0, 29)) == [m for m in range(29) if classify(8, m) is Sign.TIE]
