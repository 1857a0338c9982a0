from fractions import Fraction
from math import comb

import pytest

from lmrttg import (
    DomainError,
    classify,
    coarse_sign,
    moptimal_predict,
    quasi_complete_params,
    quasi_star_params,
    spectrum,
    tie_pairs,
)
from lmrttg.classify import Sign, trivial_tie_ms


def test_spectrum_small_values():
    s5 = spectrum(5)
    assert (s5.k, s5.q) == (3, 2)
    s6 = spectrum(6)
    assert (s6.k, s6.q, s6.alpha) == (4, 0, 6)
    s7 = spectrum(7)
    assert (s7.k, s7.q, s7.r) == (5, -4, Fraction(3, 2))
    with pytest.raises(DomainError):
        spectrum(4)


def test_spectrum_defining_relations():
    for n in range(5, 3000):
        sp = spectrum(n)
        half = Fraction(comb(n, 2), 2)
        assert comb(sp.k, 2) <= half < comb(sp.k + 1, 2)
        assert sp.alpha == comb(sp.k, 2)
        assert sp.q == Fraction(1 - 2 * (2 * sp.k - 3) ** 2 + (2 * n - 5) ** 2, 4)


def test_classify_examples():
    assert classify(6, 7).sign is Sign.TIE
    pc = classify(6, 5)
    assert pc.sign is Sign.PLUS and (pc.m1_s1, pc.m1_c1) == (30, 26)
    assert classify(5, 5).sign is Sign.TIE  # the midpoint m = C(5,2)/2
    assert 2 * 5 == comb(5, 2)


def test_classify_outside_range():
    pc = classify(4, 5)
    assert not pc.in_I and pc.sign is None and pc.m1_s1 is not None
    pc = classify(5, 11)
    assert not pc.in_I and pc.m1_s1 is None


def test_band_membership():
    assert classify(8, 10).in_J and classify(8, 18).in_J
    assert not classify(8, 9).in_J
    assert not classify(7, 10).in_J  # band needs n >= 8


def test_tie_pairs_filtered():
    assert tie_pairs(5, include_trivial=False) == [5]
    assert tie_pairs(6, include_trivial=False) == [6, 7, 8, 9]
    assert tie_pairs(7, include_trivial=False) == [9, 12]
    assert set(tie_pairs(6)) >= set(trivial_tie_ms(6))


def test_moptimal_examples():
    for m in range(6, 10):
        assert moptimal_predict(6, m) is Sign.TIE
    assert moptimal_predict(7, 9) is Sign.TIE  # half - r = 21/2 - 3/2
    for n in range(5, 20):
        assert moptimal_predict(n, 2) is Sign.TIE


def test_coarse_sign_examples():
    assert coarse_sign(10, 10) is Sign.PLUS
    assert coarse_sign(10, 41) is Sign.MINUS
    assert coarse_sign(8, 14) is None
    with pytest.raises(DomainError):
        coarse_sign(5, 3)


def test_predictions_agree_with_exact_classification():
    for n in range(5, 26):
        for m in range(comb(n, 2) + 1):
            sign = classify(n, m).sign
            assert moptimal_predict(n, m) is sign, (n, m)
            if n >= 6:
                coarse = coarse_sign(n, m)
                assert coarse is None or coarse is sign, (n, m)


def test_boundary_ties_missed_by_published_side_condition():
    # at n = 8 both constructions hit first Zagreb index 80 at m = alpha = 10
    pc = classify(8, 10)
    assert pc.sign is Sign.TIE and pc.m1_s1 == pc.m1_c1 == 80
    assert moptimal_predict(8, 10) is Sign.TIE
    assert moptimal_predict(8, 18) is Sign.TIE


def test_sign_flips_under_complementation():
    flip = {Sign.PLUS: Sign.MINUS, Sign.MINUS: Sign.PLUS, Sign.TIE: Sign.TIE}
    for n in range(5, 26):
        c = comb(n, 2)
        for m in range(c + 1):
            assert classify(n, c - m).sign is flip[classify(n, m).sign], (n, m)


def test_band_decomposition_bounds_exact():
    # inside the central band both decomposition orders stay within
    # (n/sqrt(2) - 2, n/sqrt(2) + 1); exact squared comparisons
    for n in range(8, 101):
        c = comb(n, 2)
        for m in range((c - n + 1) // 2, (c + n) // 2 + 1):
            if not classify(n, m).in_J:
                continue
            for val in (quasi_complete_params(m)[0], quasi_star_params(n, m)[0]):
                assert n * n < 2 * (val + 2) ** 2, (n, m, val)
                assert val <= 1 or 2 * (val - 1) ** 2 < n * n, (n, m, val)
