import random
from decimal import Decimal, getcontext
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lmrttg.classify import central_band
from lmrttg.errors import DomainError
from lmrttg.families import FamilyTag, family_exists
from lmrttg.invariants import family_h
from lmrttg.quadratic import (
    GAP_LOWER,
    MARGIN,
    SPREAD_UPPER,
    QuadNumber,
    QuadPolynomial,
    _bounds_at,
    band_bounds_check,
    count_roots,
    refine_root,
    sign_variations,
    sturm_sequence,
)
from lmrttg.scans import _tie_band_records
from oracles import poly_mod_oracle, poly_mul_oracle, poly_sub_oracle, sturm_degrees_oracle

getcontext().prec = 60
SQRT2_DEC = Decimal(2).sqrt()


def q(a, b=0):
    return QuadNumber.of(Fraction(a), Fraction(b))


def test_field_arithmetic():
    x = q(1, 2)
    y = q(3, -1)
    assert x + y == q(4, 1)
    assert x - y == q(-2, 3)
    assert x * y == q(-1, 5)  # (1+2r)(3-r) = 3 - r + 6r - 2*2 = -1 + 5r
    assert x * x.inverse() == q(1)
    assert (x * y.inverse()) * y == x
    with pytest.raises(ZeroDivisionError):
        q(0).inverse()


def test_sign_cases():
    assert q(0).sign() == 0
    assert q(3, 1).sign() == 1
    assert q(-2, -1).sign() == -1
    assert q(3, -2).sign() == 1  # 9 > 8
    assert q(2, -3).sign() == -1
    assert q(-3, 2).sign() == -1  # 2*sqrt2 < 3
    assert q(-2, 3).sign() == 1
    assert q(1, -1).sign() == -1  # 1 < sqrt2
    assert q(-1, 1).sign() == 1


def test_sign_agrees_with_high_precision_float():
    rnd = random.Random(30)
    for _ in range(100_000):
        a = Fraction(rnd.randint(-999, 999), rnd.randint(1, 99))
        b = Fraction(rnd.randint(-999, 999), rnd.randint(1, 99))
        approx = Decimal(a.numerator) / a.denominator + SQRT2_DEC * b.numerator / b.denominator
        expected = 0 if approx == 0 else (1 if approx > 0 else -1)
        assert q(a, b).sign() == expected


def test_polynomial_basics():
    f = QuadPolynomial([q(-2), q(0), q(1)])  # x^2 - 2
    assert f.degree() == 2
    assert f(2) == q(2)
    assert f(Fraction(3, 2)) == q(Fraction(1, 4))
    assert f.derivative().coeffs == (q(0), q(2))
    assert (f - f).is_zero()
    rem = f % QuadPolynomial([q(0, -1), q(1)])  # divide by x - sqrt2
    assert rem.is_zero()


def test_sturm_roots_of_x2_minus_2():
    f = QuadPolynomial([q(-2), q(0), q(1)])
    assert count_roots(f, -2, 2) == 2
    assert count_roots(f, 0, 2) == 1
    assert count_roots(f, Fraction(3, 2), 2) == 0
    linear = QuadPolynomial([q(1), q(1)])
    assert len(sturm_sequence(linear)) == 2


def test_sign_variations_at_infinity_read_the_leading_signs():
    # V(x) - V(+inf) counts the roots in (x, +inf)
    def above(f, x):
        chain = sturm_sequence(f)
        return sign_variations(chain, x) - sign_variations(chain)

    f = QuadPolynomial([q(-6), q(11), q(-6), q(1)])  # roots at 1, 2 and 3
    assert [above(f, x) for x in (0, Fraction(3, 2), Fraction(5, 2), 10)] == [3, 2, 1, 0]
    assert above(QuadPolynomial([q(-6), q(-11), q(-6), q(-1)]), -4) == 3  # negated roots -1, -2, -3
    assert above(QuadPolynomial([q(0, -1), q(1)]), 1) == 1  # the root sqrt(2)
    assert (above(MARGIN, 436), above(MARGIN, 437)) == (1, 0)


def test_count_roots_boundary_conventions():
    f = QuadPolynomial([q(-4), q(0), q(1)])  # roots at +-2
    assert count_roots(f, 0, 2) == 1  # root at the right endpoint counts
    assert count_roots(f, 0, Fraction(199, 100)) == 0
    with pytest.raises(DomainError):
        count_roots(f, 2, 3)  # f(lo) = 0
    with pytest.raises(DomainError):
        count_roots(f, 3, 3)


#: A coefficient a + b*sqrt(2) of a drawn polynomial, zero one time in three.
_COEFF = st.one_of(
    st.just((Fraction(0), Fraction(0))),
    st.builds(lambda a, b, c: (Fraction(a, c), Fraction(b, c)), st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3)),
)
_POLY = st.lists(_COEFF, max_size=5)


@st.composite
def _poly_pair(draw):
    """``(p, d)`` as ascending coefficient lists: p drawn freely, or sharing
    d's leading coefficients, or a multiple of d plus a drawn remainder, so
    that subtraction and division cancel leading terms."""
    d = draw(_POLY)
    how = draw(st.sampled_from(("free", "shared top", "multiple")))
    if how == "free":
        return draw(_POLY), d
    if how == "shared top":
        k = draw(st.integers(0, len(d)))
        return draw(st.lists(_COEFF, min_size=len(d) - k, max_size=len(d) - k)) + d[len(d) - k :], d
    return poly_sub_oracle(draw(_POLY), poly_mul_oracle(draw(_POLY), d)), d


def _pairs(poly):
    return [(c.a, c.b) for c in poly.coeffs]


@given(_poly_pair())
def test_polynomial_operations_match_schoolbook_oracle(case):
    p, d = case
    fp, fd = QuadPolynomial(q(a, b) for a, b in p), QuadPolynomial(q(a, b) for a, b in d)
    assert _pairs(fp - fd) == poly_sub_oracle(p, d)
    if fd.is_zero():
        with pytest.raises(ZeroDivisionError):
            fp % fd
    else:
        assert _pairs(fp % fd) == poly_mod_oracle(p, d)
    if not fp.is_zero():
        assert [f.degree() for f in sturm_sequence(fp)] == sturm_degrees_oracle(p)


def test_margin_polynomial_is_gap_minus_spread():
    # the expanded coefficients of GAP_LOWER - SPREAD_UPPER, in eighths
    eighths = [(68, 0), (-46, -210), (21, 76), (-20, -39), (3, -2)]
    assert MARGIN.coeffs == tuple(q(Fraction(a, 8), Fraction(b, 8)) for a, b in eighths)
    assert MARGIN(437) == GAP_LOWER(437) - SPREAD_UPPER(437)
    assert SPREAD_UPPER(0) == q(Fraction(1, 2))  # constant term 4/8


def test_margin_root_isolation():
    assert MARGIN(437).sign() == 1
    assert MARGIN(436).sign() == -1
    assert count_roots(MARGIN, 436, 437) == 1
    assert count_roots(MARGIN, 437, 10**6) == 0


def test_margin_sturm_chain_shape():
    chain = sturm_sequence(MARGIN)
    degrees = [p.degree() for p in chain]
    assert degrees[0] == 4
    assert all(a > b for a, b in zip(degrees, degrees[1:]))
    assert degrees[-1] == 0 and not chain[-1].leading().is_zero()


def test_refine_root_bracket():
    lo, hi = refine_root(MARGIN, 436, 437, Fraction(1, 10**6))
    assert hi - lo < Fraction(1, 10**6)
    assert 436 < lo < hi <= 437
    assert MARGIN(lo).sign() <= 0 <= MARGIN(hi).sign()


def test_band_bounds_small_band():
    for n in range(8, 21):
        c = comb(n, 2)
        for m in range((c - n + 1) // 2, (c + n) // 2 + 1):
            if m in central_band(n):
                assert band_bounds_check(n, m) == (True, True), (n, m)
    with pytest.raises(DomainError):
        band_bounds_check(8, 5)


def test_band_thresholds_are_the_ceiling_and_floor_of_the_bounds():
    # an integer gap is at least GAP_LOWER(n) iff it is at least the ceiling,
    # and an integer spread is at most SPREAD_UPPER(n) iff at most the floor
    for n in range(8, 1001):
        gap_lower, spread_upper = _bounds_at(n)
        assert type(gap_lower) is int and type(spread_upper) is int
        assert (q(gap_lower) - GAP_LOWER(n)).sign() >= 0 > (q(gap_lower - 1) - GAP_LOWER(n)).sign(), n
        assert (SPREAD_UPPER(n) - spread_upper).sign() >= 0 > (SPREAD_UPPER(n) - (spread_upper + 1)).sign(), n


def test_band_bounds_check_equals_the_direct_comparison():
    s_tags = (FamilyTag.S1, FamilyTag.S2, FamilyTag.S3)
    for n in range(8, 101):
        for m in central_band(n):
            gap = family_h(n, m, FamilyTag.C1) - family_h(n, m, FamilyTag.S1)
            h_s = [family_h(n, m, t) for t in s_tags if family_exists(n, m, t)]
            spread = max(abs(x - y) for x in h_s for y in h_s)
            direct = ((q(gap) - GAP_LOWER(n)).sign() >= 0, (SPREAD_UPPER(n) - q(spread)).sign() >= 0)
            assert band_bounds_check(n, m) == direct, (n, m)


def test_large_n_spot_checks():
    for n in (437, 500, 1000):
        records = _tie_band_records(n)
        assert records, n
        assert all(rec["ok"] and rec["margin"] > 0 for rec in records), n
        assert MARGIN(n).sign() > 0, n
