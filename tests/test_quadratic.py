import random
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lmrttg.classify import central_band
from lmrttg.errors import DomainError, InvariantError
from lmrttg.families import FamilyTag, family_exists
from lmrttg.invariants import family_h
from lmrttg.quadratic import (
    _GAP_EIGHTHS,
    _SPREAD_EIGHTHS,
    MARGIN,
    _bounds_at,
    band_bounds_check,
    count_roots,
    evaluate,
    refine_root,
    roots_beyond,
    sign,
    sign_at,
    taylor_shift,
)
from lmrttg.scans import TIE_SCAN_MAX_N, _tie_band_records, band_bounds_report
from oracles import poly_eval_oracle, poly_mul_oracle, quad_sign_oracle, root_count_oracle, shift_variations_oracle

getcontext().prec = 60
SQRT2_DEC = Decimal(2).sqrt()


def _fractions(eighths):
    """The polynomial that integer eighths stand for, as oracle Fraction pairs."""
    return [(Fraction(a, 8), Fraction(b, 8)) for a, b in eighths]


def _oracle_sign_at(eighths, x):
    return quad_sign_oracle(poly_eval_oracle(_fractions(eighths), x))


def test_sign_cases():
    assert sign(0, 0) == 0
    assert sign(3, 1) == 1
    assert sign(-2, -1) == -1
    assert sign(3, -2) == 1  # 9 > 8
    assert sign(2, -3) == -1
    assert sign(-3, 2) == -1  # 2*sqrt2 < 3
    assert sign(-2, 3) == 1
    assert sign(1, -1) == -1  # 1 < sqrt2
    assert sign(-1, 1) == 1


def test_sign_agrees_with_high_precision_float():
    rnd = random.Random(30)
    for _ in range(100_000):
        a = Fraction(rnd.randint(-999, 999), rnd.randint(1, 99))
        b = Fraction(rnd.randint(-999, 999), rnd.randint(1, 99))
        approx = Decimal(a.numerator) / a.denominator + SQRT2_DEC * b.numerator / b.denominator
        expected = 0 if approx == 0 else (1 if approx > 0 else -1)
        # a + b*sqrt(2) times the positive a.denominator * b.denominator
        assert sign(a.numerator * b.denominator, b.numerator * a.denominator) == expected


def test_sturm_roots_of_x2_minus_2():
    f = ((-2, 0), (0, 0), (1, 0))
    assert count_roots(f, 0, 2) == 1
    assert count_roots(f, Fraction(3, 2), 2) == 0
    with pytest.raises(InvariantError):
        count_roots(f, -2, 2)  # both roots lie beyond -2: Descartes' rule cannot tell 2 from 0
    lo, hi = refine_root(f, 1, 2, Fraction(1, 1000))
    assert hi - lo <= Fraction(1, 1000) and lo * lo < 2 < hi * hi


def test_sign_variations_at_infinity_read_the_leading_signs():
    # past every root, each shifted coefficient takes the leading sign, and no root is left beyond
    cubic = ((-6, 0), (11, 0), (-6, 0), (1, 0))  # roots at 1, 2 and 3
    assert [sign(*c) for c in taylor_shift(cubic, 10)] == [1, 1, 1, 1]
    assert [sign(-a, -b) for a, b in taylor_shift(cubic, 10)] == [-1, -1, -1, -1]
    assert [roots_beyond(cubic, x) for x in (Fraction(5, 2), 3, 10)] == [1, 0, 0]
    for x in (0, Fraction(3, 2)):
        with pytest.raises(InvariantError):
            roots_beyond(cubic, x)  # three or two roots beyond x
    assert roots_beyond(((0, -1), (1, 0)), 1) == 1  # the root sqrt(2)
    assert (roots_beyond(MARGIN, 436), roots_beyond(MARGIN, 437)) == (1, 0)
    with pytest.raises(DomainError):
        roots_beyond(((0, 0), (0, 0)), 0)


def test_count_roots_boundary_conventions():
    f = ((-4, 0), (0, 0), (1, 0))  # roots at +-2
    assert count_roots(f, 0, 2) == 1  # root at the right endpoint counts
    assert count_roots(f, 0, Fraction(199, 100)) == 0
    # a root at the left endpoint is not counted: f(lo) = 0 gives the count, no error
    assert count_roots(f, 2, 3) == 0
    assert count_roots(f, -2, 0) == 0
    with pytest.raises(DomainError):
        count_roots(f, 3, 3)


def _from_roots(roots, extra):
    """Integer pairs of ``prod (q x - p)`` over the rational roots p/q, times ``extra``."""
    poly = [(Fraction(a), Fraction(b)) for a, b in extra]
    for r in roots:
        poly = poly_mul_oracle(poly, [(Fraction(-r.numerator), Fraction(0)), (Fraction(r.denominator), Fraction(0))])
    return tuple((int(a), int(b)) for a, b in poly)


_RATIONAL = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 3))
#: Nonzero integer-eighths polynomials of degree <= 5: drawn freely, or from
#: rational roots (repeated ones included) times a free factor, so that roots
#: fall on and near the windows' ends.
_POLY = st.one_of(
    st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)), min_size=1, max_size=6),
    st.integers(0, 4).flatmap(
        lambda k: st.builds(
            _from_roots,
            st.lists(_RATIONAL, min_size=k, max_size=k),
            st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=6 - k),
        )
    ),
).filter(lambda f: any(a or b for a, b in f))
_WINDOW = st.lists(_RATIONAL, min_size=2, max_size=2, unique=True).map(sorted)


@given(_POLY, _WINDOW)
def test_count_roots_is_the_sturm_oracle_count_or_raises(f, window):
    lo, hi = window
    exact = _fractions(f)
    undecided = max(shift_variations_oracle(exact, lo), shift_variations_oracle(exact, hi)) >= 2
    try:
        count = count_roots(tuple(f), lo, hi)
    except InvariantError:
        assert undecided
    else:
        assert not undecided and count == root_count_oracle(exact, lo, hi)


def test_margin_root_counts_match_the_sturm_oracle():
    exact = _fractions(MARGIN)
    for a in range(400, 501):
        assert count_roots(MARGIN, a, a + 1) == root_count_oracle(exact, a, a + 1) == (a == 436), a
    assert count_roots(MARGIN, 437, 10**6) == root_count_oracle(exact, 437, 10**6) == 0


def test_margin_polynomial_is_gap_minus_spread():
    # the expanded coefficients of the gap bound minus the spread bound, in eighths
    assert MARGIN == ((68, 0), (-46, -210), (21, 76), (-20, -39), (3, -2))
    gap, spread = (poly_eval_oracle(_fractions(p), 437) for p in (_GAP_EIGHTHS, _SPREAD_EIGHTHS))
    assert evaluate(MARGIN, 437) == tuple(8 * (g - s) for g, s in zip(gap, spread))
    for x in (Fraction(873, 2), Fraction(-7, 3), Fraction(0)):
        assert evaluate(MARGIN, x) == tuple(8 * x.denominator**4 * v for v in poly_eval_oracle(_fractions(MARGIN), x))
    assert poly_eval_oracle(_fractions(_SPREAD_EIGHTHS), 0) == (Fraction(1, 2), 0)  # constant term 4/8


def test_margin_root_isolation():
    assert sign_at(MARGIN, 437) == _oracle_sign_at(MARGIN, 437) == 1
    assert sign_at(MARGIN, 436) == _oracle_sign_at(MARGIN, 436) == -1
    assert count_roots(MARGIN, 436, 437) == 1
    assert count_roots(MARGIN, 437, 10**6) == 0


def test_tie_scan_ends_where_the_margin_shift_turns_positive():
    # the tie scan's last n is one below the least shift a >= 8 at which every
    # coefficient of MARGIN(x + a) is positive, which certifies (a, +inf)
    positive = (a for a in range(8, 10**6) if all(sign(*c) > 0 for c in taylor_shift(MARGIN, a)))
    assert next(positive) == TIE_SCAN_MAX_N + 1


def test_refine_root_bracket():
    lo, hi = refine_root(MARGIN, 436, 437, Fraction(1, 10**6))
    assert hi - lo < Fraction(1, 10**6)
    assert 436 < lo < hi <= 437
    assert _oracle_sign_at(MARGIN, lo) <= 0 <= _oracle_sign_at(MARGIN, hi)


def test_band_bounds_small_band():
    rep = band_bounds_report(8, 20)
    assert rep.verdict and rep.records == []
    assert rep.pairs_scanned == sum(len(central_band(n)) for n in range(8, 21))


def _oracle_bounds(n):
    """The gap and spread bounds at n, as oracle Fraction pairs."""
    return tuple(poly_eval_oracle(_fractions(p), n) for p in (_GAP_EIGHTHS, _SPREAD_EIGHTHS))


def test_band_thresholds_are_the_ceiling_and_floor_of_the_bounds():
    # an integer gap is at least the gap bound iff it is at least the ceiling,
    # and an integer spread is at most the spread bound iff at most the floor
    for n in range(8, 1001):
        gap_lower, spread_upper = _bounds_at(n)
        assert type(gap_lower) is int and type(spread_upper) is int
        (ga, gb), (sa, sb) = _oracle_bounds(n)
        assert quad_sign_oracle((gap_lower - ga, -gb)) >= 0 > quad_sign_oracle((gap_lower - 1 - ga, -gb)), n
        assert quad_sign_oracle((sa - spread_upper, sb)) >= 0 > quad_sign_oracle((sa - spread_upper - 1, sb)), n


def test_band_bounds_check_equals_the_direct_comparison():
    s_tags = (FamilyTag.S1, FamilyTag.S2, FamilyTag.S3)
    for n in range(8, 101):
        (ga, gb), (sa, sb) = _oracle_bounds(n)
        for m in central_band(n):
            gap = family_h(n, m, FamilyTag.C1) - family_h(n, m, FamilyTag.S1)
            h_s = [family_h(n, m, t) for t in s_tags if family_exists(n, m, t)]
            spread = max(abs(x - y) for x in h_s for y in h_s)
            direct = (quad_sign_oracle((gap - ga, -gb)) >= 0, quad_sign_oracle((sa - spread, sb)) >= 0)
            assert band_bounds_check(n, gap, spread) == direct, (n, m)


def test_large_n_spot_checks():
    for n in (437, 500, 1000):
        records = _tie_band_records(n)
        assert records, n
        assert all(rec["ok"] and rec["margin"] > 0 for rec in records), n
        assert sign_at(MARGIN, n) > 0, n
