"""Exact signs and root counts of polynomials with coefficients in Q[sqrt(2)].

The dominance analysis of the central band compares integer invariant gaps
against polynomial bounds P in n.  Each is kept as integer pairs in eighths,
ascending by degree: ``8 P(x) = sum A_i x^i + sqrt(2) * sum B_i x^i`` for
the pairs ``(A_i, B_i)``.  Every sign is decided exactly: sign(A + B*sqrt(2))
reduces to comparing A^2 with 2*B^2, never to floating point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import comb, isqrt

from .errors import DomainError, InvariantError


def sign(a: int, b: int) -> int:
    """Exact sign of ``a + b*sqrt(2)``, decided by comparing a^2 against 2 b^2."""
    # the term of larger magnitude decides; sqrt(2) is irrational, so
    # a^2 = 2 b^2 only when a = b = 0, and then lead is 0
    lead = a if a * a > 2 * b * b else b
    return (lead > 0) - (lead < 0)


def evaluate(f: tuple, x) -> tuple:
    """Integers ``(A, B)`` with ``q^d * 8 f(p/q) = A + B*sqrt(2)``, where
    ``x = p/q`` in lowest terms and ``d = len(f) - 1``: Horner's rule on
    ``sum c_i p^i q^(d-i)``.  As ``q^d > 0``, the pair has the sign of f(x)."""
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    big_a = big_b = 0
    scale = 1
    for a, b in reversed(f):
        big_a, big_b = big_a * p + a * scale, big_b * p + b * scale
        scale *= q
    return big_a, big_b


def sign_at(f: tuple, x) -> int:
    return sign(*evaluate(f, x))


def taylor_shift(f: tuple, x) -> tuple:
    """Integer pairs of ``q^d * 8 f(y + p/q)`` in y, ascending, with x, q and
    d as in ``evaluate``: coefficient k is ``sum_(i >= k) C(i, k) c_i
    p^(i-k) q^(d-i+k)``, by the binomial theorem."""
    x = Fraction(x)
    p, q, d = x.numerator, x.denominator, len(f) - 1
    shifted = []
    for k in range(d + 1):
        terms = [(comb(i, k) * p ** (i - k) * q ** (d - i + k), a, b) for i, (a, b) in enumerate(f[k:], k)]
        shifted.append((sum(w * a for w, a, _ in terms), sum(w * b for w, _, b in terms)))
    return tuple(shifted)


def roots_beyond(f: tuple, x) -> int:
    """Distinct real roots of f in (x, +inf), decided by Descartes' rule of
    signs on the Taylor shift g(y) = q^d * 8 f(y + x).

    The roots of f above x are the positive roots of g, with the same
    multiplicities.  By Descartes' rule, which holds for real coefficients,
    g has V - 2j positive roots counted with multiplicity, for some j >= 0,
    where V counts the sign variations of g's coefficients, zeros skipped.
    A root at x only zeroes g's lowest coefficients, so it is not counted.
    V = 0 leaves no root, and V = 1 exactly one, which is simple.  V >= 2
    leaves V, V - 2, ... open: raise InvariantError rather than guess."""
    signs = [s for s in (sign(a, b) for a, b in taylor_shift(f, x)) if s]
    if not signs:
        raise DomainError("the zero polynomial vanishes everywhere")
    variations = sum(1 for s, t in zip(signs, signs[1:]) if s != t)
    if variations > 1:
        raise InvariantError(f"{variations} sign variations beyond {x}: Descartes' rule leaves the root count open")
    return variations


def count_roots(f: tuple, lo, hi) -> int:
    """Distinct real roots of f in (lo, hi]: the roots beyond lo minus those
    beyond hi, so a root at lo is not counted and one at hi is.  Raises
    InvariantError when either count is undecided (see ``roots_beyond``)."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise DomainError("interval must satisfy lo < hi")
    return roots_beyond(f, lo) - roots_beyond(f, hi)


def refine_root(f: tuple, lo, hi, width) -> tuple:
    """Shrink a bracket [lo, hi] with a sign change to the given width by
    bisection in exact rationals; returns the final (lo, hi)."""
    lo, hi, width = Fraction(lo), Fraction(hi), Fraction(width)
    slo = sign_at(f, lo)
    if slo == 0 or slo == sign_at(f, hi):
        raise DomainError("bracket endpoints must have opposite nonzero signs")
    while hi - lo > width:
        mid = (lo + hi) / 2
        smid = sign_at(f, mid)
        if smid == 0:
            return (mid, mid)
        if smid == slo:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


#: Lower bound, as a polynomial in n, for the gap between the quasi-complete
#: and quasi-star h-invariants inside the central band, in eighths.
_GAP_EIGHTHS = ((72, 0), (-46, -226), (19, 76), (-20, -37), (3, -2))
#: Upper bound for the spread among the three quasi-star variants.
_SPREAD_EIGHTHS = ((4, 0), (0, -16), (-2, 0), (0, 2))

#: Dominance margin: gap bound minus spread bound, in eighths.  Once this is
#: positive, the C-side family beats every S-side family.
MARGIN = tuple((a - c, b - d) for (a, b), (c, d) in zip_longest(_GAP_EIGHTHS, _SPREAD_EIGHTHS, fillvalue=(0, 0)))


def _floor_eighth(a: int, b: int) -> int:
    """``floor((a + b*sqrt(2)) / 8)``.  For real y, y and floor(y) lie in one
    ``[8q, 8q + 8)``, so ``floor(y / 8) = floor(y) // 8``, and ``floor(y) = a
    + s`` with ``s = floor(b*sqrt(2))``: ``isqrt(2*b*b)`` for ``b >= 0``, and
    ``-isqrt(2*b*b) - 1`` for ``b < 0``, where ``b*sqrt(2)`` is no integer."""
    root = isqrt(2 * b * b)
    return (a + (root if b >= 0 else -root - 1)) // 8


def _bounds_at(n: int) -> tuple:
    """``(ceil(gap bound(n)), floor(spread bound(n)))``: an integer x satisfies
    ``x >= a`` exactly when ``x >= ceil(a) = -floor(-a)``, and ``x <= b``
    exactly when ``x <= floor(b)``."""
    gap_a, gap_b = evaluate(_GAP_EIGHTHS, n)
    return -_floor_eighth(-gap_a, -gap_b), _floor_eighth(*evaluate(_SPREAD_EIGHTHS, n))


def band_bounds_check(n: int, gap: int, spread: int) -> tuple:
    """Both polynomial bounds at n, exactly: ``(gap_ok, spread_ok)``, where
    ``gap_ok`` is ``gap >=`` the gap bound at n and ``spread_ok`` is ``spread
    <=`` the spread bound at n.  Both are integers, so each compares with an
    integer threshold."""
    gap_lower, spread_upper = _bounds_at(n)
    return gap >= gap_lower, spread <= spread_upper
