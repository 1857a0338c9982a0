"""Exact arithmetic in the field Q[sqrt(2)] and Sturm root counting.

The dominance analysis of the central band compares integer invariant gaps
against polynomial bounds whose coefficients live in Q[sqrt(2)].  The
decisive root lies within one unit of an integer, so every sign here is
decided exactly: sign(a + b*sqrt(2)) reduces to comparing a^2 with 2*b^2,
never to floating point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import isqrt

from .classify import central_band
from .errors import DomainError
from .families import FamilyTag
from .invariants import family_h_values


class QuadNumber:
    """The real number ``a + b*sqrt(2)`` with rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction) -> None:
        self.a = a
        self.b = b

    def __eq__(self, other) -> bool:
        return isinstance(other, QuadNumber) and (self.a, self.b) == (other.a, other.b)

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"QuadNumber(a={self.a!r}, b={self.b!r})"

    @classmethod
    def of(cls, a, b=0) -> "QuadNumber":
        return cls(Fraction(a), Fraction(b))

    def __add__(self, other):
        other = _coerce(other)
        return QuadNumber(self.a + other.a, self.b + other.b)

    def __neg__(self):
        return QuadNumber(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other = _coerce(other)
        return QuadNumber(
            self.a * other.a + 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadNumber":
        den = self.a * self.a - 2 * self.b * self.b
        if den == 0:
            raise ZeroDivisionError("division by zero in Q[sqrt(2)]")
        return QuadNumber(self.a / den, -self.b / den)

    def sign(self) -> int:
        """Exact sign, decided by comparing a^2 against 2 b^2."""
        # the term of larger magnitude decides; sqrt(2) is irrational, so
        # a^2 = 2 b^2 only when a = b = 0, and then lead is 0
        lead = self.a if self.a * self.a > 2 * self.b * self.b else self.b
        return (lead > 0) - (lead < 0)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0


def _coerce(x) -> QuadNumber:
    if isinstance(x, QuadNumber):
        return x
    return QuadNumber(Fraction(x), Fraction(0))


_ZERO = QuadNumber.of(0)


class QuadPolynomial:
    """Polynomial with QuadNumber coefficients, ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> QuadNumber:
        if self.is_zero():
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __call__(self, x) -> QuadNumber:
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * _coerce(x) + c
        return acc

    def derivative(self) -> "QuadPolynomial":
        return QuadPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def __sub__(self, other: "QuadPolynomial") -> "QuadPolynomial":
        return QuadPolynomial(a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=_ZERO))

    def __mod__(self, other: "QuadPolynomial") -> "QuadPolynomial":
        """Remainder of field division."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree()
        inv_lead = other.leading().inverse()
        while len(rem) - 1 >= d:
            # a zero leading term gives factor 0, and the pop drops it
            factor = rem[-1] * inv_lead
            shift = len(rem) - 1 - d
            for i, c in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - factor * c
            rem.pop()
        return QuadPolynomial(rem)

    def __repr__(self) -> str:
        return f"QuadPolynomial({list(self.coeffs)!r})"


def sturm_sequence(f: QuadPolynomial) -> list:
    """The chain f, f', then successive negated remainders."""
    if f.is_zero():
        raise DomainError("Sturm sequence of the zero polynomial")
    chain = [f, f.derivative()]
    while not chain[-1].is_zero():
        chain.append(QuadPolynomial([-c for c in (chain[-2] % chain[-1]).coeffs]))
    return chain[:-1]


def sign_variations(chain, x=None) -> int:
    """Sign changes along the chain at x, zeros skipped; without x, at +inf,
    where each polynomial has the sign of its leading coefficient."""
    signs = [p.leading().sign() if x is None else p(x).sign() for p in chain]
    signs = [s for s in signs if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(f: QuadPolynomial, lo, hi) -> int:
    """Distinct real roots of f in the half-open interval (lo, hi].

    Requires ``f(lo) != 0``; a root exactly at ``hi`` is counted (the
    variation count is right-continuous at roots).
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise DomainError("interval must satisfy lo < hi")
    if f(lo).sign() == 0:
        raise DomainError("f(lo) = 0: perturb the left endpoint")
    chain = sturm_sequence(f)
    return sign_variations(chain, lo) - sign_variations(chain, hi)


def refine_root(f: QuadPolynomial, lo, hi, width) -> tuple:
    """Shrink a bracket [lo, hi] with a sign change to the given width.

    Bisection in exact rationals; returns the final (lo, hi).
    """
    lo, hi = Fraction(lo), Fraction(hi)
    width = Fraction(width)
    slo = f(lo).sign()
    if slo == 0 or slo == f(hi).sign():
        raise DomainError("bracket endpoints must have opposite nonzero signs")
    while hi - lo > width:
        mid = (lo + hi) / 2
        smid = f(mid).sign()
        if smid == 0:
            return (mid, mid)
        if smid == slo:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


#: Lower bound, as a polynomial in n, for the gap between the quasi-complete
#: and quasi-star h-invariants inside the central band.  Each bound is kept
#: as integer pairs in eighths, ascending by degree: ``8 P(n) = sum A_i n^i +
#: sqrt(2) * sum B_i n^i`` for the pairs ``(A_i, B_i)``.
_GAP_EIGHTHS = ((72, 0), (-46, -226), (19, 76), (-20, -37), (3, -2))
#: Upper bound for the spread among the three quasi-star variants.
_SPREAD_EIGHTHS = ((4, 0), (0, -16), (-2, 0), (0, 2))

GAP_LOWER = QuadPolynomial(QuadNumber.of(Fraction(a, 8), Fraction(b, 8)) for a, b in _GAP_EIGHTHS)
SPREAD_UPPER = QuadPolynomial(QuadNumber.of(Fraction(a, 8), Fraction(b, 8)) for a, b in _SPREAD_EIGHTHS)

#: Dominance margin: gap bound minus spread bound.  Once this is positive,
#: the C-side family beats every S-side family.
MARGIN = GAP_LOWER - SPREAD_UPPER


def _bounds_at(n: int) -> tuple:
    """``(ceil(GAP_LOWER(n)), floor(SPREAD_UPPER(n)))``: both bounds depend on
    n alone, and an integer x satisfies ``x >= a`` exactly when ``x >=
    ceil(a)``, and ``x <= b`` exactly when ``x <= floor(b)``.

    Horner's rule gives integers A, B with ``8 P(n) = A + B*sqrt(2)`` for
    ``P = SPREAD_UPPER`` and for ``P = -GAP_LOWER``, and ``ceil(a) =
    -floor(-a)``.  For real y, y and floor(y) lie in the same ``[8q, 8q + 8)``,
    so ``floor(y / 8) = floor(y) // 8``, and ``floor(P(n)) = (A + s) // 8`` with
    ``s = floor(B*sqrt(2))``, which is ``isqrt(2*B*B)`` for ``B >= 0``.  For
    ``B < 0``, ``B*sqrt(2)`` is irrational, so no integer, and ``s =
    -ceil(|B|*sqrt(2)) = -isqrt(2*B*B) - 1``."""
    floors = []
    for sign, eighths in ((-1, _GAP_EIGHTHS), (1, _SPREAD_EIGHTHS)):
        big_a = big_b = 0
        for a, b in reversed(eighths):
            big_a, big_b = big_a * n + sign * a, big_b * n + sign * b
        root = isqrt(2 * big_b * big_b)
        floors.append((big_a + (root if big_b >= 0 else -root - 1)) // 8)
    return -floors[0], floors[1]


def band_bounds_check(n: int, m: int) -> tuple:
    """Verify both polynomial bounds at a central-band pair, exactly:
    ``(gap_ok, spread_ok)``, where ``gap_ok`` is ``h(C1) - h(S1) >=
    GAP_LOWER(n)`` and ``spread_ok`` is ``max |h(Si) - h(Sj)| <= SPREAD_UPPER(n)``.
    The h values are integers, so each compares with an integer threshold."""
    if m not in central_band(n):
        raise DomainError(f"({n},{m}) lies outside the central band")
    gap_lower, spread_upper = _bounds_at(n)
    h_by_tag = family_h_values(n, m)
    h_s = [h_by_tag[t] for t in (FamilyTag.S1, FamilyTag.S2, FamilyTag.S3) if t in h_by_tag]
    gap = h_by_tag[FamilyTag.C1] - h_s[0]  # S1 exists at every (n, m)
    return gap >= gap_lower, max(h_s) - min(h_s) <= spread_upper
