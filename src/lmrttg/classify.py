"""Sign classification of (n, m) pairs by the quasi-star/quasi-complete race,
and the central band.

For ``n >= 5`` and ``0 <= m <= C(n,2)``, ``classify`` returns the sign of
``M1(S1) - M1(C1)``: PLUS when the quasi-star wins, MINUS when the
quasi-complete wins, TIE on equality, decided by that direct exact
comparison of the two closed forms, nothing else.  The central band J, the
hard case of the analysis, is ``m in central_band(n)``; it starts at
``n = BAND_MIN_N``, and every band scan takes its n range from
``band_n_range``.  ``spectrum(n)`` reports the threshold data of the
published case analysis (the clique order ``k``, the regime selector ``q``
and the crossover offset ``r``) as exact rationals, for the classification
table; it decides no sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt

from .errors import DomainError, InvariantError
from .families import quasi_complete_params, quasi_star_params, trivial_tie_ms
from .invariants import quasi_complete_m1, quasi_star_m1


class Sign(Enum):
    PLUS = "+"
    MINUS = "-"
    TIE = "="

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SpectrumParams:
    """Threshold data governing where the Zagreb comparison changes sign.

    ``k`` is the largest clique order whose edge count stays within half of
    C(n,2); ``q`` decides which of three comparison regimes applies; ``r``
    locates the interior crossover points when ``q < 0``.
    """

    k: int
    q: Fraction
    r: Fraction


@lru_cache(maxsize=None)
def spectrum(n: int) -> SpectrumParams:
    if n < 5:
        raise DomainError(f"spectrum defined for n >= 5; got {n}")
    nn = n * (n - 1)
    # k is the unique integer with C(k,2) <= C(n,2)/2 < C(k+1,2), that is with
    # (2k-1)^2 <= 2nn+1 < (2k+1)^2, so isqrt(2nn+1) is 2k-1 or 2k
    k = (1 + isqrt(2 * nn + 1)) // 2
    q = Fraction(1 - 2 * (2 * k - 3) ** 2 + (2 * n - 5) ** 2, 4)
    den = -1 - 2 * (2 * k - 4) ** 2 + (2 * n - 5) ** 2
    if den == 0:
        raise InvariantError(f"crossover denominator vanished at n={n}")
    r = Fraction(4 * (comb(n, 2) - 2 * comb(k, 2)) * (k - 2), den)
    return SpectrumParams(k=k, q=q, r=r)


#: Smallest n of the central band J.  Below it every tie is a near-trivial
#: edge count or one of the seven exceptional pairs at n in 5..7.
BAND_MIN_N = 8


@lru_cache(maxsize=None)
def central_band(n: int) -> range:
    """The central band J at n: the edge counts within n/2 of half the
    possible edges, ``C(n,2) - n <= 2m <= C(n,2) + n``.  Empty for
    ``n < BAND_MIN_N``."""
    if n < BAND_MIN_N:
        return range(0)
    c = comb(n, 2)
    return range((c - n + 1) // 2, (c + n) // 2 + 1)


def band_n_range(n_lo: int, n_hi: int) -> range:
    """The n range ``n_lo..n_hi`` of a central-band scan; raises DomainError
    unless ``BAND_MIN_N <= n_lo <= n_hi``."""
    if not BAND_MIN_N <= n_lo <= n_hi:
        raise DomainError(f"need {BAND_MIN_N} <= n_lo <= n_hi; got {n_lo}..{n_hi}")
    return range(n_lo, n_hi + 1)


def classify(n: int, m: int) -> Sign | None:
    """The sign of ``M1(S1) - M1(C1)`` at (n, m), exactly: a Sign, or None
    for ``n < 5`` or m outside ``0..C(n,2)``."""
    if n < 5 or not 0 <= m <= comb(n, 2):
        return None
    m1c = quasi_complete_m1(*quasi_complete_params(m))
    m1s = quasi_star_m1(n, *quasi_star_params(n, m))
    if m1s == m1c:
        return Sign.TIE
    return Sign.PLUS if m1s > m1c else Sign.MINUS


def tie_pairs(n: int) -> list:
    """All m with a first-Zagreb tie at this n, except the near-empty and
    near-complete ones (``trivial_tie_ms``)."""
    if n < 5:
        raise DomainError(f"tie classification needs n >= 5; got {n}")
    skip = trivial_tie_ms(n)
    return [m for m in range(comb(n, 2) + 1) if m not in skip and classify(n, m) is Sign.TIE]
