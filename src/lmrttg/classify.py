"""Sign classification of (n, m) pairs by the quasi-star/quasi-complete race.

For ``n >= 5`` and ``0 <= m <= C(n,2)``, the pair is classified by the sign
of ``M1(S1) - M1(C1)``: PLUS when the quasi-star wins, MINUS when the
quasi-complete wins, TIE on equality.  The sign is decided by that direct
exact comparison of the two closed forms, nothing else.  ``spectrum(n)``
reports the threshold data of the published case analysis (the clique
order ``k``, the regime selector ``q`` and the crossover offset ``r``) as
exact rationals, for the classification table; it decides no sign.
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
    k = isqrt(n * n // 2)
    while 2 * k * (k - 1) > nn:
        k -= 1
    while 2 * k * (k + 1) <= nn:
        k += 1
    # invariant: C(k,2) <= C(n,2)/2 < C(k+1,2)
    q = Fraction(1 - 2 * (2 * k - 3) ** 2 + (2 * n - 5) ** 2, 4)
    den = -1 - 2 * (2 * k - 4) ** 2 + (2 * n - 5) ** 2
    if den == 0:
        raise InvariantError(f"crossover denominator vanished at n={n}")
    r = Fraction(4 * (comb(n, 2) - 2 * comb(k, 2)) * (k - 2), den)
    return SpectrumParams(k=k, q=q, r=r)


@dataclass(frozen=True)
class PairClass:
    n: int
    m: int
    in_I: bool
    in_J: bool
    sign: object  # Sign | None
    m1_s1: object  # int | None
    m1_c1: object  # int | None


@lru_cache(maxsize=None)
def central_band(n: int) -> range:
    """The edge counts within n/2 of half the possible edges: ``C(n,2) - n
    <= 2m <= C(n,2) + n``, clipped to ``0..C(n,2)``."""
    c = comb(n, 2)
    return range(max(0, (c - n + 1) // 2), min(c, (c + n) // 2) + 1)


def classify(n: int, m: int) -> PairClass:
    """Exact classification of the pair (n, m).

    ``in_I`` means n >= 5 with m in range; ``in_J`` means n >= 8 with m
    within n/2 of half the possible edges.  Outside the valid edge range
    everything is None/False.
    """
    c = comb(n, 2) if n >= 0 else -1
    valid = n >= 1 and 0 <= m <= c
    m1s = m1c = sign = None
    if valid:
        m1c = quasi_complete_m1(*quasi_complete_params(m))
        m1s = quasi_star_m1(n, *quasi_star_params(n, m))
    in_i = n >= 5 and valid
    if in_i:
        if m1s == m1c:
            sign = Sign.TIE
        else:
            sign = Sign.PLUS if m1s > m1c else Sign.MINUS
    in_j = n >= 8 and m in central_band(n)
    return PairClass(n=n, m=m, in_I=in_i, in_J=in_j, sign=sign, m1_s1=m1s, m1_c1=m1c)


def tie_pairs(n: int, include_trivial: bool = True) -> list:
    """All m with a first-Zagreb tie at this n, optionally dropping the
    near-empty/near-complete ones."""
    if n < 5:
        raise DomainError(f"tie classification needs n >= 5; got {n}")
    out = [m for m in range(comb(n, 2) + 1) if classify(n, m).sign is Sign.TIE]
    if not include_trivial:
        skip = trivial_tie_ms(n)
        out = [m for m in out if m not in skip]
    return out
