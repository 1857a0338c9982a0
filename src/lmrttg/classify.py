"""The two decompositions of an edge count, the quasi-star/quasi-complete
race they decide, the central band, and the classification table.

Every edge count decomposes uniquely as ``m = C(k+1,2) - j`` with ``1 <= j
<= k`` (``quasi_complete_params``) and, relative to n vertices, as ``m =
C(n,2) - C(k'+1,2) + j'`` with ``1 <= j' <= k'`` (``quasi_star_params``).
``quasi_complete_m1`` and ``quasi_star_m1`` are the first Zagreb indices of
the quasi-complete graph C1 and the quasi-star S1 from those parameters.
For ``n >= CLASSIFY_MIN_N`` and ``0 <= m <= C(n,2)``, ``classify`` returns the sign of
``M1(S1) - M1(C1)``: PLUS when the quasi-star wins, MINUS when the
quasi-complete wins, TIE on equality, decided by that direct exact
comparison of the two closed forms, nothing else.  ``cells`` walks the
runs of m where both decomposition orders are fixed, on which that
comparison is affine in m, ``cell_ties`` solves it on one cell, and
``ties`` finds the tie edge counts of a range cell by cell.  The central
band J, the hard case of the analysis, is ``m in central_band(n)``; it
starts at ``n = BAND_MIN_N``, and every band scan takes its n range from
``band_n_range``.  ``spectrum(n)`` reports the threshold data of the
published case analysis (the clique order ``k``, the regime selector ``q``
and the crossover offset ``r``) as exact rationals; it decides no sign.
``table(n, istar_only)`` is the classification table at n, read off
``cells`` in runs of rows that share a sign and a band flag.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import comb, isqrt
from typing import NamedTuple

from .errors import DomainError, InvariantError


def check_range(n: int, m: int) -> None:
    """Raise DomainError unless ``n >= 0`` and ``0 <= m <= C(n,2)``."""
    if n < 0 or not 0 <= m <= comb(n, 2):
        raise DomainError(f"need 0 <= m <= C(n,2); got n={n}, m={m}")


def quasi_complete_params(m: int) -> tuple:
    """The unique ``(k, j)`` with ``1 <= j <= k`` and ``m = C(k+1,2) - j``."""
    if m < 0:
        raise DomainError("edge count must be nonnegative")
    # k is the unique integer with C(k,2) <= m < C(k+1,2), that is with
    # (2k-1)^2 <= 8m+1 < (2k+1)^2, so isqrt(8m+1) is 2k-1 or 2k
    k = (1 + isqrt(8 * m + 1)) // 2
    return k, comb(k + 1, 2) - m


def quasi_star_params(n: int, m: int) -> tuple:
    """The unique ``(k', j')`` with ``m = C(n,2) - C(k'+1,2) + j'``."""
    check_range(n, m)
    return quasi_complete_params(comb(n, 2) - m)


def quasi_complete_m1(k: int, j: int) -> int:
    """First Zagreb index of the quasi-complete graph, from its degree data."""
    if not 1 <= j <= k:
        raise DomainError(f"need 1 <= j <= k; got k={k}, j={j}")
    return (k - j) * k * k + j * (k - 1) ** 2 + (k - j) ** 2


def quasi_star_m1(n: int, kp: int, jp: int) -> int:
    """First Zagreb index of the quasi-star graph, from its quasi-complete
    mirror on ``mc = C(k'+1,2) - j'`` edges.

    A vertex of degree d in G has degree n-1-d in the complement, so
    ``M1(complement) = n(n-1)^2 - 4(n-1)m + M1(G)`` for G with m edges.
    Accepts ``kp = n`` (the empty graph's degenerate parameters), where the
    mirror is K_n and the value is zero, and at n = 0 the parameters (1, 1)
    of the empty graph's mirror, whose value is zero too.
    """
    if not (1 <= jp <= kp <= max(n, 1)):
        raise DomainError(f"need 1 <= j' <= k' <= max(n, 1); got n={n}, k'={kp}, j'={jp}")
    mc = comb(kp + 1, 2) - jp
    return n * (n - 1) ** 2 - 4 * (n - 1) * mc + quasi_complete_m1(kp, jp)


def trivial_tie_ms(n: int) -> frozenset:
    """Edge counts within 3 of empty or complete (always ties for n >= 5)."""
    c = comb(n, 2)
    return frozenset({0, 1, 2, 3, c, c - 1, c - 2, c - 3})


class Sign(Enum):
    PLUS = "+"
    MINUS = "-"
    TIE = "="

    def __str__(self) -> str:
        return self.value

    @classmethod
    def of(cls, x: int) -> "Sign":
        """The sign of an exact number: PLUS, MINUS, or TIE at zero."""
        return cls.TIE if x == 0 else cls.PLUS if x > 0 else cls.MINUS


#: Smallest n that ``classify`` decides; below it the table's rows carry no sign.
CLASSIFY_MIN_N = 5


class SpectrumParams(NamedTuple):
    """Threshold data governing where the Zagreb comparison changes sign.

    ``k`` is the largest clique order whose edge count stays within half of
    C(n,2); ``q`` decides which of three comparison regimes applies; ``r``
    locates the interior crossover points when ``q < 0``.
    """

    k: int
    q: Fraction
    r: Fraction


def spectrum(n: int) -> SpectrumParams:
    if n < CLASSIFY_MIN_N:
        raise DomainError(f"spectrum defined for n >= {CLASSIFY_MIN_N}; got {n}")
    k = quasi_complete_params(comb(n, 2) // 2)[0]  # C(k,2) <= C(n,2)/2 < C(k+1,2)
    q = Fraction(1 - 2 * (2 * k - 3) ** 2 + (2 * n - 5) ** 2, 4)
    den = -1 - 2 * (2 * k - 4) ** 2 + (2 * n - 5) ** 2
    if den == 0:
        raise InvariantError(f"crossover denominator vanished at n={n}")
    r = Fraction(4 * (comb(n, 2) - 2 * comb(k, 2)) * (k - 2), den)
    return SpectrumParams(k=k, q=q, r=r)


#: Smallest n of the central band J.  Below it every tie is a near-trivial
#: edge count or one of the seven exceptional pairs, at n from CLASSIFY_MIN_N on.
BAND_MIN_N = 8


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
        raise DomainError(f"need {BAND_MIN_N} <= --from <= --to; got --from {n_lo} --to {n_hi}")
    return range(n_lo, n_hi + 1)


def _m1_gap(n: int, k: int, j: int, kp: int, jp: int) -> int:
    """``M1(S1) - M1(C1)`` at (n, m), from the decomposition parameters of m:
    ``(k, j) = quasi_complete_params(m)`` and ``(kp, jp) = quasi_star_params(n, m)``."""
    return quasi_star_m1(n, kp, jp) - quasi_complete_m1(k, j)


def classify(n: int, m: int) -> Sign | None:
    """The sign of ``M1(S1) - M1(C1)`` at (n, m), exactly: a Sign, or None
    for ``n < CLASSIFY_MIN_N`` or m outside ``0..C(n,2)``."""
    if n < CLASSIFY_MIN_N or not 0 <= m <= comb(n, 2):
        return None
    return Sign.of(_m1_gap(n, *quasi_complete_params(m), *quasi_star_params(n, m)))


def cells(n: int, ms: range):
    """The cells of the edge counts ``ms`` at n, in increasing order, as
    ``(m0, last, k, j, kp, jp, gap, d)``.

    A cell is a maximal run ``m0..last`` of m on which both ``k`` and
    ``k'`` are fixed, where ``m = C(k+1,2) - j`` and ``C(n,2) - m =
    C(k'+1,2) - j'``; ``(k, j, kp, jp)`` are the parameters of m0, and each
    step m -> m+1 takes j to j-1 and j' to j'+1.  ``gap`` is ``M1(S1) -
    M1(C1)`` at m0 and ``d`` its step (0 on a one-pair cell), and the gap
    at ``m0 + i`` is ``gap + d i``.

    The gap is affine in m on a cell.  Expanding ``quasi_complete_m1``
    gives ``M1(C1) = k^3 + k^2 - (4k-1) j + j^2``, and ``quasi_star_m1``
    gives ``M1(S1) = n(n-1)^2 - 4(n-1)(C(n,2) - m) + k'^3 + k'^2 - (4k'-1)
    j' + j'^2``.  j and j' are affine in m with slopes -1 and +1, so the
    only term of the gap that is not plainly affine is ``j'^2 - j^2 = (j' +
    j)(j' - j)``.  There ``j' + j = C(k+1,2) + C(k'+1,2) - C(n,2)`` is
    constant on the cell and ``j' - j`` is affine in m.

    The step follows in closed form.  Taking j to j-1 raises ``M1(C1)`` by
    ``(4k-1) + (j-1)^2 - j^2 = 4k - 2j``.  Taking m to m+1 and j' to j'+1
    raises ``M1(S1)`` by ``4(n-1) - (4k'-1) + (j'+1)^2 - j'^2 = 4(n-1) -
    4k' + 2j' + 2``.  So ``d = 4(n - k - k') + 2(j + j') - 2``, the same at
    every m of the cell, as ``j + j'`` is.

    After a cell of s pairs the next m has ``(k, j - s)``, or ``(k+1, k+1)``
    where j ran out, and ``(k', j' + s)``, or ``(k'-1, 1)`` where j' passed
    k', as ``C(k'+1,2) - (k'+1) = C(k',2) - 1``.
    """
    if n < 0 or ms.step != 1 or not 0 <= ms.start <= ms.stop <= comb(n, 2) + 1:
        raise DomainError(f"cells need n >= 0 and a unit-step range within 0..C(n,2); got n={n}, {ms}")
    m0 = ms.start
    k, j = quasi_complete_params(m0)
    kp, jp = quasi_complete_params(comb(n, 2) - m0)  # quasi_star_params(n, m0), for m0 known to be in range
    while m0 < ms.stop:
        size = min(j, kp - jp + 1, ms.stop - m0)
        d = 4 * (n - k - kp) + 2 * (j + jp) - 2 if size > 1 else 0
        yield m0, m0 + size - 1, k, j, kp, jp, _m1_gap(n, k, j, kp, jp), d
        m0 += size
        k, j = (k + 1, k + 1) if size == j else (k, j - size)
        kp, jp = (kp - 1, 1) if jp + size > kp else (kp, jp + size)


def cell_ties(gap: int, d: int, size: int):
    """The offsets i in ``range(size)`` where a cell's gap ``gap + d i``
    (``cells``) vanishes: ``-gap / d`` when d divides gap and it lies in
    the cell, or every offset when ``d = gap = 0``."""
    if d:
        steps, rest = divmod(-gap, d)
        return (steps,) if rest == 0 and 0 <= steps < size else ()
    return range(size) if gap == 0 else ()


def ties(n: int, ms: range) -> list:
    """The m in ``ms`` with ``M1(S1) = M1(C1)`` at this n, in increasing
    order, solved one cell at a time (``cell_ties``) instead of classified
    pair by pair.  ``classify`` confirms each solved tie, and one it does
    not confirm raises InvariantError."""
    if n < CLASSIFY_MIN_N:
        raise DomainError(f"tie classification needs n >= {CLASSIFY_MIN_N}; got {n}")
    out = []
    for m0, last, _, _, _, _, gap, d in cells(n, ms):
        for i in cell_ties(gap, d, last - m0 + 1):
            if classify(n, m0 + i) is not Sign.TIE:
                raise InvariantError(f"solved tie ({n},{m0 + i}) does not classify as a tie")
            out.append(m0 + i)
    return out


def tie_pairs(n: int) -> list:
    """All m with a first-Zagreb tie at this n, except the near-empty and
    near-complete ones (``trivial_tie_ms``).  DomainError below
    CLASSIFY_MIN_N, from ``ties``; ValueError for a negative n."""
    skip = trivial_tie_ms(n)
    return [m for m in ties(n, range(comb(n, 2) + 1)) if m not in skip]


#: The classification table's columns: n, m, the sign, band membership, (k, j), (k', j') and the spectrum.
TABLE_COLUMNS = ("n", "m", "sign", "in_J", "k", "j", "kp", "jp", "k_n", "q_n", "R_n")

#: A row's sign text, indexed by the sign of its gap as -1, 0 or 1.
_SIGN_TEXT = tuple(str(Sign.of(x)) for x in (0, 1, -1))


def table(n: int, istar_only: bool) -> tuple:
    """``((k_n, q_n, R_n), runs)`` at n: the spectrum columns, rationals as
    text and empty below CLASSIFY_MIN_N, and a generator of the rows for m
    in ``0..C(n,2)`` as runs ``(m_lo, m_hi, sign, in_J, k, j, kp, jp)``.  A
    run is a cell of ``cells`` cut at the band's edges and at the gap's
    zero, where ``gap + d i`` is zero from ``ceil(-gap / d)`` to before
    ``floor(-gap / d) + 1``, so its sign text (empty below CLASSIFY_MIN_N)
    and band flag hold on all of it; its row at ``m_lo + i`` has ``(k, j -
    i, kp, jp + i)``.  ``istar_only`` keeps the tie runs, none below
    CLASSIFY_MIN_N."""
    if n < CLASSIFY_MIN_N:
        return ("", "", ""), iter(()) if istar_only else _table_runs(n, False, ("",) * 3)
    sp = spectrum(n)
    return (sp.k, str(sp.q), str(sp.r)), _table_runs(n, istar_only, _SIGN_TEXT)


def _table_runs(n: int, istar_only: bool, signs: tuple):
    band = central_band(n)
    for m0, last, k, j, kp, jp, gap, d in cells(n, range(comb(n, 2) + 1)):
        size = last - m0 + 1
        zero = (-(gap // d), -gap // d + 1) if d else ()
        inner = [i for i in (band.start - m0, band.stop - m0, *zero) if 0 < i < size]
        cuts = [0, *sorted(set(inner)), size] if inner else (0, size)
        for lo, hi in zip(cuts, cuts[1:]):
            g = gap + d * lo
            if g and istar_only:
                continue
            yield m0 + lo, m0 + hi - 1, signs[(g > 0) - (g < 0)], int(m0 + lo in band), k, j - lo, kp, jp + lo
