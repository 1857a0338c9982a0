"""Exact reliability coefficients and the brute-force optimum search.

The coefficient vector ``(N_1, ..., N_m)`` counts, for each i, the i-edge
spanning subgraphs that still join the terminals.  The graph whose vector
is lexicographically maximal over all two-terminal graphs with the same
(n, m) beats every peer near p = 0; the search below finds all of them.

The search never assumes anything about the winner's shape.  It covers
every labeled candidate (terminals fixed at 0 and 1, which every
two-terminal graph can be relabeled to) by grouping them into cells by
the terminals' inner neighbourhoods, where the ``(N_1, N_2, N_3)`` prefix
has a closed maximum.  The best cells are solved in closed form, and one
maximiser is built per class of graphs isomorphic with the terminals kept
in order, on the dense side one per class of inner graphs of largest M1.
Only when there are several are their full vectors scored, by
inclusion-exclusion over vertex sets.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import DomainError, SizeLimitError
from .graphs import Graph, TwoTerminalGraph, canonical_key, form_of_key, join
from .invariants import max_m1_graphs

#: Most vertices of a coefficient vector, and so of the optimum search, which
#: scores its candidates by them.
NVEC_MAX_VERTICES = 14


def _check_nvec_size(n: int) -> None:
    if n > NVEC_MAX_VERTICES:
        raise SizeLimitError(f"coefficient vectors limited to n <= {NVEC_MAX_VERTICES} (got {n})")


def _nvec(g: Graph, s: int, t: int) -> tuple:
    """``(N_1, ..., N_m)`` of g with terminals s and t, by inclusion-exclusion
    over vertex sets, O(3^n); the edge counts of the vertex sets are read
    off the graph's adjacency rows.

    For S containing s, conn[S] counts the connected spanning edge sets of
    G[S] by size.  An edge set of G[S] whose s-component is T leaves the
    edges of G[S - T] free, so ``conn[S] = (1+x)^e(S) - sum over s in T < S
    of conn[T] (1+x)^e(S - T)``.  A subset of E joins s to t iff its
    s-component is some S containing t, so ``N(x) = sum over those S of
    conn[S] (1+x)^e(V - S)``.

    Each polynomial is held as one int, its value at X = 2^(m+1); int sums
    and products are the values of the polynomial ones.  Every coefficient
    of N counts edge subsets, so it lies in [0, 2^m] below X, and the
    base-X digits of the result are exactly N_0, ..., N_m.
    """
    n, m, rows = g.n, g.m, g.rows
    _check_nvec_size(n)
    width = m + 1
    pw = [((1 << width) + 1) ** k for k in range(m + 1)]
    e = [0] * (1 << n)
    for S in range(1, 1 << n):
        low = S & -S
        e[S] = e[S ^ low] + (rows[low.bit_length() - 1] & S).bit_count()
    sbit, tbit, full = 1 << s, 1 << t, (1 << n) - 1
    conn = [0] * (1 << n)
    total = 0
    # a proper subset of S has a smaller number, so its conn is ready
    for S in range(sbit, 1 << n):
        if not S & sbit:
            continue
        rest = S ^ sbit
        poly = pw[e[S]]
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            poly -= conn[sub | sbit] * pw[e[rest ^ sub]]
        conn[S] = poly
        if S & tbit:
            total += poly * pw[e[full ^ S]]
    digit = (1 << width) - 1
    return tuple((total >> (i * width)) & digit for i in range(1, m + 1))


def n_vector(tg: TwoTerminalGraph) -> tuple:
    """Exact coefficient vector ``(N_1, ..., N_m)`` by inclusion-exclusion
    over vertex sets; graphs above NVEC_MAX_VERTICES raise SizeLimitError."""
    return _nvec(tg.graph, tg.s, tg.t)


#: Most digits, and largest decimal exponent, of a probability text.  A
#: text is checked against it before it is parsed, because ``Fraction``
#: builds ``10**e`` for an exponent e: "1e100000000" would never return.
PROBABILITY_TEXT_MAX_DIGITS = 100


#: Most decimal digits in the numerator or the denominator of
#: ``reliability_from_counts`` at a probability text that ``probability``
#: accepts, for a graph that ``n_vector`` accepts.  Such a text has at most
#: D = PROBABILITY_TEXT_MAX_DIGITS digits and an exponent of at most D, so
#: its denominator b divides 10^(2D) (fraction digits plus exponent) or is
#: below 10^D (``a/b``), and has at most 2D + 1 digits.  The reliability of
#: m edges at p = a/b is an integer over b^m and lies in [0, 1], so both
#: parts of its lowest terms are at most b^m, and ``m <= C(NVEC_MAX_VERTICES, 2)``.
RELIABILITY_MAX_DIGITS = comb(NVEC_MAX_VERTICES, 2) * (2 * PROBABILITY_TEXT_MAX_DIGITS + 1)


def _exponent(text: str) -> int:
    """The magnitude of the decimal exponent written in a number text; 0
    when it has none or the text is not a number, which Fraction rejects."""
    _, e, exp = text.lower().partition("e")
    try:
        return abs(int(exp)) if e else 0
    except ValueError:
        return 0


def probability(p) -> Fraction:
    """``p`` as an exact edge survival probability; DomainError unless it lies
    in [0, 1], or when ``p`` is a text with more than
    PROBABILITY_TEXT_MAX_DIGITS digits or a larger decimal exponent."""
    bound = PROBABILITY_TEXT_MAX_DIGITS
    if isinstance(p, str) and (sum(ch.isdigit() for ch in p) > bound or _exponent(p) > bound):
        shown = p if len(p) <= 40 else p[:37] + "..."
        raise DomainError(f"survival probability {shown!r} has more than {bound} digits or an exponent beyond {bound}")
    try:
        p = Fraction(p)
    except ZeroDivisionError:
        raise DomainError(f"survival probability {p!r} has a zero denominator") from None
    if not 0 <= p <= 1:
        raise DomainError(f"survival probability must lie in [0,1]; got {p}")
    return p


def reliability_at(tg: TwoTerminalGraph, p) -> Fraction:
    """Exact terminal-connection probability at edge survival rate ``p``."""
    p = probability(p)
    return reliability_from_counts(n_vector(tg), p)


def reliability_from_counts(counts, p: Fraction) -> Fraction:
    """Exact terminal-connection probability at a survival rate checked by
    ``probability``, for a graph with coefficient vector ``(N_1, ..., N_m)``."""
    m = len(counts)
    q = 1 - p
    return sum((c * p**i * q ** (m - i) for i, c in enumerate(counts, start=1)), Fraction(0))


def _prefix_scan(n: int, m: int) -> tuple:
    """The labeled candidates with the max ``(N_2, N_3)`` prefix, counted by
    cells, and a short list of them holding every optimum up to isomorphism.

    N_1 = 1 is forced: some candidate has the terminal edge, and N_1
    dominates lexicographically.  With terminals 0 and 1 and the terminal
    edge fixed, a candidate is exactly a triple (A, B, F): A and B are the
    inner neighbours of 0 and of 1, subsets of I = {2..n-1}, and F is a
    k-subset of the P = C(n-2, 2) inner pairs with k = m-1-|A|-|B|.  In the
    cell (A, B), with x = |A & B|,

        N_2 = (m-1) + x,
        N_3 = C(m-1, 2) + x(m-3) + sum over uv in F of w(uv),

    where w(uv) = [u in A][v in B] + [v in A][u in B] counts the paths
    0-u-v-1 and 0-v-u-1: 2 on a pair inside A & B, 1 on a pair joining
    A & B, A - B and B - A, and 0 on the rest.

    No candidate is skipped and no shape is assumed: the cells partition
    the candidates, so ``examined``, the sum of C(P, k) over all cells,
    equals C(C(n,2)-1, m-1) by Vandermonde's identity (the m-1 free edges
    split into |A|+|B| of the 2r terminal pairs and k inner pairs, r = n-2).

    The best cells are solved, not searched.  Each path 0-v-1 takes two of
    the m-1 free edges, so x <= min(r, (m-1)//2) = x*, and N_2 is largest
    exactly on the cells with x = x*, which exist: if x* = r, the m-1-2r
    edges left fit among the P inner pairs (m <= C(n,2)); if x* < r, at
    most one edge is left, and a terminal edge to a vertex outside A & B
    takes it.

    The dense cell x* = r (both terminals universal) is then the only best
    cell, and it holds every k-edge graph H on I, k = m-1-2r; all C(P, k) of them
    tie on N_3.  There N_4 = c(n, k) + M1(H) - 2k: a connecting 4-edge set
    without the terminal edge or a path 0-v-1 (those are counted by (n, k)
    alone) is a path 0-u-v-1 plus one of the m-6 other edges, or a path
    0-u-w-v-1, and there are sum over w of d_w(d_w-1) of those.  So
    ``scored`` joins the terminal edges over each class of
    ``max_m1_graphs(r, k)``.

    On the sparse side x* < r, if m-1 = 2x* the cell fixes the candidate:
    A = B, F empty.  Otherwise one edge is left.  On a terminal pair it
    makes A - B or B - A one vertex and adds nothing to N_3, since F stays
    empty; as an inner pair (A = B) it adds 2 inside A & B and 0 elsewhere.
    A & B holds a pair iff x* >= 2, that is m >= 5, and then the
    maximisers are the C(x*, 2) inner edges inside A & B of each cell with
    A = B; for x* <= 1 every placement ties: C(r, 2) inner pairs and r - x*
    terminal pairs per terminal.  ``survivors`` counts C(r, x*) choices of
    A & B times the placements for each.

    ``scored`` holds one maximiser per class, two graphs being in one class
    when an isomorphism maps 0 to 0 and 1 to 1.  Such a map permutes the
    inner vertices, and each permutation of them is one from a graph onto
    its image.  On the dense side it restricts to an isomorphism of the
    inner graphs H, and ``max_m1_graphs`` gives one H per class.  On the
    sparse side it maps A & B onto the other graph's A & B, and the
    permutations map any A & B onto {2..x*+1} and then permute that set and
    the rest freely.  So the leftover edges inside A & B form one orbit,
    held by (2, 3), which makes the graph ``build_lmrttg(n, m)`` label for
    label.  For x* <= 1 the inner pairs form one orbit per number of ends
    in A & B, which is x*+2-u for (u, u+1), and the terminal edges to a
    vertex outside A & B form one orbit per terminal, held by (0, x*+2)
    and (1, x*+2).

    Returns ``(examined, survivors, scored graphs)``.
    """
    r, free = n - 2, m - 1
    x = min(r, free // 2)
    examined = comb(comb(n, 2) - 1, free)
    if x == r:
        k = free - 2 * r
        return examined, comb(comb(r, 2), k), [join(Graph.complete(2), h) for h in max_m1_graphs(r, k)[1]]
    forced = [(0, 1), *((t, v) for v in range(2, 2 + x) for t in (0, 1))]
    picks, placements = [[]], 1
    if free > 2 * x and x >= 2:
        picks, placements = [[(2, 3)]], comb(x, 2)
    elif free > 2 * x:
        picks = [[(u, u + 1)] for u in range(2, min(x + 3, n - 1))] + [[(0, x + 2)], [(1, x + 2)]]
        placements = comb(r, 2) + 2 * (r - x)
    return examined, comb(r, x) * placements, [Graph.from_edges(n, forced + pick) for pick in picks]


def optimum_search(n: int, m: int) -> dict:
    """Full optimum search; returns the sorted canonical keys of the
    winners plus bookkeeping for reports.

    The vertex cap is checked before the scan starts.  Every lexicographic
    maximiser has the largest ``(N_2, N_3)`` prefix, so an isomorphism
    fixing 0 and 1 maps it onto a graph of ``_prefix_scan``'s ``scored``
    list, which holds one graph per class of such maps.  A lone graph is
    therefore the unique optimum and needs no vector.  Two or more get one
    vector each: a map fixing 0 and 1 maps the i-edge sets joining the
    terminals in one graph one-to-one onto the other's, for every i, so one
    graph speaks for its class.  Only the tied graphs are keyed, and
    ``unique_ordered`` says that one graph ties."""
    _check_nvec_size(n)
    if n < 2 or not 1 <= m <= comb(n, 2):
        raise DomainError(f"need n >= 2 and 1 <= m <= C(n,2); got n={n}, m={m}")
    examined, survivors, scored = _prefix_scan(n, m)
    vecs = [_nvec(g, 0, 1) for g in scored] if len(scored) > 1 else [()]
    best = max(vecs)
    tied = [g for g, vec in zip(scored, vecs) if vec == best]
    return {
        "keys": sorted({canonical_key(TwoTerminalGraph(g, 0, 1)) for g in tied}),
        "examined": examined,
        "survivors": survivors,
        "unique_ordered": len(tied) == 1,
    }


def find_lmrttg(n: int, m: int, max_n: int = None) -> list:
    """All lexicographic maximizers, one canonical representative each;
    ``max_n`` can only lower the search's cap, NVEC_MAX_VERTICES."""
    if max_n is not None and n > max_n:
        raise SizeLimitError(f"search limited to n <= {max_n} (got {n})")
    return [form_of_key(key) for key in optimum_search(n, m)["keys"]]
