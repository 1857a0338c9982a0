"""Exact graph invariants and their closed forms on the named families.

Everything here is integer arithmetic.  The one half-integer intermediate
(the ``n - 9/2`` factor in the complement-sum identity) is carried as an
even product and divided at the end, with the divisibility checked.  The
invariants of a graph all come from one pass, ``invariant_bundle``, and a
caller reads the fields it needs.  The ``h`` closed forms are written for
the quasi-complete side; each quasi-star value follows from its
quasi-complete mirror (``families.mirror``) by the complement-sum
identity, with the quasi-star ``M1`` from ``classify.quasi_star_m1``.
``cell_extremes`` bounds the gap ``h(C1) - h(S1)`` and the S-side spread
over a cell of ``classify.cells`` from a few offsets, as the gap is
quadratic in the offset.
``max_m1_graphs`` is the first-Zagreb argmax engine: every maximizer over
the graphs with n vertices and m edges is a threshold graph, so it
enumerates the threshold graphs' dominating sets.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .classify import check_range, quasi_complete_params, quasi_star_m1, quasi_star_params
from .errors import DomainError, FamilyDoesNotExist, InvariantError
from .families import MIRROR_TAGS, FamilyTag, c_side_exists
from .graphs import Graph, threshold_graph


def max_m1_graphs(n: int, m: int) -> tuple:
    """``(max M1, argmax graphs)`` over the graphs on n vertices and m edges,
    with one threshold graph for each isomorphism class of maximizers.

    A threshold graph adds the vertices 0..n-1 in turn, each isolated or
    joined to every earlier vertex.  With D the set of dominating vertices
    (vertex 0 is the same either way, so D lies in {1..n-1}), vertex v has
    degree ``v*[v in D] + #{u in D : u > v}`` and the graph has ``sum(D)``
    edges.  Every maximizer G is such a graph.  If ``d_u >= d_v`` and v has
    a neighbour y outside N[u], replacing edge vy by uy changes M1 by
    ``2(d_u - d_v) + 2 > 0``.  So with w of largest degree in G, a vertex
    outside N[w] is no one's neighbour: G has a dominating or an isolated
    vertex.  Deleting it leaves a maximizer on n-1 vertices, since M1(G)
    grows with M1 of the rest, and by induction G is built as above with
    that vertex last.  Distinct sets give distinct degree sequences: the
    zeros are exactly the vertices after ``t = max(D)``, vertex t has
    degree t, and removing both and lowering the rest by one leaves the
    sequence of ``D - {t}``.  So the maximizers of one degree sequence are
    all isomorphic, and each class is one set D.  The sets are enumerated
    largest element first, stopping once ``1 + ... + i`` falls short of
    the edges still to place.  Each class's graph is built by
    ``graphs.threshold_graph``, one run per vertex.
    """
    check_range(n, m)

    def dominating_sets(rem, top):
        if rem == 0:
            yield ()
        for i in range(min(top, rem), 0, -1):
            if i * (i + 1) // 2 < rem:
                return
            for rest in dominating_sets(rem - i, i - 1):
                yield (i,) + rest

    best, argmax = -1, []
    for dom in dominating_sets(m, n - 1):
        later, m1 = 0, 0
        for v in range(n - 1, -1, -1):
            d = later + (v if v in dom else 0)
            m1 += d * d
            later += v in dom
        if m1 < best:
            continue
        if m1 > best:
            best, argmax = m1, []
        argmax.append(threshold_graph(n, [(v, v + 1, v in dom) for v in range(n)]))
    return best, argmax


class InvariantBundle(NamedTuple):
    m1: int
    m2: int
    k3: int
    p3: int
    p4: int
    h_value: int
    m: int


def invariant_bundle(g: Graph) -> InvariantBundle:
    """The exact invariants of one graph in one pass: the degrees, then one
    walk over the rows that sums ``d(u)^2`` for M1, and over the set bits
    above u, the edges uv with u < v, ``d(u) d(v)`` for M2 and the common
    neighbours of u and v, three per triangle.

    ``p4`` counts paths on four vertices, each once.  A walk a-u-v-b is a
    choice of an oriented middle edge uv plus neighbours a != v of u and
    b != u of v; over both orientations of every edge these are
    ``2 * sum (d(u)-1)(d(v)-1) = 2*(M2 - M1 + m)`` walks.  The walks with
    a = b are six per triangle, and every path is two walks, so
    ``p4 = M2 - M1 + m - 3*k3``.
    """
    rows = g.rows
    degs = [row.bit_count() for row in rows]
    m1 = m2 = common = 0
    for u, row in enumerate(rows):
        du, w = degs[u], row >> (u + 1) << (u + 1)
        m1 += du * du
        while w:
            low = w & -w
            v = low.bit_length() - 1
            m2 += du * degs[v]
            common += (row & rows[v]).bit_count()
            w ^= low
    k3, m = common // 3, sum(degs) // 2  # p3, the fourth field, is the sum of C(d, 2)
    return InvariantBundle(m1, m2, k3, (m1 - 2 * m) // 2, m2 - m1 + m - 3 * k3, m2 - 6 * k3, m)


def complement_residuals(n: int, b: InvariantBundle, bc: InvariantBundle) -> tuple:
    """Left-minus-right of the three complementation identities, from the
    bundles of a graph on n vertices (``b``) and of its complement (``bc``).

    The triangle, three-path and four-path counts of a graph and its
    complement satisfy linear identities in n, m and p3(G) (Goodman 1959);
    all three residuals are zero for every simple graph.
    """
    m, p3 = b.m, b.p3
    r_k3 = (b.k3 + bc.k3) - (comb(n, 3) - m * (n - 2) + p3)
    r_p3 = (p3 + bc.p3) - (2 * p3 + (n - 2) * (comb(n, 2) - 2 * m))
    r_p4 = (b.p4 + bc.p4) - (
        2 * (n - 5) * p3
        + 2 * m * m
        - 8 * m
        + 3 * m * n
        - 3 * comb(n, 3)
        + (n - 2) ** 2 * (comb(n, 2) - 3 * m)
    )
    return (r_k3, r_p3, r_p4)


# ---------------------------------------------------------------------------
# Closed forms on the families.
# ---------------------------------------------------------------------------


def _half(num: int) -> int:
    """``num / 2`` for a numerator that its closed form makes even."""
    if num % 2:
        raise InvariantError(f"closed form has odd numerator {num}")
    return num // 2


def quasi_complete_h(k: int, j: int) -> int:
    """Closed form of the h-invariant of the quasi-complete graph.

    Equals ``k^4/2 - k^3/2 - 3jk^2 + (j^2+7j+1)k - (5j^2+7j)/2``; both
    halved terms are even, so the value is an exact integer.
    """
    if not 1 <= j <= k:
        raise DomainError(f"need 1 <= j <= k; got k={k}, j={j}")
    num = k**4 - k**3 - 6 * j * k * k + 2 * (j * j + 7 * j + 1) * k - (5 * j * j + 7 * j)
    return _half(num)


def h_sum_offset(n: int, m: int) -> int:
    """The additive constant in the complement-sum identity for h.

    ``h(G) + h(complement(G)) = (n - 9/2) M1(G) + offset(n, m)`` for every
    graph on n vertices and m edges.
    """
    return 2 * m * m - 6 * comb(n, 3) + (n - 1) ** 2 * comb(n, 2) - 3 * (n - 1) * (n - 3) * m


def family_h_values(n: int, m: int) -> dict:
    """h of every existing family member at (n, m), by closed form, as
    ``{tag: h}`` in FamilyTag order: ``family_h_at`` on both decompositions of m."""
    return family_h_at(n, *quasi_complete_params(m), *quasi_star_params(n, m))


def family_h_at(n: int, k: int, j: int, kp: int, jp: int) -> dict:
    """``family_h_values(n, m)`` for ``m = C(k+1,2) - j``, from both
    decompositions of m, ``(k, j)`` and ``(k', j')``, which the caller knows.

    A C-side member ``Ci`` on m edges reads ``(k, j)`` of m: C1 is the
    quasi-complete closed form, C3 adds 3 and C2 subtracts ``(2k-7)(k-j)(k-j-1)/2``.
    An S-side member is the complement of its C-side mirror ``Ci`` on ``mc = C(n,2) -
    m`` edges, whose parameters are ``(k', j')`` of (n, m), so the
    complement-sum identity gives ``h(Si) = (n - 9/2) M1(Si) + offset(n, m)
    - h(Ci)``.  ``M1(Si) = M1(S1)`` because C1, C2 and C3 have equal M1:
    with ``a = k - j`` their degrees are k (a times), k-1 (j times) and a;
    2k-j-1, k-1 (k-1 times) and 1 (a times); k (k-2 times) and k-2 (3
    times, j = 3); each sum of squares is ``k(k-1)^2 + a(2k-1) + a^2``.
    The quasi-complete h of each parameter pair is computed once.
    """
    h = quasi_complete_h(k, j)
    out = {FamilyTag.C1: h}
    if c_side_exists(n, FamilyTag.C2, k, j):
        out[FamilyTag.C2] = h - _half((2 * k - 7) * (k - j) * (k - j - 1))
    if c_side_exists(n, FamilyTag.C3, k, j):
        out[FamilyTag.C3] = h + 3
    # h of S1; M1 is always even
    h = _half((2 * n - 9) * quasi_star_m1(n, kp, jp)) + h_sum_offset(n, comb(k + 1, 2) - j) - quasi_complete_h(kp, jp)
    out[FamilyTag.S1] = h
    if c_side_exists(n, FamilyTag.C2, kp, jp):
        out[FamilyTag.S2] = h + _half((2 * kp - 7) * (kp - jp) * (kp - jp - 1))
    if c_side_exists(n, FamilyTag.C3, kp, jp):
        out[FamilyTag.S3] = h - 3
    return out


def family_h(n: int, m: int, tag: FamilyTag) -> int:
    """h-invariant of one family member, read from ``family_h_values``.
    Raises FamilyDoesNotExist for absent tags."""
    h = family_h_values(n, m).get(tag)
    if h is None:
        raise FamilyDoesNotExist(f"{tag} has no member at n={n}, m={m}")
    return h


def gap_and_spread(h_by_tag: dict) -> tuple:
    """``(h(C1) - h(S1), spread)`` of one pair's ``{tag: h}``, where the spread
    is the largest minus the smallest S-side value; S1 exists at every pair."""
    h_s = [h for t, h in h_by_tag.items() if t in MIRROR_TAGS]  # S1 first
    return h_by_tag[FamilyTag.C1] - h_s[0], max(h_s) - min(h_s)


def cell_extremes(n: int, k: int, j: int, kp: int, jp: int, last: int) -> tuple:
    """``(least gap, greatest spread)`` of ``gap_and_spread`` over the
    offsets ``0..last`` of a ``classify.cells`` cell, whose pair at offset
    i has the parameters ``(k, j - i, kp, jp + i)``, from ``family_h_at``
    at a few offsets.

    The gap is a quadratic f(i).  ``h(C1) = quasi_complete_h(k, j)`` is
    quadratic in j, and ``h(S1) = (n - 9/2) M1(S1) + h_sum_offset(n, m) -
    quasi_complete_h(k', j')``, where ``M1(S1)`` is quadratic in j' and the
    offset in m; j, j' and m are affine in i.  So ``f(i+1) - f(i) = D1 + i
    D2`` with ``D1 = f(1) - f(0)`` and ``D2 = f(2) - 2 f(1) + f(0)``.  For
    ``D2 <= 0`` these steps never grow, so once f falls it keeps falling,
    and f is least at 0 or last.  For ``D2 > 0`` they grow: f falls until
    the first i with ``D1 + i D2 >= 0``, ``ceil(-D1 / D2)``, and rises from
    there, so that i clipped to ``0..last`` is least.

    The spread is the width of the S-side values: ``S2 - S1 = q(j') =
    (2k'-7)(k'-j')(k'-j'-1)/2`` where S2 exists, on the piece ``2k' - n <=
    j' <= k' - 2`` (``c_side_exists``), and ``S3 - S1 = -3`` where S3
    exists, only at ``j' = 3``.  q < 0 needs k' <= 3, where the piece ends
    at j' <= 1, so the spread is exactly ``|q(j')|`` on the piece plus 3
    at ``j' = 3`` if S3 exists, and 0 elsewhere.  On the piece ``|q(j')| =
    |2k'-7| a(a-1)/2`` with ``a = k' - j' >= 2``, which falls as j'
    rises.  So the greatest spread is at the piece's first offset in the
    cell, at the offset ``3 - j'`` of ``j' = 3``, which is at most 2 as
    ``j' >= 1``, or, where the cell holds neither, 0 at every offset.
    Both extremes are read over the offsets evaluated, a subset of the
    cell that holds all these points."""
    offsets = {0, min(1, last), min(2, last), last}
    first_s2 = max(0, 2 * kp - n - jp)
    if first_s2 <= min(last, kp - 2 - jp):
        offsets.add(first_s2)
    at = {i: gap_and_spread(family_h_at(n, k, j - i, kp, jp + i)) for i in offsets}
    if last >= 2:
        (f0, _), (f1, _), (f2, _) = at[0], at[1], at[2]
        d1, d2 = f1 - f0, f2 - 2 * f1 + f0
        if d2 > 0:
            vertex = min(max(-(d1 // d2), 0), last)
            if vertex not in at:
                at[vertex] = gap_and_spread(family_h_at(n, k, j - vertex, kp, jp + vertex))
    return min(gap for gap, _ in at.values()), max(spread for _, spread in at.values())
