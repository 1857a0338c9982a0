"""Exact graph invariants and their closed forms on the named families.

Everything here is integer arithmetic.  The one half-integer intermediate
(the ``n - 9/2`` factor in the complement-sum identity) is carried as an
even product and divided at the end, with the divisibility checked.  The
invariants of a graph all come from one pass, ``invariant_bundle``, and a
caller reads the fields it needs.  The ``h`` closed forms are written for
the quasi-complete side; each quasi-star value follows from its
quasi-complete mirror (``families.mirror``) by the complement-sum
identity, with the quasi-star ``M1`` from ``classify.quasi_star_m1``.
``max_m1_graphs`` is the first-Zagreb argmax engine: every maximizer over
the graphs with n vertices and m edges is a threshold graph, so it
enumerates the threshold graphs' dominating sets.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .classify import check_range, quasi_complete_params, quasi_star_m1, quasi_star_params
from .errors import DomainError, FamilyDoesNotExist, InvariantError
from .families import FamilyTag, c_side_exists
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
    loop over ``g.edges()`` that sums ``d(u) d(v)`` for M2 and the common
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
    m2 = common = 0
    for u, v in g.edges():
        m2 += degs[u] * degs[v]
        common += (rows[u] & rows[v]).bit_count()
    k3 = common // 3
    m1 = sum(d * d for d in degs)
    m = sum(degs) // 2
    p3 = (m1 - 2 * m) // 2  # the sum of C(d, 2)
    return InvariantBundle(m1=m1, m2=m2, k3=k3, p3=p3, p4=m2 - m1 + m - 3 * k3, h_value=m2 - 6 * k3, m=m)


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
    ``{tag: h}`` in FamilyTag order.

    A C-side member ``Ci`` on m edges reads ``(k, j)`` of m: C1 is the
    quasi-complete closed form, C3 adds 3 and C2 subtracts ``(2k-7)(k-j)(k-j-1)/2``.
    An S-side member is the complement of its C-side mirror ``Ci`` on ``mc = C(n,2) -
    m`` edges, whose parameters are ``(k', j')`` of (n, m), so the
    complement-sum identity gives ``h(Si) = (n - 9/2) M1(Si) + offset(n, m)
    - h(Ci)``.  ``M1(Si) = M1(S1)`` because C1, C2 and C3 have equal M1:
    with ``a = k - j`` their degrees are k (a times), k-1 (j times) and a;
    2k-j-1, k-1 (k-1 times) and 1 (a times); k (k-2 times) and k-2 (3
    times, j = 3); each sum of squares is ``k(k-1)^2 + a(2k-1) + a^2``.
    Both parameter pairs, and the quasi-complete h of each, are computed once.
    """
    k, j = quasi_complete_params(m)
    kp, jp = quasi_star_params(n, m)
    h = quasi_complete_h(k, j)
    out = {FamilyTag.C1: h}
    if c_side_exists(n, FamilyTag.C2, k, j):
        out[FamilyTag.C2] = h - _half((2 * k - 7) * (k - j) * (k - j - 1))
    if c_side_exists(n, FamilyTag.C3, k, j):
        out[FamilyTag.C3] = h + 3
    # h of S1; M1 is always even
    h = _half((2 * n - 9) * quasi_star_m1(n, kp, jp)) + h_sum_offset(n, m) - quasi_complete_h(kp, jp)
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
