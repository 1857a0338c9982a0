"""Exact graph invariants and their closed forms on the named families.

Everything here is integer arithmetic.  The one half-integer intermediate
(the ``n - 9/2`` factor in the complement-sum identity) is carried as an
even product and divided at the end, with the divisibility checked.
The closed forms are written for the quasi-complete side; each quasi-star
value follows from its quasi-complete mirror (``families.mirror``) by a
complementation identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import DomainError, FamilyDoesNotExist, InvariantError
from .families import FamilyTag, family_exists, mirror, quasi_complete_params
from .graphs import Graph


def zagreb1(g: Graph) -> int:
    """Sum of squared degrees."""
    return sum(d * d for d in g.degrees())


def _sequences(total: int, length: int, cap: int):
    """Non-increasing tuples of ``length`` integers in ``0..cap`` summing to ``total``."""
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(cap, total), -1, -1):
        if first * length < total:
            return
        for rest in _sequences(total - first, length - 1, first):
            yield (first,) + rest


def _erdos_gallai(seq) -> bool:
    """Whether a non-increasing sequence with even sum is the degree sequence
    of a simple graph: ``d_1 + ... + d_k <= k(k-1) + sum_{i>k} min(d_i, k)``
    for every k (Erdős & Gallai 1960)."""
    head = 0
    for k in range(1, len(seq) + 1):
        head += seq[k - 1]
        tail = 0
        for d in seq[k:]:
            tail += d if d < k else k
        if head > k * (k - 1) + tail:
            return False
    return True


def max_m1_sequences(n: int, m: int) -> tuple:
    """``(max M1, argmax sequences)`` over the graphs on n vertices and m edges.

    M1 is a function of the degree sequence, and the Erdős–Gallai test is an
    iff, so the maximum over the graphical non-increasing sequences of length
    n, entries at most ``n-1`` and sum ``2m`` is the maximum over the graphs.
    The argmax sequences come in decreasing lexicographic order.
    """
    if n < 1 or not 0 <= m <= comb(n, 2):
        raise DomainError(f"need n >= 1 and 0 <= m <= C(n,2); got n={n}, m={m}")
    best, argmax = -1, []
    for seq in _sequences(2 * m, n, n - 1):
        m1 = sum(d * d for d in seq)
        if m1 < best or not _erdos_gallai(seq):
            continue
        if m1 > best:
            best, argmax = m1, []
        argmax.append(seq)
    return best, argmax


def realisations(degrees):
    """Every labeled graph whose degree vector is exactly ``degrees``, each once.

    Vertices are settled in index order: vertex v takes the rest of its
    degree as a set of neighbours among the later vertices that still need
    edges.  Those sets are v's edges to later vertices, so distinct choices
    give distinct graphs, and each graph with this vector is reached by
    choosing its own neighbour sets.  A vertex is entered only while the
    needs of the vertices from it on form a graphical sequence: by
    Erdős–Gallai that holds iff some graph on them completes the choices
    made so far, so no branch of the search is a dead end.
    """
    n = len(degrees)
    if any(not 0 <= d < n for d in degrees):
        raise DomainError(f"degrees must lie in 0..{n - 1}; got {tuple(degrees)}")
    need = list(degrees)
    rows = [0] * n

    def settle(v):
        rest = sorted((d for d in need[v:] if d), reverse=True)
        if sum(rest) % 2 or not _erdos_gallai(rest):
            return
        if v == n:
            yield Graph(n, rows)
            return
        earlier = rows[v]
        later = [u for u in range(v + 1, n) if need[u]]
        for nbrs in combinations(later, need[v]):
            for u in nbrs:
                need[u] -= 1
                rows[u] |= 1 << v
            rows[v] = earlier | sum(1 << u for u in nbrs)
            yield from settle(v + 1)
            for u in nbrs:
                need[u] += 1
                rows[u] ^= 1 << v
        rows[v] = earlier

    yield from settle(0)


def zagreb2(g: Graph) -> int:
    """Sum over edges of the endpoint degree products."""
    degs = g.degrees()
    return sum(degs[u] * degs[v] for u, v in g.edges())


def count_triangles(g: Graph) -> int:
    rows = g.rows
    total = 0
    for u, v in g.edges():
        total += (rows[u] & rows[v]).bit_count()
    return total // 3


def count_p3(g: Graph) -> int:
    """Paths on three vertices, i.e. pairs of edges sharing an endpoint."""
    return sum(comb(d, 2) for d in g.degrees())


def h_invariant(g: Graph) -> int:
    """Second Zagreb index minus six times the triangle count."""
    return zagreb2(g) - 6 * count_triangles(g)


@dataclass(frozen=True)
class InvariantBundle:
    m1: int
    m2: int
    k3: int
    p3: int
    p4: int
    h_value: int
    m: int


def invariant_bundle(g: Graph) -> InvariantBundle:
    """The exact invariants of one graph, each computed once.

    ``p4`` counts paths on four vertices, each once.  A walk a-u-v-b is a
    choice of an oriented middle edge uv plus neighbours a != v of u and
    b != u of v; over both orientations of every edge these are
    ``2 * sum (d(u)-1)(d(v)-1) = 2*(M2 - M1 + m)`` walks.  The walks with
    a = b are six per triangle, and every path is two walks, so
    ``p4 = M2 - M1 + m - 3*k3``.
    """
    m1 = zagreb1(g)
    m2 = zagreb2(g)
    k3 = count_triangles(g)
    p3 = count_p3(g)
    p4 = m2 - m1 + g.m - 3 * k3
    return InvariantBundle(m1=m1, m2=m2, k3=k3, p3=p3, p4=p4, h_value=m2 - 6 * k3, m=g.m)


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
    mirror is K_n and the value is zero.
    """
    if not (1 <= jp <= kp <= n):
        raise DomainError(f"need 1 <= j' <= k' <= n; got n={n}, k'={kp}, j'={jp}")
    mc = comb(kp + 1, 2) - jp
    return n * (n - 1) ** 2 - 4 * (n - 1) * mc + quasi_complete_m1(kp, jp)


def h_sum_offset(n: int, m: int) -> int:
    """The additive constant in the complement-sum identity for h.

    ``h(G) + h(complement(G)) = (n - 9/2) M1(G) + offset(n, m)`` for every
    graph on n vertices and m edges.
    """
    return 2 * m * m - 6 * comb(n, 3) + (n - 1) ** 2 * comb(n, 2) - 3 * (n - 1) * (n - 3) * m


def _quasi_complete_family_h(m: int, tag: FamilyTag) -> int:
    """h of the C-side family member on m edges: the quasi-complete closed
    form plus the fixed offset of the variant."""
    k, j = quasi_complete_params(m)
    if tag is FamilyTag.C1:
        return quasi_complete_h(k, j)
    if tag is FamilyTag.C3:
        return quasi_complete_h(k, j) + 3
    return quasi_complete_h(k, j) - _half((2 * k - 7) * (k - j) * (k - j - 1))


def family_h(n: int, m: int, tag: FamilyTag) -> int:
    """h-invariant of a family member, by closed form.

    An S-side member is the complement of its
    C-side mirror ``Ci`` on ``mc = C(n,2) - m`` edges, so the complement-sum
    identity gives ``h(Si) = (n - 9/2) M1(Si) + offset(n, m) - h(Ci)``.
    ``M1(Si) = M1(S1)`` because C1, C2 and C3 have equal M1: with
    ``a = k - j`` their degrees are k (a times), k-1 (j times) and a; 2k-j-1,
    k-1 (k-1 times) and 1 (a times); k (k-2 times) and k-2 (3 times, j = 3);
    each sum of squares is ``k(k-1)^2 + a(2k-1) + a^2``.  Raises
    FamilyDoesNotExist for absent tags.
    """
    tag = FamilyTag(tag)
    if not family_exists(n, m, tag):
        raise FamilyDoesNotExist(f"{tag} has no member at n={n}, m={m}")
    c_side = mirror(n, m, tag)
    if c_side:
        c_tag, mc = c_side
        half_m1 = _half((2 * n - 9) * quasi_star_m1(n, *quasi_complete_params(mc)))  # M1 is always even
        return half_m1 + h_sum_offset(n, m) - _quasi_complete_family_h(mc, c_tag)
    return _quasi_complete_family_h(m, tag)

