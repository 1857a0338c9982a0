"""Constructions of the extremal graph families.

The two decompositions of an edge count, ``m = C(k+1,2) - j`` and ``m =
C(n,2) - C(k'+1,2) + j'`` with ``1 <= j <= k`` and ``1 <= j' <= k'``, are
defined in ``classify`` (``quasi_complete_params``, ``quasi_star_params``).
These two parameter pairs drive six named families:

* ``C1`` (quasi-complete): a k-clique, one vertex attached to ``k - j`` of
  its vertices, isolated vertices for padding.
* ``C2``: one hub joined to ``K_{k-1}`` together with ``k - j`` pendant
  vertices, plus isolated padding; exists iff ``k+1 <= 2k-j-1 <= n-1``.
* ``C3``: ``K_{k-2}`` joined to three independent vertices, plus padding;
  exists iff ``j = 3``.
* ``S1`` (quasi-star): ``n - k' - 1`` universal vertices over a star with
  ``j'`` leaves and ``k' - j'`` extra vertices.
* ``S2``: universal vertices over ``(K_{k'-j'} v (k'-1)K_1) u K_1``;
  exists iff ``k'+1 <= 2k'-j'-1 <= n-1``.
* ``S3``: universal vertices over ``K_3 u (k'-2)K_1``; exists iff ``j' = 3``.

Every member is a threshold graph (``graphs.threshold_graph``), and only
the C side lists its creation blocks (``_c_blocks``).  Each ``Si`` on (n, m)
is the complement of ``Ci`` on (n, C(n,2) - m), whose parameters are
``(k', j')`` (Ahlswede & Katona 1978): its mirror's blocks, each flag
flipped and each vertex v relabelled n-1-v.  So ``mirror`` ties the two
sides together once and every S-side fact is derived from the C side.  The
module also builds the unique best-in-class graphs assembled from the
families: the maximizer of the second-Zagreb-minus-six-triangles invariant
among first-Zagreb maximizers, and the locally most reliable two-terminal
graph derived from it.  That graph is a threshold graph too: up to ``2n-3``
edges its creation blocks are ``[(2, 2+x, False), (0, 2, True), (2+x, n,
False)]`` for ``x = (m-1) // 2`` (for an even m the first run becomes
``(2, 3, False), (3, 4, True), (4, 2+x, False)``), and past ``2n-3`` its
two terminals dominate a family member.
"""

from __future__ import annotations

from enum import Enum
from itertools import count
from math import comb

from .classify import Sign, central_band, check_range, classify, quasi_complete_params, quasi_star_params, trivial_tie_ms
from .errors import DomainError, FamilyDoesNotExist, InvariantError
from .graphs import Graph, TwoTerminalGraph, join, threshold_graph


class FamilyTag(str, Enum):
    C1 = "c1"
    C2 = "c2"
    C3 = "c3"
    S1 = "s1"
    S2 = "s2"
    S3 = "s3"

    def __str__(self) -> str:  # keep CLI/CSV output compact
        return self.value


#: Each quasi-star family and the quasi-complete family it complements.
MIRROR_TAGS = {FamilyTag.S1: FamilyTag.C1, FamilyTag.S2: FamilyTag.C2, FamilyTag.S3: FamilyTag.C3}


def mirror(n: int, m: int, tag: FamilyTag) -> tuple:
    """``(Ci, C(n,2) - m)`` for ``tag = Si``: the C-side family and edge count
    whose member on n vertices is the complement of this one.  ``(tag, m)``
    for a C-side tag."""
    return (MIRROR_TAGS[tag], comb(n, 2) - m) if tag in MIRROR_TAGS else (tag, m)


def c_side_exists(n: int, tag: FamilyTag, k: int, j: int) -> bool:
    """Whether the C-side family ``tag`` has a member on n vertices and
    ``C(k+1,2) - j`` edges, from that edge count's parameters ``(k, j)``."""
    if tag is FamilyTag.C1:
        return True
    if tag is FamilyTag.C2:
        return j <= k - 2 and 2 * k - j <= n
    return j == 3 and k <= n - 1


def family_exists(n: int, m: int, tag: FamilyTag) -> bool:
    """Whether the family has a member on ``n`` vertices and ``m`` edges."""
    check_range(n, m)
    tag, m = mirror(n, m, tag)
    return c_side_exists(n, tag, *quasi_complete_params(m))


def _c_blocks(n: int, m: int, tag: FamilyTag) -> list:
    """The creation blocks of the existing C-side member ``tag`` on (n, m)."""
    if m == 0:
        return [(0, n, False)]
    k, j = quasi_complete_params(m)
    if tag is FamilyTag.C2:
        return [(1, k, True), (k, 2 * k - j, False), (0, 1, True), (2 * k - j, n, False)]
    if tag is FamilyTag.C3:
        return [(k - 2, k + 1, False), (0, k - 2, True), (k + 1, n, False)]
    if j == k:  # the attachment vertex would have degree 0: a plain k-clique
        return [(0, k, True), (k, n, False)]
    return [(k - j, k, True), (k, k + 1, False), (0, k - j, True), (k + 1, n, False)]


def build_family(n: int, m: int, tag: FamilyTag) -> Graph:
    """The named family member on ``n`` vertices and ``m`` edges.

    An S-side member is the complement of its C-side mirror with every
    vertex v renamed n-1-v, which puts its universal vertices first: the
    mirror's blocks with every flag flipped and every run relabelled.
    Raises FamilyDoesNotExist when the family's side condition fails.
    """
    if not family_exists(n, m, tag):
        raise FamilyDoesNotExist(f"{tag} has no member at n={n}, m={m}")
    c_tag, mc = mirror(n, m, tag)
    blocks = _c_blocks(n, mc, c_tag)
    if c_tag is not tag:
        blocks = [(n - hi, n - lo, not dominating) for lo, hi, dominating in blocks]
    g = threshold_graph(n, blocks)
    if (g.n, g.m) != (n, m):
        raise InvariantError(f"builder produced ({g.n},{g.m}) for ({n},{m},{tag})")
    return g


def candidate_set(n: int, m: int) -> list:
    """All existing family members as ``(tag, graph)`` pairs.

    Tags are kept even when two of them yield isomorphic graphs: every
    first-Zagreb maximizer lies in this set.
    """
    return [(tag, build_family(n, m, tag)) for tag in FamilyTag if family_exists(n, m, tag)]


#: Exceptional tie pairs where neither comparison-based branch applies,
#: with the family that wins the triangle-penalized second Zagreb index.
SEVEN_PAIR_TAGS = {
    (5, 5): FamilyTag.S1,
    (6, 6): FamilyTag.S1,
    (6, 7): FamilyTag.S2,
    (6, 8): FamilyTag.S1,
    (6, 9): FamilyTag.S1,
    (7, 9): FamilyTag.S2,
    (7, 12): FamilyTag.S2,
}


def h_optimal_tag(n: int, m: int) -> FamilyTag:
    """The family of the unique maximizer of ``M2 - 6*k3`` among
    first-Zagreb maximizers; builds no graph.

    Branches, in priority order: where ``classify`` gives no sign (n below
    ``CLASSIFY_MIN_N``) the quasi-star wins outright; otherwise the sign of
    ``M1(S1) - M1(C1)`` selects the S-side or C-side chain, ties go to the
    quasi-star at near-empty/near-complete edge counts, to a tabulated
    family on the seven exceptional pairs, and to the C-side inside the
    central band.
    On the C-side, ``C3`` wins when it exists, else ``C1``.
    """
    check_range(n, m)
    if n < 1:
        raise DomainError("need at least one vertex")
    sign = classify(n, m)
    if sign is None:
        return FamilyTag.S1
    if sign is Sign.PLUS:
        if not family_exists(n, m, FamilyTag.S2):
            return FamilyTag.S1
        # the S2-over-S1 gap has sign k'-7/2; k'=3 only happens at the
        # tie pair (5,5), never on this branch
        if quasi_star_params(n, m)[0] < 4:
            raise InvariantError(f"S2 branch reached with k' < 4 at ({n},{m})")
        return FamilyTag.S2
    if sign is Sign.MINUS:
        # m=5 would flip the C2/C1 order, but (n,5) is never on this branch
        if m == 5:
            raise InvariantError(f"C-side branch reached at m = 5 for n={n}")
    else:
        # tie: near-trivial edge counts, the seven exceptional pairs, then
        # the central band (which is the only remaining possibility)
        if m in trivial_tie_ms(n):
            return FamilyTag.S1
        if (n, m) in SEVEN_PAIR_TAGS:
            return SEVEN_PAIR_TAGS[(n, m)]
        if m not in central_band(n):
            raise InvariantError(f"unclassified tie pair ({n},{m})")
    return FamilyTag.C3 if family_exists(n, m, FamilyTag.C3) else FamilyTag.C1


def build_h_optimal(n: int, m: int) -> tuple:
    """``(tag, graph)``: the unique maximizer of ``M2 - 6*k3`` among
    first-Zagreb maximizers, built from ``h_optimal_tag``."""
    tag = h_optimal_tag(n, m)
    return tag, build_family(n, m, tag)


def lmrttg_ms(n: int) -> range:
    """The main theorem's edge counts at n, ``5 <= m <= C(n,2)``; ValueError for a negative n."""
    return range(5, comb(n, 2) + 1)


#: Smallest n of the main theorem: the first with an edge count in ``lmrttg_ms``.
LMRTTG_MIN_N = next(n for n in count() if lmrttg_ms(n))


def build_lmrttg(n: int, m: int) -> TwoTerminalGraph:
    """The unique locally most reliable two-terminal graph on (n, m).

    Up to ``2n-3`` edges: terminals 0 and 1 joined by an edge plus ``x =
    (m-1) // 2`` length-two paths through the inner vertices ``2..x+1``, and
    for an even m an edge between the first two inner vertices.  Its
    creation blocks are the inner vertices, isolated except for a dominating
    vertex 3 when m is even, then the terminals, dominating, then isolated
    padding.  Past ``2n-3`` the terminals become universal over the optimal
    core on ``n-2`` vertices.  So the graph is a threshold graph at every
    (n, m): one creation sequence below, two dominating vertices added to a
    threshold core above.
    """
    if n < 0 or m not in lmrttg_ms(n):
        raise DomainError(f"need n >= 4 and 5 <= m <= C(n,2); got n={n}, m={m}")
    if m > 2 * n - 3:
        _, core = build_h_optimal(n - 2, m - (2 * n - 3))
        return TwoTerminalGraph(join(Graph.complete(2), core), 0, 1)
    x = (m - 1) // 2
    inner = [(2, 3, False), (3, 4, True), (4, 2 + x, False)] if m % 2 == 0 else [(2, 2 + x, False)]
    return TwoTerminalGraph(threshold_graph(n, inner + [(0, 2, True), (2 + x, n, False)]), 0, 1)
