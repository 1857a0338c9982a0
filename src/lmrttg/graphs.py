"""Bitset-backed simple graphs and two-terminal graphs.

Vertices are the integers ``0..n-1``.  Adjacency is stored as one integer
bit row per vertex (bit ``v`` of ``rows[u]`` is set iff ``uv`` is an edge),
which keeps complement, join and triangle counting down to a handful of
word operations.  ``threshold_graph`` builds a threshold graph from its
creation sequence, as every family member and ``M1`` maximizer is.  All
graph values are immutable, so they can be shared and hashed freely.

The rows are the one graph form that passes between the package's modules.
Edge lists are the input and output format: ``from_edges`` for outside
input and hand-written constructions, ``edges`` for graph JSON and DOT.
"""

from __future__ import annotations

import json
from itertools import chain, permutations, product
from math import factorial, prod

from .errors import DomainError, SizeLimitError

#: Most slot orders that a canonical-key walk takes: all 8! of the twin-free
#: 3-regular 3-cube under ``graph_key``.  The walk is counted before it starts.
KEY_MAX_ORDERS = factorial(8)
#: Vertex bound of the graph JSON format, checked before any row is allocated.
GRAPH_JSON_MAX_N = 1 << 16


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1`` with ``m`` edges,
    counted when it is built."""

    __slots__ = ("n", "rows", "m")

    def __init__(self, n: int, rows) -> None:
        rows = tuple(rows)
        if n < 0 or len(rows) != n:
            raise DomainError("row count must equal the vertex count")
        ends = 0
        for v, row in enumerate(rows):
            if row >> n:
                raise DomainError("adjacency bit outside the vertex range")
            if (row >> v) & 1:
                raise DomainError("self-loops are not allowed")
            ends += row.bit_count()
        self.n = n
        self.rows = rows
        self.m = ends // 2

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, tuple(full ^ (1 << v) for v in range(n)))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u},{v}) outside vertex range")
            if (rows[u] >> v) & 1:
                raise DomainError(f"duplicate edge ({u},{v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    def degrees(self) -> tuple:
        return tuple(row.bit_count() for row in self.rows)

    def edges(self) -> list:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``, found by
        jumping from set bit to set bit of each row above its vertex."""
        out = []
        for u, row in enumerate(self.rows):
            w = row >> (u + 1) << (u + 1)
            while w:
                low = w & -w
                out.append((u, low.bit_length() - 1))
                w ^= low
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class TwoTerminalGraph:
    """A graph together with a distinguished pair of terminal vertices."""

    __slots__ = ("graph", "s", "t")

    def __init__(self, graph: Graph, s: int, t: int) -> None:
        n = graph.n
        if not (0 <= s < n and 0 <= t < n):
            raise DomainError("terminals must be vertices of the graph")
        if s == t:
            raise DomainError("terminals must be distinct")
        self.graph = graph
        self.s = s
        self.t = t

    def __eq__(self, other) -> bool:
        return isinstance(other, TwoTerminalGraph) and (self.graph, self.s, self.t) == (other.graph, other.s, other.t)

    def __hash__(self) -> int:
        return hash((self.graph, self.s, self.t))

    def __repr__(self) -> str:
        return f"TwoTerminalGraph(n={self.graph.n}, m={self.graph.m}, s={self.s}, t={self.t})"


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full ^ row ^ (1 << v) for v, row in enumerate(g.rows)))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every cross edge between the two parts."""
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    rows = [row | hmask for row in g.rows]
    rows += [(row << g.n) | gmask for row in h.rows]
    return Graph(g.n + h.n, rows)


def threshold_graph(n: int, blocks) -> Graph:
    """The threshold graph created from ``blocks``: runs ``(lo, hi, dominating)``
    of the labels ``lo..hi-1``, in creation order, that partition ``0..n-1``.
    A vertex of a dominating run is joined to every vertex created before it,
    one of an isolated run to none; one backward pass sets every row."""
    rows, later, after, full = [0] * n, 0, 0, (1 << n) - 1
    for lo, hi, dominating in reversed(blocks):
        run = (1 << hi) - (1 << lo)
        if dominating:
            mask = later | (full ^ after)
            rows[lo:hi] = [mask ^ (1 << v) for v in range(lo, hi)]
            later |= run
        else:
            rows[lo:hi] = [later] * (hi - lo)
        after |= run
    if after != full or sum(hi - lo for lo, hi, _ in blocks) != n:
        raise DomainError(f"blocks must partition 0..{n - 1}; got {blocks!r}")
    return Graph(n, rows)


def vertex_pairs(n: int) -> tuple:
    """All unordered pairs ``(u, v)`` with ``u < v`` in lexicographic order."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


# ---------------------------------------------------------------------------
# Canonical forms.
#
# A key is ``(n, mask)``: the minimum edge bitmask, with the pair bits in
# vertex_pairs order, over the relabelings that put the lead vertices on
# the first slots in the given order and every other vertex on a slot of
# its degree class, the classes by descending degree.  Isomorphisms keep
# degrees and send lead vertices to lead vertices, so isomorphic inputs
# reach the same masks; the minimal mask is the relabeled graph itself, so
# equal keys mean isomorphic inputs.  The degree classes cut the search
# from (n - len(lead))! maps to the product of the class factorials.
#
# Twins cut it further.  Two vertices u, v outside the lead are twins when
# their rows agree outside u and v, so that swapping them is an automorphism;
# it fixes every other vertex, the lead ones included, and every degree
# class.  A slot order and its image under the swap give the same mask, so
# the walk takes one order per arrangement of each degree class's twin
# classes, and the minimum, and with it every key, is unchanged.  Twins are
# equal rows: unjoined twins have equal rows, and joined twins have equal
# closed rows, rows[v] | 1 << v.  No vertex has twins of both kinds: were
# u, v unjoined twins and v, w joined twins, then w is in N(v) = N(u), so u
# is in N[w] = N[v], and u is joined to v.  So the twin classes are the
# groups of equal rows, plus the groups of equal closed rows among the
# vertices whose row no other vertex shares, found by lookup, with no two
# vertices compared.  Vertices of equal degree in a threshold graph are
# twins (Mahadev & Peled 1995), so the dense winners need a single order.
#
# A degree class of s vertices in twin classes of sizes c_1, ..., c_j has
# s! / (c_1! ... c_j!) arrangements, and the walk takes each combination of
# one per class.  This product is counted, and bounded by KEY_MAX_ORDERS,
# before the walk: every graph the optimum search scores up to n = 24 needs
# one order, and the twin-free Petersen graph (10! orders) raises at once.
# ---------------------------------------------------------------------------


def _twin_orders(classes: list):
    """The slot orders of one degree class, one per arrangement of its twin
    classes, each class's vertices taken in a fixed order.  The arrangements
    are the distinct permutations of the class labels, stepped through in
    lexicographic order without recursion, so a class of any size walks."""
    if all(len(cls) == 1 for cls in classes):
        yield from permutations([cls[0] for cls in classes])
        return
    labels = [i for i, cls in enumerate(classes) for _ in cls]
    while True:
        taken = [iter(cls) for cls in classes]
        yield tuple(next(taken[i]) for i in labels)
        j = len(labels) - 2
        while j >= 0 and labels[j] >= labels[j + 1]:
            j -= 1
        if j < 0:
            return
        k = len(labels) - 1
        while labels[k] <= labels[j]:
            k -= 1
        labels[j], labels[k] = labels[k], labels[j]
        labels[j + 1 :] = reversed(labels[j + 1 :])


def _min_mask(g: Graph, groups) -> int:
    """Minimum mask over the slot orders that arrange each group of twin
    classes in turn."""
    n = g.n
    # slot pair (a, b), a < b, is bit base[a] + b, its place in vertex_pairs
    # order: a(2n - a - 1)/2 pairs start at a slot below a, and b - a - 1
    # start at a before it; n offsets keep the setup linear
    base = [a * (2 * n - a - 3) // 2 - 1 for a in range(n)]
    edges = g.edges()
    slot = [0] * n
    best = None
    for combo in product(*(_twin_orders(grp) for grp in groups)):
        for i, v in enumerate(chain.from_iterable(combo)):
            slot[v] = i
        mask = 0
        for u, v in edges:
            a, b = slot[u], slot[v]
            mask |= 1 << (base[a] + b if a < b else base[b] + a)
        if best is None or mask < best:
            best = mask
    return best


def _canonical(g: Graph, lead: tuple) -> tuple:
    """``(n, mask)`` over the relabelings that pin each lead vertex, in
    order, to the first slots and the other vertices by degree class, each
    class split into its twin classes, within KEY_MAX_ORDERS slot orders."""
    rows, by_row, by_closed, by_deg = g.rows, {}, {}, {}
    for v in range(g.n):
        if v not in lead:
            by_row.setdefault(rows[v], []).append(v)
    for v, *rest in by_row.values():
        if not rest:
            by_closed.setdefault(rows[v] | 1 << v, []).append(v)
    for cls in chain((c for c in by_row.values() if len(c) > 1), by_closed.values()):
        by_deg.setdefault(rows[cls[0]].bit_count(), []).append(cls)
    orders = prod(factorial(sum(map(len, cls))) // prod(factorial(len(c)) for c in cls) for cls in by_deg.values())
    if orders > KEY_MAX_ORDERS:
        raise SizeLimitError(f"canonical form would walk more than {KEY_MAX_ORDERS} slot orders")
    groups = [[(v,)] for v in lead] + [by_deg[d] for d in sorted(by_deg, reverse=True)]
    return g.n, _min_mask(g, groups)


def canonical_key(tg: TwoTerminalGraph) -> tuple:
    """Complete invariant of (graph, unordered terminal pair) isomorphism.

    Two two-terminal graphs get equal keys iff some graph isomorphism maps
    the one terminal pair onto the other (as an unordered pair).
    """
    return min(_canonical(tg.graph, lead) for lead in ((tg.s, tg.t), (tg.t, tg.s)))


def canonical_key_ordered(tg: TwoTerminalGraph) -> tuple:
    """Like canonical_key but with the terminals taken as an ordered pair."""
    return _canonical(tg.graph, (tg.s, tg.t))


def graph_key(g: Graph) -> tuple:
    """Complete isomorphism invariant for plain graphs, within KEY_MAX_ORDERS slot orders."""
    return _canonical(g, ())


def form_of_key(key) -> TwoTerminalGraph:
    """The canonically labeled graph a ``canonical_key`` stands for:
    terminals at 0,1 and the key's minimal edge mask."""
    n, mask = key
    pairs = vertex_pairs(n)
    edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
    return TwoTerminalGraph(Graph.from_edges(n, edges), 0, 1)


# ---------------------------------------------------------------------------
# Serialization: the graph JSON format and DOT export.
# ---------------------------------------------------------------------------


def to_json_obj(obj) -> dict:
    """The graph JSON object; ``Graph.edges()`` lists the edges sorted, with u < v."""
    if isinstance(obj, TwoTerminalGraph):
        return {"n": obj.graph.n, "terminals": [obj.s, obj.t], "edges": [[u, v] for u, v in obj.graph.edges()]}
    return {"n": obj.n, "edges": [[u, v] for u, v in obj.edges()]}


def _int_pair(value, what: str) -> tuple:
    if not (isinstance(value, list) and len(value) == 2 and all(type(x) is int for x in value)):
        raise DomainError(f"graph JSON: {what} must be a pair of integers, got {value!r}")
    return tuple(value)


def from_json_obj(d):
    """Graph from its JSON object; malformed input raises DomainError naming the bad field."""
    if not isinstance(d, dict):
        raise DomainError(f"graph JSON must be an object, got {type(d).__name__}")
    if type(d.get("n")) is not int:
        raise DomainError(f"graph JSON: 'n' must be an integer, got {d.get('n')!r}")
    if not 0 <= d["n"] <= GRAPH_JSON_MAX_N:
        raise DomainError(f"graph JSON: 'n' must lie in 0..{GRAPH_JSON_MAX_N}, got {d['n']}")
    if not isinstance(d.get("edges"), list):
        raise DomainError(f"graph JSON: 'edges' must be a list, got {d.get('edges')!r}")
    g = Graph.from_edges(d["n"], [_int_pair(e, "each edge") for e in d["edges"]])
    if d.get("terminals") is not None:
        return TwoTerminalGraph(g, *_int_pair(d["terminals"], "'terminals'"))
    return g


def from_json(text: str):
    return from_json_obj(json.loads(text))


def to_dot(obj) -> str:
    g, terminals = (obj.graph, (obj.s, obj.t)) if isinstance(obj, TwoTerminalGraph) else (obj, ())
    lines = ["graph G {"] + [f"  {v} [shape={'doublecircle' if v in terminals else 'circle'}];" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in g.edges()] + ["}"]
    return "\n".join(lines) + "\n"
