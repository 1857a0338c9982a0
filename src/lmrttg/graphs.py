"""Bitset-backed simple graphs and two-terminal graphs.

Vertices are the integers ``0..n-1``.  Adjacency is stored as one integer
bit row per vertex (bit ``v`` of ``rows[u]`` is set iff ``uv`` is an edge),
which keeps complement, join and triangle counting down to a handful of
word operations.  ``threshold_graph`` builds a threshold graph from its
creation sequence, as every family member and ``M1`` maximizer is.  All
graph values are immutable, so they can be shared and hashed freely.

The rows are the one graph form that passes between the package's modules,
and ``Graph`` checks that they are symmetric.  The builders here make
symmetric rows by construction and know their edge count, so they build
through ``_built``, which checks nothing.  Edge lists are the input and
output format: ``from_edges`` for outside input, the graph a key stands for,
the prefix-scan cells' graphs and the identity suite's random graphs, and
``edges`` for graph JSON and DOT.
"""

from __future__ import annotations

import json
from itertools import chain

from .errors import DomainError, InvariantError

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
        ends = m = 0
        for v, row in enumerate(rows):
            if row >> n:
                raise DomainError("adjacency bit outside the vertex range")
            if (row >> v) & 1:
                raise DomainError("self-loops are not allowed")
            # each bit above the diagonal needs its reverse bit; then the rows
            # are symmetric iff the bits below it are exactly those reverses
            bit, w = 1 << v, row >> (v + 1) << (v + 1)
            while w:
                low = w & -w
                if not rows[low.bit_length() - 1] & bit:
                    raise DomainError("adjacency rows must be symmetric")
                w ^= low
            m += (row >> (v + 1)).bit_count()
            ends += row.bit_count()
        if ends != 2 * m:
            raise DomainError("adjacency rows must be symmetric")
        self.n = n
        self.rows = rows
        self.m = m

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return _built(n, tuple(full ^ (1 << v) for v in range(n)), n * (n - 1) // 2)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        if n < 0:
            raise DomainError(f"vertex count must be nonnegative; got {n}")
        rows, m = [0] * n, 0
        for u, v in edges:
            if u == v:
                raise DomainError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise DomainError(f"edge ({u},{v}) outside vertex range")
            if (rows[u] >> v) & 1:
                raise DomainError(f"duplicate edge ({u},{v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            m += 1
        return _built(n, tuple(rows), m)

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
    n, full = g.n, (1 << g.n) - 1
    return _built(n, tuple(full ^ row ^ (1 << v) for v, row in enumerate(g.rows)), n * (n - 1) // 2 - g.m)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every cross edge between the two parts."""
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    rows = [row | hmask for row in g.rows]
    rows += [(row << g.n) | gmask for row in h.rows]
    return _built(g.n + h.n, tuple(rows), g.m + h.m + g.n * h.n)


def threshold_graph(n: int, blocks) -> Graph:
    """The threshold graph created from ``blocks``: runs ``(lo, hi, dominating)``
    of the labels ``lo..hi-1``, in creation order, that partition ``0..n-1``.
    A vertex of a dominating run is joined to every vertex created before it,
    one of an isolated run to none; one backward pass sets every row.  A
    dominating run of s labels with b labels created before it adds ``s b
    + C(s, 2)`` edges, and b is n less the s labels and those created later."""
    rows, later, after, full, created_later, m = [0] * n, 0, 0, (1 << n) - 1, 0, 0
    for lo, hi, dominating in reversed(blocks):
        run, size = (1 << hi) - (1 << lo), hi - lo
        if dominating:
            mask = later | (full ^ after)
            rows[lo:hi] = [mask ^ (1 << v) for v in range(lo, hi)]
            later |= run
            m += size * (n - created_later - size) + size * (size - 1) // 2
        else:
            rows[lo:hi] = [later] * size
        after |= run
        created_later += size
    if after != full or created_later != n:
        raise DomainError(f"blocks must partition 0..{n - 1}; got {blocks!r}")
    return _built(n, tuple(rows), m)


def _built(n: int, rows: tuple, m: int) -> Graph:
    """A Graph on n vertices with the given rows and edge count, unchecked:
    only the builders in this module call it, each with symmetric rows in
    range and the m they make."""
    g = object.__new__(Graph)
    g.n, g.rows, g.m = n, rows, m
    return g


def vertex_pairs(n: int) -> tuple:
    """All unordered pairs ``(u, v)`` with ``u < v`` in lexicographic order."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


# ---------------------------------------------------------------------------
# Canonical forms.
# ---------------------------------------------------------------------------


def _canonical(g: Graph, lead: tuple) -> tuple:
    """``(n, mask)``: the edge bitmask, pair bits in vertex_pairs order, of
    g relabeled by a slot order: the lead vertices first, in order, then the
    others by descending degree.

    Precondition: the non-lead vertices of each degree are pairwise twins,
    so their rows are all equal or their closed rows ``rows[v] | 1 << v``
    all are, since twins of both kinds never meet (were u, v unjoined twins
    and v, w joined ones, w is in N(v) = N(u), so u is in N[w] = N[v]);
    otherwise this raises InvariantError.  Every graph the optimum search
    scores, every family member and every ``M1`` maximizer is a threshold
    graph, whose vertices of equal degree are twins (Mahadev & Peled 1995).

    Proof that the key is complete.  Permuting one such class and fixing
    every other vertex is an automorphism, so all slot orders give one mask,
    which is also their minimum.  An isomorphism from g to h that maps lead to
    lead in order keeps degrees, so a slot order of h composed with it is a
    slot order of g that relabels g onto the same graph: isomorphic inputs
    get equal masks.  The mask is the relabeled graph itself, so equal keys
    mean inputs isomorphic by a map that sends lead to lead in order."""
    n, rows, by_deg = g.n, g.rows, {}
    for v in range(n):
        if v not in lead:
            by_deg.setdefault(rows[v].bit_count(), []).append(v)
    for d, cls in by_deg.items():
        if len({rows[v] for v in cls}) > 1 and len({rows[v] | 1 << v for v in cls}) > 1:
            raise InvariantError(f"canonical key: the {len(cls)} vertices of degree {d} are not one twin class")
    slot, mask = [0] * n, 0
    for i, v in enumerate(chain(lead, *(by_deg[d] for d in sorted(by_deg, reverse=True)))):
        slot[v] = i
    # slot pair (a, b), a < b, is bit base[a] + b, its place in vertex_pairs
    # order: a(2n - a - 1)/2 pairs start at a slot below a, and b - a - 1
    # start at a before it
    base = [a * (2 * n - a - 3) // 2 - 1 for a in range(n)]
    for u, v in g.edges():
        a, b = slot[u], slot[v]
        mask |= 1 << (base[a] + b if a < b else base[b] + a)
    return n, mask


def canonical_key(tg: TwoTerminalGraph) -> tuple:
    """Complete invariant of (graph, unordered terminal pair) isomorphism,
    for graphs inside the ``_canonical`` precondition.

    Two two-terminal graphs get equal keys iff some graph isomorphism maps
    the one terminal pair onto the other (as an unordered pair).
    """
    return min(_canonical(tg.graph, lead) for lead in ((tg.s, tg.t), (tg.t, tg.s)))


def graph_key(g: Graph) -> tuple:
    """Complete isomorphism invariant for plain graphs whose equal-degree vertices are twins."""
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
    try:
        obj = json.loads(text)
    except RecursionError:
        raise DomainError("graph JSON is nested too deeply to parse") from None
    return from_json_obj(obj)


def to_dot(obj) -> str:
    g, terminals = (obj.graph, (obj.s, obj.t)) if isinstance(obj, TwoTerminalGraph) else (obj, ())
    lines = ["graph G {"] + [f"  {v} [shape={'doublecircle' if v in terminals else 'circle'}];" for v in range(g.n)]
    lines += [f"  {u} -- {v};" for u, v in g.edges()] + ["}"]
    return "\n".join(lines) + "\n"
