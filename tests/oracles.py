"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's bitset/closed-form code paths:
adjacency dictionaries, breadth-first search, and raw tuple enumeration
only, so a bug in the package cannot hide behind itself.
"""

from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import networkx as nx


def _joins(edges, s, t):
    """Whether the edge list joins s to t, by dict-BFS."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = {s}
    queue = deque([s])
    while queue:
        x = queue.popleft()
        for y in adj.get(x, ()):
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return t in seen


def nvec_oracle(tg):
    """Coefficient vector by enumerating every edge subset with dict-BFS."""
    edges = tg.graph.edges()
    m = len(edges)
    return tuple(sum(1 for sub in combinations(edges, r) if _joins(sub, tg.s, tg.t)) for r in range(1, m + 1))


def prefix_survivors_oracle(n, m):
    """Edge sets, as frozensets, of the labeled graphs on n vertices and m
    edges with terminals 0 and 1 whose ``(N_1, N_2, N_3)`` is maximal.

    Streams every m-subset of the vertex pairs, terminal edge or not, and
    counts each N_i over the i-subsets of its edges with dict-BFS; N_3 is
    only counted where ``(N_1, N_2)`` can still reach the best so far.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    best, found = None, []
    for edges in combinations(pairs, m):
        key = ()
        for i in (1, 2, 3):
            key += (sum(1 for sub in combinations(edges, i) if _joins(sub, 0, 1)),)
            if best is not None and key < best[:i]:
                break
        else:
            if best is None or key > best:
                best, found = key, [edges]
            elif key == best:
                found.append(edges)
    return {frozenset(edges) for edges in found}


def h_optima_oracle(n, m):
    """``(max M1, max h, runner-up h, winner edge lists)`` over every labeled
    graph on n vertices and m edges, with ``h = M2 - 6 k3`` taken among the
    M1 maximizers; the winners are every labeled graph attaining max h.

    Streams every m-subset of the vertex pairs with plain degree lists.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    best_m1, m1_winners = -1, []
    for edges in combinations(pairs, m):
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        m1 = sum(d * d for d in deg)
        if m1 > best_m1:
            best_m1, m1_winners = m1, [edges]
        elif m1 == best_m1:
            m1_winners.append(edges)
    scored = {}
    for edges in m1_winners:
        deg = [0] * n
        adj = {v: set() for v in range(n)}
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
            adj[u].add(v)
            adj[v].add(u)
        k3 = sum(len(adj[u] & adj[v]) for u, v in edges) // 3
        h = sum(deg[u] * deg[v] for u, v in edges) - 6 * k3
        scored.setdefault(h, []).append(list(edges))
    hs = sorted(scored, reverse=True)
    return best_m1, hs[0], hs[1] if len(hs) > 1 else None, scored[hs[0]]


def _sequences(total, length, cap):
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


def _erdos_gallai(seq):
    """Whether a non-increasing sequence with even sum is the degree sequence
    of a simple graph: ``d_1 + ... + d_k <= k(k-1) + sum_{i>k} min(d_i, k)``
    for every k (Erdős & Gallai 1960)."""
    head = 0
    for k in range(1, len(seq) + 1):
        head += seq[k - 1]
        if head > k * (k - 1) + sum(min(d, k) for d in seq[k:]):
            return False
    return True


def max_m1_oracle(n, m):
    """``(max M1, argmax sequences)`` over the graphs on n vertices and m
    edges, the sequences non-increasing and in decreasing lexicographic order.

    M1 is a function of the degree sequence and the Erdős–Gallai test is an
    iff, so the maximum over the graphical non-increasing sequences of length
    n, entries at most ``n-1`` and sum ``2m`` is the maximum over the graphs.
    """
    best, argmax = -1, []
    for seq in _sequences(2 * m, n, n - 1):
        m1 = sum(d * d for d in seq)
        if m1 < best or not _erdos_gallai(seq):
            continue
        if m1 > best:
            best, argmax = m1, []
        argmax.append(seq)
    return best, argmax


@lru_cache(maxsize=None)
def m1_race_oracle(n):
    """For every m in 0..C(n,2), the sign (``"+"``, ``"-"`` or ``"="``) of
    ``M1(first m pairs in lex order) - M1(first m pairs in colex order)``.

    The first m pairs in lex order form the quasi-star, in colex order the
    quasi-complete graph; M1 is updated pair by pair on plain degree lists.
    """
    lex = [(u, v) for u in range(n) for v in range(u + 1, n)]
    colex = [(u, v) for v in range(n) for u in range(v)]
    signs = ["="]
    deg_s, deg_c = [0] * n, [0] * n
    m1_s = m1_c = 0
    for (a, b), (x, y) in zip(lex, colex):
        m1_s += 2 * (deg_s[a] + deg_s[b]) + 2
        deg_s[a] += 1
        deg_s[b] += 1
        m1_c += 2 * (deg_c[x] + deg_c[y]) + 2
        deg_c[x] += 1
        deg_c[y] += 1
        signs.append("+" if m1_s > m1_c else "-" if m1_s < m1_c else "=")
    return tuple(signs)


def threshold_sign_oracle(n, m):
    """The sign of the quasi-star/quasi-complete M1 race at (n, m), n >= 5,
    from the published threshold case analysis.

    ``k`` is the largest clique order with ``C(k,2) <= C(n,2)/2`` and
    ``alpha = C(k,2)``; the sign of ``q`` picks the regime.  For q > 0 the
    ties are the trivial edge counts, the midpoint and possibly alpha and
    its mirror; for q = 0 the whole band ``[alpha, C(n,2) - alpha]`` ties;
    for q < 0 the ties are the midpoint and the two crossover points
    ``C(n,2)/2 -+ r``.
    """
    c = n * (n - 1) // 2
    k = 1
    while 2 * (k + 1) * k <= n * (n - 1):
        k += 1
    alpha = k * (k - 1) // 2
    q = Fraction(1 - 2 * (2 * k - 3) ** 2 + (2 * n - 5) ** 2, 4)
    r = Fraction(4 * (c - 2 * alpha) * (k - 2), -1 - 2 * (2 * k - 4) ** 2 + (2 * n - 5) ** 2)
    half = Fraction(c, 2)
    trivial = m <= 3 or m >= c - 3
    if q > 0:
        # the published side condition for alpha and its mirror misses real
        # ties (n = 8: both indices equal 80 at m = 10), so a tie at those
        # two points is read off the M1 race itself
        if trivial or m == half or (m in (alpha, c - alpha) and m1_race_oracle(n)[m] == "="):
            return "="
        return "+" if m < half else "-"
    if q == 0:
        if trivial or m == half or alpha <= m <= c - alpha:
            return "="
        return "+" if m < half else "-"
    lo, hi = half - r, half + r
    if trivial or m in (half, lo, hi):
        return "="
    if m < lo or half < m < hi:
        return "+"
    return "-"


def threshold_oracle(n, blocks):
    """Edge list of the threshold graph created run by run: ``blocks`` lists
    runs ``(lo, hi, dominating)`` of the labels ``lo..hi-1`` in creation
    order, and uv is an edge iff the later-created of u and v is dominating."""
    order = [(v, dominating) for lo, hi, dominating in blocks for v in range(lo, hi)]
    assert sorted(v for v, _ in order) == list(range(n))
    position = {v: i for i, (v, _) in enumerate(order)}
    flag = dict(order)
    return [(u, v) for u in range(n) for v in range(u + 1, n) if flag[max(u, v, key=position.get)]]


def lmrttg_sparse_oracle(n, m):
    """Sorted edge list of the locally most reliable two-terminal graph on
    (n, m) with ``5 <= m <= 2n-3``, from its definition: the terminal edge
    01, the paths 0-v-1 through the inner vertices ``2..(m-1)//2+1``, and
    for an even m the edge 23."""
    assert 5 <= m <= 2 * n - 3
    edges = [(0, 1)] + [(s, v) for v in range(2, 2 + (m - 1) // 2) for s in (0, 1)]
    if m % 2 == 0:
        edges.append((2, 3))
    return sorted(edges)


def quasi_complete_oracle(n, m, family):
    """Edge list of the quasi-complete family member ``family`` ("c1", "c2"
    or "c3") on n vertices and m edges, or None when it does not exist.

    Plain pair lists from the definitions: with ``m = C(k+1,2) - j`` and
    ``1 <= j <= k``, the padding vertices come last, and

    * c1: a clique on 0..k-1, and vertex k joined to 0..k-j-1;
    * c2: a hub 0 joined to 1..2k-j-1, which hold a clique on 1..k-1
      (needs j <= k - 2 and 2k - j <= n);
    * c3: a clique on 0..k-3 joined to k-2, k-1 and k (needs j = 3 and k < n).
    """
    k = 1
    while (k + 1) * k // 2 <= m:
        k += 1
    j = (k + 1) * k // 2 - m
    if family == "c1":
        cliques, joined = [range(k)], [(range(k - j), [k])]
    elif family == "c2" and j <= k - 2 and 2 * k - j <= n:
        cliques, joined = [range(1, k)], [([0], range(1, 2 * k - j))]
    elif family == "c3" and j == 3 and k < n:
        cliques, joined = [range(k - 2)], [(range(k - 2), range(k - 2, k + 1))]
    else:
        return None
    edges = {(a, b) for block in cliques for a in block for b in block if a < b}
    edges |= {(a, b) for left, right in joined for a in left for b in right}
    return sorted(edges)


def quasi_star_oracle(n, m, family):
    """Edge list of the quasi-star family member ``family`` ("s1", "s2" or
    "s3") on n vertices and m edges, or None when it does not exist.

    Plain pair lists from the definitions: with ``m = C(n,2) - C(k'+1,2) + j'``
    and ``1 <= j' <= k'``, the u universal vertices come first, then

    * s1: a star centre with j' leaves, then k' - j' more vertices
      (u = n - k' - 1; the empty graph at m = 0);
    * s2: a clique on k' - j' vertices joined to k' - 1 independent
      vertices, then one more vertex (u = n - 2k' + j', needs j' <= k' - 2);
    * s3: a triangle, then k' - 2 more vertices (u = n - k' - 1, needs j' = 3).
    """
    if m == 0 and family == "s1":
        return []
    kp = 1
    while (kp + 1) * kp // 2 <= n * (n - 1) // 2 - m:
        kp += 1
    jp = m - n * (n - 1) // 2 + (kp + 1) * kp // 2
    if family == "s1":
        u, cliques, joined = n - kp - 1, [], [([n - kp - 1], range(n - kp, n - kp + jp))]
    elif family == "s2" and jp <= kp - 2:
        u = n - 2 * kp + jp
        block = range(u, u + kp - jp)
        cliques, joined = [block], [(block, range(u + kp - jp, u + 2 * kp - jp - 1))]
    elif family == "s3" and jp == 3:
        u, cliques, joined = n - kp - 1, [range(n - kp - 1, n - kp + 2)], []
    else:
        return None
    if u < 0:
        return None
    edges = {(a, b) for a in range(u) for b in range(a + 1, n)}
    edges |= {(a, b) for block in cliques for a in block for b in block if a < b}
    edges |= {(a, b) for left, right in joined for a in left for b in right}
    return sorted(edges)


def _adjacency(g):
    """Neighbour sets of g, from its edge list."""
    adj = {v: set() for v in range(g.n)}
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    return adj


def zagreb_oracle(g):
    """``(M1, M2)``: squared degrees summed over the vertices, and degree
    products summed over the edges, from neighbour sets."""
    adj = _adjacency(g)
    return sum(len(adj[v]) ** 2 for v in adj), sum(len(adj[u]) * len(adj[v]) for u in adj for v in adj[u] if u < v)


def triangle_oracle(g):
    adj = _adjacency(g)
    return sum(1 for a, b, c in combinations(range(g.n), 3) if b in adj[a] and c in adj[a] and c in adj[b])


def p3_oracle(g):
    adj = _adjacency(g)
    total = 0
    for mid in range(g.n):
        others = [v for v in range(g.n) if v != mid]
        for a, b in combinations(others, 2):
            if a in adj[mid] and b in adj[mid]:
                total += 1
    return total


def p4_oracle(g):
    adj = _adjacency(g)
    total = 0
    for a, b, c, d in permutations(range(g.n), 4):
        if a < d and b in adj[a] and c in adj[b] and d in adj[c]:
            total += 1
    return total


def to_networkx(obj):
    """A graph, or a two-terminal graph read through its ``graph``, ``s`` and
    ``t`` attributes, as a networkx graph with each vertex's terminal role."""
    g = getattr(obj, "graph", None)
    terminals = () if g is None else (obj.s, obj.t)
    g = obj if g is None else g
    G = nx.Graph()
    for v in range(g.n):
        G.add_node(v, terminal=v in terminals, role=terminals.index(v) if v in terminals else None)
    G.add_edges_from(g.edges())
    return G


def iso_oracle(a, b):
    """Isomorphism respecting the terminal flag (networkx VF2)."""
    return nx.is_isomorphic(
        to_networkx(a), to_networkx(b), node_match=lambda x, y: x["terminal"] == y["terminal"]
    )


def ordered_iso_oracle(a, b):
    """Isomorphism sending the first terminal to the first and the second to
    the second (networkx VF2)."""
    return nx.is_isomorphic(to_networkx(a), to_networkx(b), node_match=lambda x, y: x["role"] == y["role"])


def canonical_form_oracle(tg):
    """Edge list of the canonical labelling of a two-terminal graph: over
    every vertex order with the terminals first, in either order, and the
    other vertices by non-increasing degree, the relabeled edge set whose
    bitmask is least, with bit i for the i-th pair in lexicographic order."""
    n, edges = tg.graph.n, tg.graph.edges()
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    deg = [sum(v in e for e in edges) for v in range(n)]
    inner = [v for v in range(n) if v not in (tg.s, tg.t)]
    best = None
    for head in ((tg.s, tg.t), (tg.t, tg.s)):
        for tail in permutations(inner):
            if any(deg[a] < deg[b] for a, b in zip(tail, tail[1:])):
                continue
            slot = {v: i for i, v in enumerate(head + tail)}
            image = [tuple(sorted((slot[u], slot[v]))) for u, v in edges]
            mask = sum(1 << pairs.index(e) for e in image)
            if best is None or mask < best[0]:
                best = mask, sorted(image)
    return best[1]


def degree_twins_oracle(g, lead=()):
    """Whether every two vertices outside ``lead`` with equal degree are
    twins: each third vertex is joined to both or to neither, pair by pair
    from the edge list."""
    adj = _adjacency(g)
    rest = [v for v in range(g.n) if v not in lead]
    return all(
        all((w in adj[u]) == (w in adj[v]) for w in range(g.n) if w not in (u, v))
        for u, v in combinations(rest, 2)
        if len(adj[u]) == len(adj[v])
    )


# Polynomials over Q[sqrt(2)] as ascending lists of (a, b) Fraction pairs,
# each pair standing for a + b*sqrt(2); the zero polynomial is [].


def _qsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _qmul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _qdiv(x, y):
    den = y[0] * y[0] - 2 * y[1] * y[1]
    return _qmul(x, (y[0] / den, -y[1] / den))


def _trimmed(p):
    p = [(Fraction(a), Fraction(b)) for a, b in p]
    while p and p[-1] == (0, 0):
        p.pop()
    return p


def poly_sub_oracle(p, d):
    """``p - d``, coefficient by coefficient after padding the shorter one."""
    zero = (Fraction(0), Fraction(0))
    size = max(len(p), len(d))
    p, d = list(p) + [zero] * (size - len(p)), list(d) + [zero] * (size - len(d))
    return _trimmed(_qsub(x, y) for x, y in zip(p, d))


def poly_mul_oracle(p, d):
    """``p * d`` by the schoolbook product."""
    out = [(Fraction(0), Fraction(0))] * max(0, len(p) + len(d) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(d):
            prod = _qmul(x, y)
            out[i + j] = (out[i + j][0] + prod[0], out[i + j][1] + prod[1])
    return _trimmed(out)


def poly_divmod_oracle(p, d):
    """Quotient and remainder of ``p`` by a nonzero ``d``: schoolbook long
    division yields the quotient q one coefficient at a time, and the
    remainder is p - q*d."""
    p, d = _trimmed(p), _trimmed(d)
    work = list(p)
    quotient = [(Fraction(0), Fraction(0))] * max(0, len(p) - len(d) + 1)
    for i in reversed(range(len(quotient))):
        quotient[i] = _qdiv(work[i + len(d) - 1], d[-1])
        for j, c in enumerate(d):
            work[i + j] = _qsub(work[i + j], _qmul(quotient[i], c))
    rem = poly_sub_oracle(p, poly_mul_oracle(quotient, d))
    assert len(rem) < len(d)
    return _trimmed(quotient), rem


def quad_sign_oracle(x):
    """Sign of ``a + b*sqrt(2)`` by cases on the signs of a and b: equal
    signs decide at once.  Otherwise the number is positive exactly when
    a^2 > 2 b^2 for a > 0 > b, and exactly when a^2 < 2 b^2 for a < 0 < b;
    the two squares never tie, as sqrt(2) is irrational."""
    a, b = x
    if a >= 0 and b >= 0:
        return int(a > 0 or b > 0)
    if a <= 0 and b <= 0:
        return -int(a < 0 or b < 0)
    return 1 if (a * a > 2 * b * b) == (a > 0) else -1


def poly_eval_oracle(p, x):
    """``p(x)`` at a rational x, summing ``c_i * x^i`` term by term."""
    x = Fraction(x)
    return (sum(a * x**i for i, (a, _) in enumerate(p)), sum(b * x**i for i, (_, b) in enumerate(p)))


def shift_variations_oracle(p, x):
    """Sign variations, zeros skipped, of the coefficients of ``p(y + x)``
    in y, expanded as the sum of ``c_i * (y + x)^i`` with each power built
    by repeated schoolbook products."""
    power, shifted = [(Fraction(1), Fraction(0))], []
    for a, b in p:
        shifted = poly_sub_oracle(shifted, poly_mul_oracle([(-a, -b)], power))
        power = poly_mul_oracle(power, [(Fraction(x), Fraction(0)), (Fraction(1), Fraction(0))])
    signs = [s for s in map(quad_sign_oracle, shifted) if s]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _derivative(p):
    return _trimmed((i * a, i * b) for i, (a, b) in enumerate(p) if i)


def root_count_oracle(p, lo, hi):
    """Distinct real roots of a nonzero p in (lo, hi], by Sturm's theorem on
    the squarefree part ``s = p / gcd(p, p')``.  s has p's roots, each
    simple, so no two neighbours in s's chain (s, s', then negated
    remainders) share a zero, and the chain ends in a nonzero constant.  So
    the variation count V(x), zeros skipped, drops by one as x passes a root
    of s, is right-continuous there and is constant elsewhere, and V(lo) -
    V(hi) counts the roots in (lo, hi]."""
    p = _trimmed(p)
    g, d = p, _derivative(p)
    while d:
        g, d = d, poly_divmod_oracle(g, d)[1]
    chain = [poly_divmod_oracle(p, g)[0]]
    chain.append(_derivative(chain[0]))
    while chain[-1]:
        chain.append([(-a, -b) for a, b in poly_divmod_oracle(chain[-2], chain[-1])[1]])

    def variations(x):
        signs = [s for s in (quad_sign_oracle(poly_eval_oracle(q, x)) for q in chain[:-1]) if s]
        return sum(1 for s, t in zip(signs, signs[1:]) if s != t)

    return variations(lo) - variations(hi)


def relabel(g, perm):
    """Image of g under the vertex bijection ``perm`` (old index -> new index)."""
    from lmrttg.graphs import Graph

    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def random_graph(rnd, n_lo=2, n_hi=8):
    from lmrttg.graphs import Graph, vertex_pairs

    n = rnd.randint(n_lo, n_hi)
    pairs = vertex_pairs(n)
    edges = rnd.sample(pairs, rnd.randint(0, len(pairs)))
    return Graph.from_edges(n, edges)
