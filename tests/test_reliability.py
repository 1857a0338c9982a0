import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmrttg import reliability
from lmrttg.errors import DomainError, SizeLimitError
from lmrttg.families import build_lmrttg, lmrttg_ms
from lmrttg.graphs import Graph, TwoTerminalGraph, canonical_key, vertex_pairs
from lmrttg.reliability import NVEC_MAX_VERTICES, _prefix_scan, find_lmrttg, n_vector, optimum_search, reliability_at
from oracles import nvec_oracle, ordered_iso_oracle, prefix_survivors_oracle


def _labeled_graphs(n, m):
    """Every graph on n vertices and m edges, terminals 0 and 1."""
    for edges in combinations(vertex_pairs(n), m):
        yield TwoTerminalGraph(Graph.from_edges(n, edges), 0, 1)


def _random_two_terminal(rnd, n_lo=2, n_hi=5, m_hi=8):
    n = rnd.randint(n_lo, n_hi)
    pairs = vertex_pairs(n)
    m = rnd.randint(0, min(len(pairs), m_hi))
    g = Graph.from_edges(n, rnd.sample(pairs, m))
    s, t = rnd.sample(range(n), 2)
    return TwoTerminalGraph(g, s, t)


def test_n_vector_two_path_graph():
    tg = build_lmrttg(4, 5)
    expected = (1, 6, 10, 5, 1)
    assert nvec_oracle(tg) == expected
    assert n_vector(tg) == expected


def test_n_vector_complete_graph():
    tg = TwoTerminalGraph(Graph.complete(4), 0, 1)
    expected = (1, 7, 18, 15, 6, 1)
    assert nvec_oracle(tg) == expected
    assert n_vector(tg) == expected
    k6 = TwoTerminalGraph(Graph.complete(6), 0, 1)
    assert n_vector(k6) == nvec_oracle(k6)


def test_n_vector_disconnected_terminals():
    g = Graph.from_edges(4, [(0, 2), (1, 3)])
    tg = TwoTerminalGraph(g, 0, 1)
    assert n_vector(tg) == (0, 0)


@st.composite
def _two_terminal_graphs(draw):
    """A graph on 2..7 vertices with at most 12 edges and any terminal pair."""
    n = draw(st.integers(2, 7))
    edges = draw(st.lists(st.sampled_from(vertex_pairs(n)), unique=True, max_size=12))
    s, t = draw(st.permutations(range(n)))[:2]
    return TwoTerminalGraph(Graph.from_edges(n, edges), s, t)


@settings(max_examples=200)
@given(_two_terminal_graphs())
def test_n_vector_matches_oracle_randomized(tg):
    # any terminal pair; m = 0 and disconnected terminals stay in the draw
    assert n_vector(tg) == nvec_oracle(tg)


def test_n_vector_size_bound():
    # the cap counts vertices, whatever the edge count
    at_cap = TwoTerminalGraph(Graph.from_edges(NVEC_MAX_VERTICES, [(0, 1)]), 0, 1)
    assert n_vector(at_cap) == (1,)
    above = TwoTerminalGraph(Graph.from_edges(NVEC_MAX_VERTICES + 1, [(0, 1)]), 0, 1)
    with pytest.raises(SizeLimitError, match=f"n <= {NVEC_MAX_VERTICES}"):
        n_vector(above)
    with pytest.raises(SizeLimitError):
        reliability_at(above, Fraction(1, 2))


def test_n_vector_extension_inequality():
    # every connecting i-set extends by any of the m-i leftover edges, and
    # each (i+1)-set arises at most i+1 times
    for n, m in ((4, 5), (4, 6), (5, 6)):
        for tg in _labeled_graphs(n, m):
            vec = n_vector(tg)
            for i in range(m - 1):
                assert (i + 2) * vec[i + 1] >= (m - i - 1) * vec[i]
            assert vec[-1] in (0, 1)


def test_reliability_at_examples():
    tg = build_lmrttg(4, 5)
    assert reliability_at(tg, Fraction(1, 2)) == Fraction(23, 32)
    assert reliability_at(tg, 1) == 1
    edge = TwoTerminalGraph(Graph.from_edges(2, [(0, 1)]), 0, 1)
    p = Fraction(3, 7)
    assert reliability_at(edge, p) == p
    disconnected = TwoTerminalGraph(Graph.from_edges(3, [(0, 2)]), 0, 1)
    assert reliability_at(disconnected, 1) == 0
    with pytest.raises(DomainError):
        reliability_at(tg, Fraction(3, 2))


def test_reliability_monotone_on_grid():
    rnd = random.Random(22)
    grid = [Fraction(i, 10) for i in range(11)]
    for _ in range(100):
        tg = _random_two_terminal(rnd)
        values = [reliability_at(tg, p) for p in grid]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(0 <= v <= 1 for v in values)


def test_lex_max_is_unique_at_4_5():
    # of the six labeled graphs, only K4 minus the inner edge 23 has the max vector
    vecs = {tg: n_vector(tg) for tg in _labeled_graphs(4, 5)}
    best = max(vecs.values())
    winners = [tg for tg, v in vecs.items() if v == best]
    assert len(winners) == 1
    assert canonical_key(winners[0]) == canonical_key(build_lmrttg(4, 5))


def test_filtration_level_three_gives_universal_terminals():
    # the level-three filtration keeps the max (N_1, N_2, N_3) prefix, which
    # is what _prefix_scan counts; from m = 2n-3 on its survivors are
    # exactly the graphs with both terminals universal: all 2n-3 terminal
    # edges plus any m-2n+3 of the C(n-2, 2) inner pairs
    for n in range(4, 9):
        terminal_edges = {(0, 1)} | {(t, v) for t in (0, 1) for v in range(2, n)}
        for m in range(2 * n - 3, comb(n, 2) + 1):
            _, survivors, scored = _prefix_scan(n, m)
            assert survivors == comb(comb(n - 2, 2), m - 2 * n + 3), (n, m)
            assert scored, (n, m)
            for g in scored:
                assert terminal_edges <= set(g.edges()) and len(g.edges()) == m, (n, m)


def test_n4_under_universal_terminals_moves_with_m1_alone():
    # N_4 = c(n, k) + M1(H) - 2k for the inner graph H of k edges, so the
    # dense search may score the M1 maximisers of H alone
    rnd = random.Random(4)
    for n in range(4, 7):
        inner = list(combinations(range(2, n), 2))
        terminal_edges = [(0, 1)] + [(t, v) for t in (0, 1) for v in range(2, n)]
        for k in range(len(inner) + 1):
            offsets = set()
            for _ in range(4):
                h = rnd.sample(inner, k)
                deg = [sum(v in e for e in h) for v in range(n)]
                tg = TwoTerminalGraph(Graph.from_edges(n, terminal_edges + h), 0, 1)
                offsets.add(nvec_oracle(tg)[3] - sum(d * d for d in deg))
            assert len(offsets) == 1, (n, k, offsets)


def test_find_lmrttg_small_cases():
    winners = find_lmrttg(4, 5)
    assert len(winners) == 1
    assert canonical_key(winners[0]) == canonical_key(build_lmrttg(4, 5))

    winners = find_lmrttg(5, 7)
    assert len(winners) == 1
    assert canonical_key(winners[0]) == canonical_key(build_lmrttg(5, 7))

    winners = find_lmrttg(6, 15)
    assert len(winners) == 1
    assert winners[0].graph == Graph.complete(6)

    with pytest.raises(SizeLimitError, match=r"coefficient vectors limited to n <= 14 \(got 15\)"):
        find_lmrttg(15, 6)
    # max_n lowers the cap and never raises it
    with pytest.raises(SizeLimitError, match=r"search limited to n <= 8 \(got 9\)"):
        find_lmrttg(9, 6, max_n=8)
    with pytest.raises(SizeLimitError, match=r"n <= 14 \(got 15\)"):
        find_lmrttg(15, 6, max_n=16)
    with pytest.raises(DomainError):
        find_lmrttg(5, 0)


def _inner_orbit(n, edges):
    """The least sorted edge list over the relabellings of the inner
    vertices 2..n-1, terminals fixed."""
    return min(
        tuple(sorted(tuple(sorted(((0, 1) + perm)[u] for u in e)) for e in edges))
        for perm in permutations(range(2, n))
    )


def test_prefix_scan_survivors_match_oracle():
    # every labeled graph, terminal edge or not, against the cell scan: the
    # survivor count, the scored graphs, and every lex-max survivor up to a
    # relabelling of the inner vertices
    for n in range(2, 7):
        for m in range(1, comb(n, 2) + 1):
            oracle = prefix_survivors_oracle(n, m)
            _, survivors, scored = _prefix_scan(n, m)
            scored = [g.edges() for g in scored]
            assert survivors == len(oracle), (n, m)
            assert len({frozenset(edges) for edges in scored}) == len(scored), (n, m)
            assert {frozenset(edges) for edges in scored} <= oracle, (n, m)
            vecs = {edges: nvec_oracle(TwoTerminalGraph(Graph.from_edges(n, edges), 0, 1)) for edges in oracle}
            best = max(vecs.values())
            orbits = {_inner_orbit(n, edges) for edges in scored}
            for edges, vec in vecs.items():
                if vec == best:
                    assert _inner_orbit(n, edges) in orbits, (n, m, sorted(edges))


def test_prefix_scan_covers_every_labeled_candidate():
    # the cells' C(P, k) counts, summed over every type (x, a, b), add up to
    # every (m-1)-subset of the non-terminal pairs
    for n in range(2, 9):
        r, inner_pairs = n - 2, comb(n - 2, 2)
        for m in range(1, comb(n, 2) + 1):
            cells = sum(
                comb(r, x) * comb(r - x, a) * comb(r - x - a, b) * comb(inner_pairs, m - 1 - 2 * x - a - b)
                for x in range(r + 1)
                for a in range(r - x + 1)
                for b in range(r - x - a + 1)
                if 2 * x + a + b <= m - 1
            )
            assert cells == comb(comb(n, 2) - 1, m - 1) == _prefix_scan(n, m)[0], (n, m)


def test_sparse_prefix_scan_is_the_construction():
    # on 5 <= m <= 2n-3 the best cells put (m-1)//2 inner vertices in both
    # terminals' neighbourhoods and any leftover edge inside them, every
    # maximiser is the construction with its terminals in order, and the
    # scan returns the construction itself, label for label
    pairs = [(n, m) for n in range(4, 61) for m in range(5, 2 * n - 2)]
    assert len(pairs) == 3249
    for n, m in pairs:
        x = (m - 1) // 2
        _, survivors, scored = _prefix_scan(n, m)
        assert survivors == comb(n - 2, x) * comb(x, 2) ** ((m - 1) % 2), (n, m)
        assert scored == [build_lmrttg(n, m).graph], (n, m)


def test_prefix_scan_scores_one_graph_per_ordered_class():
    # no two scored graphs are isomorphic by a map that keeps terminal 0 at 0
    # and terminal 1 at 1, so no class is scored twice
    for n in range(2, 10):
        for m in range(1, comb(n, 2) + 1):
            scored = [TwoTerminalGraph(g, 0, 1) for g in _prefix_scan(n, m)[2]]
            for i, a in enumerate(scored):
                for b in scored[i + 1 :]:
                    assert not ordered_iso_oracle(a, b), (n, m, a.graph.edges(), b.graph.edges())


@st.composite
def _candidates(draw):
    """``(n, m, edges)``: m edges on n = 7..9 vertices.  Half of the draws
    relabel the inner vertices of a scored graph and may then move one
    edge, so that candidates tie with the optimum or come close to it."""
    n = draw(st.integers(7, 9))
    pairs = vertex_pairs(n)
    m = draw(st.integers(1, len(pairs)))
    if draw(st.booleans()):
        return n, m, draw(st.lists(st.sampled_from(pairs), min_size=m, max_size=m, unique=True))
    perm = (0, 1, *draw(st.permutations(range(2, n))))
    g = draw(st.sampled_from(_prefix_scan(n, m)[2]))
    edges = {tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()}
    if m < len(pairs) and draw(st.booleans()):
        edges.remove(draw(st.sampled_from(sorted(edges))))
        edges.add(draw(st.sampled_from([pair for pair in pairs if pair not in edges])))
    return n, m, sorted(edges)


@settings(max_examples=60, deadline=None)
@given(_candidates())
def test_no_labelled_candidate_beats_the_scored_graphs(case):
    # past the exhaustive oracle's n <= 6: no candidate with terminals 0 and
    # 1 has a larger vector than the best scored graph, and one that ties is
    # isomorphic to a scored graph by a map keeping 0 at 0 and 1 at 1
    n, m, edges = case
    candidate = TwoTerminalGraph(Graph.from_edges(n, edges), 0, 1)
    scored = [TwoTerminalGraph(g, 0, 1) for g in _prefix_scan(n, m)[2]]
    vecs = [n_vector(tg) for tg in scored]
    vec = n_vector(candidate)
    assert vec <= max(vecs), (n, m, edges)
    if vec == max(vecs):
        assert any(v == vec and ordered_iso_oracle(candidate, tg) for v, tg in zip(vecs, scored)), (n, m, edges)


def test_keys_accept_every_graph_the_search_scores():
    # every scored graph and every construction that `verify brute` keys is
    # inside the key's precondition under both terminal orders, so no
    # supported pair can stop on the key's InvariantError
    for n in range(2, NVEC_MAX_VERTICES + 1):
        graphs = [TwoTerminalGraph(g, 0, 1) for m in range(1, comb(n, 2) + 1) for g in _prefix_scan(n, m)[2]]
        for tg in graphs + [build_lmrttg(n, m) for m in lmrttg_ms(n)]:
            canonical_key(tg)


def test_search_scores_vectors_only_to_break_a_tie(monkeypatch):
    # a lone graph in the scored list is the optimum without a vector; two
    # or more graphs get one vector each
    calls = []
    nvec = reliability._nvec
    monkeypatch.setattr(reliability, "_nvec", lambda g, s, t: calls.append(g) or nvec(g, s, t))
    tied = []
    for n in range(4, 11):
        for m in lmrttg_ms(n):
            scored = _prefix_scan(n, m)[2]
            calls.clear()
            optimum_search(n, m)
            assert len(calls) == (len(scored) if len(scored) > 1 else 0), (n, m)
            if len(scored) > 1:
                tied.append((n, m))
    assert len(tied) == 21 and tied[:3] == [(6, 12), (7, 14), (7, 16)]
