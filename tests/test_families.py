from math import comb

import pytest

from lmrttg.classify import Sign, classify, quasi_complete_params, quasi_star_params
from lmrttg.errors import DomainError, FamilyDoesNotExist
from lmrttg.families import FamilyTag, build_family, build_h_optimal, build_lmrttg, candidate_set, family_exists
from lmrttg.graphs import Graph, TwoTerminalGraph, canonical_key, complement, graph_key, join
from lmrttg.invariants import invariant_bundle, max_m1_graphs
from oracles import iso_oracle, lmrttg_sparse_oracle


def terminals_universal(tg):
    return all(tg.graph.rows[v].bit_count() == tg.graph.n - 1 for v in (tg.s, tg.t))


def test_quasi_complete_params_examples():
    assert quasi_complete_params(5) == (3, 1)
    assert quasi_complete_params(6) == (4, 4)
    assert quasi_complete_params(0) == (1, 1)
    assert quasi_complete_params(12) == (5, 3)
    assert quasi_complete_params(7) == (4, 3)
    with pytest.raises(DomainError):
        quasi_complete_params(-1)


def test_quasi_star_params_examples():
    assert quasi_star_params(6, 6) == (4, 1)
    assert quasi_star_params(6, 8) == (4, 3)
    assert quasi_star_params(7, 9) == (5, 3)
    assert quasi_star_params(6, 7) == (4, 2)
    with pytest.raises(DomainError):
        quasi_star_params(5, 11)


def test_decomposition_consistency_exhaustive():
    for n in range(101):
        c = comb(n, 2)
        for m in range(c + 1):
            k, j = quasi_complete_params(m)
            assert 1 <= j <= k and m == comb(k + 1, 2) - j
            assert quasi_star_params(n, m) == quasi_complete_params(c - m)
    # large m on both sides of each boundary C(k,2)
    for big_k in range(10**7, 10**7 + 5000):
        for m in (comb(big_k, 2) - 1, comb(big_k, 2), comb(big_k + 1, 2) - 1):
            k, j = quasi_complete_params(m)
            assert 1 <= j <= k and m == comb(k + 1, 2) - j


def test_build_family_known_graphs():
    def clique(k):
        return [(u, v) for u in range(k) for v in range(u + 1, k)]

    c166 = build_family(6, 6, FamilyTag.C1)  # K4 u 2K1
    assert graph_key(c166) == graph_key(Graph.from_edges(6, clique(4)))

    c179 = build_family(7, 9, FamilyTag.C1)  # (K5 - e) u 2K1
    assert graph_key(c179) == graph_key(Graph.from_edges(7, clique(5)[:-1]))

    c255 = build_family(5, 5, FamilyTag.C2)  # K1 v (K2 u 2K1)
    target = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
    assert graph_key(c255) == graph_key(target)
    assert graph_key(c255) == graph_key(build_family(5, 5, FamilyTag.S1))

    s267 = build_family(6, 7, FamilyTag.S2)  # (K2 v 3K1) u K1
    target = Graph.from_edges(6, clique(2) + [(a, b) for a in (0, 1) for b in range(2, 5)])
    assert graph_key(s267) == graph_key(target)

    s279 = build_family(7, 9, FamilyTag.S2)  # (K2 v 4K1) u K1
    target = Graph.from_edges(7, clique(2) + [(a, b) for a in (0, 1) for b in range(2, 6)])
    assert graph_key(s279) == graph_key(target)


def test_family_existence():
    assert not family_exists(6, 6, FamilyTag.C3)
    assert not family_exists(6, 6, FamilyTag.S2)
    with pytest.raises(FamilyDoesNotExist):
        build_family(6, 6, FamilyTag.C3)
    with pytest.raises(DomainError):
        build_family(6, 20, FamilyTag.C1)


def test_candidate_set():
    tags = {tag for tag, _ in candidate_set(6, 7)}
    assert FamilyTag.C3 in tags and FamilyTag.S2 in tags
    by_tag = dict(candidate_set(6, 7))
    assert graph_key(by_tag[FamilyTag.C3]) == graph_key(by_tag[FamilyTag.S2])

    assert {tag for tag, _ in candidate_set(6, 6)} == {FamilyTag.C1, FamilyTag.S1}

    empties = candidate_set(5, 0)
    assert empties and all(g.m == 0 for _, g in empties)
    assert {tag for tag, _ in empties} >= {FamilyTag.C1, FamilyTag.S1}


def test_candidate_set_holds_every_first_zagreb_maximizer():
    # up to isomorphism the M1 argmax classes are exactly the family members of largest M1
    def iso(a, b):
        return sorted(row.bit_count() for row in a.rows) == sorted(row.bit_count() for row in b.rows) and iso_oracle(a, b)

    for n in range(1, 15):
        for m in range(comb(n, 2) + 1):
            best, classes = max_m1_graphs(n, m)
            members = [g for _, g in candidate_set(n, m)]
            family_best = max(invariant_bundle(g).m1 for g in members)
            top = [g for g in members if invariant_bundle(g).m1 == family_best]
            assert family_best == best, (n, m)
            assert all(any(iso(g, h) for h in top) for g in classes), (n, m)
            assert all(any(iso(g, h) for g in classes) for h in top), (n, m)


def test_family_counts_match_for_all_small_nm():
    for n in range(41):
        for m in range(comb(n, 2) + 1):
            for tag in FamilyTag:
                if family_exists(n, m, tag):
                    g = build_family(n, m, tag)
                    assert (g.n, g.m) == (n, m), (n, m, tag)


def test_complement_duality_of_families():
    import networkx as nx

    from oracles import to_networkx

    pairs = [(FamilyTag.S1, FamilyTag.C1), (FamilyTag.S2, FamilyTag.C2), (FamilyTag.S3, FamilyTag.C3)]
    for n in range(13):
        c = comb(n, 2)
        for m in range(c + 1):
            for s_tag, c_tag in pairs:
                assert family_exists(n, m, s_tag) == family_exists(n, c - m, c_tag)
                if family_exists(n, m, s_tag):
                    a = complement(build_family(n, m, s_tag))
                    b = build_family(n, c - m, c_tag)
                    if n <= 8:
                        assert graph_key(a) == graph_key(b), (n, m, s_tag)
                    else:
                        assert nx.is_isomorphic(to_networkx(a), to_networkx(b)), (n, m, s_tag)


def test_quasi_star_labels_match_the_definitions():
    # construct prints these exact labels, not just the isomorphism class
    from oracles import quasi_complete_oracle, quasi_star_oracle

    members = {"c": 0, "s": 0}
    for n in range(13):
        for m in range(comb(n, 2) + 1):
            for tag in FamilyTag:
                oracle = quasi_complete_oracle if tag.value[0] == "c" else quasi_star_oracle
                edges = oracle(n, m, tag.value)
                assert family_exists(n, m, tag) == (edges is not None), (n, m, tag)
                if edges is not None:
                    assert build_family(n, m, tag).edges() == edges, (n, m, tag)
                    members[tag.value[0]] += 1
    assert members == {"c": 414, "s": 414}


def test_h_optimal_examples():
    assert build_h_optimal(5, 5)[0] is FamilyTag.S1
    assert build_h_optimal(7, 12)[0] is FamilyTag.S2
    for n in range(5, 12):
        tag, g = build_h_optimal(n, 3)
        assert tag is FamilyTag.S1
        assert sorted((row.bit_count() for row in g.rows), reverse=True) == [3, 1, 1, 1] + [0] * (n - 4)
    tag, g = build_h_optimal(6, 5)
    assert tag is FamilyTag.S1
    assert graph_key(g) == graph_key(join(Graph.complete(1), Graph(5, [0] * 5)))


def test_h_optimal_small_n_outside_range():
    tag, g = build_h_optimal(4, 5)
    assert tag is FamilyTag.S1 and (g.n, g.m) == (4, 5)
    tag, g = build_h_optimal(2, 1)
    assert tag is FamilyTag.S1 and g == Graph.complete(2)


def test_h_optimal_is_always_m_optimal():
    for n in range(1, 31):
        for m in range(comb(n, 2) + 1):
            _, g = build_h_optimal(n, m)
            best = max(invariant_bundle(h).m1 for _, h in candidate_set(n, m))
            assert invariant_bundle(g).m1 == best, (n, m)


def test_edge_count_five_never_reaches_c_side():
    for n in range(5, 61):
        assert classify(n, 5) in (Sign.PLUS, Sign.TIE)


def test_sparse_construction_examples():
    g45 = build_lmrttg(4, 5)
    assert set(g45.graph.edges()) == {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)}
    g56 = build_lmrttg(5, 6)
    assert set(g56.graph.edges()) == {(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)}
    assert g56.graph.rows[4] == 0
    with pytest.raises(DomainError):
        build_lmrttg(4, 7)
    with pytest.raises(DomainError):
        build_lmrttg(5, 4)


def test_sparse_construction_shape():
    # construct prints these exact labels, built from creation blocks
    for n in range(4, 41):
        for m in range(5, 2 * n - 2):
            tg = build_lmrttg(n, m)
            assert (tg.graph.n, tg.graph.m) == (n, m)
            assert (tg.graph.rows[tg.s] >> tg.t) & 1
            assert tg.graph.edges() == lmrttg_sparse_oracle(n, m), (n, m)


def test_lmrttg_construction():
    assert build_lmrttg(4, 6).graph == Graph.complete(4)
    assert build_lmrttg(6, 15).graph == Graph.complete(6)

    tg = build_lmrttg(7, 20)
    assert terminals_universal(tg)
    # the core is the (5,9) optimum, a near-complete quasi-star tie case
    core_tag, core = build_h_optimal(5, 9)
    assert core_tag is FamilyTag.S1
    rows = [tg.graph.rows[v] >> 2 for v in range(2, 7)]
    assert graph_key(Graph(5, rows)) == graph_key(core)

    with pytest.raises(DomainError):
        build_lmrttg(4, 4)
    with pytest.raises(DomainError):
        build_lmrttg(3, 5)


def test_lmrttg_boundary_agrees_with_dense_form():
    # at m = 2n-3 the sparse graph already has universal terminals
    for n in (4, 5, 6, 7):
        tg = build_lmrttg(n, 2 * n - 3)
        assert terminals_universal(tg)
        dense = join(Graph.complete(2), build_h_optimal(n - 2, 0)[1])
        assert canonical_key(tg) == canonical_key(TwoTerminalGraph(dense, 0, 1))
