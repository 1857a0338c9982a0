import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmrttg import invariants
from lmrttg.classify import quasi_complete_params, quasi_star_m1, quasi_star_params
from lmrttg.errors import DomainError, FamilyDoesNotExist
from lmrttg.families import FamilyTag, build_family, family_exists
from lmrttg.graphs import Graph, complement, graph_key
from lmrttg.invariants import (
    cell_extremes,
    complement_residuals,
    family_h,
    family_h_values,
    h_sum_offset,
    invariant_bundle,
    max_m1_graphs,
    quasi_complete_h,
)
from lmrttg.scans import _p4_by_walk
from oracles import max_m1_oracle, p3_oracle, p4_oracle, random_graph, triangle_oracle, zagreb_oracle


def test_zagreb1_examples():
    k4_and_2k1 = Graph.from_edges(6, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert invariant_bundle(k4_and_2k1).m1 == 36
    star5 = build_family(6, 5, FamilyTag.S1)  # the 5-leaf star
    assert invariant_bundle(star5).m1 == 30
    assert invariant_bundle(Graph(7, [0] * 7)).m1 == 0


def test_zagreb2_examples():
    assert invariant_bundle(build_family(6, 6, FamilyTag.S1)).m2 == 39
    assert invariant_bundle(build_family(6, 8, FamilyTag.C1)).m2 == 89
    assert invariant_bundle(build_family(9, 3, FamilyTag.S1)).m2 == 9


def test_subgraph_count_examples():
    k4 = Graph.complete(4)
    b = invariant_bundle(k4)
    assert (b.k3, b.p3, b.p4) == (4, 12, 12)
    assert invariant_bundle(build_family(6, 8, FamilyTag.C1)).k3 == 5
    assert invariant_bundle(build_family(6, 8, FamilyTag.S1)).k3 == 3
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    b = invariant_bundle(p4)
    assert (b.k3, b.p3, b.p4) == (0, 2, 1)


def test_counts_against_enumeration_oracle():
    rnd = random.Random(10)
    for _ in range(150):
        g = random_graph(rnd, 1, 7)
        b = invariant_bundle(g)
        assert b.k3 == triangle_oracle(g)
        assert b.p3 == p3_oracle(g)
        assert b.p4 == _p4_by_walk(g) == p4_oracle(g)


def test_h_invariant_examples():
    assert invariant_bundle(build_family(6, 6, FamilyTag.S1)).h_value == 33
    assert invariant_bundle(build_family(6, 6, FamilyTag.C1)).h_value == 30
    assert invariant_bundle(build_family(7, 9, FamilyTag.S2)).h_value == 81
    assert invariant_bundle(build_family(7, 9, FamilyTag.C1)).h_value == 78
    assert invariant_bundle(build_family(10, 3, FamilyTag.C1)).h_value == 6


def test_quasi_complete_h_closed_form():
    assert quasi_complete_h(4, 4) == 30
    # K4 minus an edge: direct M2 - 6 k3 = 33 - 12 = 21
    k4_minus = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    b = invariant_bundle(k4_minus)
    assert b.m2 - 6 * b.k3 == 21
    assert quasi_complete_h(3, 1) == 21
    assert quasi_complete_h(1, 1) == 0
    with pytest.raises(DomainError):
        quasi_complete_h(3, 4)


def test_quasi_star_m1_closed_form():
    assert quasi_star_m1(6, 4, 1) == 36
    assert quasi_star_m1(6, 5, 5) == 30
    with pytest.raises(DomainError):
        quasi_star_m1(6, 7, 1)


def test_closed_forms_match_direct_computation():
    for n in range(1, 31):
        for m in range(comb(n, 2) + 1):
            c1, s1 = invariant_bundle(build_family(n, m, FamilyTag.C1)), invariant_bundle(build_family(n, m, FamilyTag.S1))
            assert quasi_complete_h(*quasi_complete_params(m)) == c1.h_value
            assert quasi_star_m1(n, *quasi_star_params(n, m)) == s1.m1


def test_h_sum_offset_example():
    assert h_sum_offset(6, 6) == 57
    # h(S1 at (6,6)) + h(C1 at (6,9)) = 1.5 * 36 + 57 = 111
    s1, c1 = build_family(6, 6, FamilyTag.S1), build_family(6, 9, FamilyTag.C1)
    lhs = invariant_bundle(s1).h_value + invariant_bundle(c1).h_value
    assert lhs == 111
    assert invariant_bundle(Graph(6, [0] * 6)).h_value == 0


def test_triangle_path_expansion_of_h():
    # h = -3 k3 + p4 + 2 p3 + m, with the path counts from the enumeration oracle
    rnd = random.Random(11)
    for _ in range(150):
        g = random_graph(rnd, 1, 7)
        assert invariant_bundle(g).h_value == -3 * triangle_oracle(g) + p4_oracle(g) + 2 * p3_oracle(g) + g.m


def test_zagreb1_equals_2p3_plus_2m():
    rnd = random.Random(12)
    for _ in range(200):
        g = random_graph(rnd, 0, 8)
        b = invariant_bundle(g)
        assert b.m1 == 2 * b.p3 + 2 * g.m


def test_complement_sum_identity_randomized():
    rnd = random.Random(13)
    for _ in range(300):
        g = random_graph(rnd, 5, 9)
        b = invariant_bundle(g)
        lhs = 2 * (b.h_value + invariant_bundle(complement(g)).h_value)
        rhs = (2 * g.n - 9) * b.m1 + 2 * h_sum_offset(g.n, g.m)
        assert lhs % 2 == 0 and lhs == rhs


def test_family_h_matches_direct_everywhere():
    # one family_h_values call per pair gives every existing family, in
    # FamilyTag order, with its built graph's h, and family_h reads one tag
    for n in range(21):
        for m in range(comb(n, 2) + 1):
            tags = [tag for tag in FamilyTag if family_exists(n, m, tag)]
            direct = {tag: invariant_bundle(build_family(n, m, tag)).h_value for tag in tags}
            got = family_h_values(n, m)
            assert list(got) == list(direct) and got == direct, (n, m)
            assert all(family_h(n, m, tag) == h for tag, h in direct.items()), (n, m)


def test_family_h_values_domain():
    with pytest.raises(DomainError):
        family_h_values(6, 16)
    with pytest.raises(DomainError):
        family_h_values(6, -1)


def test_cell_extremes_find_the_least_of_every_quadratic_gap(monkeypatch):
    # the gap rule needs only a gap quadratic in the offset, so a stand-in
    # family_h_at whose gap at offset i (its j') is f(i) must give min f on
    # every cell, for the concave and linear f that no band cell has too
    for b in range(-7, 8):
        for c in range(-2, 3):
            monkeypatch.setattr(
                invariants, "family_h_at", lambda n, k, j, kp, jp, b=b, c=c: {FamilyTag.C1: b * jp + c * jp * jp, FamilyTag.S1: 0}
            )
            for last in range(9):
                least = min(b * i + c * i * i for i in range(last + 1))
                assert cell_extremes(8, 9, 9, 9, 0, last) == (least, 0), (b, c, last)


@st.composite
def _graphs_up_to_14(draw):
    """A graph on at most 14 vertices: empty, complete or with a random edge set."""
    n = draw(st.integers(0, 14), label="n")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    size = len(pairs)
    keep = draw(st.one_of(st.just([False] * size), st.just([True] * size), st.lists(st.booleans(), min_size=size, max_size=size)))
    return Graph.from_edges(n, [pair for pair, kept in zip(pairs, keep) if kept])


@settings(max_examples=100)
@given(_graphs_up_to_14())
def test_invariant_bundle_matches_oracles(g):
    b = invariant_bundle(g)
    assert (b.m1, b.m2) == zagreb_oracle(g)
    assert (b.k3, b.p3, b.p4, b.m) == (triangle_oracle(g), p3_oracle(g), p4_oracle(g), len(g.edges()))
    assert b.h_value == b.m2 - 6 * b.k3


def test_family_h_offsets():
    assert family_h(6, 7, FamilyTag.C3) == family_h(6, 7, FamilyTag.C1) + 3
    for n in (7, 9, 12):
        for m in range(comb(n, 2) + 1):
            if family_exists(n, m, FamilyTag.S3):
                assert family_h(n, m, FamilyTag.S3) == family_h(n, m, FamilyTag.S1) - 3
    # at m = 5 the C2 variant lands exactly one above the quasi-complete
    for n in (5, 6, 10, 20):
        assert family_h(n, 5, FamilyTag.C2) == family_h(n, 5, FamilyTag.C1) + 1
    with pytest.raises(FamilyDoesNotExist):
        family_h(6, 6, FamilyTag.C3)


def _residuals(g):
    return complement_residuals(g.n, invariant_bundle(g), invariant_bundle(complement(g)))


def test_ramsey_residuals_zero():
    rnd = random.Random(14)
    for _ in range(200):
        assert _residuals(random_graph(rnd, 1, 10)) == (0, 0, 0)
    assert _residuals(Graph.complete(5)) == (0, 0, 0)


def test_ramsey_residuals_petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    pet = Graph.from_edges(10, outer + spokes + inner)
    # oracle counts on the graph itself (complement counts are implied by the identities)
    assert triangle_oracle(pet) == invariant_bundle(pet).k3 == 0
    assert p3_oracle(pet) == invariant_bundle(pet).p3 == 30
    assert p4_oracle(pet) == invariant_bundle(pet).p4 == _p4_by_walk(pet) == 60
    assert _residuals(pet) == (0, 0, 0)


def test_invariant_bundle():
    b = invariant_bundle(Graph.complete(4))
    assert (b.m1, b.m2, b.k3, b.p3, b.p4, b.h_value, b.m) == (36, 54, 4, 12, 12, 30, 6)
    assert b.m1 == 2 * b.p3 + 2 * b.m
    assert b.h_value == -3 * b.k3 + b.p4 + 2 * b.p3 + b.m


def test_max_m1_graphs_match_labeled_graphs():
    for n in range(1, 7):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for m in range(comb(n, 2) + 1):
            labeled = [Graph.from_edges(n, edges) for edges in combinations(pairs, m)]
            best = max(invariant_bundle(g).m1 for g in labeled)
            argmax = {frozenset(g.edges()) for g in labeled if invariant_bundle(g).m1 == best}
            got_best, got = max_m1_graphs(n, m)
            assert got_best == best, (n, m)
            # labeled maximizers, one per class, covering every class
            assert {frozenset(g.edges()) for g in got} <= argmax, (n, m)
            keys = [graph_key(g) for g in got]
            assert len(keys) == len(set(keys)), (n, m)
            assert set(keys) == {graph_key(Graph.from_edges(n, e)) for e in argmax}, (n, m)
    # no vertices: the empty graph, which the search joins under two terminals at n = 2
    assert max_m1_graphs(0, 0) == (0, [Graph(0, [])])
    with pytest.raises(DomainError):
        max_m1_graphs(5, 11)
    with pytest.raises(DomainError):
        max_m1_graphs(-1, 0)


def test_max_m1_graphs_match_erdos_gallai_oracle():
    for n in range(1, 12):
        for m in range(comb(n, 2) + 1):
            best, argmax = max_m1_oracle(n, m)
            got_best, got = max_m1_graphs(n, m)
            seqs = sorted((tuple(sorted((row.bit_count() for row in g.rows), reverse=True)) for g in got), reverse=True)
            assert (got_best, seqs) == (best, argmax), (n, m)
