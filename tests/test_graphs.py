import json
import os
import random
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmrttg import graphs
from lmrttg.errors import DomainError, InvariantError
from lmrttg.families import FamilyTag, build_family, build_lmrttg, lmrttg_ms
from lmrttg.graphs import (
    GRAPH_JSON_MAX_N,
    Graph,
    TwoTerminalGraph,
    canonical_key,
    canonical_key_ordered,
    complement,
    form_of_key,
    from_json,
    graph_key,
    join,
    threshold_graph,
    to_dot,
    to_json_obj,
    vertex_pairs,
)
from oracles import (
    canonical_form_oracle,
    degree_twins_oracle,
    iso_oracle,
    ordered_iso_oracle,
    random_graph,
    relabel,
    threshold_oracle,
)


def test_complement_of_empty_is_complete():
    assert complement(Graph(3, [0] * 3)) == Graph.complete(3)


def test_complement_involution_randomized():
    rnd = random.Random(1)
    for _ in range(200):
        g = random_graph(rnd, 0, 8)
        assert complement(complement(g)) == g


def test_complement_family_duality_example():
    # complement of K4 u 2K1 (the quasi-complete at (6,6)) is the quasi-star at (6,9)
    c16 = build_family(6, 6, FamilyTag.C1)
    s19 = build_family(6, 9, FamilyTag.S1)
    assert graph_key(complement(c16)) == graph_key(s19)


def test_join_basics():
    assert join(Graph.complete(1), Graph.complete(1)) == Graph.complete(2)
    g = join(Graph.complete(2), Graph(3, [0] * 3))
    assert (g.n, g.m) == (5, 7)
    assert sorted((row.bit_count() for row in g.rows), reverse=True) == [4, 4, 2, 2, 2]
    assert join(g, Graph(0, [])) == g


def test_join_edge_count_randomized():
    rnd = random.Random(2)
    for _ in range(100):
        g = random_graph(rnd, 0, 6)
        h = random_graph(rnd, 0, 6)
        assert join(g, h).m == g.m + h.m + g.n * h.n


@st.composite
def _block_partitions(draw):
    """``(n, blocks)``: 0..n-1 cut into label runs, empty ones allowed, in a drawn creation order with drawn flags."""
    n = draw(st.integers(0, 12))
    cuts = [0, *sorted(draw(st.lists(st.integers(0, n), max_size=6))), n]
    return n, draw(st.permutations([(lo, hi, draw(st.booleans())) for lo, hi in zip(cuts, cuts[1:])]))


@given(_block_partitions())
def test_threshold_graph_matches_the_oracle(case):
    n, blocks = case
    assert threshold_graph(n, blocks).edges() == threshold_oracle(n, blocks)


@given(_block_partitions(), _block_partitions(), st.data())
def test_every_builder_counts_its_edges(a, b, data):
    # m is a plain slot, set when the graph is built; the builders skip
    # Graph's row checks, which must accept their rows and count the same m
    g, h = threshold_graph(*a), threshold_graph(*b)
    pairs = vertex_pairs(g.n)
    picked = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    edges = [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(picked)]
    built = [g, h, Graph.from_edges(g.n, edges), complement(g), join(g, h), Graph(g.n, [0] * g.n), Graph.complete(g.n)]
    assert [x.m for x in built] == [len(x.edges()) for x in built]
    checked = [Graph(x.n, x.rows) for x in built]
    assert [(x, x.m, type(x.rows)) for x in built] == [(y, y.m, tuple) for y in checked]
    assert Graph.__slots__ == ("n", "rows", "m")


def test_threshold_graph_needs_a_partition():
    assert threshold_graph(3, [(0, 3, True)]) == Graph.complete(3)
    assert threshold_graph(3, [(2, 2, True), (0, 3, False)]) == Graph(3, [0] * 3)
    for blocks in ([(0, 2, True)], [(0, 2, True), (1, 3, False)], [(0, 4, True)], [(2, 0, True), (0, 3, False)]):
        with pytest.raises(DomainError, match="partition"):
            threshold_graph(3, blocks)


def test_degree_sum_is_twice_edges_randomized():
    rnd = random.Random(3)
    for _ in range(200):
        g = random_graph(rnd, 0, 8)
        degs = [row.bit_count() for row in g.rows]
        assert sum(degs) == 2 * g.m
        assert all(d <= max(g.n - 1, 0) for d in degs)
        assert all((g.rows[u] >> v) & 1 == (g.rows[v] >> u) & 1 for u in range(g.n) for v in range(g.n))


@given(st.integers(0, 20).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n * (n - 1) // 2)) - 1))))
def test_edges_equal_the_pairwise_enumeration(case):
    n, mask = case
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph.from_edges(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])
    assert g.edges() == [(u, v) for u, v in pairs if g.rows[u] >> v & 1]
    assert Graph.complete(n).edges() == pairs and Graph(n, [0] * n).edges() == []


def test_construction_validation():
    with pytest.raises(DomainError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(DomainError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(DomainError):
        Graph.from_edges(3, [(0, 1), (1, 0)])
    # a row bit at n or above, negative rows included, is outside the vertex range
    for row in (1 << 3, 1 << 200, -1, -(1 << 3)):
        with pytest.raises(DomainError, match="outside the vertex range"):
            Graph(3, (0, row, 0))
    assert Graph(3, (0, 1 << 2, 1 << 1)).m == 1
    # rows must be symmetric: a bit with no reverse, above or below the diagonal
    for rows in ((0b010, 0, 0), (0b110, 0b001, 0), (0, 0b001, 0)):
        with pytest.raises(DomainError, match="symmetric"):
            Graph(3, rows)
    with pytest.raises(DomainError):
        TwoTerminalGraph(Graph(3, [0] * 3), 1, 1)
    with pytest.raises(DomainError):
        TwoTerminalGraph(Graph(3, [0] * 3), 0, 3)


def test_canonical_key_terminal_swap():
    g = Graph.from_edges(4, [(0, 2), (2, 1), (1, 3)])
    assert canonical_key(TwoTerminalGraph(g, 0, 1)) == canonical_key(TwoTerminalGraph(g, 1, 0))


def test_canonical_key_inner_transposition():
    # swapping two inner vertices keeps the key of a graph inside the
    # precondition; inner vertices 2 and 3 of the path 1-2-0-3-4 have degree 2
    # and are not twins, so that graph has no key
    tg = build_lmrttg(5, 6)
    swapped = TwoTerminalGraph(relabel(tg.graph, [0, 1, 2, 4, 3]), 0, 1)
    assert canonical_key(swapped) == canonical_key(tg)
    g = Graph.from_edges(5, [(0, 2), (2, 1), (0, 3), (3, 4)])
    for key in (canonical_key, canonical_key_ordered):
        with pytest.raises(InvariantError, match="the 2 vertices of degree 2 are not one twin class"):
            key(TwoTerminalGraph(g, 0, 1))


def test_canonical_key_distinguishes_terminal_placement_on_path():
    # path 0-1-2: terminals at the two ends vs an end and the middle.
    # Oracle: check all 3! = 6 relabelings by hand via the VF2 matcher.
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    ends = TwoTerminalGraph(p3, 0, 2)
    end_mid = TwoTerminalGraph(p3, 0, 1)
    assert not iso_oracle(ends, end_mid)
    assert canonical_key(ends) != canonical_key(end_mid)


def test_graph_key_matches_isomorphism():
    # every labelled graph on 4 vertices: a key raises exactly when the oracle
    # finds two vertices of equal degree that are not twins, and the others
    # get equal keys iff they are isomorphic
    import networkx as nx

    from oracles import to_networkx

    pairs = vertex_pairs(4)
    accepted = []
    for mask in range(1 << len(pairs)):
        g = Graph.from_edges(4, [pair for i, pair in enumerate(pairs) if mask >> i & 1])
        if degree_twins_oracle(g):
            accepted.append((graph_key(g), g))
        else:
            with pytest.raises(InvariantError):
                graph_key(g)
    assert len(accepted) == 46
    for key_a, a in accepted:
        for key_b, b in accepted:
            assert (key_a == key_b) == nx.is_isomorphic(to_networkx(a), to_networkx(b))


def test_canonical_key_size_bound():
    # a key labels a graph once, so it has no size bound; twin-free regular
    # graphs and 2K_2 as a plain graph are outside its precondition and raise
    cube = Graph.from_edges(8, [(u, u | bit) for u in range(8) for bit in (1, 2, 4) if not u & bit])
    petersen = Graph.from_edges(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    two_k2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert {row.bit_count() for row in cube.rows + petersen.rows} == {3}
    for g in (cube, petersen, two_k2):
        with pytest.raises(InvariantError, match="not one twin class"):
            graph_key(g)
    assert canonical_key(TwoTerminalGraph(two_k2, 0, 1)) == (4, 0b100001)
    big = TwoTerminalGraph(Graph(11, [0] * 11), 0, 1)
    assert canonical_key(big) == canonical_key_ordered(big) == graph_key(big.graph) == (11, 0)


#: Run in a fresh process, so that its peak resident set is the keys' own.
#: The peak is the process's VmHWM: ru_maxrss keeps the spawning process's
#: peak across exec, so in a test run it reads the test process's own.
_LARGE_KEYS = """
import json, time
from lmrttg.errors import InvariantError
from lmrttg.families import build_lmrttg
from lmrttg.graphs import Graph, canonical_key, graph_key
n = 4000
circulant = Graph.from_edges(n, [(u, (u + j) % n) for u in range(n) for j in (1, 2, 3)])
tg = build_lmrttg(2000, 3001)
start = time.perf_counter()
try:
    graph_key(circulant)
    raised = None
except InvariantError:
    raised = time.perf_counter() - start
start = time.perf_counter()
canonical_key(tg)
keyed = time.perf_counter() - start
empty = graph_key(Graph(2000, [0] * 2000))
with open("/proc/self/status") as status:
    peak_mb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
print(json.dumps({"raised_s": raised, "keyed_s": keyed, "empty": empty, "peak_mb": peak_mb}))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the peak resident set from /proc")
def test_key_setup_is_linear_and_caches_nothing():
    # degree classes are grouped and checked by row lookup, and pairs are
    # numbered by n offsets, so the twin-free C_4000(1,2,3) raises, and a
    # 2000-vertex construction and 2000 isolated vertices key, with no n x n
    # table and no cache of C(n, 2) pairs
    env = dict(os.environ, PYTHONPATH=str(Path(graphs.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", _LARGE_KEYS], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    got = json.loads(proc.stdout)
    assert got["raised_s"] is not None and got["raised_s"] < 1
    assert got["keyed_s"] < 1
    assert got["empty"] == [2000, 0]
    assert got["peak_mb"] < 64


def test_canonical_form_matches_labelling_oracle():
    # pins the labelling that `verify brute` prints as winner_canonical, on
    # every construction it is compared with up to n = 7
    for n in range(4, 8):
        for m in lmrttg_ms(n):
            tg = build_lmrttg(n, m)
            key = canonical_key(tg)
            form = form_of_key(key)
            assert (form.s, form.t) == (0, 1)
            assert form.graph.edges() == canonical_form_oracle(tg), (n, m)
            assert canonical_key(form) == key


@st.composite
def _general_graph(draw):
    """A graph on 2 to 7 vertices with drawn edges."""
    n = draw(st.integers(2, 7))
    pairs = vertex_pairs(n)
    return Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))))


@st.composite
def _twin_rich_graph(draw):
    """A graph on 2 to 8 vertices with many twins: either a random base graph
    whose vertices are blown up into classes of open twins (no edge inside)
    or closed twins (a clique), or K2 joined to a threshold graph, whose
    vertices of equal degree are twins.  Up to two flipped pairs turn some
    twins into near-twins, which a wrong twin rule would accept."""
    n = draw(st.integers(2, 8))
    if draw(st.booleans()):
        b = draw(st.integers(1, n))
        owner = list(range(b)) + draw(st.lists(st.integers(0, b - 1), min_size=n - b, max_size=n - b))
        closed = draw(st.lists(st.booleans(), min_size=b, max_size=b))
        base = set(draw(st.lists(st.sampled_from(vertex_pairs(b)), unique=True))) if b > 1 else set()
        edges = [
            (u, v)
            for u, v in vertex_pairs(n)
            if tuple(sorted((owner[u], owner[v]))) in base or (owner[u] == owner[v] and closed[owner[u]])
        ]
    else:
        dominating = draw(st.lists(st.booleans(), min_size=n - 2, max_size=n - 2))
        inner = threshold_oracle(n - 2, [(i, i + 1, d) for i, d in enumerate(dominating)])
        edges = [(0, 1)] + [(k, v) for k in (0, 1) for v in range(2, n)] + [(u + 2, v + 2) for u, v in inner]
    flips = set(draw(st.lists(st.sampled_from(vertex_pairs(n)), max_size=2, unique=True)))
    return Graph.from_edges(n, set(edges) ^ flips)


@st.composite
def _threshold_graph(draw):
    """A threshold graph on 2 to 8 vertices from a drawn creation sequence."""
    n = draw(st.integers(2, 8))
    dominating = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return Graph.from_edges(n, threshold_oracle(n, [(v, v + 1, d) for v, d in enumerate(dominating)]))


@st.composite
def _key_graph(draw):
    """A general, twin-rich or threshold graph, relabeled at random."""
    g = draw(st.one_of(_general_graph(), _twin_rich_graph(), _threshold_graph()))
    return relabel(g, draw(st.permutations(range(g.n))))


@st.composite
def _key_case(draw):
    """A two-terminal graph whose second terminal is, half the time when it
    can be, a twin of the first; its image under a vertex permutation; and
    that image with its terminals drawn anew."""
    g = draw(_key_graph())
    adj = [{v for v in range(g.n) if g.rows[u] >> v & 1} for u in range(g.n)]
    s = draw(st.integers(0, g.n - 1))
    twins = [u for u in range(g.n) if u != s and adj[u] - {s} == adj[s] - {u}]
    others = [u for u in range(g.n) if u != s]
    t = draw(st.sampled_from(twins if twins and draw(st.booleans()) else others))
    perm = draw(st.permutations(range(g.n)))
    h = relabel(g, perm)
    s2, t2 = draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True))
    return TwoTerminalGraph(g, s, t), TwoTerminalGraph(h, perm[s], perm[t]), TwoTerminalGraph(h, s2, t2)


@settings(max_examples=300)
@given(_key_case())
def test_canonical_keys_are_relabel_invariant_and_match_vf2(case):
    # a key raises exactly when some two inner vertices of equal degree are
    # not twins; otherwise it agrees with both VF2 oracles and the labelling
    # oracle, under relabeling too
    tg, image, other = case
    accepted = [degree_twins_oracle(x.graph, (x.s, x.t)) for x in case]
    for x, ok in zip(case, accepted):
        if not ok:
            for key in (canonical_key, canonical_key_ordered):
                with pytest.raises(InvariantError, match="not one twin class"):
                    key(x)
    assert accepted[1] == accepted[0]
    if not accepted[0]:
        return
    key = canonical_key(tg)
    assert canonical_key(image) == key
    assert canonical_key_ordered(image) == canonical_key_ordered(tg)
    assert form_of_key(key).graph.edges() == canonical_form_oracle(tg)
    assert canonical_key(form_of_key(key)) == key
    if accepted[2]:
        assert (canonical_key(other) == key) == iso_oracle(other, tg)
        assert (canonical_key_ordered(other) == canonical_key_ordered(tg)) == ordered_iso_oracle(other, tg)


@settings(max_examples=200)
@given(_key_graph(), _key_graph(), st.data())
def test_graph_key_matches_vf2_on_twin_rich_graphs(a, b, data):
    # graph_key has no lead, so every degree class must be one twin class
    for g in (a, b):
        if not degree_twins_oracle(g):
            with pytest.raises(InvariantError, match="not one twin class"):
                graph_key(g)
    if degree_twins_oracle(a):
        assert graph_key(relabel(a, data.draw(st.permutations(range(a.n))))) == graph_key(a)
        if degree_twins_oracle(b):
            assert (graph_key(a) == graph_key(b)) == iso_oracle(a, b)


def test_json_roundtrip():
    g = Graph.from_edges(5, [(0, 1), (2, 4), (1, 3)])
    assert from_json(json.dumps(to_json_obj(g))) == g
    tg = TwoTerminalGraph(g, 4, 0)
    back = from_json(json.dumps(to_json_obj(tg)))
    assert back.graph == g and (back.s, back.t) == (4, 0)


@st.composite
def _graph_file_case(draw):
    """A graph on at most 9 vertices, with or without terminals, and its JSON
    object with one field corrupted."""
    n = draw(st.integers(0, 9))
    edges = draw(st.lists(st.sampled_from(vertex_pairs(n)), unique=True)) if n > 1 else []
    obj = Graph.from_edges(n, edges)
    if n > 1 and draw(st.booleans()):
        obj = TwoTerminalGraph(obj, *draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
    bad = to_json_obj(obj)
    kinds = ["n", "endpoint", "self-loop", "terminals"] + (["duplicate"] if edges else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "n":
        bad["n"] = draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=GRAPH_JSON_MAX_N + 1)))
    elif kind == "endpoint":
        bad["edges"].append([draw(st.integers(0, 9)), draw(st.sampled_from([1.0, "1", None, True, [1]]))])
    elif kind == "self-loop":
        v = draw(st.integers(0, max(n - 1, 0)))
        bad["edges"].append([v, v])
    elif kind == "duplicate":
        u, v = draw(st.sampled_from(bad["edges"]))
        bad["edges"].append(draw(st.sampled_from([[u, v], [v, u]])))
    else:
        s = draw(st.integers(0, 9))
        bad["terminals"] = draw(st.sampled_from([[s, s], [s, n + s], [s], [s, s + 1, s + 2], [s, "1"], s]))
    return obj, kind, bad


@given(_graph_file_case())
def test_graph_json_round_trip_and_corruptions(case):
    obj, kind, bad = case
    assert from_json(json.dumps(to_json_obj(obj))) == obj
    with pytest.raises(DomainError):
        from_json(json.dumps(bad))


def test_dot_marks_terminals():
    tg = TwoTerminalGraph(Graph.from_edges(3, [(0, 1), (1, 2)]), 0, 2)
    dot = to_dot(tg)
    assert dot.count("doublecircle") == 2
    assert "1 -- 2;" in dot


def test_relabel_permutes_edges():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    for perm in permutations(range(4)):
        h = relabel(g, perm)
        expected = {tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()}
        assert set(h.edges()) == expected
