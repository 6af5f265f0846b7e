from __future__ import annotations

import hashlib
import json
import random
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfcol.cam import parse_matrix
from perfcol.enumeration import enumerate_cams
from perfcol.graphs import (
    Coloring,
    Graph,
    _integer,
    _sizes_fit,
    build_witness,
    construct_biregular,
    construct_regular,
    emit_dot,
    emit_edge_list,
    graph_from_json,
    graph_to_json,
    minimal_class_sizes,
    parse_graph,
    platonic,
    verify_coloring,
)

from oracles import minimal_sizes_by_bounds, random_regular_edges


# ------------------------------------------------------------------- Graph

def test_graph_normalizes_and_sorts():
    g = Graph(3, ((2, 1), (0, 2), (1, 0)))
    assert g.adj == ((1, 2), (0, 2), (0, 1))
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]
    assert g.edge_count() == 3
    assert g.regularity() == 2


@pytest.mark.parametrize("n,adj", [
    (2, ((1,),)),              # row count mismatch
    (2, ((1,), (0, 5))),       # neighbor out of range
    (2, ((0,), (1,))),         # loops
    (2, ((1, 1), (0,))),       # duplicate neighbor
    (2, ((1,), ())),           # missing reverse edge
    (-1, ()),                  # negative vertex count
])
def test_graph_rejects_malformed(n, adj):
    with pytest.raises(ValueError):
        Graph(n, adj)


@pytest.mark.parametrize("n,adj,edge", [
    (3, ((1,), (), ()), "0-1"),
    (3, ((1, 2), (0,), (1,)), "0-2"),      # 0 would sit before row 2's 1
    (3, ((1,), (0,), (0,)), "2-0"),        # 2 would sit past row 0's end
    (2, ((1,), (5,)), "0-1"),              # vertex 0 before vertex 1's range
])
def test_graph_missing_reverse_message_keeps_its_place(n, adj, edge):
    with pytest.raises(ValueError, match=f"^edge {edge} missing its reverse$"):
        Graph(n, adj)


def test_graph_reverse_check_is_fast_on_a_star():
    # a reverse-edge test that scans the hub's row is quadratic in its
    # degree: seconds here instead of a fraction of one
    start = time.perf_counter()
    g = Graph.from_edges(20001, [(0, leaf) for leaf in range(1, 20001)])
    assert time.perf_counter() - start < 1
    assert g.degree(0) == 20000 and g.edge_count() == 20000


def test_graph_from_edges_rejects():
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError, match="loop"):
        Graph.from_edges(2, [(1, 1)])
    with pytest.raises(ValueError, match="duplicate neighbor at vertex 0"):
        Graph.from_edges(2, [(0, 1), (1, 0)])


def test_graph_traversal_helpers():
    # path 0-1-2 plus isolated 3
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    assert g.bfs_order(0) == [0, 1, 2]
    assert g.component(2) == (0, 1, 2)
    assert not g.is_connected()
    sub = g.induced(g.component(0))
    assert sub.n == 3 and sub.is_connected()
    assert g.regularity() is None
    assert g.degree(1) == 2 and g.degree(3) == 0
    # a vertex outside 0..n-1 is an error, not a wrapped index
    for v in (-1, 4):
        message = f"vertex {v} out of range for n=4"
        with pytest.raises(ValueError, match=message):
            g.bfs_order(v)
        with pytest.raises(ValueError, match=message):
            g.component(v)
        with pytest.raises(ValueError, match=message):
            g.degree(v)
        with pytest.raises(ValueError, match=message):
            g.induced([v, 2])
    with pytest.raises(ValueError, match="vertex 5 out of range for n=4"):
        g.induced([5])


def test_bfs_order_matches_a_deque_walk_from_every_start():
    # the order the search decides vertices in, against a plain queue
    def deque_bfs(adj, start):
        seen = {start}
        queue = deque([start])
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        return order

    rng = random.Random(3)
    graphs = [platonic(name) for name in ("tetrahedron", "cube", "octahedron",
                                          "dodecahedron", "icosahedron")]
    for n, k in ((8, 3), (12, 3), (9, 4), (16, 4), (10, 5)):
        graphs.append(Graph.from_edges(n, random_regular_edges(rng, n, k)))
    # and two components side by side: a walk stays inside its own
    left, right = graphs[-2:]
    graphs.append(Graph.from_edges(left.n + right.n, left.edges() + [
        (u + left.n, v + left.n) for u, v in right.edges()]))
    for g in graphs:
        assert g.bfs_order() == deque_bfs(g.adj, 0)
        for v in range(g.n):
            assert g.bfs_order(v) == deque_bfs(g.adj, v), (g.n, v)


def test_empty_and_single_vertex_graphs():
    assert Graph(0, ()).is_connected()
    assert Graph(1, ((),)).is_connected()


# ---------------------------------------------------------------- Coloring

def test_coloring_validation():
    c = Coloring((1, 2, 2, 2), 2)
    assert c.class_sizes() == (1, 3)
    with pytest.raises(ValueError, match="color 2 is unused"):
        Coloring((1, 1, 1), 2)
    with pytest.raises(ValueError, match="1..2"):
        Coloring((1, 2, 3), 2)
    with pytest.raises(ValueError):
        Coloring((1,), 0)
    with pytest.raises(ValueError,
                       match="coloring must cover at least one vertex"):
        Coloring((), 1)


# ----------------------------------------------------------------- catalog

@pytest.mark.parametrize("name,n,degree", [
    ("tetrahedron", 4, 3),
    ("cube", 8, 3),
    ("octahedron", 6, 4),
    ("dodecahedron", 20, 3),
    ("icosahedron", 12, 5),
])
def test_platonic_shapes(name, n, degree):
    g = platonic(name)
    assert g.n == n
    assert g.regularity() == degree
    assert g.edge_count() == n * degree // 2
    assert g.is_connected()


def test_platonic_octahedron_is_complete_tripartite():
    g = platonic("octahedron")
    assert g.edge_count() == 12
    for v in range(6):
        partner = v ^ 1
        assert partner not in g.adj[v]
        assert len(g.adj[v]) == 4


def test_platonic_tetrahedron_is_complete():
    g = platonic("tetrahedron")
    assert g.edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_platonic_accepts_sloppy_names():
    assert platonic(" Cube ") == platonic("cube")


def test_platonic_rejects_unknown():
    with pytest.raises(ValueError, match="unknown Platonic solid"):
        platonic("teapot")


def test_platonic_triangle_counts():
    # cube and dodecahedron are triangle-free; the others are not
    def triangles(g):
        return sum(1 for u, v in g.edges()
                   for w in g.adj[u] if w > v and w in g.adj[v])
    assert triangles(platonic("tetrahedron")) == 4
    assert triangles(platonic("cube")) == 0
    assert triangles(platonic("octahedron")) == 8
    assert triangles(platonic("dodecahedron")) == 0
    assert triangles(platonic("icosahedron")) == 20


# ----------------------------------------------------- regular construction

def test_construct_regular_k4():
    assert construct_regular(4, 3).edges() == platonic("tetrahedron").edges()


def test_construct_regular_errors():
    with pytest.raises(ValueError, match="n >= k\\+1"):
        construct_regular(4, 4)
    with pytest.raises(ValueError, match="odd"):
        construct_regular(5, 3)
    with pytest.raises(ValueError, match="nonnegative"):
        construct_regular(4, -1)


def test_construct_regular_trivial_degrees():
    assert construct_regular(3, 0).edge_count() == 0
    assert construct_regular(6, 1).edges() == [(0, 3), (1, 4), (2, 5)]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7).flatmap(
    lambda k: st.tuples(st.just(k), st.integers(k + 1, 14))))
def test_construct_regular_is_regular(case):
    k, n = case
    if (n * k) % 2:
        n += 1
    g = construct_regular(n, k)
    assert g.n == n
    assert g.regularity() == k


# --------------------------------------------------- biregular construction

def test_construct_biregular_k32():
    g = construct_biregular(2, 3, 3, 2)
    assert g.edges() == [(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)]


def test_construct_biregular_matching_blocks():
    g = construct_biregular(2, 1, 2, 4)
    assert g.edges() == [(0, 2), (0, 3), (1, 4), (1, 5)]


def test_construct_biregular_errors():
    # (3,2,3,2) breaks two conditions at once, p > s and the balance;
    # an error is all that matters
    with pytest.raises(ValueError):
        construct_biregular(3, 2, 3, 2)
    with pytest.raises(ValueError, match="exceeds"):
        construct_biregular(4, 2, 1, 2)    # balanced, but p=4 > s=2
    with pytest.raises(ValueError, match="balance"):
        construct_biregular(2, 2, 3, 2)
    with pytest.raises(ValueError, match="zero together"):
        construct_biregular(0, 1, 2, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        construct_biregular(1, 1, -2, -2)
    # balanced degrees with q > r have p > s, so one size check covers both
    for p in range(7):
        for q in range(7):
            for r in range(q):
                for s in range(7):
                    with pytest.raises(ValueError):
                        construct_biregular(p, q, r, s)


def test_construct_biregular_zero_degrees():
    g = construct_biregular(0, 0, 2, 3)
    assert g.n == 5 and g.edge_count() == 0


@settings(max_examples=150, deadline=None)
@given(st.tuples(st.integers(1, 5), st.integers(1, 5),
                 st.integers(1, 4)))
def test_construct_biregular_degrees_hold(case):
    # build balanced instances: parts sized q*t and p*t carry p*q*t edges
    p, q, t = case
    r, s = q * t, p * t
    g = construct_biregular(p, q, r, s)
    assert all(g.degree(v) == p for v in range(r))
    assert all(g.degree(v) == q for v in range(r, r + s))
    assert all(u < r <= v for u, v in g.edges())


# -------------------------------------------------------------- class sizes

def test_minimal_class_sizes_try_at_most_three_multiples(monkeypatch):
    # from the entry bound t, t + 1 meets s_i > a_ii and t + 1 or t + 2
    # is even, so the rule is tried at most three times per matrix
    import perfcol.graphs as graphs
    matrices = [a.entries for m in range(1, 5) for k in range(1, 6)
                for a in enumerate_cams(m, k).survivors]
    rule = graphs._sizes_fit
    tried = []

    def counted(a, sizes):
        tried.append(sizes)
        assert len(tried) <= 3, (a, tried)
        return rule(a, sizes)

    monkeypatch.setattr(graphs, "_sizes_fit", counted)
    for a in matrices + [((10**12,),), ((1, 1), (1, 1))]:
        tried.clear()
        minimal_class_sizes(a)


def test_minimal_class_sizes_examples():
    assert minimal_class_sizes(((1, 3), (3, 1))) == (4, 4)
    assert minimal_class_sizes(((0, 3), (3, 0))) == (3, 3)
    assert minimal_class_sizes(((2, 1), (1, 2))) == (3, 3)


def test_minimal_class_sizes_octahedron_exclusion():
    # the 6-vertex octahedron cannot host a matrix needing 8 vertices
    assert sum(minimal_class_sizes(((1, 3), (3, 1)))) == 8


def test_minimal_class_sizes_parity_bump():
    # ratios (1,1), constraints force v >= 2, but 1*v even forces v
    # even only when a_ii is odd
    assert minimal_class_sizes(((1, 1), (1, 1))) == (2, 2)
    assert minimal_class_sizes(((3, 2), (2, 3))) == (4, 4)


def test_minimal_class_sizes_start_at_the_entry_bound():
    # the multiples start at the least t with t v_i >= a_ji, not at 1, so
    # a huge entry costs no more steps than a small one
    assert minimal_class_sizes([[10**12]]) == (10**12 + 1,)
    assert minimal_class_sizes([[0, 10**12], [10**12, 0]]) == (10**12,) * 2


def test_minimal_class_sizes_are_minimal_by_search():
    # independent check: no smaller multiple of the ratio vector works.
    # build_witness's connectivity proof rests on this minimality, so it
    # runs over every survivor with m <= 4, k <= 5
    from perfcol.cam import class_ratios
    hand_picked = [((0, 3), (1, 2)), ((1, 3), (3, 1)), ((2, 2), (1, 3)),
                   ((0, 1, 2), (1, 0, 2), (1, 1, 1))]
    survivors = [a.entries for m in range(1, 5) for k in range(1, 6)
                 for a in enumerate_cams(m, k).survivors]
    for a in hand_picked + survivors:
        m = len(a)
        ratios = class_ratios(a).numerators
        got = minimal_class_sizes(a)
        t_got = got[0] // ratios[0]

        def feasible(t):
            v = [t * x for x in ratios]
            return all(
                v[i] >= a[i][i] + 1
                and (a[i][i] * v[i]) % 2 == 0
                and all(v[i] >= a[j][i] for j in range(m) if j != i)
                for i in range(m))

        assert feasible(t_got), a
        assert all(not feasible(t) for t in range(1, t_got)), a


def test_minimal_class_sizes_match_the_bounds_oracle():
    # the least multiple of the ratios that meets the bounds, with ratios
    # and bounds both recomputed in the oracles.  Their ratio search is
    # quick only for small ratio sums: m <= 3, and m = 4 up to k = 3
    cases = [(m, k) for m in range(1, 4) for k in range(1, 6)]
    for m, k in cases + [(4, 1), (4, 2), (4, 3)]:
        for a in enumerate_cams(m, k).survivors:
            assert minimal_class_sizes(a) == \
                minimal_sizes_by_bounds(a.entries), a.entries


# ------------------------------------------------------------ build_witness

def test_build_witness_bipartite():
    g, coloring = build_witness(((0, 3), (3, 0)))
    assert g.n == 6 and g.regularity() == 3
    assert coloring.class_sizes() == (3, 3)
    assert verify_coloring(g, coloring).entries == ((0, 3), (3, 0))


def test_build_witness_single_color():
    g, coloring = build_witness(((3,),))
    assert g.n == 4 and g.edges() == platonic("tetrahedron").edges()
    assert coloring.assignment == (1, 1, 1, 1)


def test_build_witness_eight_vertices():
    g, coloring = build_witness(((1, 3), (3, 1)))
    assert g.n == 8
    assert verify_coloring(g, coloring).entries == ((1, 3), (3, 1))


def test_build_witness_round_trip_sample():
    sample = [
        ((0, 3), (1, 2)),
        ((2, 2), (1, 3)),
        ((0, 1, 2), (1, 0, 2), (1, 1, 1)),
        ((0, 0, 3), (0, 0, 3), (1, 2, 0)),
        ((4, 1), (1, 4)),
        ((0, 5), (5, 0)),
    ]
    for a in sample:
        g, coloring = build_witness(a)
        assert g.is_connected()
        back = verify_coloring(g, coloring)
        assert back is not None and back.entries == a, a


def test_build_witness_is_pinned():
    # digest of (n, edges, assignment) over all (3,5) and (4,3) survivors,
    # computed while witnesses were still glued from per-block Graphs
    docs = []
    for m, k in ((3, 5), (4, 3)):
        for a in enumerate_cams(m, k).survivors:
            g, coloring = build_witness(a)
            docs.append([g.n, [list(e) for e in g.edges()],
                         list(coloring.assignment)])
    assert len(docs) == 225
    assert hashlib.sha256(json.dumps(docs).encode()).hexdigest() == (
        "005c57b3ab55ce727fea6c14a79ebeefbb9b7418c954d276c30a628f31330af6")


def test_build_witness_graph_passes_the_constructor():
    # build_witness wraps its graph unvalidated; the public constructor
    # must accept it unchanged for every survivor with m <= 4, k <= 5.
    # It returns the whole union, which the minimal class sizes make
    # connected
    for m in range(1, 5):
        for k in range(1, 6):
            for a in enumerate_cams(m, k).survivors:
                g, coloring = build_witness(a)
                assert Graph(g.n, g.adj) == g, a.entries
                assert g.is_connected(), a.entries
                assert coloring.class_sizes() == minimal_class_sizes(a), \
                    a.entries
                assert _sizes_fit(a.entries, coloring.class_sizes()), \
                    a.entries


def test_build_witness_keeps_class_block_order():
    # classes occupy contiguous blocks of the one connected union, so
    # the colors are sorted
    g, coloring = build_witness(((0, 3), (1, 2)))
    assert list(coloring.assignment) == sorted(coloring.assignment)


# ---------------------------------------------------------- verify_coloring

def test_verify_coloring_tetrahedron():
    k4 = platonic("tetrahedron")
    assert verify_coloring(k4, (1, 2, 2, 2)).entries == ((0, 3), (1, 2))
    assert verify_coloring(k4, (1, 1, 2, 2)).entries == ((1, 2), (2, 1))


def test_verify_coloring_path():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert verify_coloring(path, (1, 2, 1)).entries == ((0, 1), (2, 0))


def test_verify_coloring_detects_imperfection():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    # vertex 0 has one neighbor of color 1, vertex 1 has one of each
    assert verify_coloring(path, (1, 1, 2)) is None


def test_verify_coloring_errors():
    k4 = platonic("tetrahedron")
    with pytest.raises(ValueError, match="covers"):
        verify_coloring(k4, (1, 2, 2))
    with pytest.raises(ValueError, match="unused"):
        verify_coloring(k4, Coloring((1, 1, 1, 1), 2))


def test_verify_coloring_accepts_coloring_objects():
    k4 = platonic("tetrahedron")
    c = Coloring((1, 2, 2, 2), 2)
    assert verify_coloring(k4, c).entries == ((0, 3), (1, 2))


def test_verify_coloring_implies_double_count():
    # a_ij * v_i = a_ji * v_j whenever a coloring verifies
    cases = [
        (platonic("octahedron"), (1, 1, 2, 2, 2, 2)),
        (platonic("cube"), (1, 2, 2, 1, 2, 1, 1, 2)),
        (platonic("tetrahedron"), (1, 2, 3, 4)),
    ]
    for g, assignment in cases:
        a = verify_coloring(g, assignment)
        assert a is not None
        sizes = [assignment.count(c) for c in range(1, a.m + 1)]
        for i in range(a.m):
            for j in range(a.m):
                assert a.entries[i][j] * sizes[i] == a.entries[j][i] * sizes[j]


# --------------------------------------------------------------------- I/O

def test_parse_graph_k4():
    text = "4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
    assert parse_graph(text).edges() == platonic("tetrahedron").edges()


def test_parse_graph_comments_and_blanks():
    text = "# a triangle\n\n3\n0 1  # first edge\n1 2\n0 2\n"
    assert parse_graph(text).edge_count() == 3


@pytest.mark.parametrize("text,message", [
    ("2\n0 0\n", "line 2: loop"),
    ("2\n0 1\n1 0\n", "line 3: duplicate"),
    ("2\n0 3\n", "line 2: endpoint out of range"),
    ("2\n0\n", "line 2: expected an edge"),
    ("2\n0 x\n", "line 2: endpoints must be integers"),
    # ASCII digits only, as in the vertex count: int() reads the next
    # three as numbers
    ("12\n0 1_0\n", "line 2: endpoints must be integers"),
    ("3\n0 \u0661\n", "line 2: endpoints must be integers"),
    ("3\n+0 1\n", "line 2: endpoints must be integers"),
    ("3\n0 \u00b2\n", "line 2: endpoints must be integers"),
    ("3\n0 -\n", "line 2: endpoints must be integers"),
    ("3\n-1 0\n", "line 2: endpoint out of range 0..2"),
    # past int()'s 4,300-digit limit, which raises its own message
    ("2\n0 " + "1" * 5000 + "\n", "line 2: endpoints must be integers"),
    ("# n\n" + "1" * 5000 + "\n", "line 2: expected the vertex count"),
    ("x\n", "line 1: expected the vertex count"),
    ("²\n", "line 1: expected the vertex count"),
    ("", "missing the vertex count"),
])
def test_parse_graph_errors(text, message):
    with pytest.raises(ValueError, match=message):
        parse_graph(text)


@pytest.mark.parametrize("text,value", [
    ("0", 0), ("17", 17), ("-3", -3), ("-0", 0), ("007", 7),
    ("", None), ("-", None), ("--1", None), ("+3", None), ("1_0", None),
    (" 4", None), ("4 ", None), ("\u0661", None), ("\u00b2", None),
    ("1" * 5000, None),
])
def test_integer_syntax(text, value):
    # the one integer syntax of the CLI's counts and parse_graph's fields
    if value is None:
        with pytest.raises(ValueError):
            _integer(text)
    else:
        assert _integer(text) == value


def test_parse_graph_signs():
    # endpoints take a sign, as the CLI's counts do; the vertex count
    # takes none, not even on zero
    assert parse_graph("2\n-0 1\n").edges() == [(0, 1)]
    for count in ("-0", "-2"):
        with pytest.raises(ValueError, match="line 1: expected the vertex"):
            parse_graph(count + "\n")


def test_edge_list_round_trip():
    g = platonic("dodecahedron")
    assert parse_graph(emit_edge_list(g)) == g


def test_edge_list_carries_coloring_comment():
    g, coloring = build_witness(((0, 3), (3, 0)))
    text = emit_edge_list(g, coloring)
    assert text.startswith("# colors: 1 1 1 2 2 2\n")
    assert parse_graph(text) == g


@pytest.mark.parametrize("emit", [emit_edge_list, emit_dot])
def test_emitters_reject_a_coloring_of_another_size(emit):
    with pytest.raises(ValueError, match="does not match the vertex count"):
        emit(platonic("tetrahedron"), Coloring((1, 2, 1), 2))


def test_emit_dot_colors():
    g = platonic("tetrahedron")
    dot = emit_dot(g, Coloring((1, 2, 3, 4), 4))
    assert 'fillcolor="white"' in dot
    assert 'fillcolor="black" fontcolor="white"' in dot
    assert 'fillcolor="red"' in dot
    assert 'fillcolor="green"' in dot
    assert "0 -- 1;" in dot and dot.count(" -- ") == 6


def test_emit_dot_uncolored_and_overflow():
    g = Graph.from_edges(2, [(0, 1)])
    assert 'fillcolor="lightgray"' in emit_dot(g)
    five = Graph.from_edges(5, [(u, (u + 1) % 5) for u in range(5)])
    dot = emit_dot(five, Coloring((1, 2, 3, 4, 5), 5))
    assert 'fillcolor="gray"' in dot
    with pytest.raises(ValueError):
        emit_dot(g, Coloring((1,), 1))


def test_graph_json_round_trip():
    g = platonic("icosahedron")
    doc = graph_to_json(g)
    assert doc["n"] == 12 and len(doc["edges"]) == 30
    assert graph_from_json(doc) == g
    assert graph_from_json(json.dumps(doc)) == g


def test_graph_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        graph_from_json({"vertices": 3})
    with pytest.raises(ValueError):
        graph_from_json("[1, 2]")


@pytest.mark.parametrize("doc,problem", [
    ({"n": "a", "edges": []}, "'n' must be a nonnegative integer"),
    ({"n": True, "edges": []}, "'n' must be a nonnegative integer"),
    ({"n": -1, "edges": []}, "'n' must be a nonnegative integer"),
    ({"n": 3, "edges": 5}, "'edges' must be an array"),
    ({"n": 3, "edges": [0]}, "edge 0 is not a pair"),
    ({"n": 3, "edges": [[0, 1], [0, 1, 2]]}, "edge 1 is not a pair"),
    ({"n": 3, "edges": [[0, "1"]]}, "edge 0 is not a pair"),
    ({"n": 3, "edges": [[0, False]]}, "edge 0 is not a pair"),
])
def test_graph_from_json_names_the_shape_problem(doc, problem):
    with pytest.raises(ValueError, match=problem):
        graph_from_json(doc)
    with pytest.raises(ValueError, match=problem):
        graph_from_json(json.dumps(doc))


def test_graph_from_json_rejects_deep_nesting():
    with pytest.raises(ValueError):
        graph_from_json("[" * 100_000)


# Integers come from a small range: a huge vertex count is a resource
# limit (one adjacency row per vertex), not malformed input, and stays
# out of scope here.  Text tokens are at most three characters for the
# same reason, since parse_graph reads its vertex count from text.
SMALL_INTS = st.integers(min_value=-3, max_value=12)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | SMALL_INTS | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12)
GRAPH_DOCS = JSON_VALUES | st.fixed_dictionaries(
    {"n": JSON_VALUES, "edges": st.lists(JSON_VALUES, max_size=5)})
TOKENS = SMALL_INTS.map(str) | st.text(max_size=3)
EDGE_LIST_TEXT = st.lists(st.lists(TOKENS, max_size=3).map(" ".join),
                          max_size=6).map("\n".join)


def _only_value_errors(parse, arg):
    try:
        parse(arg)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(doc=GRAPH_DOCS, text=st.text(max_size=20))
def test_parsers_raise_only_value_error_on_json(doc, text):
    for arg in (json.dumps(doc), text):
        _only_value_errors(parse_matrix, arg)
        _only_value_errors(graph_from_json, arg)
    _only_value_errors(graph_from_json, doc)


@settings(max_examples=300, deadline=None)
@given(text=EDGE_LIST_TEXT)
def test_parse_graph_raises_only_value_error(text):
    _only_value_errors(parse_graph, text)
