from __future__ import annotations

import hashlib
import json
import random
import sys

import pytest

from perfcol.cam import sizes_for
from perfcol.enumeration import canonical_form, enumerate_cams
from perfcol.golden import platonic_candidates
from perfcol.graphs import (
    PLATONIC_BUILDERS,
    Graph,
    _sizes_fit,
    build_witness,
    construct_regular,
    minimal_class_sizes,
    platonic,
    verify_coloring,
)
from perfcol.search import SearchOutcome, find_perfect_coloring, platonic_survey

from oracles import (all_colorings_brute_force, random_regular_edges,
                     search_by_backtracking, sizes_meet_bounds)


# -------------------------------------------------------------- find one

def test_tetrahedron_count_all():
    outcome = find_perfect_coloring(
        platonic("tetrahedron"), ((0, 3), (1, 2)), mode="count_all")
    assert outcome.realizable
    assert outcome.labeled_count == 4
    assert verify_coloring(platonic("tetrahedron"), outcome.witness).entries \
        == ((0, 3), (1, 2))


def test_octahedron_exclusion():
    # class sizes fit on 6 vertices, yet no such coloring exists; the
    # combinatorial reason is that 8 vertices would be needed
    octa = platonic("octahedron")
    assert sizes_for(((1, 3), (3, 1)), 6) == (3, 3)
    assert sum(minimal_class_sizes(((1, 3), (3, 1)))) == 8 > 6
    outcome = find_perfect_coloring(octa, ((1, 3), (3, 1)))
    assert not outcome.realizable
    assert outcome.witness is None
    assert outcome.labeled_count is None


def test_octahedron_realizable_cases():
    octa = platonic("octahedron")
    for a in (((0, 4), (2, 2)), ((2, 2), (2, 2))):
        outcome = find_perfect_coloring(octa, a)
        assert outcome.realizable
        assert verify_coloring(octa, outcome.witness).entries == a


def test_cycle_graph_count():
    c6 = Graph.from_edges(6, [(v, (v + 1) % 6) for v in range(6)])
    outcome = find_perfect_coloring(c6, ((0, 2), (1, 1)), mode="count_all")
    assert outcome.realizable
    assert outcome.labeled_count == len(
        all_colorings_brute_force(c6, ((0, 2), (1, 1))))


def test_search_depth_is_not_limited_by_recursion():
    # one search level per vertex: 3000 vertices once overran the
    # interpreter's recursion limit
    cubic = construct_regular(3000, 3)
    outcome = find_perfect_coloring(cubic, ((3,),))
    assert outcome.realizable and outcome.witness.assignment == (1,) * 3000
    cycle = construct_regular(3000, 2)
    assert find_perfect_coloring(cycle, ((2,),)).realizable
    outcome = find_perfect_coloring(cycle, ((0, 2), (2, 0)), mode="count_all")
    assert outcome.labeled_count == 2
    assert verify_coloring(cycle, outcome.witness).entries == ((0, 2), (2, 0))


def test_unrealizable_when_sizes_do_not_divide():
    # ratios (1,3) force a multiple of 4 vertices; the octahedron has 6
    outcome = find_perfect_coloring(
        platonic("octahedron"), ((0, 4), (4, 0)), mode="count_all")
    assert not outcome.realizable and outcome.labeled_count == 0


def test_invalid_matrices_are_unrealizable_not_errors():
    k4 = platonic("tetrahedron")
    # weak symmetry failure and disconnected color graph
    for a in (((0, 3), (3, 0)), ((3, 0), (0, 3))):
        outcome = find_perfect_coloring(k4, a)
        assert outcome == SearchOutcome(False, None, None)
        # a leaf leaving a color unused would fail to build its Coloring
        outcome = find_perfect_coloring(k4, a, mode="count_all")
        assert outcome == SearchOutcome(False, None, 0)


def test_negative_entry_is_unrealizable():
    # weakly symmetric, with ratios (1, -1) that sum to zero
    cube = platonic("cube")
    a = ((2, 1), (-1, 4))
    assert find_perfect_coloring(cube, a) == SearchOutcome(False, None, None)
    assert find_perfect_coloring(cube, a, mode="count_all") == \
        SearchOutcome(False, None, 0)


def test_one_sided_pair_beside_mutual_pairs_is_unrealizable():
    # not weakly symmetric, though its mutual pairs alone are connected
    # and consistent
    cube = platonic("cube")
    a = ((0, 1, 2), (1, 1, 1), (0, 1, 2))
    assert find_perfect_coloring(cube, a) == SearchOutcome(False, None, None)
    assert find_perfect_coloring(cube, a, mode="count_all") == \
        SearchOutcome(False, None, 0)


def test_find_perfect_coloring_errors():
    k4 = platonic("tetrahedron")
    with pytest.raises(ValueError, match="unknown mode"):
        find_perfect_coloring(k4, ((0, 3), (1, 2)), mode="all")
    with pytest.raises(ValueError, match="constant"):
        find_perfect_coloring(k4, ((0, 3), (1, 1)))
    with pytest.raises(ValueError, match="regular"):
        find_perfect_coloring(k4, ((0, 4), (2, 2)))
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="regular"):
        find_perfect_coloring(path, ((0, 1), (1, 0)))
    two_triangles = Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(ValueError, match="connected"):
        find_perfect_coloring(two_triangles, ((0, 2), (1, 1)))


def test_witness_present_exactly_when_realizable():
    octa = platonic("octahedron")
    for a in enumerate_cams(2, 4).survivors:
        if sizes_for(a, octa.n) is None:
            continue
        outcome = find_perfect_coloring(octa, a)
        assert outcome.realizable == (outcome.witness is not None)
        if outcome.witness is not None:
            assert verify_coloring(octa, outcome.witness).entries == a.entries


def test_count_matches_brute_force_on_small_platonics():
    # every survivor, including spectrally impossible ones, against a
    # filter over all m^n assignments
    cases = [("tetrahedron", 2), ("tetrahedron", 3), ("tetrahedron", 4),
             ("octahedron", 2), ("octahedron", 3), ("octahedron", 4),
             ("cube", 2), ("cube", 3)]
    for name, m in cases:
        g = platonic(name)
        for a in enumerate_cams(m, g.regularity()).survivors:
            got = find_perfect_coloring(g, a, mode="count_all")
            want = all_colorings_brute_force(g, a.entries)
            assert got.labeled_count == len(want), (name, a.entries)
            assert got.realizable == bool(want)
            if want:
                assert tuple(got.witness.assignment) in want


def test_search_matches_brute_force_on_random_regular_graphs():
    # graphs with few automorphisms: counts of 0 and 1 occur, and the
    # first witness must be the smallest coloring read in search order.
    # (k, n, graphs drawn, color counts); later cases are appended so
    # the graphs drawn before them stay the same
    cases = ((3, 8, 2, (2, 3)), (3, 10, 2, (2, 3)), (4, 7, 2, (2, 3)),
             (4, 9, 2, (2, 3)), (5, 8, 2, (2, 3)), (3, 8, 1, (4,)),
             (4, 7, 1, (4,)))
    rng = random.Random(1)
    realizable = 0
    for k, n, draws, ms in cases:
        for _ in range(draws):
            g = Graph.from_edges(n, random_regular_edges(rng, n, k))
            order = g.bfs_order(0)
            for m in ms:
                for a in enumerate_cams(m, k).survivors:
                    if sizes_for(a, n) is None:
                        continue
                    want = all_colorings_brute_force(g, a.entries)
                    got = find_perfect_coloring(g, a, mode="count_all")
                    assert got.labeled_count == len(want), (n, k, a.entries)
                    first = find_perfect_coloring(g, a).witness
                    if want:
                        realizable += 1
                        smallest = min(want, key=lambda c: [c[v] for v in order])
                        assert first.assignment == smallest, (n, k, a.entries)
                    else:
                        assert first is None
    assert realizable >= 10


def test_search_matches_backtracking_oracle_beyond_brute_force():
    # cubic and quartic graphs on 14-24 vertices, where most colors are
    # forced rather than decided: random graphs (almost all refuted) and
    # build_witness graphs under a random relabeling (all realizable, so
    # first witnesses are compared as well)
    rng = random.Random(2)
    pairs = []
    for k, n in ((3, 16), (3, 20), (3, 24), (4, 15), (4, 18)):
        g = Graph.from_edges(n, random_regular_edges(rng, n, k))
        pairs += [(g, a) for m in (2, 3, 4) for a in enumerate_cams(m, k).survivors
                  if sizes_for(a, n) is not None]
    for k in (3, 4):
        for m in (2, 3, 4):
            for a in enumerate_cams(m, k).survivors:
                g, _ = build_witness(a)
                if 14 <= g.n <= 24:
                    relabel = list(range(g.n))
                    rng.shuffle(relabel)
                    pairs.append((Graph.from_edges(
                        g.n, [(relabel[u], relabel[v]) for u, v in g.edges()]), a))
    realizable = 0
    for g, a in pairs:
        count, first = search_by_backtracking(g, a.entries)
        got = find_perfect_coloring(g, a, mode="count_all")
        assert got.labeled_count == count, (g.n, a.entries)
        witness = find_perfect_coloring(g, a).witness
        assert got.witness == witness
        assert (witness.assignment if witness else None) == first, (g.n, a.entries)
        realizable += count > 0
    assert (len(pairs), realizable) == (578, 312)


def test_class_size_rule_refutes_only_pairs_without_a_coloring():
    # the rule the search applies before it places a color, against
    # plain backtracking: no pair it rejects has a coloring, so every
    # pair with one passes it.  m <= 3 on the five solids and on random
    # regular graphs of 12-20 vertices, with the rule itself checked
    # against the bounds written out in the oracles
    rng = random.Random(3)
    graphs = [platonic(name) for name in PLATONIC_BUILDERS]
    for k, n in ((3, 12), (3, 16), (3, 20), (4, 12), (4, 15), (4, 18),
                 (5, 12), (5, 14)):
        graphs.append(Graph.from_edges(n, random_regular_edges(rng, n, k)))
    pairs = rejected = realizable = 0
    for g in graphs:
        for m in (1, 2, 3):
            for a in enumerate_cams(m, g.regularity()).survivors:
                sizes = sizes_for(a, g.n)
                if sizes is None:
                    continue
                fits = _sizes_fit(a.entries, sizes)
                assert fits == sizes_meet_bounds(a.entries, sizes), a.entries
                count, _ = search_by_backtracking(g, a.entries)
                assert fits or count == 0, (g.n, a.entries)
                pairs += 1
                rejected += not fits
                realizable += count > 0
    assert (pairs, rejected, realizable) == (281, 78, 44)


def test_failed_cascade_is_undone():
    # BFS order 0, 4, 6, 7, 8, ...: with vertex 0 colored 1, color 1 at
    # vertex 4 forces six more vertices before a domain empties; all
    # seven must be uncolored again before color 2 at vertex 4, in whose
    # subtree the first witness lies
    g = Graph.from_edges(10, [
        (0, 4), (0, 6), (0, 7), (0, 8), (1, 2), (1, 3), (1, 6), (1, 9),
        (2, 4), (2, 5), (2, 7), (3, 4), (3, 8), (3, 9), (4, 7), (5, 6),
        (5, 8), (5, 9), (6, 7), (8, 9)])
    a = ((1, 3), (2, 2))
    count, first = search_by_backtracking(g, a)
    assert (count, first) == (2, (1, 1, 1, 2, 2, 2, 2, 2, 1, 2))
    assert find_perfect_coloring(g, a).witness.assignment == first
    assert find_perfect_coloring(g, a, mode="count_all").labeled_count == count


def test_placements_are_pinned():
    # colors placed, decided or forced: the work that forcing saves and
    # no outcome shows, since a search that forced nothing would meet the
    # same solutions in the same order.  Counted at the one bit_length
    # call per placement: the pins assume find_perfect_coloring makes
    # exactly one such call per placement and no other, so a change that
    # adds or drops a bit_length call there must re-derive both figures
    # from a placement count, not loosen them.  The class-size rule
    # refutes pairs before any placement: without it the figures were
    # 5,839 and 3,225.
    code = find_perfect_coloring.__code__
    placed = 0

    def hook(frame, event, arg):
        nonlocal placed
        if (event == "c_call" and frame.f_code is code
                and arg.__name__ == "bit_length"):
            placed += 1

    def placements(pairs, mode):
        nonlocal placed
        placed = 0
        before = sys.getprofile()
        sys.setprofile(hook)
        try:
            for g, a in pairs:
                find_perfect_coloring(g, a, mode)
        finally:
            sys.setprofile(before)
        return placed

    solids = [(g, a) for g in map(platonic, ("tetrahedron", "cube",
                                             "octahedron", "dodecahedron",
                                             "icosahedron"))
              for m in (2, 3) for a in enumerate_cams(m, g.regularity()).survivors]
    rng = random.Random(2)
    randoms = []
    for k, n in ((3, 16), (3, 20), (4, 15)):
        g = Graph.from_edges(n, random_regular_edges(rng, n, k))
        randoms += [(g, a) for m in (2, 3) for a in enumerate_cams(m, k).survivors]
    assert placements(solids, "count_all") == 4741
    assert placements(randoms, "first") == 2464


def test_first_witnesses_are_pinned():
    # (matrix, witness) of "first" mode on every Platonic survey
    # candidate and on the build_witness graph of every (3,5) and (4,3)
    # survivor; pins the order in which the search meets solutions
    docs = []
    candidates = platonic_candidates()
    for solid in sorted(candidates):
        g = platonic(solid)
        for m in sorted(candidates[solid]):
            for a in candidates[solid][m]["candidates"]:
                w = find_perfect_coloring(g, a).witness
                docs.append([a, list(w.assignment) if w else None])
    for m, k in ((3, 5), (4, 3)):
        for a in enumerate_cams(m, k).survivors:
            g, _ = build_witness(a)
            w = find_perfect_coloring(g, a).witness
            docs.append([[list(row) for row in a.entries], list(w.assignment)])
    assert len(docs) == 268
    assert hashlib.sha256(json.dumps(docs).encode()).hexdigest() == (
        "146041cc1415bf51432ec2119e53100ace67bc96328b6b54919d01949690d684")


# ---------------------------------------------------------------- surveys

def test_octahedron_survey():
    survey = platonic_survey("octahedron", 2)
    verdicts = {a.entries: o.realizable for a, o in survey}
    assert len(verdicts) == 3
    assert verdicts[((1, 3), (3, 1))] is False
    assert sum(verdicts.values()) == 2


def test_dodecahedron_survey_includes_late_additions():
    survey = platonic_survey("dodecahedron", 3)
    assert len(survey) == 3
    assert all(o.realizable for _, o in survey)
    keys = {a.entries for a, _ in survey}
    for rows in (((0, 3, 0), (1, 0, 2), (0, 1, 2)),
                 ((1, 0, 2), (0, 1, 2), (1, 2, 0))):
        assert canonical_form(rows).entries in keys


def test_icosahedron_survey_four_colors():
    survey = platonic_survey("icosahedron", 4)
    assert len(survey) == 4
    assert all(o.realizable for _, o in survey)


def test_survey_is_canonically_ordered():
    survey = platonic_survey("cube", 3)
    keys = [a.entries for a, _ in survey]
    assert keys == sorted(keys)
    assert all(canonical_form(a).entries == a for a in keys)


def test_survey_witnesses_verify():
    for name in ("tetrahedron", "cube", "octahedron"):
        g = platonic(name)
        for m in (2, 3, 4):
            for a, outcome in platonic_survey(name, m):
                if outcome.realizable:
                    assert verify_coloring(g, outcome.witness).entries == a.entries


def test_survey_matches_public_pipeline():
    # the survey's filter, rebuilt from public calls only: integer sizes,
    # then the spectrum, then a search for each candidate left
    from perfcol.spectral import spectral_filter
    candidates = platonic_candidates()
    for solid in sorted(candidates):
        g = platonic(solid)
        for m in sorted(candidates[solid]):
            kept = [a for a in enumerate_cams(int(m), g.regularity()).survivors
                    if sizes_for(a, g.n) is not None and spectral_filter(a, g)]
            want = [(a, find_perfect_coloring(g, a)) for a in kept]
            assert platonic_survey(solid, int(m)) == want, (solid, m)
