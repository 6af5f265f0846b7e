"""The four benchmark workloads: seeded inputs, timed bodies, output checks.

Each workload is a setup function (inputs from the seed, untimed), a run
function (the timed part; it consumes every result it produces) and a
check function (untimed; it returns (label, passed) pairs).  Traced runs
add a probe: extra layer measurements made after the checks, outside the
timed part, which return counts and more checks.

Why these workloads:
  paper       the users' headline command; about 85% of it is the (4,5)
              enumeration scan, canonical dedup about a tenth, search <5%.
  enum-5x3    the first step outside the validated range; the 120
              permutations per candidate make canonical dedup about two
              thirds of the run, the opposite split to paper.
  predicates  the public validity predicates on a uniform sample of the
              (4,5) row-sum space, the path of `perfcol filter` and of the
              tier-1 consistency sweep; no enumeration runs.
  search      find_perfect_coloring on random regular graphs (almost all
              exhaustive refutations), on the build_witness graphs (quick
              finds) and in count_all mode on the Platonic candidates.

Every call passes threads=1 explicitly where the API takes it, so the
PERFCOL_THREADS environment variable (cleared by the harness as well)
cannot change what is measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from itertools import combinations, permutations, product

DEFAULT_SEED = 0

# ------------------------------------------------------------------ sizes
#
# SIZES[smoke] holds the input sizes.  The smoke sizes exist only so the
# harness test finishes in seconds; their figures are not comparable.

SIZES = {
    False: {
        "enum": (5, 3),
        "dedup_paper": (4, 5),
        "t2": (4, 5),
        "predicate_sample": 60_000,
        "predicate_subsample": 3_000,
        # (degree, order, graphs per seed).  Orders with few small
        # divisors keep each graph's candidate list short, so a seed's
        # total is a sum of many similar refutations.  One graph per order
        # over the whole range made the per-seed total swing by half its
        # median, driven by a few 4-color refutations on n = 24, 28, 36.
        "random_graphs": ((3, 22, 40), (3, 26, 40), (3, 34, 15), (3, 38, 15),
                          (4, 17, 15), (4, 19, 15), (4, 23, 15)),
        "witness_cases": ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5),
                          (4, 3)),
        "solids": ("tetrahedron", "cube", "octahedron", "dodecahedron",
                   "icosahedron"),
    },
    True: {
        "enum": (4, 3),
        "dedup_paper": (3, 5),
        "t2": (4, 3),
        "predicate_sample": 2_000,
        "predicate_subsample": 300,
        "random_graphs": ((3, 22, 2), (4, 17, 2)),
        "witness_cases": ((2, 3), (3, 3)),
        "solids": ("tetrahedron", "cube"),
    },
}

# ------------------------------------------------------- pinned expectations
#
# Computed from the package as it stood when the benchmark was defined.

EXPECTED = {
    "paper.artifacts": 36,
    # (m, k) -> (survivor count, sha256 of the sorted survivor list)
    "enum": {
        (5, 3): (247, "70eab0eaa2f6d47bf753f546307ba455"
                   "81b50d245f1c036b9e63db6e4336a744"),
        (4, 3): (72, "9948b586e70d257e8028444fbbd14a24"
                  "ff965dc31e8fe9315a0cf1b0097ca2b7"),
    },
    # verdict tallies for the default seed at full size, in the order
    # weakly symmetric, color-connected, consistent, passes_filters
    "predicates.tallies": [1248, 59748, 6521, 32],
    # labeled colorings summed over the count_all candidates, per solid
    "search.labeled": {"tetrahedron": 46, "cube": 134, "octahedron": 71,
                       "dodecahedron": 164, "icosahedron": 553},
    # (refuted, found) on the random graphs for the default seed, full size
    "search.random_tally": [1629, 1],
}


def survivors_digest(survivors) -> str:
    doc = json.dumps([[list(row) for row in A.entries] for A in survivors])
    return hashlib.sha256(doc.encode()).hexdigest()


# ------------------------------------------------------------------- paper

def paper_setup(P, seed, smoke, tracer):
    import perfcol.cli
    import perfcol.golden as golden
    with tracer.span("golden.load"):
        for load in (golden.survivor_counts, golden.two_color_matrices,
                     golden.three_color_matrices, golden.platonic_candidates,
                     golden.platonic_spectra):
            load()
    return {"main": perfcol.cli.main}


def paper_run(P, inputs, tracer):
    out = io.StringIO()
    with tracer.span("cli.reproduce_paper"), contextlib.redirect_stdout(out):
        code = inputs["main"](["reproduce-paper", "--threads", "1"])
    return {"exit": code, "stdout": out.getvalue()}


def paper_check(P, inputs, out, seed, smoke, expected):
    lines = out["stdout"].splitlines()
    want = expected["paper.artifacts"]
    passed = sum(line.startswith("PASS") for line in lines)
    return [
        ("paper exit code 0", out["exit"] == 0),
        (f"paper {want} PASS lines", passed == want),
        ("paper no FAIL lines", not any(line.startswith("FAIL")
                                        for line in lines)),
        ("paper summary line", bool(lines) and lines[-1]
         == f"OK: {want} of {want} artifacts reproduced"),
    ]


def paper_probe(P, inputs, smoke):
    # the enumeration is memoized by now, so this times canonical_dedup only
    m, k = SIZES[smoke]["dedup_paper"]
    return dedup_probe(P, m, k)


# ---------------------------------------------------------------- enum-5x3

def enum_setup(P, seed, smoke, tracer):
    return {"mk": SIZES[smoke]["enum"]}


def enum_run(P, inputs, tracer):
    m, k = inputs["mk"]
    return P.enumerate_cams(m, k, threads=1)


def enum_check(P, inputs, out, seed, smoke, expected):
    m, k = inputs["mk"]
    count, digest = expected["enum"][(m, k)]
    return [
        (f"enum ({m},{k}) survivor count {count}", len(out.survivors) == count),
        (f"enum ({m},{k}) survivor digest", survivors_digest(out.survivors)
         == digest),
    ]


def enum_probe(P, inputs, smoke):
    m, k = inputs["mk"]
    return dedup_probe(P, m, k)


def ratio_ordered_conjugates(P, survivors):
    """All conjugates of each survivor whose class ratios stay sorted.

    One entry per permutation, so a class with tied ratios repeats a
    matrix.  The distinct entries are exactly the matrices that
    enumerate_cams hands to its canonical dedup.
    """
    out = []
    for S in survivors:
        ratios = P.class_ratios(S).numerators
        m = len(ratios)
        for perm in permutations(range(m)):
            if all(ratios[perm[i]] <= ratios[perm[i + 1]] for i in range(m - 1)):
                out.append(P.conjugate(S, perm).entries)
    return out


def dedup_probe(P, m, k):
    """Time canonical_dedup (through its span) on a fixed list of
    conjugates of the (m, k) survivors."""
    survivors = P.enumerate_cams(m, k, threads=1).survivors
    conjugates = ratio_ordered_conjugates(P, survivors)
    classes = P.canonical_dedup(conjugates)
    counts = {"dedup_matrices": len(conjugates),
              "dedup_in": len(set(conjugates)),
              "survivors": len(survivors)}
    checks = [(f"canonical_dedup ({m},{k}) returns the survivors",
               [A.entries for A in classes] == [A.entries for A in survivors])]
    return counts, checks


# -------------------------------------------------------------- predicates

PREDICATES = (
    ("cam.is_weakly_symmetric", "is_weakly_symmetric"),
    ("cam.is_color_connected", "is_color_connected"),
    ("cam.is_consistent", "is_consistent"),
    ("enumeration.passes_filters", "passes_filters"),
)


def compositions(k: int, m: int) -> list[tuple[int, ...]]:
    return [c for c in product(range(k + 1), repeat=m) if sum(c) == k]


def predicates_setup(P, seed, smoke, tracer):
    sizes = SIZES[smoke]
    rows = compositions(5, 4)
    rng = random.Random(seed)
    # rows drawn independently and uniformly: a uniform draw from the
    # whole (4,5) row-sum space
    sample = [tuple(rng.choice(rows) for _ in range(4))
              for _ in range(sizes["predicate_sample"])]
    subsample = rng.sample(range(len(sample)), sizes["predicate_subsample"])
    return {"sample": sample, "subsample": subsample}


def predicates_run(P, inputs, tracer):
    # One pass per predicate, timed as a batch: a span per call would
    # cost a sizable share of a call that takes a few microseconds.
    sample = inputs["sample"]
    verdicts = {}
    for span_name, public in PREDICATES:
        fn = getattr(P, public)
        with tracer.span(span_name, calls=len(sample)):
            verdicts[span_name] = list(map(fn, sample))
    return verdicts


def consistent_by_cycles(a) -> bool:
    """Consistency from its definition: around every cyclic sequence of
    distinct indices, the forward and backward products agree.  Length-2
    cycles agree trivially; longer cycles are anchored at their smallest
    index."""
    m = len(a)
    for t in range(3, m + 1):
        for subset in combinations(range(m), t):
            for rest in permutations(subset[1:]):
                cycle = (subset[0],) + rest
                forward = backward = 1
                for i in range(t):
                    u, v = cycle[i], cycle[(i + 1) % t]
                    forward *= a[u][v]
                    backward *= a[v][u]
                if forward != backward:
                    return False
    return True


def weakly_symmetric_by_definition(a) -> bool:
    m = len(a)
    return all((a[i][j] > 0) == (a[j][i] > 0)
               for i in range(m) for j in range(m))


def connected_by_definition(a) -> bool:
    m = len(a)
    reached = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for w in range(m):
            if w not in reached and (a[u][w] or a[w][u]):
                reached.add(w)
                frontier.append(w)
    return len(reached) == m


def predicates_check(P, inputs, out, seed, smoke, expected):
    sample, subsample = inputs["sample"], inputs["subsample"]
    ws, cc, cons, passes = (out[name] for name, _ in PREDICATES)
    checks = []
    for name, own in (("cam.is_weakly_symmetric", weakly_symmetric_by_definition),
                      ("cam.is_color_connected", connected_by_definition),
                      ("cam.is_consistent", consistent_by_cycles)):
        checks.append((f"{name} agrees with its definition on the subsample",
                       all(out[name][i] == own(sample[i]) for i in subsample)))
    checks.append(("passes_filters implies the three conditions",
                   all(ws[i] and cc[i] and cons[i]
                       for i in range(len(sample)) if passes[i])))
    if seed == DEFAULT_SEED and not smoke:
        tallies = [sum(out[name]) for name, _ in PREDICATES]
        checks.append(("predicate tallies for the default seed",
                       tallies == expected["predicates.tallies"]))
    return checks


# ------------------------------------------------------------------ search

def random_regular_graph(P, rng, n: int, k: int):
    """A uniform connected simple k-regular graph on n vertices.

    Pairing model: shuffle n*k points, pair them in order, and redraw the
    whole pairing on a loop, a repeated edge or a disconnected result.
    """
    points = [v for v in range(n) for _ in range(k)]
    while True:
        rng.shuffle(points)
        edges = set()
        for u, v in zip(points[::2], points[1::2]):
            edge = (min(u, v), max(u, v))
            if u == v or edge in edges:
                break
            edges.add(edge)
        else:
            graph = P.Graph.from_edges(n, sorted(edges))
            if graph.is_connected():
                return graph


def search_setup(P, seed, smoke, tracer):
    import perfcol.golden as golden
    sizes = SIZES[smoke]
    rng = random.Random(seed)
    survivors = {}

    def survivors_of(m, k):
        if (m, k) not in survivors:
            survivors[(m, k)] = P.enumerate_cams(m, k, threads=1).survivors
        return survivors[(m, k)]

    random_pairs = []
    for k, n, count in sizes["random_graphs"]:
        fitting = [A for m in (2, 3, 4) for A in survivors_of(m, k)
                   if P.sizes_for(A, n) is not None]
        for _ in range(count):
            graph = random_regular_graph(P, rng, n, k)
            random_pairs += [(graph, A) for A in fitting]
    witness = [A for m, k in sizes["witness_cases"] for A in survivors_of(m, k)]
    candidates = golden.platonic_candidates()
    platonic = [(solid, P.platonic(solid), P.ColorAdjacencyMatrix(A))
                for solid in sizes["solids"]
                for m in sorted(candidates[solid])
                for A in candidates[solid][m]["candidates"]]
    return {"random": random_pairs, "witness": witness, "platonic": platonic}


def search_run(P, inputs, tracer):
    find = P.find_perfect_coloring
    build = P.build_witness
    verify = P.verify_coloring
    random_out = [find(graph, A) for graph, A in inputs["random"]]
    witness_out = []
    for A in inputs["witness"]:
        graph, coloring = build(A)
        witness_out.append((graph, verify(graph, coloring), find(graph, A)))
    count_out = [find(graph, A, mode="count_all")
                 for _, graph, A in inputs["platonic"]]
    return {"random": random_out, "witness": witness_out, "count_all": count_out}


def search_check(P, inputs, out, seed, smoke, expected):
    def realizes(graph, A, outcome):
        back = P.verify_coloring(graph, outcome.witness)
        return back is not None and back.entries == A.entries

    found = [(g, A, o) for (g, A), o in zip(inputs["random"], out["random"])
             if o.realizable]
    found += [(g, A, o) for A, (g, _, o) in zip(inputs["witness"], out["witness"])]
    found += [(g, A, o) for (_, g, A), o in zip(inputs["platonic"], out["count_all"])
              if o.realizable]
    labeled = {}
    for (solid, _, _), outcome in zip(inputs["platonic"], out["count_all"]):
        labeled[solid] = labeled.get(solid, 0) + outcome.labeled_count
    checks = [
        ("search: every found witness passes verify_coloring",
         all(o.witness is not None and realizes(g, A, o) for g, A, o in found)),
        ("search: every build_witness graph round-trips",
         all(back is not None and back.entries == A.entries
             for A, (_, back, _) in zip(inputs["witness"], out["witness"]))),
        ("search: a coloring is found on every build_witness graph",
         all(o.realizable for _, _, o in out["witness"])),
        ("search: labeled colorings per Platonic solid",
         labeled == {solid: expected["search.labeled"][solid]
                     for solid in labeled}),
    ]
    if seed == DEFAULT_SEED and not smoke:
        found_random = sum(o.realizable for o in out["random"])
        tally = [len(out["random"]) - found_random, found_random]
        checks.append(("search: refuted and found tallies for the default seed",
                       tally == expected["search.random_tally"]))
    return checks


WORKLOADS = {
    "paper": (paper_setup, paper_run, paper_check, paper_probe),
    "enum-5x3": (enum_setup, enum_run, enum_check, enum_probe),
    "predicates": (predicates_setup, predicates_run, predicates_check, None),
    "search": (search_setup, search_run, search_check, None),
}
