"""Backtracking search for perfect colorings of a concrete graph.

Given a connected k-regular graph and a candidate matrix A, the search
decides vertices in breadth-first order from vertex 0 and tries colors
in ascending order.  Every vertex carries a domain, the bitmask of
colors it may still take, and placing color i at v cuts domains by
three rules:

  - an uncolored neighbor u of v now has x color-i neighbors, so it
    keeps only the colors whose row allows x of them (fits[i][x]);
  - a colored neighbor u whose count of color-i neighbors reaches
    a[c_u][i] has no room for another, so i leaves the domains of u's
    uncolored neighbors;
  - every color j whose quota a[i][j] v has already met leaves the
    domains of v's uncolored neighbors.

Neighbor counts only grow along a branch and a perfect coloring needs
each of them exact, so every color a rule removes fails in every
completion.  A vertex that a cut leaves one color can thus take only
that color: it is placed at once with the same cuts (unit propagation)
until nothing more is forced, and an empty domain fails the decision.
The order skips forced vertices.  Decisions keep the vertex and color
order and no step changes the solutions below one, so the search meets
the same solutions in the same order as plain backtracking: the first
witness and the count do not change.  By the second and third rules no
uncolored neighbor of a colored vertex holds a color the vertex has no
room for, so a colored vertex never outgrows its row: it needs no
overflow test, and its domain is not read.
A decision pushes (None, its index in the order) on a trail, then a
(vertex, old domain) pair for its vertex and per cut; a forced vertex
is colored after the cut that left it one color.  Backtracking pops
pairs down to that mark, uncolors each vertex whose pair it finds
colored, restores the domains and resumes at the mark's index.

Class sizes need no check in the loop: at a leaf each vertex has k
colored neighbors, none beyond its row, and rows sum to k, so every
count is exact; with a connected color graph every color is then used,
at the size its ratios force (a_ij v_i = a_ji v_j).  So a candidate is
decided in one order: integer sizes (ratios dividing n), the spectrum
(surveys only), the class-size rule of graphs._sizes_fit, then search.
A negative entry or failed weak symmetry, consistency or connectivity
(all necessary on a connected graph) leaves no integer sizes.  Both
find_perfect_coloring, which validates at the boundary, and _survey,
which has the sizes from the scan, hand them to the kernel _search.
"""

from __future__ import annotations

from .cam import (ColorAdjacencyMatrix, _Value, _ratios_or_none, _row_sum,
                  _scaled, entries_of)
from .graphs import Coloring, Graph, _sizes_fit, platonic
from .spectral import spectral_filter
from .enumeration import enumerate_cams

__all__ = ["SearchOutcome", "find_perfect_coloring", "platonic_survey"]


class SearchOutcome(_Value):
    """Result of one realizability search.

    In "first" mode labeled_count stays None; in "count_all" mode it
    holds the number of valid vertex-labeled assignments and witness is
    the first one found.
    """

    realizable: bool
    witness: Coloring | None
    labeled_count: int | None

    def __init__(self, realizable, witness, labeled_count):
        self._set(realizable, witness, labeled_count)


def find_perfect_coloring(G: Graph, A, mode: str = "first") -> SearchOutcome:
    """Search G for a perfect coloring with color adjacency matrix A.

    Args:
        G: a connected regular graph whose degree equals A's row sum.
        A: the candidate matrix.
        mode: "first" stops at the first valid assignment, "count_all"
            counts every vertex-labeled valid assignment.

    Returns:
        A SearchOutcome; unrealizable matrices (including those with a
        negative entry, those failing the validity conditions, and those
        whose class sizes on G.n vertices are not integers or break the
        class-size rule) simply come back unrealizable.

    Raises:
        ValueError: if mode is unknown, A's row sums are not constant,
            G is not regular of the matching degree, or G is not
            connected.
    """
    if mode not in ("first", "count_all"):
        raise ValueError(f"unknown mode {mode!r}")
    a = entries_of(A)
    k = _row_sum(a)
    if k is None:
        raise ValueError("matrix row sums must be constant")
    if G.regularity() != k:
        raise ValueError(f"graph must be {k}-regular to match the matrix")
    order = G.bfs_order(0)
    if len(order) != G.n:
        raise ValueError("search expects a connected graph")
    ratios = _ratios_or_none(a)
    sizes = None if ratios is None else _scaled(ratios, G.n)
    return _search(G, order, a, sizes, mode == "count_all")


def _search(G, order, a, sizes, counting: bool) -> SearchOutcome:
    """The search kernel: G connected and regular of a's row sum, order
    G.bfs_order(0), sizes a's class sizes on G.n vertices (None if not
    integers); counting as mode "count_all"."""
    if sizes is None or not _sizes_fit(a, sizes):
        return SearchOutcome(False, None, 0 if counting else None)
    m = len(a)
    adj = G.adj
    n = G.n
    # fits[i][x]: the colors (as a bitmask) whose row allows x of color i
    fits = [[0] * (sum(a[0]) + 1) for _ in range(m)]
    for c, row in enumerate(a):
        for i, most in enumerate(row):
            for x in range(most + 1):
                fits[i][x] |= 1 << c
    color = [0] * n
    counts = [[0] * m for _ in range(n)]
    dom = [(1 << m) - 1] * n
    # per decision: (None, its index), then (vertex, its domain before) pairs
    trail: list[tuple[int | None, int]] = []
    found = 0
    first: tuple[int, ...] | None = None
    idx = 0
    start = 0  # the first color index to try at depth idx
    while True:
        if idx == n:
            found += 1
            if first is None:
                first = tuple(color)
            if not counting:
                break
        else:
            v = order[idx]
            choices = dom[v] >> start << start
            if choices:
                # decide the lowest color left at v, then place it and
                # every color that the cuts force
                trail += ((None, idx), (v, dom[v]))
                dom[v] = choices & -choices
                alive = True
                pending = [v]
                for v in pending:
                    bit = dom[v]
                    i = bit.bit_length() - 1
                    color[v] = i + 1
                    # colors whose quota at v is not met yet
                    row = a[i]
                    mine = counts[v]
                    keep = 0
                    for j in range(m):
                        if mine[j] < row[j]:
                            keep |= 1 << j
                    fit = fits[i]
                    for u in adj[v]:
                        theirs = counts[u]
                        x = theirs[i] + 1
                        theirs[i] = x
                        cu = color[u]
                        if not cu:
                            du = dom[u]
                            d = du & fit[x] & keep
                            if d != du:
                                trail.append((u, du))
                                dom[u] = d
                                if not d:
                                    alive = False
                                elif not d & (d - 1):  # one color left
                                    pending.append(u)
                        elif x == a[cu - 1][i]:
                            for w in adj[u]:
                                dw = dom[w]
                                if dw & bit and not color[w]:
                                    trail.append((w, dw))
                                    dom[w] = dw = dw ^ bit
                                    if not dw:
                                        alive = False
                                    elif not dw & (dw - 1):
                                        pending.append(w)
                    if not alive:
                        break
                if alive:
                    # on to the next vertex in the order still uncolored
                    while idx < n and color[order[idx]]:
                        idx += 1
                    start = 0
                    continue
        if not trail:
            break
        # backtrack: undo the last decision and what it forced; next color
        u, du = trail.pop()
        while u is not None:
            i = color[u] - 1
            if i >= 0:
                color[u] = 0
                for w in adj[u]:
                    counts[w][i] -= 1
            dom[u] = du
            u, du = trail.pop()
        idx = du  # the mark's index; the decided vertex's pair came last
        start = i + 1
    witness = Coloring(first, m) if first is not None else None
    return SearchOutcome(found > 0, witness, found if counting else None)


def platonic_survey(name: str, m: int, threads: int | None = None):
    """The candidate pipeline for one Platonic graph and m colors.

    (matrix, outcome) pairs, in canonical order, for the survivors at
    (m, degree of the solid) whose class sizes on the solid are integers
    and whose spectrum passes spectral_filter; the outcome is a "first"
    search.  threads as in enumerate_cams: None or 1 is one process.
    """
    return _survey(platonic(name), m, threads)


def _survey(graph: Graph, m: int, threads: int | None):
    """platonic_survey's pipeline on any connected regular graph."""
    order = graph.bfs_order(0)
    result = enumerate_cams(m, graph.regularity(), threads=threads)
    survey: list[tuple[ColorAdjacencyMatrix, SearchOutcome]] = []
    for candidate, ratios in zip(result.survivors, result.ratios):
        sizes = _scaled(ratios, graph.n)
        # the public spectral_filter: the benchmark times its traced calls
        if sizes is not None and spectral_filter(candidate, graph):
            outcome = _search(graph, order, candidate.entries, sizes, False)
            survey.append((candidate, outcome))
    return survey
