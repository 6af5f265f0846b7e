"""Backtracking search for perfect colorings of a concrete graph.

Given a connected k-regular graph and a candidate matrix A, the search
colors vertices in breadth-first order from vertex 0 and prunes a
partial assignment as soon as some vertex collects more color-j
neighbors than its row of A allows, or some class outgrows its forced
size.  For a regular graph the per-color neighbor deficits of a vertex
always sum to its number of uncolored neighbors, so once every count is
within bounds no separate "can the remaining neighbors still supply
enough" prune can fire; the counting prune subsumes it.

The class sizes are forced: a perfect coloring of a connected graph
must split the n vertices proportionally to the class ratio vector, so
a matrix whose ratios do not divide n evenly is rejected outright, as
is any matrix failing weak symmetry, consistency, or color
connectivity (all necessary on a connected graph).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cam import ColorAdjacencyMatrix, _ratios, _scaled, entries_of, sizes_for
from .graphs import Coloring, Graph, platonic
from .spectral import spectral_filter
from .enumeration import enumerate_cams


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one realizability search.

    In "first" mode labeled_count stays None; in "count_all" mode it
    holds the number of valid vertex-labeled assignments and witness is
    the first one found.
    """

    realizable: bool
    witness: Coloring | None
    labeled_count: int | None


def find_perfect_coloring(G: Graph, A, mode: str = "first") -> SearchOutcome:
    """Search G for a perfect coloring with color adjacency matrix A.

    Args:
        G: a connected regular graph whose degree equals A's row sum.
        A: the candidate matrix.
        mode: "first" stops at the first valid assignment, "count_all"
            counts every vertex-labeled valid assignment.

    Returns:
        A SearchOutcome; unrealizable matrices (including those failing
        the validity conditions or whose class sizes cannot be integers
        on G.n vertices) simply come back unrealizable.

    Raises:
        ValueError: if mode is unknown, A's row sums are not constant,
            G is not regular of the matching degree, or G is not
            connected.
    """
    if mode not in ("first", "count_all"):
        raise ValueError(f"unknown mode {mode!r}")
    a = entries_of(A)
    m = len(a)
    sums = {sum(row) for row in a}
    if len(sums) != 1:
        raise ValueError("matrix row sums must be constant")
    k = sums.pop()
    if G.regularity() != k:
        raise ValueError(f"graph must be {k}-regular to match the matrix")
    if not G.is_connected():
        raise ValueError("search expects a connected graph")
    counting = mode == "count_all"
    try:
        quota = _scaled(_ratios(a), G.n)
    except ValueError:
        quota = None  # the matrix fails a validity condition
    if quota is None:
        return SearchOutcome(False, None, 0 if counting else None)

    order = G.bfs_order(0)
    adj = G.adj
    n = G.n
    color = [0] * n
    counts = [[0] * m for _ in range(n)]
    used = [0] * m
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
            mine = counts[v]
            for i in range(start, m):
                if used[i] == quota[i]:
                    continue
                row = a[i]
                if any(mine[j] > row[j] for j in range(m)):
                    continue
                feasible = True
                placed = 0
                for u in adj[v]:
                    counts[u][i] += 1
                    placed += 1
                    cu = color[u]
                    if cu and counts[u][i] > a[cu - 1][i]:
                        feasible = False
                        break
                if feasible:
                    break
                for u in adj[v][:placed]:
                    counts[u][i] -= 1
            else:
                i = m
            if i < m:
                color[v] = i + 1
                used[i] += 1
                idx += 1
                start = 0
                continue
        if idx == 0:
            break
        # backtrack: undo the color placed one level up, try the next one
        idx -= 1
        v = order[idx]
        i = color[v] - 1
        color[v] = 0
        used[i] -= 1
        for u in adj[v]:
            counts[u][i] -= 1
        start = i + 1
    witness = Coloring(first, m) if first is not None else None
    return SearchOutcome(found > 0, witness, found if counting else None)


def platonic_survey(name: str, m: int, threads: int | None = None):
    """The full candidate pipeline for one Platonic graph and m colors.

    Enumerates all survivors for (m, degree of the solid), keeps those
    whose class sizes are integers on the solid's vertex count and whose
    characteristic polynomial divides the graph's, then decides
    realizability of each by search.  Returns (matrix, outcome) pairs in
    the survivors' canonical order.  threads is passed to enumerate_cams.
    """
    graph = platonic(name)
    degree = graph.regularity()
    result = enumerate_cams(m, degree, threads=threads)
    survey: list[tuple[ColorAdjacencyMatrix, SearchOutcome]] = []
    for candidate in result.survivors:
        if sizes_for(candidate, graph.n) is None:
            continue
        if not spectral_filter(candidate, graph):
            continue
        survey.append((candidate, find_perfect_coloring(graph, candidate)))
    return survey
