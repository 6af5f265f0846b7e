"""Independent reference implementations used only by the test suite.

Everything here recomputes a result from its definition, by a route
different from the shipped code, so agreement between the two is
meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product


def consistent_by_cycles(a) -> bool:
    """Consistency straight from the definition.

    Every cyclic sequence of distinct indices (n_1 ... n_t) with
    3 <= t <= m is checked; length-2 cycles hold identically.  Each
    cycle is anchored at its smallest index, and both orientations are
    generated (checking a reflection repeats a check, which is harmless).
    """
    m = len(a)
    for t in range(3, m + 1):
        for subset in combinations(range(m), t):
            first = subset[0]
            for rest in permutations(subset[1:]):
                cyc = (first,) + rest
                forward = 1
                backward = 1
                for i in range(t):
                    u, v = cyc[i], cyc[(i + 1) % t]
                    forward *= a[u][v]
                    backward *= a[v][u]
                if forward != backward:
                    return False
    return True


def weakly_symmetric_by_definition(a) -> bool:
    """Weak symmetry straight from the definition: a_ij = 0 exactly when
    a_ji = 0, checked for every ordered pair i != j."""
    m = len(a)
    return all((a[i][j] == 0) == (a[j][i] == 0)
               for i in range(m) for j in range(m) if i != j)


def connected_by_definition(a) -> bool:
    """Connectivity of the color graph as the absence of a block split.

    The color graph (an edge {i, j} when a_ij > 0 or a_ji > 0) is
    disconnected exactly when some nonempty proper set S of colors has
    a_ij = a_ji = 0 for every i in S and j outside it, that is, when a
    is conjugate to a block diagonal matrix with more than one block.
    Every such S is tried; no graph is searched.
    """
    m = len(a)
    for size in range(1, m):
        for block in combinations(range(m), size):
            rest = [j for j in range(m) if j not in block]
            if all(a[i][j] == 0 and a[j][i] == 0 for i in block for j in rest):
                return False
    return True


def cycle_check_arrays(m: int):
    """Index arrays for a vectorized version of consistent_by_cycles.

    Returns a list of (us, vs) pairs, one per anchored cycle, where the
    cycle's forward product multiplies a[u][v] over zip(us, vs) and the
    backward product multiplies a[v][u].
    """
    cycles = []
    for t in range(3, m + 1):
        for subset in combinations(range(m), t):
            first = subset[0]
            for rest in permutations(subset[1:]):
                cyc = (first,) + rest
                us = [cyc[i] for i in range(t)]
                vs = [cyc[(i + 1) % t] for i in range(t)]
                cycles.append((us, vs))
    return cycles


def consistency_verdicts_vectorized(mats, m: int):
    """Cycle-definition consistency for a whole batch of matrices at once.

    mats is a numpy array of shape (count, m, m) with small nonnegative
    integer entries.  Returns a boolean array of per-matrix verdicts.
    Products are taken in int64; with entries <= 5 and at most 4 factors
    the products stay far below overflow.
    """
    import numpy as np

    verdicts = np.ones(len(mats), dtype=bool)
    for us, vs in cycle_check_arrays(m):
        forward = np.ones(len(mats), dtype=np.int64)
        backward = np.ones(len(mats), dtype=np.int64)
        for u, v in zip(us, vs):
            forward *= mats[:, u, v]
            backward *= mats[:, v, u]
        verdicts &= forward == backward
    return verdicts


def count_valid_matrices(m: int, k: int, chunk: int = 500_000) -> int:
    """How many m x m matrices with all row sums k are weakly symmetric,
    color-connected and consistent, with no ratio order imposed.

    Only weakly symmetric matrices are generated.  Each off-diagonal
    support pattern (a symmetric boolean matrix) is fixed first, and
    kept only if its boolean reachability closure is full, which is
    color connectivity.  Each row is then drawn from the compositions of
    k whose off-diagonal nonzeros match the pattern's row exactly (the
    weak-symmetry mask), and consistency_verdicts_vectorized counts the
    consistent ones among the row products, in batches of chunk.
    """
    import numpy as np

    comps = np.array(sorted(compositions(k, m)), dtype=np.int8)
    off = ~np.eye(m, dtype=bool)
    pairs = list(combinations(range(m), 2))
    total = 0
    batch, size = [], 0
    for bits in product((False, True), repeat=len(pairs)):
        support = np.eye(m, dtype=bool)
        for (i, j), bit in zip(pairs, bits):
            support[i, j] = support[j, i] = bit
        reach = support
        for _ in range(m.bit_length()):
            reach = reach @ reach
        if not reach.all():
            continue
        choices = [comps[np.all((comps[:, off[i]] > 0) == support[i, off[i]],
                                axis=1)] for i in range(m)]
        count = 1
        for rows in choices:
            count *= len(rows)
        for start in range(0, count, chunk):
            idx = np.unravel_index(
                np.arange(start, min(start + chunk, count)),
                [len(rows) for rows in choices])
            batch.append(np.stack(
                [rows[i] for rows, i in zip(choices, idx)], axis=1))
            size += len(batch[-1])
            if size >= chunk:
                total += int(consistency_verdicts_vectorized(
                    np.concatenate(batch), m).sum())
                batch, size = [], 0
    if batch:
        total += int(consistency_verdicts_vectorized(
            np.concatenate(batch), m).sum())
    return total


def ratios_by_least_solution(a) -> tuple[int, ...] | None:
    """Smallest positive integer solution of a_ij v_i = a_ji v_j, by search.

    Tries total sizes 1, 2, 3, ... and all compositions of each, so it is
    only usable for tiny matrices; that independence is the point.
    Returns None when no solution exists with total <= 60.
    """
    m = len(a)
    for total in range(1, 61):
        for v in compositions(total, m):
            if all(x > 0 for x in v) and all(
                a[i][j] * v[i] == a[j][i] * v[j]
                for i in range(m) for j in range(m)
            ):
                return v
    return None


def canonical_by_definition(a) -> tuple[tuple[int, ...], ...]:
    """The smallest of all m! conjugates of a whose permuted class ratios
    stay nondecreasing.

    The ratios are exact fractions, v_0 = 1 and v_j = v_i a_ij / a_ji
    along a search from color 0, so a must be weakly symmetric,
    connected and consistent.
    """
    m = len(a)
    v = [None] * m
    v[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(m):
            if a[i][j] and v[j] is None:
                v[j] = v[i] * a[i][j] / a[j][i]
                stack.append(j)
    return min(tuple(tuple(a[p[i]][p[j]] for j in range(m)) for i in range(m))
               for p in permutations(range(m))
               if all(v[p[i]] <= v[p[i + 1]] for i in range(m - 1)))


def random_regular_edges(rng, n: int, k: int) -> list[tuple[int, int]]:
    """The sorted edges of a connected simple k-regular graph on n
    vertices, by redrawing a random pairing of n*k points until it has
    no loop or repeated edge and is connected."""
    points = [v for v in range(n) for _ in range(k)]
    while True:
        rng.shuffle(points)
        edges = set()
        for u, v in zip(points[::2], points[1::2]):
            if u == v or (min(u, v), max(u, v)) in edges:
                break
            edges.add((min(u, v), max(u, v)))
        else:
            nbrs = [[] for _ in range(n)]
            for u, v in edges:
                nbrs[u].append(v)
                nbrs[v].append(u)
            seen = {0}
            stack = [0]
            while stack:
                for w in nbrs[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) == n:
                return sorted(edges)


def compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def all_colorings_brute_force(graph, a) -> list[tuple[int, ...]]:
    """Every assignment of colors 1..m to graph's vertices realizing a.

    Checks all m**n assignments against the definition: all colors used,
    and each vertex of color i has exactly a[i][j] neighbors of color j.
    """
    m = len(a)
    n = graph.n
    found = []
    for assignment in product(range(1, m + 1), repeat=n):
        if len(set(assignment)) != m:
            continue
        ok = True
        for v in range(n):
            i = assignment[v] - 1
            counts = [0] * m
            for u in graph.adj[v]:
                counts[assignment[u] - 1] += 1
            if counts != list(a[i]):
                ok = False
                break
        if ok:
            found.append(assignment)
    return found


def row_sum_space_chunks(m: int, k: int, chunk: int = 1_000_000):
    """The full m x m row-sum-k matrix space as numpy chunks.

    Yields arrays of shape (count, m, m) in the same lexicographic order
    as iterating compositions row by row (outermost row first), without
    ever materializing the whole space as Python objects.  Matrix number
    idx has row i equal to composition number (idx // c**(m-1-i)) % c,
    where c is the composition count.
    """
    import numpy as np

    comps = np.array(sorted(compositions(k, m)), dtype=np.int8)
    c = len(comps)
    total = c ** m
    for start in range(0, total, chunk):
        count = min(chunk, total - start)
        idx = np.arange(start, start + count)
        rows = [comps[(idx // c ** (m - 1 - i)) % c] for i in range(m)]
        yield np.stack(rows, axis=1)


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    """Multiply coefficient lists (highest degree first)."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def expand_factors(factors) -> list[int]:
    """Expand [(coeffs, multiplicity), ...] into one coefficient list."""
    out = [1]
    for coeffs, mult in factors:
        for _ in range(mult):
            out = poly_mul(out, list(coeffs))
    return out


def search_by_backtracking(graph, a) -> tuple[int, tuple[int, ...] | None]:
    """(count, first) over the colorings of a connected graph realizing a.

    Plain backtracking with no look-ahead: vertices are colored in
    breadth-first order from vertex 0, neighbors taken in ascending
    order, and colors 1..m are tried in ascending order.  The only test
    is on neighbor counts: after each placement, every colored vertex
    at or next to it may have no more neighbors of a color than its row
    allows, and exactly as many once all its neighbors are colored.  A
    full assignment must also use all m colors.  first is the first
    coloring met, or None when count is 0.
    """
    m = len(a)
    n = graph.n
    adj = [sorted(graph.adj[v]) for v in range(n)]
    order = [0]
    for v in order:
        order += [u for u in adj[v] if u not in order]
    color = [0] * n
    found = []

    def within_row(v) -> bool:
        have = [0] * m
        for u in adj[v]:
            if color[u]:
                have[color[u] - 1] += 1
        row = list(a[color[v] - 1])
        if all(color[u] for u in adj[v]):
            return have == row
        return all(h <= r for h, r in zip(have, row))

    def extend(depth: int) -> None:
        if depth == n:
            if len(set(color)) == m:
                found.append(tuple(color))
            return
        v = order[depth]
        for c in range(1, m + 1):
            color[v] = c
            if all(within_row(w) for w in [v, *adj[v]] if color[w]):
                extend(depth + 1)
        color[v] = 0

    extend(0)
    return len(found), (found[0] if found else None)


def sizes_meet_bounds(a, sizes) -> bool:
    """Whether class sizes meet the counting bounds of a perfect coloring
    with matrix a on a simple graph, written out from the definition:
    each vertex of class j has a_ji distinct neighbors of color i, other
    than itself, so class i holds at least a_ji + [i = j] vertices; and
    class i induces an a_ii-regular graph on its sizes[i] vertices,
    whose degree sum a_ii sizes[i] is twice its edge count."""
    m = len(a)
    return (all(sizes[i] >= a[j][i] + (1 if i == j else 0)
                for i in range(m) for j in range(m))
            and all((a[i][i] * sizes[i]) % 2 == 0 for i in range(m)))


def minimal_sizes_by_bounds(a) -> tuple[int, ...]:
    """The least multiple of ratios_by_least_solution(a) that meets
    sizes_meet_bounds, trying the multiples 1, 2, 3, ... in turn."""
    ratios = ratios_by_least_solution(a)
    lam = 1
    while not sizes_meet_bounds(a, [lam * x for x in ratios]):
        lam += 1
    return tuple(lam * x for x in ratios)
