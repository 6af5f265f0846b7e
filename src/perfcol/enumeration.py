"""Exhaustive enumeration of color adjacency matrices up to relabeling.

For m colors and regularity k there are binom(k+m-1, m-1)^m candidate
matrices with the right row sums.  A matrix survives if it is weakly
symmetric, color-connected, consistent, and its class ratio vector is
nondecreasing (for two colors this is just a_12 >= a_21, since the class
sizes are proportional to (a_21, a_12)).  Survivors that are conjugate,
meaning they describe the same coloring with the colors relabeled, are
then identified, keeping the lexicographically smallest conjugate.

The full row-sum space is never walked.  Rows are ordered compositions
of k.  For j < i every survivor has a_ij = a_ji = 0 (weak symmetry) or
0 < a_ij <= a_ji (from a_ij v_i = a_ji v_j with v_j <= v_i), so once the
rows above row i are fixed, the first i entries of row i range over a
box, and the scan looks each prefix in that box up in a table of the
compositions that start with it.  Every placed prefix is therefore
weakly symmetric.

The other conditions are decided at the depth where they fail.  Once
rows 0..i are placed, every pair among colors 0..i is known, so the
scan carries integer potentials v_0..v_i and the components of colors
0..i, and drops row i when
  (a) the pairs of row i give v_i two values in one component;
  (b) v is not nondecreasing along the members of a component;
  (c) i < m-1 and the component of i has no positive entry to a color
      beyond i, so no completion is connected (a component that row i
      does not touch kept such an entry from the depth it last grew);
  (d) for a color t < i in i's component with v_t = v_i, exchanging t
      and i makes rows 0..i lexicographically smaller.
The pairs within a component, and so its ratios and ties, never change
later, so a dropped prefix has no kept completion.  A component's mask,
the support of its member rows, is check (c) by its bits above i and the
test whether row i touches it by bit i.  A bit j < m-1 past the depth
where a component last grew would have made row j touch it, so by (c)
every component reaches color m-1: the last row joins them all, with no
partition or connectivity pass, and check (b) there reads all of v.  The
leaf only checks, with v as the ratios, that the matrix is the smallest
of its ratio-order-keeping conjugates.  There v is nondecreasing, so
these are the relabelings inside its runs of tied ratios, built once per
tie pattern.  Check (d) and the leaf are one prefix test, _smaller: does
a relabeling that maps 0..d-1 onto itself make rows 0..d-1 smaller?  The
scan carries the placed rows as one flat row-major tuple, and a
relabeling is one itemgetter of its first d rows over that tuple, so the
test is a single lookup and tuple comparison per relabeling; row-major
tuple order is the row-by-row order.  (d) asks it of the swaps of i with
its tied colors at d = i+1, the leaf of its tie pattern's relabelings at
d = m, and canonical_form takes the smallest image under the same
getters.  Rows are drawn in lexicographic order, so the leaves arrive
sorted, and each class is emitted exactly once, without a set of keys or
a sort.  A kept leaf hands back its potentials reduced by their gcd:
they are its class ratios, so no caller walks the survivors again to
find them.

Cache policy: memoize results keyed by public arguments, never per-call
tables.  The memo sites: enumerate_cams per (m, k), unbounded, holding
the survivors with their ratios;
spectral._graph_char_poly per Graph, at most 64; golden.load per file
name, at most the five shipped files.  Each scan rebuilds its tables:
the compositions, their prefix table, the prefixes of each box, the
flat swap getter of each color pair and the flat relabeling getters of
each tie pattern.
"""

from __future__ import annotations

from itertools import chain, combinations, groupby, permutations, product
from math import comb, gcd
from operator import eq, index, itemgetter, le

from .cam import (
    ColorAdjacencyMatrix,
    _Value,
    _cam,
    _ratios,
    _ratios_or_none,
    _row_sum,
    entries_of,
)

__all__ = ["EnumerationResult", "canonical_dedup", "canonical_form",
           "enumerate_cams", "generate_row_sum_matrices", "passes_filters"]


class EnumerationResult(_Value):
    """Outcome of one (m, k) enumeration run.

    raw_count is the size of the unfiltered row-sum space,
    binom(k+m-1, m-1)^m; survivors is the canonical deduplicated list,
    sorted lexicographically; ratios[i] is the reduced class ratio
    vector of survivors[i], class_ratios(survivors[i]).numerators.
    """

    m: int
    k: int
    raw_count: int
    survivors: tuple[ColorAdjacencyMatrix, ...]
    ratios: tuple[tuple[int, ...], ...]

    def __init__(self, m, k, raw_count, survivors, ratios):
        self._set(m, k, raw_count, survivors, ratios)


def _compositions(k: int, m: int) -> tuple[tuple[int, ...], ...]:
    """All m-tuples of nonnegative integers summing to k, lexicographic:
    the gaps between m-1 bars taken in lexicographic order from k+m-1
    slots (stars and bars)."""
    end = (k + m - 1,)
    return tuple(tuple(y - x - 1 for x, y in zip((-1,) + bars, bars + end))
                 for bars in combinations(range(k + m - 1), m - 1))


def generate_row_sum_matrices(m: int, k: int):
    """Yield every m x m matrix with all row sums k, in lexicographic order.

    The stream has binom(k+m-1, m-1)^m elements.  enumerate_cams does
    not consume this stream (it bounds each row by the rows above it
    instead), but canonical_dedup of the filtered stream must and does
    agree with it.
    """
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    yield from map(_cam, product(_compositions(k, m), repeat=m))


def passes_filters(A) -> bool:
    """The per-matrix filter of the enumeration.

    True iff A has a common row sum, is weakly symmetric,
    color-connected, consistent, and its class ratio vector is
    nondecreasing.
    """
    a = entries_of(A)
    ratios = _ratios_or_none(a)
    return ratios is not None and _row_sum(a) is not None and all(
        x <= y for x, y in zip(ratios, ratios[1:]))


def canonical_form(A) -> ColorAdjacencyMatrix:
    """The canonical representative of A's conjugacy class.

    Among all conjugates whose permuted ratio vector stays nondecreasing,
    the row-major lexicographically smallest is the representative.
    Those conjugates are walked directly: sort the colors by ratio, then
    permute the colors freely inside each block of tied ratios.
    """
    return _cam(_canonical(entries_of(A), {}))


def _canonical(a, tables):
    """The smallest conjugate of a whose ratios stay nondecreasing.

    Sort the colors by ratio, then take the smallest of the relabelings
    inside the runs of tied ratios, on the flat row-major entries.
    """
    ratios = _ratios(a)
    m = len(a)
    order = sorted(range(m), key=ratios.__getitem__)
    flat = tuple([a[i][j] for i in order for j in order])
    relabelings = _relabelings(sorted(ratios), tables)
    best = min((flat, *(get(flat) for get in relabelings)))
    return tuple(best[r:r + m] for r in range(0, m * m, m))


def _flat_getter(perm, depth: int):
    """An itemgetter that relabels the colors of rows 0..depth-1 of a
    flat row-major m x m tuple by perm: its entry (r, c) is entry
    (perm[r], perm[c]).  perm maps 0..depth-1 onto itself, so every
    index is below depth * m; depth * m >= 2 keeps the result a tuple."""
    m = len(perm)
    return itemgetter(*(p * m + q for p in perm[:depth] for q in perm))


def _relabelings(w, tables):
    """Flat getters for the relabelings other than the identity inside
    the runs of tied values of the nondecreasing w, over all rows, built
    once per tie pattern in tables."""
    ties = tuple(map(eq, w, w[1:]))
    if ties not in tables:
        runs = [tuple(g) for _, g in groupby(range(len(w)), key=w.__getitem__)]
        perms = product(*map(permutations, runs))
        next(perms)
        tables[ties] = [_flat_getter(tuple(chain.from_iterable(p)), len(w))
                        for p in perms]
    return tables[ties]


def _smaller(flat, relabelings) -> bool:
    """True iff one of relabelings makes the flat rows smaller.

    flat holds rows 0..d-1 row-major, and each relabeling is a depth-d
    flat getter, so later rows (unset in the scan) are never read.
    Row-major tuple order is the row-by-row order.
    """
    for get in relabelings:
        if get(flat) < flat:
            return True
    return False


def canonical_dedup(candidates) -> list[ColorAdjacencyMatrix]:
    """One representative per conjugacy class, sorted lexicographically.

    The input matrices must pass passes_filters (their ratios must at
    least be defined).
    """
    tables: dict[tuple[bool, ...], list] = {}
    keys = {_canonical(entries_of(A), tables) for A in candidates}
    return list(map(_cam, sorted(keys)))


def enumerate_cams(m: int, k: int, threads: int | None = None) -> EnumerationResult:
    """All color adjacency matrices of perfect m-colorings of connected
    k-regular graphs, up to conjugacy.

    threads > 1 deals the first rows round-robin to that many processes
    and merges their sorted, disjoint shards in order, which gives the
    single-threaded result item for item; None or 1 runs one process.
    Results are memoized per (m, k).
    """
    m, k = index(m), index(k)
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    threads = 1 if threads is None else index(threads)
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    if (m, k) in _memo:
        return _memo[(m, k)]
    count = comb(k + m - 1, m - 1)
    if threads > 1 and count >= 2 * threads:
        # imported here, not at the top: only a threaded scan needs them
        from heapq import merge
        from multiprocessing import Pool
        with Pool(processes=threads) as pool:
            found = list(merge(*pool.starmap(
                _scan_range, [(m, k, j, threads) for j in range(threads)])))
    else:
        found = _scan_range(m, k, 0, 1)
    result = EnumerationResult(m, k, count ** m,
                               tuple(_cam(rows) for rows, _ in found),
                               tuple(ratios for _, ratios in found))
    _memo[(m, k)] = result
    return result


_memo: dict[tuple[int, int], EnumerationResult] = {}


def _scan_range(m: int, k: int, first: int, stride: int):
    """Class representatives whose first row index is congruent to
    first modulo stride; (first, stride) = (0, 1) is the whole scan.

    Returns, in lexicographic order, (entries, class ratios) for every
    matrix in that shard that passes all four filters and is the
    smallest of its ratio-order-keeping conjugates.  Row i is drawn from
    the compositions whose first i entries lie in the box set by column
    i of the rows above it, which keeps rows 0..i weakly symmetric.  A
    node carries the rows above it as one flat row-major tuple (column i
    is its slice above[i::m]), the potentials v of the placed colors and
    their components, each as (members in index order, support mask of
    its rows), and drops row i by the module's checks: (a) consistency,
    (b) ratio order, (c) a closed component and (d) a smaller swap of
    tied colors, tested on above + row i by flat getters.  Bit i of a
    mask is the touched test; by (c) the last depth touches every
    component, so its members are every color (None to _extend), and its
    leaf only tests canonicity by the prefix test of (d).  The list rows
    holds the same rows as composition tuples, which a kept leaf copies,
    so the survivors share them.
    """
    comps = _compositions(k, m)
    by_prefix: dict[tuple[int, ...], list[tuple[int, ...]]] = {
        (): comps[first::stride]}
    for c in comps:
        for i in range(1, m):
            by_prefix.setdefault(c[:i], []).append(c)
    boxes: dict[tuple[int, ...], list] = {}
    tables: dict[tuple[bool, ...], list] = {}
    swap = {(t, i): _flat_getter(
                [t if x == i else i if x == t else x for x in range(m)], i + 1)
            for t, i in combinations(range(m), 2)}
    support = {c: sum(1 << j for j, x in enumerate(c) if x) for c in comps}
    out = []
    rows: list[tuple[int, ...]] = [()] * m

    def descend(i: int, above: tuple[int, ...], v: list[int],
                parts: list[tuple[list[int], int]]):
        col = above[i::m]
        if col not in boxes:
            box = (range(1, x + 1) if x else (0,) for x in col)
            boxes[col] = [(p, by_prefix[p]) for p in product(*box)
                          if p in by_prefix]
        if i == m - 1:  # by (c) every part reaches color m-1
            touched, members = parts, None
        else:
            touched, rest = [], []
            for part in parts:
                (touched if part[1] >> i & 1 else rest).append(part)
            members = sorted(chain.from_iterable(p[0] for p in touched))
            members.append(i)
            reach = 0
            for _, mask in touched:
                reach |= mask
        for prefix, cands in boxes[col]:
            w = _extend(v, col, prefix, touched, members)
            if w is None:
                continue
            relabelings = (
                _relabelings(w, tables) if i == m - 1 else
                [swap[t, i] for t in members[:-1] if w[t] == w[i]])
            for c in cands:
                flat = above + c
                if i == m - 1:
                    if not _smaller(flat, relabelings):
                        rows[i] = c
                        g = gcd(*w)
                        out.append((tuple(rows), tuple(x // g for x in w)))
                    continue
                mask = reach | support[c]
                if mask >> (i + 1) and not _smaller(  # checks (c) and (d)
                        flat, relabelings):
                    rows[i] = c
                    descend(i + 1, flat, w, rest + [(members, mask)])

    descend(0, (), [], [])
    return out


def _extend(v, col, prefix, touched, members):
    """The potentials of colors 0..i once row i starts with prefix, or
    None when checks (a) or (b) fail.

    In each touched component the first color j with a_ji > 0 sets
    v_i = n / d, n = v_j a_ji, d = a_ij, and every other such color must
    agree.  The touched components are rescaled to one integer v_i, and
    the merged members must be nondecreasing in index order.  members
    lists them in index order and ends at i, or is None at the last row,
    where every color is a member and check (b) reads w itself.
    """
    w = v + [0]
    top = 1
    done: list[int] = []
    for part, _ in touched:
        n = d = 0
        for j in part:
            if col[j]:
                if not n:
                    n, d = v[j] * col[j], prefix[j]
                elif v[j] * col[j] * d != n * prefix[j]:
                    return None
        g = gcd(top, n)
        for x in done:
            w[x] *= n // g
        scale = d * top // g
        for x in part:
            w[x] = v[x] * scale
        done += part
        top = top * n // g
    w[-1] = top
    ws = w if members is None else [w[x] for x in members]
    return w if all(map(le, ws, ws[1:])) else None
