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
compositions that start with it.

Rows are drawn in lexicographic order, so the leaves arrive sorted, and
a leaf is kept only if it is the smallest of its ratio-order-keeping
conjugates.  The representative of a class passes every filter and the
prefix bound prunes only matrices that fail one, so each class is
emitted exactly once, without a set of keys or a sort.

Cache policy: memoize results keyed by their public arguments (here
enumerate_cams per (m, k)), never per-call tables such as the
compositions and their prefix table, which each scan rebuilds.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain, groupby, permutations, product
from math import comb
from multiprocessing import Pool

from .cam import (
    ColorAdjacencyMatrix,
    _ratios,
    _ratios_or_none,
    _row_sum,
    _weakly_symmetric,
    entries_of,
)


@dataclass(frozen=True)
class EnumerationResult:
    """Outcome of one (m, k) enumeration run.

    raw_count is the size of the unfiltered row-sum space,
    binom(k+m-1, m-1)^m; survivors is the canonical deduplicated list,
    sorted lexicographically.
    """

    m: int
    k: int
    raw_count: int
    survivors: tuple[ColorAdjacencyMatrix, ...]


def _compositions(k: int, m: int) -> tuple[tuple[int, ...], ...]:
    """All m-tuples of nonnegative integers summing to k, lexicographic."""
    return tuple(c for c in product(range(k + 1), repeat=m) if sum(c) == k)


def generate_row_sum_matrices(m: int, k: int):
    """Yield every m x m matrix with all row sums k, in lexicographic order.

    The stream has binom(k+m-1, m-1)^m elements.  enumerate_cams does
    not consume this stream (it bounds each row by the rows above it
    instead), but canonical_dedup of the filtered stream must and does
    agree with it.
    """
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    for rows in product(_compositions(k, m), repeat=m):
        yield ColorAdjacencyMatrix(rows)


def passes_filters(A) -> bool:
    """The per-matrix filter of the enumeration.

    True iff A has a common row sum, is weakly symmetric,
    color-connected, consistent, and its class ratio vector is
    nondecreasing.
    """
    a = entries_of(A)
    return (_weakly_symmetric(a) and _row_sum(a) is not None
            and _survivor_ratios(a) is not None)


def _survivor_ratios(a) -> tuple[int, ...] | None:
    """The filter after weak symmetry: the class ratios of a
    color-connected, consistent matrix whose ratios are nondecreasing,
    else None."""
    ratios = _ratios_or_none(a)
    if ratios is None or any(x > y for x, y in zip(ratios, ratios[1:])):
        return None
    return ratios


def canonical_form(A) -> ColorAdjacencyMatrix:
    """The canonical representative of A's conjugacy class.

    Among all conjugates whose permuted ratio vector stays nondecreasing,
    the row-major lexicographically smallest is the representative.
    Those conjugates are walked directly: sort the colors by ratio, then
    permute the colors freely inside each block of tied ratios.
    """
    a = entries_of(A)
    return ColorAdjacencyMatrix(min(_conjugates(a, _ratios(a))))


def _conjugates(a, ratios):
    """The conjugates of a whose ratios stay nondecreasing; when a's own
    ratios are sorted, a itself comes first."""
    order = sorted(range(len(a)), key=ratios.__getitem__)
    blocks = [tuple(g) for _, g in groupby(order, key=ratios.__getitem__)]
    perms = (tuple(chain.from_iterable(p))
             for p in product(*map(permutations, blocks)))
    return (tuple(tuple(a[i][j] for j in perm) for i in perm)
            for perm in perms)


def canonical_dedup(candidates) -> list[ColorAdjacencyMatrix]:
    """One representative per conjugacy class, sorted lexicographically.

    The input matrices must pass passes_filters (their ratios must at
    least be defined).
    """
    keys = {min(_conjugates(a, _ratios(a)))
            for a in map(entries_of, candidates)}
    return [ColorAdjacencyMatrix(key) for key in sorted(keys)]


def enumerate_cams(m: int, k: int, threads: int | None = None) -> EnumerationResult:
    """All color adjacency matrices of perfect m-colorings of connected
    k-regular graphs, up to conjugacy.

    threads > 1 shards the scan by the first row across processes; the
    result is identical to the single-threaded run.  When threads is
    None the PERFCOL_THREADS environment variable applies, default 1.
    Results are memoized per (m, k).
    """
    if m < 1 or k < 1:
        raise ValueError("need m >= 1 and k >= 1")
    if threads is None:
        threads = _env_threads()
    if (m, k) in _memo:
        return _memo[(m, k)]
    count = comb(k + m - 1, m - 1)
    if threads > 1 and count >= 2 * threads:
        bounds = [i * count // threads for i in range(threads + 1)]
        jobs = [(m, k, lo, hi) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]
        with Pool(processes=len(jobs)) as pool:
            entries = chain.from_iterable(pool.starmap(_scan_range, jobs))
    else:
        entries = _scan_range(m, k, 0, count)
    result = EnumerationResult(
        m, k, count ** m, tuple(map(ColorAdjacencyMatrix, entries)))
    _memo[(m, k)] = result
    return result


_memo: dict[tuple[int, int], EnumerationResult] = {}


def _env_threads() -> int:
    text = os.environ.get("PERFCOL_THREADS") or "1"
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(
            f"PERFCOL_THREADS must be a positive integer, got {text!r}")
    return threads


def _scan_range(m: int, k: int, lo: int, hi: int):
    """Class representatives whose first row index lies in [lo, hi).

    Returns, in lexicographic order, the entries of every matrix in that
    slice that passes all four filters and is the smallest of its
    ratio-order-keeping conjugates.  Row i is drawn from the compositions
    whose first i entries satisfy the prefix bound set by column i of the
    rows above it.
    """
    comps = _compositions(k, m)
    by_prefix: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for c in comps:
        for i in range(1, m):
            by_prefix.setdefault(c[:i], []).append(c)
    out = []
    rows: list[tuple[int, ...]] = [()] * m

    def descend(i: int):
        if i == m:
            a = tuple(rows)
            ratios = _survivor_ratios(a)
            if ratios is not None and all(
                    c >= a for c in _conjugates(a, ratios)):
                out.append(a)
            return
        box = (range(1, row[i] + 1) if row[i] else (0,) for row in rows[:i])
        for prefix in product(*box):
            for c in by_prefix.get(prefix, ()):
                rows[i] = c
                descend(i + 1)

    for first in range(lo, hi):
        rows[0] = comps[first]
        descend(1)
    return out
