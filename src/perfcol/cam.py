"""Color adjacency matrices and the three validity conditions.

A vertex coloring of a graph G with colors 1..m is perfect if every vertex
of color i has exactly a_ij neighbors of color j.  The matrix A = (a_ij)
collecting these constants is the color adjacency matrix of the coloring.
For a connected k-regular graph, a nonnegative integer matrix with row
sums k is the color adjacency matrix of some perfect coloring if and only
if three conditions hold:

  (1) weak symmetry: a_ij = 0 exactly when a_ji = 0;
  (2) consistency: around every cyclic sequence of distinct color indices
      the product of the forward entries equals the product of the
      backward entries;
  (3) the color graph on {1..m}, with an edge {i,j} whenever a_ij > 0,
      is connected.

Consistency is what makes the color class sizes well defined: counting
the edges between classes i and j in two ways gives a_ij v_i = a_ji v_j,
so the sizes are determined up to scale by walking any spanning tree of
the color graph.  All arithmetic here is exact integer arithmetic.

Validation happens once, at the public boundary.  A public function
normalizes its matrix argument with entries_of (which hands back the
entries of a ColorAdjacencyMatrix as they are) and passes the nested
int tuples to _-prefixed kernels.  The kernels, here and in the other
modules, take already-normalized nested int tuples and never validate;
internal callers that hold such tuples call the kernels, never the
public functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd, lcm
from operator import index
from typing import Sequence

Entries = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ColorAdjacencyMatrix:
    """A square matrix of nonnegative integers a_ij, stored row-major.

    Entries are normalized to nested tuples, so instances are hashable
    and usable as dict keys.  Construction accepts any nested sequence
    of integers.
    """

    entries: Entries

    def __post_init__(self):
        rows = entries_of(self.entries)
        if not rows:
            raise ValueError("matrix must have at least one row")
        if any(x < 0 for row in rows for x in row):
            raise ValueError("matrix entries must be nonnegative")
        object.__setattr__(self, "entries", rows)

    @property
    def m(self) -> int:
        """Number of colors."""
        return len(self.entries)

    @property
    def row_sum(self) -> int | None:
        """The common row sum k if all rows agree, else None."""
        sums = {sum(row) for row in self.entries}
        return sums.pop() if len(sums) == 1 else None

    def __str__(self) -> str:
        return json.dumps([list(row) for row in self.entries],
                          separators=(",", ":"))


@dataclass(frozen=True)
class RationalVector:
    """Color class sizes up to scale, reduced so the entries are coprime."""

    numerators: tuple[int, ...]

    def __post_init__(self):
        nums = tuple(index(x) for x in self.numerators)
        if not nums or any(x <= 0 for x in nums):
            raise ValueError("ratio entries must be positive")
        if gcd(*nums) != 1:
            raise ValueError("ratio entries must be coprime")
        object.__setattr__(self, "numerators", nums)

    def __str__(self) -> str:
        return ":".join(str(x) for x in self.numerators)


def entries_of(A) -> Entries:
    """Normalize a matrix argument to nested tuples of ints.

    Accepts a ColorAdjacencyMatrix or any square nested sequence of
    integers; raises ValueError when a row's length differs from the
    number of rows.  The rows are copied into tuples in one pass, and
    only when some entry is not a plain int do the entries go through
    operator.index, which turns bools, numpy integers and IntEnum
    members into ints and rejects floats with TypeError.
    """
    if isinstance(A, ColorAdjacencyMatrix):
        return A.entries
    rows = tuple(map(tuple, A))
    if {type(x) for row in rows for x in row} - {int}:
        rows = tuple(tuple(map(index, row)) for row in rows)
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square")
    return rows


def parse_matrix(text: str) -> ColorAdjacencyMatrix:
    """Parse a matrix from its compact text form, e.g. ``[[0,3],[1,2]]``.

    The compact form is itself valid JSON, so JSON documents are accepted
    as well.  JSON booleans are not integers here.
    """
    obj = _load_json(text, "not a matrix")
    if (not isinstance(obj, list) or not all(isinstance(r, list) for r in obj)
            or any(isinstance(x, bool) for r in obj for x in r)):
        raise ValueError("expected an array of arrays of integers")
    try:
        return ColorAdjacencyMatrix(tuple(tuple(r) for r in obj))
    except TypeError:
        raise ValueError("expected an array of arrays of integers") from None


def _load_json(text: str, what: str):
    """json.loads, reporting every failure (deep nesting too) as ValueError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{what}: {exc}") from None


def conjugate(A, perm: Sequence[int]) -> ColorAdjacencyMatrix:
    """Relabel colors by perm: entry (i, j) of the result is a_{perm(i),perm(j)}."""
    a = entries_of(A)
    m = len(a)
    if sorted(perm) != list(range(m)):
        raise ValueError("perm must be a permutation of 0..m-1")
    return ColorAdjacencyMatrix(
        tuple(tuple(a[perm[i]][perm[j]] for j in range(m)) for i in range(m))
    )


def is_weakly_symmetric(A) -> bool:
    """True iff a_ij = 0 exactly when a_ji = 0, for every pair i != j."""
    return _weakly_symmetric(entries_of(A))


def _weakly_symmetric(a: Entries) -> bool:
    m = len(a)
    return all((a[i][j] == 0) == (a[j][i] == 0)
               for i in range(m) for j in range(i + 1, m))


def is_color_connected(A) -> bool:
    """True iff the color graph is connected.

    The color graph has the colors as vertices and an edge {i, j} for
    i != j whenever a_ij > 0 (equivalently a_ji > 0 once the matrix is
    weakly symmetric; either direction counts here).  Connectivity of
    this graph is the same as A not being conjugate to a block diagonal
    matrix with more than one block.
    """
    return _color_connected(entries_of(A))


def _color_connected(a: Entries) -> bool:
    m = len(a)
    seen = 1
    stack = [0]
    while stack:
        u = stack.pop()
        row = a[u]
        for w in range(m):
            if not (seen >> w) & 1 and (row[w] or a[w][u]):
                seen |= 1 << w
                stack.append(w)
    return seen == (1 << m) - 1


def _potentials(a: Entries) -> tuple[list[int], list[int]]:
    """Assign v_i up to scale along a spanning forest, as integer fractions.

    Only pairs with a_ij and a_ji both positive carry a forced relation
    a_ij v_i = a_ji v_j.  Walking those edges breadth-first from the
    smallest color of each component gives v_i = num_i / den_i inside
    every component of the mutual-support graph.
    """
    m = len(a)
    num = [0] * m
    den = [0] * m
    for root in range(m):
        if num[root]:
            continue
        num[root] = den[root] = 1
        queue = [root]
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            row = a[u]
            for w in range(m):
                if num[w] == 0 and row[w] and a[w][u]:
                    n2 = num[u] * row[w]
                    d2 = den[u] * a[w][u]
                    g = gcd(n2, d2)
                    num[w] = n2 // g
                    den[w] = d2 // g
                    queue.append(w)
    return num, den


def _mutual_pairs_ok(a: Entries, num: list[int], den: list[int]) -> bool:
    """Check a_ij v_i = a_ji v_j for every pair with both entries positive."""
    m = len(a)
    for i in range(m):
        row = a[i]
        for j in range(i + 1, m):
            if row[j] and a[j][i]:
                if row[j] * num[i] * den[j] != a[j][i] * num[j] * den[i]:
                    return False
    return True


def _reaches(a: Entries, src: int, dst: int) -> bool:
    """True iff the support digraph (arcs i->j where a_ij > 0) leads src to dst."""
    m = len(a)
    seen = 1 << src
    stack = [src]
    while stack:
        x = stack.pop()
        row = a[x]
        for y in range(m):
            if x != y and row[y] and not (seen >> y) & 1:
                if y == dst:
                    return True
                seen |= 1 << y
                stack.append(y)
    return False


def is_consistent(A) -> bool:
    """Check the cycle condition without enumerating cycles.

    For every cyclic sequence of distinct indices (n_1 ... n_t), t >= 2,
    consistency demands

        a_{n1 n2} a_{n2 n3} ... a_{nt n1} = a_{n2 n1} a_{n3 n2} ... a_{n1 nt}.

    Cycles of length 2 hold identically.  Cycles whose steps all have
    both directions positive are certified by the spanning-forest
    potentials: every non-tree step closes a fundamental cycle, and the
    telescoping product of the edge relations makes the two products
    equal, so verifying each mutual pair against the potentials covers
    them all.  A cycle containing a step with both directions zero has
    both products zero.  The remaining case is a one-sided step
    (a_uv > 0, a_vu = 0): such a step lies on a violating cycle exactly
    when the support digraph leads from v back to u, since then the
    forward product is positive while the backward product picks up the
    zero entry a_vu.

    The verdict is the conjunction of the two checks, so their order
    changes no answer.  The one-sided check runs first: it needs no
    arithmetic, and it rejects most of the row-sum space (79% of the
    (4,4) matrices), which then never pay for the potentials.
    """
    a = entries_of(A)
    m = len(a)
    for u in range(m):
        row = a[u]
        for v in range(m):
            if u != v and row[v] and not a[v][u]:
                if _reaches(a, v, u):
                    return False
    num, den = _potentials(a)
    return _mutual_pairs_ok(a, num, den)


def _ratios_or_none(a: Entries) -> tuple[int, ...] | None:
    """Reduced ratio vector for a weakly symmetric, color-connected matrix.

    Returns None when the matrix is inconsistent.  One breadth-first
    pass assigns potentials, then every mutual pair is verified, which
    for weakly symmetric input is the whole consistency check.
    """
    num, den = _potentials(a)
    if not _mutual_pairs_ok(a, num, den):
        return None
    common = lcm(*den)
    v = [n * (common // d) for n, d in zip(num, den)]
    g = gcd(*v)
    return tuple(x // g for x in v)


def class_ratios(A) -> RationalVector:
    """The reduced positive vector (v_1 : ... : v_m) with a_ij v_i = a_ji v_j.

    Requires a weakly symmetric, consistent, color-connected matrix;
    raises ValueError otherwise, naming the failed condition.
    """
    return RationalVector(_ratios(entries_of(A)))


def _ratios(a: Entries) -> tuple[int, ...]:
    """class_ratios on normalized entries, as a plain tuple."""
    if not _weakly_symmetric(a):
        raise ValueError("class ratios undefined: matrix is not weakly symmetric")
    if not _color_connected(a):
        raise ValueError("class ratios undefined: color graph is not connected")
    ratios = _ratios_or_none(a)
    if ratios is None:
        raise ValueError("class ratios undefined: matrix is not consistent")
    return ratios


def sizes_for(A, n: int) -> tuple[int, ...] | None:
    """Scale class_ratios(A) to sum to n, or None if no integer scaling exists."""
    return _scaled(_ratios(entries_of(A)), n)


def _scaled(ratios: tuple[int, ...], n: int) -> tuple[int, ...] | None:
    """sizes_for on a ratio vector."""
    total = sum(ratios)
    if n <= 0 or n % total:
        return None
    t = n // total
    return tuple(t * x for x in ratios)
