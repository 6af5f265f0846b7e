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
the color graph.  All arithmetic here is exact integer arithmetic.  One
kernel, _ratios_or_none, decides all three conditions and the sign: weak
symmetry first, which makes the color graph the graph of mutual pairs,
then one walk (_potentials) that assigns the sizes and decides the rest.

Validation happens once, at the public boundary.  A public function
normalizes its matrix argument with entries_of (which hands back the
entries of a ColorAdjacencyMatrix as they are) and passes the nested
int tuples to _-prefixed kernels, here and in the other modules, which
never validate.  Internal callers call the kernels, never the public
functions, but for one: a survey calls spectral_filter, since the
benchmark counts its traced calls.  Kernel output is wrapped by _cam
unvalidated; matrices from outside pass entries_of and the sign check.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from itertools import chain
from math import gcd, lcm
from operator import index

Entries = tuple[tuple[int, ...], ...]


class _Value:
    """Base of the public value types: the fields are a subclass's
    annotations, stored once by its __init__ with _set, and equality
    (same class only), hash and repr are those of a frozen dataclass."""

    def __init_subclass__(cls):
        if _Value in cls.__bases__:  # a further subclass keeps these fields
            cls.__match_args__ = tuple(cls.__annotations__)

    def _set(self, *values) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__match_args__, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ColorAdjacencyMatrix(_Value):
    """A square matrix of nonnegative integers a_ij, stored row-major.

    Entries are normalized to nested tuples, so instances are hashable
    and usable as dict keys.  Construction accepts any nested sequence
    of integers.
    """

    entries: Entries

    def __init__(self, entries):
        rows = _nonempty(entries_of(entries))
        if any(x < 0 for row in rows for x in row):
            raise ValueError("matrix entries must be nonnegative")
        self._set(rows)

    @property
    def m(self) -> int:
        """Number of colors."""
        return len(self.entries)

    @property
    def row_sum(self) -> int | None:
        """The common row sum k if all rows agree, else None."""
        return _row_sum(self.entries)

    def __str__(self) -> str:
        return json.dumps(self.entries, separators=(",", ":"))


class RationalVector(_Value):
    """Color class sizes up to scale, reduced so the entries are coprime."""

    numerators: tuple[int, ...]

    def __init__(self, numerators):
        nums = tuple(index(x) for x in numerators)
        if not nums or any(x <= 0 for x in nums):
            raise ValueError("ratio entries must be positive")
        if gcd(*nums) != 1:
            raise ValueError("ratio entries must be coprime")
        self._set(nums)

    def __str__(self) -> str:
        return ":".join(str(x) for x in self.numerators)


def _cam(entries: Entries) -> ColorAdjacencyMatrix:
    """Wrap kernel output unvalidated: entries must be a nonempty, square,
    nested tuple of plain nonnegative ints, as a kernel hands it back."""
    A = object.__new__(ColorAdjacencyMatrix)
    object.__setattr__(A, "entries", entries)
    return A


def entries_of(A) -> Entries:
    """Normalize a matrix argument to nested tuples of ints.

    Accepts a ColorAdjacencyMatrix or any square nested sequence of
    integers; raises ValueError when a row's length differs from the
    number of rows.  The rows are copied into tuples in one pass.  Only
    if an entry is not a plain int (the check stops at the first) do the
    entries go through operator.index, which turns bools, numpy integers
    and IntEnum members into ints and rejects floats with TypeError.
    """
    if isinstance(A, ColorAdjacencyMatrix):
        return A.entries
    rows = tuple(map(tuple, A))
    if not {int}.issuperset(map(type, chain.from_iterable(rows))):
        rows = tuple(tuple(map(index, row)) for row in rows)
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix must be square")
    return rows


def _nonempty(a: Entries) -> Entries:
    """a itself; raises ValueError when it has no rows."""
    if not a:
        raise ValueError("matrix must have at least one row")
    return a


def parse_matrix(text: str) -> ColorAdjacencyMatrix:
    """Parse a matrix from its compact text form, e.g. ``[[0,3],[1,2]]``.

    The compact form is itself valid JSON, so JSON documents are accepted
    as well.  JSON booleans are not integers here.
    """
    obj = _load_json(text, "not a matrix")
    if not (isinstance(obj, list) and all(
            isinstance(r, list) and all(map(_is_int, r)) for r in obj)):
        raise ValueError("expected an array of arrays of integers")
    return ColorAdjacencyMatrix(tuple(map(tuple, obj)))


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


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


def _row_sum(a: Entries) -> int | None:
    """The common row sum of a if all rows agree, else None."""
    sums = set(map(sum, a))
    return sums.pop() if len(sums) == 1 else None


def is_weakly_symmetric(A) -> bool:
    """True iff a_ij = 0 exactly when a_ji = 0, for every pair i != j;
    the walk over the lower triangle stops at the first pair that differs."""
    return _weakly_symmetric(entries_of(A))


def _weakly_symmetric(a: Entries) -> bool:
    for i, row in enumerate(a):
        for j in range(i):
            if (not row[j]) is not (not a[j][i]):
                return False
    return True


def is_color_connected(A) -> bool:
    """True iff the color graph is connected.

    The color graph has the colors as vertices and an edge {i, j} for
    i != j whenever a_ij > 0 (equivalently a_ji > 0 once the matrix is
    weakly symmetric; either direction counts here).  Connectivity of
    this graph is the same as A not being conjugate to a block diagonal
    matrix with more than one block.  A depth-first walk from color 0
    decides it and stops as soon as every color is reached.
    """
    return _color_connected(_nonempty(entries_of(A)))


def _color_connected(a: Entries) -> bool:
    m = len(a)
    every = (1 << m) - 1
    seen = 1
    stack = [0]
    while stack:
        u = stack.pop()
        row = a[u]
        for w in range(m):
            if not (seen >> w) & 1 and (row[w] or a[w][u]):
                seen |= 1 << w
                if seen == every:
                    return True
                stack.append(w)
    return seen == every


def _potentials(a: Entries) -> tuple[list[int], list[int], int] | None:
    """Assign v_i up to scale along a spanning forest, checking as it goes.

    Only pairs with a_ij and a_ji both positive carry a forced relation
    a_ij v_i = a_ji v_j.  Walking them breadth-first from the smallest
    color of each component sets v_i = num_i / den_i (unreduced), and
    checks instead each pair whose far end is set: the end dequeued
    later sees the other set, so every pair is checked.  Returns None
    at the first failed pair, else (num, den, components).
    """
    m = len(a)
    num = [0] * m
    den = [0] * m
    components = 0
    for root in range(m):
        if num[root]:
            continue
        components += 1
        num[root] = den[root] = 1
        queue = [root]
        for u in queue:
            row = a[u]
            nu, du = num[u], den[u]
            for w in range(m):
                if row[w] and a[w][u]:
                    if num[w]:
                        if row[w] * nu * den[w] != a[w][u] * num[w] * du:
                            return None
                    else:
                        num[w] = nu * row[w]
                        den[w] = du * a[w][u]
                        queue.append(w)
    return num, den, components


def _reaches(a: Entries, src: int, dst: int) -> bool:
    """True iff the support digraph (arcs i->j where a_ij > 0) leads src to dst."""
    m = len(a)
    seen = 1 << src
    stack = [src]
    while stack:
        x = stack.pop()
        row = a[x]
        for y in range(m):
            if row[y] and not (seen >> y) & 1:
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
    equal; the potentials walk checks every mutual pair, so it covers
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
            if row[v] and not a[v][u] and _reaches(a, v, u):
                return False
    return _potentials(a) is not None


def _ratios_or_none(a: Entries) -> tuple[int, ...] | None:
    """Reduced ratio vector of a, or None when a has no class ratios.

    Returns None unless the matrix is weakly symmetric, connected,
    consistent and nonnegative.  Weak symmetry is tested first: it makes
    the mutual pairs the edges of the color graph, so the one potentials
    walk decides the next two conditions, and callers test none first.
    """
    if not _weakly_symmetric(a):
        return None
    walk = _potentials(a)
    if walk is None or walk[2] != 1 or min(chain.from_iterable(a)) < 0:
        return None
    num, den, _ = walk
    common = lcm(*den)
    v = [n * (common // d) for n, d in zip(num, den)]
    g = gcd(*v)
    return tuple(x // g for x in v)


def class_ratios(A) -> RationalVector:
    """The reduced positive vector (v_1 : ... : v_m) with a_ij v_i = a_ji v_j.

    Requires a nonnegative, weakly symmetric, consistent, color-connected
    matrix; raises ValueError otherwise, naming the failed condition.
    """
    return RationalVector(_ratios(entries_of(A)))


def _ratios(a: Entries) -> tuple[int, ...]:
    """class_ratios on normalized entries, as a plain tuple.

    The failed condition is named only after _ratios_or_none fails, in
    the order sign, weak symmetry, connectivity, consistency, so valid
    input pays for no check beyond those of the kernel.
    """
    ratios = _ratios_or_none(_nonempty(a))
    if ratios is not None:
        return ratios
    if min(chain.from_iterable(a)) < 0:
        raise ValueError("matrix entries must be nonnegative")
    if not _weakly_symmetric(a):
        raise ValueError("class ratios undefined: matrix is not weakly symmetric")
    if not _color_connected(a):
        raise ValueError("class ratios undefined: color graph is not connected")
    raise ValueError("class ratios undefined: matrix is not consistent")


def sizes_for(A, n: int) -> tuple[int, ...] | None:
    """Scale class_ratios(A) to sum to n, or None if no integer scaling exists."""
    return _scaled(_ratios(entries_of(A)), index(n))


def _scaled(ratios: tuple[int, ...], n: int) -> tuple[int, ...] | None:
    """sizes_for on a ratio vector."""
    total = sum(ratios)
    if n <= 0 or n % total:
        return None
    t = n // total
    return tuple(t * x for x in ratios)
