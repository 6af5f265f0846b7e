"""Exact characteristic polynomials and the divisibility filter.

If a connected graph has a perfect coloring with color adjacency matrix
A, then the characteristic polynomial of A divides the characteristic
polynomial of the graph's adjacency matrix.  In particular every
eigenvalue of A is an eigenvalue of the graph, with multiplicity.  The
divisibility form of the test is implemented here, with arbitrary
precision integer arithmetic throughout: no eigenvalues are ever
extracted, so irrational spectra (such as the dodecahedron's factors
x^2 - 5) cost nothing.

char_poly uses the Faddeev-LeVerrier recurrence

    M_1 = M,  c_i = -trace(M_i) / i,  M_{i+1} = M (M_i + c_i I),

whose divisions are exact over the integers.  Row v of M M_i is the
sum of a_vu times row u of M_i over the nonzero a_vu only, so a step
costs n row additions per nonzero in a row of M: for a k-regular graph
n k additions of length n, not n^3 products.  Divisibility is decided
by polynomial long division; a monic divisor keeps every intermediate
value integral.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import add, getitem, index, mul

from .cam import _Value, entries_of


class IntPolynomial(_Value):
    """A monic polynomial with integer coefficients, highest degree first."""

    coefficients: tuple[int, ...]

    def __init__(self, coefficients):
        coeffs = tuple(index(c) for c in coefficients)
        if not coeffs or coeffs[0] != 1:
            raise ValueError("polynomial must be monic")
        self._set(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            power = self.degree - i
            if power == 0:
                term = str(abs(c))
            else:
                coeff = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{coeff}x^{power}" if power > 1 else f"{coeff}x"
            if parts:  # the leading coefficient is 1, so no sign first
                term = f"+ {term}" if c > 0 else f"- {term}"
            parts.append(term)
        return " ".join(parts)


def char_poly(M) -> IntPolynomial:
    """det(xI - M) of a square integer matrix, with exact coefficients.

    Negative entries are fine; only squareness is required.
    """
    a = entries_of(M)
    n = len(a)
    terms = [[(x, u) for u, x in enumerate(row) if x] for row in a]
    coeffs = [1]
    work = [list(row) for row in a]
    for i in range(1, n + 1):
        quotient = -sum(map(getitem, work, range(n))) // i
        coeffs.append(quotient)
        if i < n:
            for v in range(n):
                work[v][v] += quotient
            work = [_combine(row, work, n) for row in terms]
    return IntPolynomial(tuple(coeffs))


def _combine(row, work, n):
    """The sum of x * work[u] over the (x, u) of row, as a fresh list:
    a zero row sharing its zeros would take the diagonal update twice."""
    acc = None
    for x, u in row:
        term = work[u] if x == 1 else map(mul, repeat(x), work[u])
        acc = term if acc is None else map(add, acc, term)
    return [0] * n if acc is None else list(acc)


def divides(p: IntPolynomial, q: IntPolynomial) -> bool:
    """True iff q = p * r for some polynomial r.

    Long division of q by the monic p; the quotient coefficients land in
    the first degree(q) - degree(p) + 1 slots and the rest is the
    remainder, which must vanish identically.
    """
    if p.degree > q.degree:
        return False
    rest = list(q.coefficients)
    pc = p.coefficients
    span = q.degree - p.degree
    for i in range(span + 1):
        factor = rest[i]
        if factor:
            for j in range(1, p.degree + 1):
                rest[i + j] -= factor * pc[j]
    return all(c == 0 for c in rest[span + 1:])


def spectral_filter(A, G) -> bool:
    """True iff char_poly(A) divides the graph's adjacency char poly."""
    return divides(char_poly(A), _graph_char_poly(G))


@lru_cache(maxsize=64)
def _graph_char_poly(G) -> IntPolynomial:
    return char_poly(G.adjacency_matrix())
