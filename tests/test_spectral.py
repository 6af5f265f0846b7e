from __future__ import annotations

import random
from itertools import permutations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from perfcol.cam import conjugate
from perfcol.golden import platonic_char_polys, platonic_spectra
from perfcol.graphs import Graph, platonic
from perfcol.spectral import IntPolynomial, char_poly, divides, spectral_filter

from oracles import expand_factors, random_regular_edges


def sympy_char_poly(rows) -> tuple[int, ...]:
    """Independent route: sympy's Berkowitz characteristic polynomial."""
    poly = sympy.Matrix(rows).charpoly()
    return tuple(int(c) for c in poly.all_coeffs())


# ---------------------------------------------------------------- type

def test_polynomial_requires_monic():
    p = IntPolynomial((1, -2, -3))
    assert p.degree == 2
    with pytest.raises(ValueError):
        IntPolynomial((2, 1))
    with pytest.raises(ValueError):
        IntPolynomial(())


def test_polynomial_str():
    assert str(IntPolynomial((1, -2, -3))) == "x^2 - 2*x - 3"
    assert str(IntPolynomial((1, 0, -6, -8, -3))) == "x^4 - 6*x^2 - 8*x - 3"
    assert str(IntPolynomial((1, 0))) == "x"
    assert str(IntPolynomial((1,))) == "1"


# ----------------------------------------------------------- char_poly

def test_char_poly_two_by_two():
    # x^2 - trace x + det
    assert char_poly(((0, 3), (1, 2))).coefficients == (1, -2, -3)


def test_char_poly_tetrahedron():
    # (x - 3)(x + 1)^3 expanded
    a = platonic("tetrahedron").adjacency_matrix()
    assert char_poly(a).coefficients == (1, 0, -6, -8, -3)


def test_char_poly_one_by_one_zero():
    assert char_poly(((0,),)).coefficients == (1, 0)


def test_char_poly_rejects_non_square():
    with pytest.raises(ValueError):
        char_poly(((1, 2, 3), (4, 5, 6)))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_char_poly_takes_n_minus_one_products(monkeypatch, n):
    # M_n is never read, so a product past the last coefficient would
    # cost a step without moving any output
    import perfcol.spectral as spectral
    calls = []
    combine = spectral._combine

    def counted(row, work, size):
        calls.append(size)
        return combine(row, work, size)

    monkeypatch.setattr(spectral, "_combine", counted)
    rows = [[(i + j) % 3 for j in range(n)] for i in range(n)]
    assert char_poly(rows).coefficients == sympy_char_poly(rows)
    assert calls == [n] * (n * (n - 1))


def test_char_poly_handles_negative_entries():
    rows = ((2, -3), (-1, 0))
    assert char_poly(rows).coefficients == sympy_char_poly(rows)


def test_char_poly_against_sympy_seeded_random():
    rng = random.Random(271828)
    for _ in range(200):
        n = rng.randint(1, 8)
        rows = tuple(tuple(rng.randint(-9, 9) for _ in range(n))
                     for _ in range(n))
        assert char_poly(rows).coefficients == sympy_char_poly(rows), rows


SPARSE = {
    "all-zero": ((0, 0), (0, 0)),
    "zero-row-and-column": ((0, 0, 0), (1, 2, 0), (0, 3, 1)),
    "zero-row-in-the-middle": ((0, 2, 0), (0, 0, 0), (5, 0, 0)),
    "three-zero-rows": ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 7),
                        (0, 0, 0, 0)),
    "one-entry-per-row": ((0, 0, 4), (3, 0, 0), (0, 5, 0)),
    "one-entry-per-row-4": ((0, 0, 0, 9), (0, 0, 6, 0), (0, 8, 0, 0),
                            (2, 0, 0, 0)),
    "weights-above-one": ((3, 0, 0, 2), (0, 0, 5, 0), (0, 4, 0, 0),
                          (2, 0, 0, 1)),
    "negative-single-entries": ((0, -2, 0), (0, 0, -3), (4, 0, 0)),
    "negative-with-zero-row": ((-1, 0, 0, 2), (0, 0, 0, 0), (0, -5, 3, 0),
                               (1, 0, 0, -2)),
}


@pytest.mark.parametrize("rows", SPARSE.values(), ids=SPARSE.keys())
def test_char_poly_sparse_rows_against_sympy(rows):
    assert char_poly(rows).coefficients == sympy_char_poly(rows)


def test_char_poly_seeded_sparse_random_against_sympy():
    # about one entry in four nonzero: zero rows and columns are common
    rng = random.Random(314159)
    zero_rows = 0
    for _ in range(200):
        n = rng.randint(1, 9)
        rows = tuple(tuple(rng.choice((-3, 1, 2, 5)) if rng.random() < 0.25
                           else 0 for _ in range(n)) for _ in range(n))
        zero_rows += not all(map(any, rows))
        assert char_poly(rows).coefficients == sympy_char_poly(rows), rows
    assert zero_rows > 50


def test_platonic_char_polys_against_sympy():
    for name in ("tetrahedron", "cube", "octahedron",
                 "dodecahedron", "icosahedron"):
        rows = platonic(name).adjacency_matrix()
        assert char_poly(rows).coefficients == sympy_char_poly(rows), name


@pytest.mark.parametrize("k, n", [(3, 8), (3, 16), (3, 30), (4, 9),
                                  (4, 20), (4, 30)])
def test_char_poly_random_regular_graphs_against_sympy(k, n):
    rng = random.Random(1000 * k + n)
    for _ in range(2):
        graph = Graph.from_edges(n, random_regular_edges(rng, n, k))
        rows = graph.adjacency_matrix()
        assert char_poly(rows).coefficients == sympy_char_poly(rows)


def test_char_poly_invariant_under_conjugation_exhaustive_3x3():
    rng = random.Random(577215)
    for _ in range(50):
        rows = tuple(tuple(rng.randint(0, 6) for _ in range(3))
                     for _ in range(3))
        reference = char_poly(rows)
        for perm in permutations(range(3)):
            assert char_poly(conjugate(rows, perm).entries) == reference


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.permutations(range(n)))))
def test_char_poly_invariant_under_conjugation_random(case):
    rows, perm = case
    a = tuple(tuple(r) for r in rows)
    b = tuple(tuple(a[perm[i]][perm[j]] for j in range(len(a)))
              for i in range(len(a)))
    assert char_poly(a) == char_poly(b)


def test_platonic_char_poly_coefficient_checks():
    # trace 0 kills the x^(n-1) coefficient; the x^(n-2) one counts edges
    for name in ("tetrahedron", "cube", "octahedron",
                 "dodecahedron", "icosahedron"):
        g = platonic(name)
        coeffs = char_poly(g.adjacency_matrix()).coefficients
        assert coeffs[1] == 0
        assert coeffs[2] == -g.edge_count()


def test_platonic_char_polys_match_known_spectra():
    known = {
        # (x - 3)(x + 1)^3
        "tetrahedron": [((1, -3), 1), ((1, 1), 3)],
        # (x - 3)(x - 1)^3(x + 1)^3(x + 3)
        "cube": [((1, -3), 1), ((1, -1), 3), ((1, 1), 3), ((1, 3), 1)],
        # (x - 4)x^3(x + 2)^2
        "octahedron": [((1, -4), 1), ((1, 0), 3), ((1, 2), 2)],
        # (x - 3)(x^2 - 5)^3(x + 2)^4 x^4 (x - 1)^5
        "dodecahedron": [((1, -3), 1), ((1, 0, -5), 3), ((1, 2), 4),
                         ((1, 0), 4), ((1, -1), 5)],
        # (x - 5)(x^2 - 5)^3(x + 1)^5
        "icosahedron": [((1, -5), 1), ((1, 0, -5), 3), ((1, 1), 5)],
    }
    for name, factors in known.items():
        got = char_poly(platonic(name).adjacency_matrix())
        assert list(got.coefficients) == expand_factors(factors), name



def test_golden_char_polys_expand_the_stored_factors():
    polys = platonic_char_polys()
    assert polys.keys() == platonic_spectra().keys()
    for name, factors in platonic_spectra().items():
        assert polys[name] == expand_factors(factors), name


# ------------------------------------------------------------- divides

def test_divides_worked_example():
    p = IntPolynomial((1, -2, -3))
    q = IntPolynomial((1, 0, -6, -8, -3))
    assert divides(p, q)
    # and the cofactor really is x^2 + 2x + 1: multiply back out
    from oracles import poly_mul
    assert poly_mul([1, -2, -3], [1, 2, 1]) == list(q.coefficients)


def test_divides_self():
    p = IntPolynomial((1, -2, -3))
    assert divides(p, p)


def test_divides_rejects_nonzero_remainder():
    assert not divides(IntPolynomial((1, -1)), IntPolynomial((1, 0)))


def test_divides_degree_ordering():
    assert not divides(IntPolynomial((1, 0, 0)), IntPolynomial((1, 0)))
    assert divides(IntPolynomial((1,)), IntPolynomial((1, 5, 6)))


def test_divides_implies_root_containment_on_integer_spectra():
    # q = (x-1)(x+2)^2(x-3); any monic divisor's roots must be roots of q
    q = IntPolynomial(tuple(expand_factors(
        [((1, -1), 1), ((1, 2), 2), ((1, -3), 1)])))
    roots_q = {x for x in range(-6, 7)
               if sum(c * x ** (q.degree - i)
                      for i, c in enumerate(q.coefficients)) == 0}
    for a in range(-4, 5):
        for b in range(a, 5):
            p = IntPolynomial(tuple(expand_factors(
                [((1, -a), 1), ((1, -b), 1)])))
            if divides(p, q):
                assert {a, b} <= roots_q


def test_divides_agrees_with_sympy_on_random_pairs():
    rng = random.Random(141421)
    x = sympy.Symbol("x")
    for _ in range(150):
        dp = rng.randint(1, 4)
        dq = rng.randint(1, 6)
        p = IntPolynomial((1,) + tuple(rng.randint(-5, 5) for _ in range(dp)))
        q = IntPolynomial((1,) + tuple(rng.randint(-5, 5) for _ in range(dq)))
        sp = sympy.Poly(list(p.coefficients), x)
        sq = sympy.Poly(list(q.coefficients), x)
        assert divides(p, q) == (sympy.rem(sq, sp, x) == 0), (p, q)


def test_divides_accepts_constructed_products():
    rng = random.Random(314159)
    for _ in range(100):
        dp = rng.randint(1, 4)
        dr = rng.randint(0, 4)
        p = IntPolynomial((1,) + tuple(rng.randint(-5, 5) for _ in range(dp)))
        r = [1] + [rng.randint(-5, 5) for _ in range(dr)]
        from oracles import poly_mul
        q = IntPolynomial(tuple(poly_mul(list(p.coefficients), r)))
        assert divides(p, q)


# ------------------------------------------------------ spectral_filter

def test_spectral_filter_tetrahedron_candidate():
    assert spectral_filter(((0, 3), (1, 2)), platonic("tetrahedron"))


def test_spectral_filter_passes_unrealizable_octahedron_matrix():
    # eigenvalues 4 and -2 both occur, so the filter cannot reject this
    # matrix even though no such coloring of the octahedron exists
    assert spectral_filter(((1, 3), (3, 1)), platonic("octahedron"))


def test_spectral_filter_rejects_missing_eigenvalue():
    # char poly x^2 - 9 needs eigenvalue -3, absent from the tetrahedron
    assert not spectral_filter(((0, 3), (3, 0)), platonic("tetrahedron"))
