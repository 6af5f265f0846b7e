from __future__ import annotations

from enum import IntEnum
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfcol.cam import (
    ColorAdjacencyMatrix,
    RationalVector,
    class_ratios,
    conjugate,
    entries_of,
    is_color_connected,
    is_consistent,
    is_weakly_symmetric,
    parse_matrix,
    sizes_for,
)

from oracles import consistent_by_cycles, ratios_by_least_solution


# ---------------------------------------------------------------- types

def test_matrix_normalizes_to_tuples():
    a = ColorAdjacencyMatrix([[0, 3], [1, 2]])
    assert a.entries == ((0, 3), (1, 2))
    assert a.m == 2
    assert a.row_sum == 3
    assert str(a) == "[[0,3],[1,2]]"


def test_matrix_row_sum_none_when_rows_differ():
    assert ColorAdjacencyMatrix([[0, 3], [1, 1]]).row_sum is None


@pytest.mark.parametrize("bad", [
    [],
    [[1, 2]],
    [[1, 2], [3]],
    [[-1, 2], [2, -1]],
])
def test_matrix_rejects_malformed(bad):
    with pytest.raises(ValueError):
        ColorAdjacencyMatrix(bad)


def test_matrix_rejects_non_integer_entries():
    for bad in ([[0.5, 1], [1, 0.5]], [[0, 1], [1, 2.0]]):
        with pytest.raises(TypeError):
            ColorAdjacencyMatrix(bad)


class Level(IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2


@pytest.mark.parametrize("make, expected", [
    (lambda: ((0, 2), (1, 1)), ((0, 2), (1, 1))),
    (lambda: [[0, 2], [1, 1]], ((0, 2), (1, 1))),
    (lambda: [(0, 2), [1, 1]], ((0, 2), (1, 1))),
    (lambda: ((x for x in row) for row in ((0, 2), (1, 1))),
     ((0, 2), (1, 1))),
    (lambda: [[False, True], [True, False]], ((0, 1), (1, 0))),
    (lambda: np.array([[0, 2], [1, 1]], dtype=np.int64), ((0, 2), (1, 1))),
    (lambda: [[Level.ZERO, Level.TWO], [1, Level.ONE]], ((0, 2), (1, 1))),
    (lambda: (), ()),
])
def test_entries_of_normalizes_to_plain_int_tuples(make, expected):
    rows = entries_of(make())
    assert rows == expected
    assert type(rows) is tuple
    assert all(type(row) is tuple for row in rows)
    assert all(type(x) is int for row in rows for x in row)


def test_matrix_is_hashable():
    a = ColorAdjacencyMatrix([[1, 2], [2, 1]])
    b = ColorAdjacencyMatrix(((1, 2), (2, 1)))
    assert a == b and len({a, b}) == 1


def test_rational_vector_validation():
    assert str(RationalVector((1, 3))) == "1:3"
    with pytest.raises(ValueError):
        RationalVector((2, 4))
    with pytest.raises(ValueError):
        RationalVector((0, 1))
    with pytest.raises(ValueError):
        RationalVector(())


def test_parse_matrix_accepts_compact_and_json():
    assert parse_matrix("[[0,3],[1,2]]").entries == ((0, 3), (1, 2))
    assert parse_matrix(" [ [0, 3],\n [1, 2] ] ").entries == ((0, 3), (1, 2))


@pytest.mark.parametrize("text", ["", "[[0,3],[1,2]", "3", "[[0,3],[1,2.5]]",
                                  '{"a": 1}', "[[0,3],[1,-2]]",
                                  "[[true,2],[1,2]]"])
def test_parse_matrix_rejects(text):
    with pytest.raises(ValueError):
        parse_matrix(text)


@pytest.mark.parametrize("fn", [is_weakly_symmetric, is_color_connected,
                                is_consistent, class_ratios, entries_of])
@pytest.mark.parametrize("ragged", [[[1, 2]], [[0, 3], [1, 2, 0]],
                                    [[True, 2], [3]]])
def test_public_functions_reject_non_square(fn, ragged):
    with pytest.raises(ValueError, match="square"):
        fn(ragged)


def test_parse_round_trip():
    a = ColorAdjacencyMatrix([[0, 1, 2], [1, 0, 2], [1, 1, 1]])
    assert parse_matrix(str(a)) == a


# ----------------------------------------------------------- weak symmetry

def test_weak_symmetry_examples():
    assert is_weakly_symmetric([[0, 3], [1, 2]])
    assert not is_weakly_symmetric([[0, 3], [0, 3]])
    assert is_weakly_symmetric([[1, 2], [2, 1]])


# ------------------------------------------------------------- consistency

def test_consistency_trivial_for_two_colors():
    for a in ([[0, 3], [0, 3]], [[0, 3], [1, 2]], [[5, 0], [0, 5]]):
        assert is_consistent(a)


def test_consistency_examples():
    assert is_consistent([[0, 1, 2], [1, 0, 2], [1, 1, 1]])
    # cycle (1 2 3): forward 1*1*1 = 1, backward 1*2*2 = 4
    assert not is_consistent([[0, 1, 2], [1, 1, 1], [1, 2, 0]])


def test_consistency_catches_one_sided_cycle():
    # directed 3-cycle in the support: forward product 1, backward 0
    assert not is_consistent([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    # one-sided arc that does not close into a cycle is harmless
    assert is_consistent([[0, 1, 0], [0, 0, 0], [0, 1, 0]])


def test_consistency_matches_cycle_definition_small_exhaustive():
    # every 3x3 matrix with entries in {0,1,2}, row sums unconstrained
    for flat in product(range(3), repeat=9):
        a = (flat[0:3], flat[3:6], flat[6:9])
        assert is_consistent(a) == consistent_by_cycles(a), a


def test_consistency_matches_cycle_definition_binary_4x4():
    # 4x4 zero-one matrices exercise the reachability branch heavily
    for flat in product(range(2), repeat=16):
        a = (flat[0:4], flat[4:8], flat[8:12], flat[12:16])
        assert is_consistent(a) == consistent_by_cycles(a), a


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda m: st.lists(
        st.lists(st.integers(0, 5), min_size=m, max_size=m),
        min_size=m, max_size=m)))
def test_consistency_matches_cycle_definition_random(rows):
    a = tuple(tuple(r) for r in rows)
    assert is_consistent(a) == consistent_by_cycles(a)


def test_vectorized_oracle_agrees_with_scalar_oracle():
    # the two reference routes must agree before either is trusted
    # against the shipped code on big sweeps
    import numpy as np
    from oracles import consistency_verdicts_vectorized
    mats = np.array(list(product(range(3), repeat=9)),
                    dtype=np.int8).reshape(-1, 3, 3)
    verdicts = consistency_verdicts_vectorized(mats, 3)
    for mat, verdict in zip(mats, verdicts):
        assert consistent_by_cycles(mat.tolist()) == bool(verdict)


# ------------------------------------------------------------ connectivity

def test_color_connected_examples():
    assert is_color_connected([[0, 3], [3, 0]])
    assert not is_color_connected(
        [[1, 2, 0, 0], [2, 1, 0, 0], [0, 0, 1, 2], [0, 0, 2, 1]])
    assert is_color_connected([[0, 0, 3], [0, 0, 3], [1, 1, 1]])


def test_color_connected_single_color():
    assert is_color_connected([[3]])


# ------------------------------------------------------------ class ratios

def test_class_ratios_examples():
    assert class_ratios([[0, 3], [1, 2]]).numerators == (1, 3)
    assert class_ratios([[0, 1, 2], [1, 0, 2], [1, 1, 1]]).numerators == (1, 1, 2)
    assert class_ratios([[1, 3], [3, 1]]).numerators == (1, 1)


def test_class_ratios_rejects_invalid():
    with pytest.raises(ValueError, match="weakly symmetric"):
        class_ratios([[0, 3], [0, 3]])
    with pytest.raises(ValueError, match="not connected"):
        class_ratios([[3, 0], [0, 3]])
    with pytest.raises(ValueError, match="not consistent"):
        class_ratios([[0, 1, 2], [1, 1, 1], [1, 2, 0]])


def _valid_small_matrices(m, k):
    """All weakly symmetric, consistent, color-connected m x m row-sum-k."""
    out = []
    for mat in product(_compositions(k, m), repeat=m):
        if (is_weakly_symmetric(mat) and is_color_connected(mat)
                and is_consistent(mat)):
            out.append(mat)
    return out


def _compositions(total, parts):
    if parts == 1:
        return [(total,)]
    return [(h,) + t for h in range(total + 1)
            for t in _compositions(total - h, parts - 1)]


def test_class_ratios_satisfy_all_pair_relations():
    for m, k in ((2, 4), (3, 3), (3, 4)):
        for a in _valid_small_matrices(m, k):
            v = class_ratios(a).numerators
            for i in range(m):
                for j in range(m):
                    assert a[i][j] * v[i] == a[j][i] * v[j]


def test_class_ratios_against_least_solution_search():
    for a in _valid_small_matrices(3, 3):
        assert class_ratios(a).numerators == ratios_by_least_solution(a)


def test_class_ratios_permute_under_conjugation():
    for a in _valid_small_matrices(3, 4):
        v = class_ratios(a).numerators
        for perm in permutations(range(3)):
            b = conjugate(a, perm)
            assert class_ratios(b).numerators == tuple(v[p] for p in perm)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda m: st.tuples(
        st.lists(st.lists(st.integers(0, 5), min_size=m, max_size=m),
                 min_size=m, max_size=m),
        st.permutations(range(m)))))
def test_conditions_invariant_under_conjugation(case):
    rows, perm = case
    a = tuple(tuple(r) for r in rows)
    b = conjugate(a, perm).entries
    assert is_weakly_symmetric(a) == is_weakly_symmetric(b)
    assert is_consistent(a) == is_consistent(b)
    assert is_color_connected(a) == is_color_connected(b)


def test_conjugate_rejects_non_permutation():
    with pytest.raises(ValueError):
        conjugate([[0, 3], [1, 2]], [0, 0])


# --------------------------------------------------------------- sizes_for

def test_sizes_for_examples():
    assert sizes_for([[0, 3], [1, 2]], 8) == (2, 6)
    assert sizes_for([[0, 3], [1, 2]], 6) is None
    assert sizes_for([[0, 1, 2], [1, 0, 2], [1, 1, 1]], 4) == (1, 1, 2)


def test_sizes_for_rejects_nonpositive_n():
    assert sizes_for([[1, 1], [1, 1]], 0) is None
    assert sizes_for([[1, 1], [1, 1]], -2) is None


def test_sizes_for_propagates_precondition_errors():
    with pytest.raises(ValueError):
        sizes_for([[0, 3], [0, 3]], 8)
