from __future__ import annotations

import hashlib
import json
import random
import time
from itertools import chain, permutations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfcol.cam import (
    ColorAdjacencyMatrix,
    class_ratios,
    conjugate,
    is_color_connected,
    is_consistent,
    is_weakly_symmetric,
    sizes_for,
)
from perfcol.enumeration import (
    _compositions,
    canonical_dedup,
    canonical_form,
    enumerate_cams,
    generate_row_sum_matrices,
    passes_filters,
)
from perfcol.golden import survivor_counts, two_color_matrices
from perfcol.graphs import build_witness

from oracles import (
    canonical_by_definition,
    consistent_by_cycles,
    count_valid_matrices,
)


# -------------------------------------------------------------- generation

def test_generate_counts():
    assert sum(1 for _ in generate_row_sum_matrices(2, 3)) == 16
    assert list(generate_row_sum_matrices(1, 3)) == [ColorAdjacencyMatrix(((3,),))]
    assert sum(1 for _ in generate_row_sum_matrices(3, 4)) == 3375


def test_generate_count_formula():
    for m, k in ((2, 1), (2, 3), (2, 5), (3, 1), (3, 3)):
        want = comb(k + m - 1, m - 1) ** m
        assert sum(1 for _ in generate_row_sum_matrices(m, k)) == want


def test_generate_is_lexicographic_and_exhaustive():
    seen = [a.entries for a in generate_row_sum_matrices(2, 2)]
    assert seen == sorted(seen)
    assert len(set(seen)) == len(seen) == 9
    assert all(sum(row) == 2 for a in seen for row in a)


def test_compositions_match_the_filter_definition():
    for k in range(6):
        for m in range(1, 6):
            want = tuple(c for c in product(range(k + 1), repeat=m)
                         if sum(c) == k)
            assert _compositions(k, m) == want, (k, m)


def test_compositions_do_not_walk_the_cube():
    # the filter over product(range(4), repeat=12) took seconds for 364 rows
    start = time.perf_counter()
    rows = _compositions(3, 12)
    assert time.perf_counter() - start < 0.5
    assert len(rows) == comb(14, 11)
    assert rows == tuple(sorted(set(rows)))
    assert all(len(c) == 12 and sum(c) == 3 for c in rows)


def test_generate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        list(generate_row_sum_matrices(0, 3))
    with pytest.raises(ValueError):
        list(generate_row_sum_matrices(2, 0))


# ----------------------------------------------------------------- filters

def test_passes_filters_examples():
    assert passes_filters(((0, 3), (2, 1)))
    assert passes_filters(((0, 3), (1, 2)))
    # the conjugate carries decreasing ratios (3,1) and is rejected
    assert not passes_filters(((2, 1), (3, 0)))
    # consistency failure
    assert not passes_filters(((0, 1, 2), (1, 1, 1), (1, 2, 0)))
    # weak symmetry failure
    assert not passes_filters(((0, 3), (0, 3)))
    # weak symmetry failure beside connected, consistent mutual pairs
    assert not passes_filters(((0, 1, 2), (1, 1, 1), (0, 1, 2)))
    # connectivity failure
    assert not passes_filters(((3, 0), (0, 3)))
    # disconnected and inconsistent at once
    assert not passes_filters(
        ((0, 1, 2, 0), (1, 1, 1, 0), (1, 2, 0, 0), (0, 0, 0, 3)))
    # valid in every other respect, but the row sums differ
    assert not passes_filters(((0, 2), (1, 2)))
    with pytest.raises(ValueError, match="square"):
        passes_filters(((0, 3), (1, 2, 0)))


@st.composite
def weakly_symmetric_matrices(draw):
    """m <= 4, off-diagonal entries 0..4 with each pair zero on both sides
    or positive on both; half the time the diagonal evens out the row
    sums, so the filter's other conditions get exercised."""
    m = draw(st.integers(1, 4))
    a = [[draw(st.integers(0, 4)) if i == j else 0 for j in range(m)]
         for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if draw(st.booleans()):
                a[i][j] = draw(st.integers(1, 4))
                a[j][i] = draw(st.integers(1, 4))
    if draw(st.booleans()):
        top = max(sum(row) for row in a)
        for i in range(m):
            a[i][i] += top - sum(a[i])
    return tuple(map(tuple, a))


@settings(max_examples=300, deadline=None)
@given(weakly_symmetric_matrices())
def test_passes_filters_is_the_conjunction_of_the_conditions(a):
    want = (len({sum(row) for row in a}) == 1 and is_color_connected(a)
            and consistent_by_cycles(a))
    if want:
        r = class_ratios(a).numerators
        want = list(r) == sorted(r)
    assert passes_filters(a) == want


def test_passes_filters_conditions_hold_for_survivors():
    for a in enumerate_cams(3, 3).survivors:
        e = a.entries
        assert is_weakly_symmetric(e)
        assert is_consistent(e)
        assert is_color_connected(e)
        r = class_ratios(e).numerators
        assert all(x <= y for x, y in zip(r, r[1:]))


def test_survivor_conjugates_keep_structural_conditions():
    # permutation invariance of conditions (1)-(3); the ratio ordering
    # is the only thing a conjugate can break
    for a in enumerate_cams(2, 5).survivors:
        for perm in permutations(range(2)):
            b = conjugate(a.entries, perm).entries
            assert is_weakly_symmetric(b)
            assert is_consistent(b)
            assert is_color_connected(b)


# ------------------------------------------------------------ canonicality

def test_canonical_form_collapses_conjugates():
    assert canonical_form(((2, 1), (3, 0))).entries == ((0, 3), (1, 2))
    assert canonical_form(((0, 3), (1, 2))).entries == ((0, 3), (1, 2))


def test_canonical_form_is_conjugation_invariant():
    for a in enumerate_cams(3, 4).survivors[:30]:
        want = canonical_form(a.entries)
        for perm in permutations(range(3)):
            assert canonical_form(conjugate(a.entries, perm).entries) == want
    # at (5,3) blocks of tied ratios span up to all five colors
    rng = random.Random(5)
    for a in enumerate_cams(5, 3).survivors:
        for _ in range(3):
            perm = tuple(rng.sample(range(5), 5))
            assert canonical_form(conjugate(a.entries, perm).entries) == a


@pytest.mark.parametrize("m, k", [(4, 4), (5, 3), (4, 5)])
def test_canonical_form_matches_definition_oracle(m, k):
    rng = random.Random(m * 10 + k)
    for a in enumerate_cams(m, k).survivors:
        perm = tuple(rng.sample(range(m), m))
        shuffled = conjugate(a.entries, perm).entries
        want = canonical_by_definition(shuffled)
        assert canonical_form(shuffled).entries == want == a.entries


def test_canonical_dedup_examples():
    sym = ColorAdjacencyMatrix(((1, 2), (2, 1)))
    assert canonical_dedup([sym]) == [sym]
    a = ((0, 1, 2), (1, 0, 2), (1, 1, 1))
    swapped = conjugate(a, (1, 0, 2)).entries
    merged = canonical_dedup([a, swapped])
    assert len(merged) == 1


@pytest.mark.parametrize("call", [
    class_ratios,
    is_color_connected,
    lambda a: sizes_for(a, 4),
    canonical_form,
    lambda a: canonical_dedup([a]),
], ids=["class_ratios", "is_color_connected", "sizes_for", "canonical_form",
        "canonical_dedup"])
@pytest.mark.parametrize("empty", [[], ()])
def test_empty_matrix_is_a_value_error(call, empty):
    # the kernels behind these index row 0, so the public boundary must
    # reject a matrix without rows before calling them
    with pytest.raises(ValueError, match="at least one row"):
        call(empty)


@pytest.mark.parametrize("call", [
    class_ratios,
    lambda a: sizes_for(a, 8),
    build_witness,
], ids=["class_ratios", "sizes_for", "build_witness"])
@pytest.mark.parametrize("a", [((2, 1), (-1, 4)), ((3, 0), (-1, 4))])
def test_negative_entry_is_a_value_error(call, a):
    # the first matrix is weakly symmetric with ratios (1, -1) that sum
    # to zero, the second is not weakly symmetric; the sign is named
    # before every other condition
    with pytest.raises(ValueError, match="must be nonnegative"):
        call(a)


def test_negative_entry_fails_the_filter():
    assert not passes_filters([[4, -1], [-1, 4]])
    assert not passes_filters([[2, 1], [-1, 4]])


@pytest.mark.parametrize("call", [
    class_ratios,
    lambda a: sizes_for(a, 8),
    build_witness,
], ids=["class_ratios", "sizes_for", "build_witness"])
def test_one_sided_pair_beside_mutual_pairs_has_no_ratios(call):
    # a_02 > 0 = a_20, but the mutual pairs alone form a connected,
    # consistent color graph, whose walk would give the ratios 1:1:1
    with pytest.raises(ValueError, match="not weakly symmetric"):
        call(((0, 1, 2), (1, 1, 1), (0, 1, 2)))


def test_canonical_dedup_is_idempotent_and_sorted():
    raw = [a for a in generate_row_sum_matrices(3, 3) if passes_filters(a)]
    once = canonical_dedup(raw)
    assert canonical_dedup(once) == once
    assert [a.entries for a in once] == sorted(a.entries for a in once)
    assert len(once) == 18


# ------------------------------------------------------------- enumeration

def test_enumerate_rejects_bad_arguments():
    import perfcol.enumeration as enumeration
    with pytest.raises(ValueError):
        enumerate_cams(0, 3)
    with pytest.raises(ValueError):
        enumerate_cams(2, -1)
    # the arguments are checked before the memo is consulted
    enumerate_cams(2, 3)
    for threads in (0, -4):
        with pytest.raises(ValueError):
            enumerate_cams(2, 3, threads=threads)
    with pytest.raises(TypeError):
        enumerate_cams(2.0, 3)
    with pytest.raises(TypeError):
        enumerate_cams(2, 3, threads=1.5)
    enumeration._memo.pop((1, 3), None)
    result = enumerate_cams(True, 3)
    assert type(result.m) is int and result == enumerate_cams(1, 3)


def test_enumerate_reads_no_environment(monkeypatch):
    # PERFCOL_THREADS belongs to the command line: the library ignores it
    import perfcol.enumeration as enumeration
    single = enumerate_cams(3, 3)
    monkeypatch.setenv("PERFCOL_THREADS", "x")
    enumeration._memo.pop((3, 3), None)
    try:
        again = enumerate_cams(3, 3)
    finally:
        enumeration._memo[(3, 3)] = single
    assert again == single and len(again.survivors) == 18


def test_enumerate_single_color():
    result = enumerate_cams(1, 4)
    assert result.raw_count == 1
    assert [a.entries for a in result.survivors] == [((4,),)]


def test_enumerate_two_color_three_regular():
    result = enumerate_cams(2, 3)
    assert result.raw_count == 16
    got = {a.entries for a in result.survivors}
    want = {canonical_form(rows).entries for rows in two_color_matrices()["3"]}
    assert got == want and len(result.survivors) == 6


def test_enumerate_counts_against_published_table():
    for m_text, per_k in survivor_counts().items():
        m = int(m_text)
        for k_text, want in per_k.items():
            k = int(k_text)
            if (m, k) in ((4, 4), (4, 5)):
                continue    # headline sizes belong to the acceptance run
            assert len(enumerate_cams(m, k).survivors) == want, (m, k)


def test_enumerate_agrees_with_naive_pipeline():
    # (3, 5) is where the prefix bound a_ij <= a_ji cuts the most
    for m, k in ((2, 3), (2, 4), (2, 5), (3, 3), (3, 4), (3, 5), (4, 3)):
        naive = canonical_dedup(
            a for a in generate_row_sum_matrices(m, k) if passes_filters(a))
        fused = list(enumerate_cams(m, k).survivors)
        assert naive == fused, (m, k)


def test_enumerate_raw_count_matches_stream():
    for m, k in ((2, 3), (2, 4), (3, 3)):
        result = enumerate_cams(m, k)
        assert result.raw_count == sum(1 for _ in generate_row_sum_matrices(m, k))


def test_enumerate_survivors_are_canonical():
    for a in enumerate_cams(3, 5).survivors:
        assert canonical_form(a.entries) == a


def test_enumerate_five_colors_degree_three_is_pinned():
    # first step past the validated range; the digest is of the sorted
    # survivor list as computed before the scan and dedup were refactored
    survivors = enumerate_cams(5, 3).survivors
    doc = json.dumps([[list(row) for row in a.entries] for a in survivors])
    assert len(survivors) == 247
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "70eab0eaa2f6d47bf753f546307ba45581b50d245f1c036b9e63db6e4336a744")


def test_enumerate_four_colors_degree_five_is_pinned():
    # the largest case of the validated range, digest in the same form,
    # computed before the canonical key walked only tied-ratio blocks
    survivors = enumerate_cams(4, 5).survivors
    doc = json.dumps([[list(row) for row in a.entries] for a in survivors])
    assert len(survivors) == 2042
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "1728ad04a8f2bdd3d9cac4230d412339c36a7b0bd2f80ac50ec519e4a346099c")


def test_enumerate_five_colors_degree_four_is_pinned():
    # digest in the same form, computed before the scan bounded each row
    # by the rows above it and emitted class representatives directly
    survivors = enumerate_cams(5, 4).survivors
    doc = json.dumps([[list(row) for row in a.entries] for a in survivors])
    assert len(survivors) == 3996
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "c7434f0f05347559c6c93b8837a878e0dfabd619bdbb65ee39911cfcfdbcbb7b")


def test_enumerate_six_colors_degree_three_is_pinned():
    # digest in the same form, computed before the scan rejected prefixes
    # at the depth where they fail; the orbit count over these survivors
    # matched the oracle's 586,420 valid matrices
    survivors = enumerate_cams(6, 3).survivors
    doc = json.dumps([[list(row) for row in a.entries] for a in survivors])
    assert len(survivors) == 1037
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "e8198b811e00e5785a093cbc7f8c4ac34d9f2b3e163b53ab5b8ee18064c742b8")


@pytest.mark.parametrize("m,k", [(3, 5), (4, 4), (5, 3), (5, 4), (5, 2), (3, 6)])
def test_survivor_orbits_count_every_valid_matrix(m, k):
    # orbit-stabilizer: survivor A stands for m!/|Stab(A)| valid matrices,
    # and the oracle counts those without canonical forms or ratios
    perms = list(permutations(range(m)))
    total = 0
    for a in enumerate_cams(m, k).survivors:
        e = a.entries
        stab = sum(all(e[p[i]][p[j]] == e[i][j]
                       for i in range(m) for j in range(m)) for p in perms)
        total += len(perms) // stab
    assert total == count_valid_matrices(m, k)


@pytest.mark.parametrize("m,k,extend,d_calls,d_true,leaves,kept", [
    (4, 5, 19427, 6782, 1558, 3383, 2042),
    (5, 3, 7116, 7848, 2109, 941, 247),
    (5, 4, 95498, 62289, 18229, 11510, 3996),
])
def test_scan_funnel_is_pinned(monkeypatch, m, k, extend, d_calls, d_true,
                               leaves, kept):
    # a check that silently prunes less keeps every output pin but moves
    # these counts: _extend per prefix, _smaller per node for check (d)
    # (depth < m) and per leaf (depth == m)
    import perfcol.enumeration as enumeration
    calls = {"extend": 0, "d": [0, 0], "leaf": [0, 0]}
    extend_fn, smaller_fn = enumeration._extend, enumeration._smaller

    def counted_extend(*args):
        calls["extend"] += 1
        v, touched, members = args[0], args[3], args[4]
        # check (b) reads the merged members in index order, ending at
        # row i; None at the last depth stands for every color, since
        # the last row touches every part
        i = len(v)
        for part, _ in touched:
            assert all(map(int.__lt__, part, part[1:])) and part[-1] < i
        if i == m - 1:
            assert members is None
            assert sorted(chain.from_iterable(p for p, _ in touched)) == [
                *range(i)]
        else:
            assert all(map(int.__lt__, members, members[1:]))
            assert members[-1] == i
        return extend_fn(*args)

    def counted_smaller(flat, relabelings):
        result = smaller_fn(flat, relabelings)
        tally = calls["leaf" if len(flat) == m * m else "d"]
        tally[0] += 1
        tally[1] += result
        return result

    monkeypatch.setattr(enumeration, "_extend", counted_extend)
    monkeypatch.setattr(enumeration, "_smaller", counted_smaller)
    out = enumeration._scan_range(m, k, 0, 1)
    assert len(out) == kept
    assert calls == {"extend": extend, "d": [d_calls, d_true],
                     "leaf": [leaves, leaves - kept]}


def test_smaller_ignores_rows_from_depth_on():
    from perfcol.enumeration import _flat_getter, _smaller
    swap01 = _flat_getter((1, 0, 2), 2)
    # exchanging colors 0 and 1 turns rows 0..1 of the first matrix into
    # ((1,0,2),(2,1,0)) and leaves those of the second as they are; a
    # depth-2 getter reads nothing of row 2 (unset during the scan, or
    # any row)
    first, second = (1, 2, 0, 0, 1, 2), (0, 1, 2, 1, 0, 2)
    assert _smaller(first, [swap01])
    assert not _smaller(second, [swap01])
    for last in ((0, 0, 3), (3, 0, 0)):
        assert swap01(first + last) == swap01(first)
        assert swap01(second + last) == swap01(second)
    # at depth 3 row 2 is compared, and (0, 3, 0) < (3, 0, 0)
    assert _smaller(second + (3, 0, 0), [_flat_getter((1, 0, 2), 3)])
    # a depth-d getter reads each index below d*m once, and its entry
    # (r, c) is entry (perm[r], perm[c])
    for m in (2, 3, 4):
        flat = tuple(range(100, 100 + m * m))
        for perm in permutations(range(m)):
            for d in range(1, m + 1):
                if sorted(perm[:d]) != list(range(d)):
                    continue
                get = _flat_getter(perm, d)
                assert sorted(get(range(m * m))) == list(range(d * m))
                assert get(flat) == tuple(flat[perm[r] * m + perm[c]]
                                          for r in range(d) for c in range(m))


@pytest.mark.parametrize("m,k", [(4, 5), (5, 3)])
def test_scan_shards_merge_to_the_single_scan(m, k):
    # shard j of N owns the first rows j, j+N, ...; each shard is sorted,
    # so merging the shards in order gives the one-shard scan
    from heapq import merge
    from perfcol.enumeration import _scan_range
    single = _scan_range(m, k, 0, 1)
    first_row = {c: r for r, c in enumerate(_compositions(k, m))}
    for stride in (2, 3, 4):
        shards = [_scan_range(m, k, j, stride) for j in range(stride)]
        assert list(merge(*shards)) == single, stride
        for j, shard in enumerate(shards):
            assert shard, (stride, j)
            assert all(first_row[rows[0]] % stride == j for rows, _ in shard)


def test_enumerate_threaded_matches_single():
    # the survivor order comes from merging the sorted shards, not a sort
    import perfcol.enumeration as enumeration
    for m, k, threads in ((3, 4, 3), (4, 3, 2), (5, 3, 2), (5, 3, 4)):
        single = enumerate_cams(m, k)
        enumeration._memo.pop((m, k), None)
        try:
            threaded = enumerate_cams(m, k, threads=threads)
        finally:
            enumeration._memo[(m, k)] = single
        assert threaded == single, (m, k)


def test_enumerate_starts_a_pool_only_for_two_first_rows_per_process(
        monkeypatch):
    # (2, 3) has binom(4, 1) = 4 first rows: two processes get two each,
    # three would not, and threads None or 1 scan in this process
    import multiprocessing
    import perfcol.enumeration as enumeration
    started = []

    class SerialPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, function, arguments):
            return [function(*args) for args in arguments]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    single = enumerate_cams(2, 3)
    try:
        for threads, pools in ((None, []), (1, []), (2, [2]), (3, [])):
            started.clear()
            enumeration._memo.pop((2, 3), None)
            assert enumerate_cams(2, 3, threads=threads) == single, threads
            assert started == pools, threads
    finally:
        enumeration._memo[(2, 3)] = single


def _validated_sizes():
    return [(int(m), int(k)) for m, per_k in survivor_counts().items()
            for k in per_k] + [(5, 3)]


def test_enumerate_ratios_are_the_class_ratios():
    # the scan hands back the ratios it carried; one process and two
    # processes give the same survivors and ratios
    import perfcol.enumeration as enumeration
    for m, k in _validated_sizes():
        single = enumerate_cams(m, k, threads=1)
        assert len(single.ratios) == len(single.survivors)
        for a, ratios in zip(single.survivors, single.ratios):
            assert ratios == class_ratios(a).numerators, (m, k, a)
            assert type(a.entries) is tuple
            assert all(type(row) is tuple for row in a.entries)
            assert all(type(x) is int for row in a.entries for x in row)
            assert a == ColorAdjacencyMatrix(a.entries)
        enumeration._memo.pop((m, k), None)
        try:
            threaded = enumerate_cams(m, k, threads=2)
        finally:
            enumeration._memo[(m, k)] = single
        assert threaded.survivors == single.survivors, (m, k)
        assert threaded.ratios == single.ratios, (m, k)


def test_enumerate_without_survivors_has_no_ratios():
    for m in (3, 4):
        result = enumerate_cams(m, 1)
        assert result.survivors == result.ratios == ()


def test_enumerate_recomputation_is_deterministic():
    import perfcol.enumeration as enumeration
    first = enumerate_cams(2, 4)
    enumeration._memo.pop((2, 4), None)
    try:
        second = enumerate_cams(2, 4)
    finally:
        enumeration._memo[(2, 4)] = first
    assert first == second
