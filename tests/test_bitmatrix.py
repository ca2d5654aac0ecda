import numpy as np
import pytest
from hypothesis import given, strategies as st

from bcode.bitmatrix import (
    BitMatrix,
    column_or_mask,
    column_sum_counts,
    column_sums,
    min_row_weight,
    select_columns,
    vstack,
)
from bcode.construct import minimal_bdc
from bcode.errors import ResourceLimitError

import oracles


@st.composite
def bit_matrices(draw, max_m=6, max_n=6):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    bits = [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(m)]
    return BitMatrix.from_rows(bits)


def test_from_rows_and_accessors():
    mat = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert (mat.m, mat.n) == (2, 3)
    assert mat.bit(0, 0) == 1 and mat.bit(0, 1) == 0 and mat.bit(1, 2) == 1
    assert mat.to_strings() == ["101", "011"]
    assert mat.column_masks == (0b01, 0b10, 0b11)


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        BitMatrix.from_rows([])
    with pytest.raises(ValueError):
        BitMatrix.from_rows([[0, 1], [1]])
    with pytest.raises(ValueError):
        BitMatrix.from_rows([[0, 2]])
    with pytest.raises(ValueError):
        BitMatrix(1, 1, (2,))
    with pytest.raises(ValueError):
        BitMatrix(0, 1, ())


def test_identity_and_round_trips():
    eye = BitMatrix.identity(3)
    assert eye.to_strings() == ["100", "010", "001"]
    assert BitMatrix.from_strings(eye.to_strings()) == eye
    assert BitMatrix.from_array(eye.to_array()) == eye
    assert np.array_equal(eye.to_array(), np.eye(3, dtype=np.uint8))


def test_from_array_refuses_entries_other_than_zero_and_one():
    assert BitMatrix.from_array([[1.0, 0.0], [False, True]]) == BitMatrix.identity(2)
    for bad in ([[0.5, 1.7]], [[-0.2, 1.0]], [[0, 2]], [[float("nan"), 1]], [["0", "1"]]):
        with pytest.raises(ValueError, match="is not 0 or 1"):
            BitMatrix.from_array(bad)


def test_matrices_are_hashable_and_equal_by_value():
    a = BitMatrix.from_rows([[1, 0], [0, 1]])
    b = BitMatrix.identity(2)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def vector(mat, mask):
    return tuple((mask >> i) & 1 for i in range(mat.m))


def test_column_or_single_column_identity():
    eye = BitMatrix.identity(3)
    assert column_or_mask(eye, (0,)) == 0b001


def test_column_or_disjoint_union():
    eye = BitMatrix.identity(3)
    assert column_or_mask(eye, (0, 1)) == 0b011


def test_column_or_minimal_code_pairs_have_exactly_one_zero():
    # In the minimum-row detection code on 4 users, every 2-column sum
    # misses exactly one model.
    mat = minimal_bdc(2, 2)
    from itertools import combinations

    for cols in combinations(range(4), 2):
        assert vector(mat, column_or_mask(mat, cols)).count(0) == 1


def test_column_or_validates_input():
    eye = BitMatrix.identity(3)
    with pytest.raises(ValueError):
        column_or_mask(eye, (0, 3))
    with pytest.raises(ValueError):
        column_or_mask(eye, ())
    with pytest.raises(ValueError):
        column_or_mask(eye, (1, 1))
    with pytest.raises(ValueError):
        column_or_mask(eye, (2, 1))


def test_min_row_weight_examples():
    assert min_row_weight(BitMatrix.identity(3)) == 1
    assert min_row_weight(BitMatrix.from_rows([[1] * 4, [1] * 4])) == 4
    assert min_row_weight(minimal_bdc(2, 2)) == 2


@given(bit_matrices())
def test_column_or_matches_oracle(mat):
    bits = [[mat.bit(i, j) for j in range(mat.n)] for i in range(mat.m)]
    from itertools import combinations

    for size in range(1, mat.n + 1):
        for cols in combinations(range(mat.n), size):
            assert vector(mat, column_or_mask(mat, cols)) == oracles.or_of_columns(bits, cols)


@given(bit_matrices(), st.data())
def test_column_or_is_monotone_in_the_addend_set(mat, data):
    n = mat.n
    subset = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n)))
    superset = sorted(set(subset) | data.draw(st.sets(st.integers(0, n - 1), max_size=n)))
    small = column_or_mask(mat, tuple(subset))
    big = column_or_mask(mat, tuple(superset))
    assert small & ~big == 0


@given(bit_matrices(max_m=10, max_n=8), st.integers(1, 10))
def test_column_sums_match_oracle_in_order(mat, k):
    bits = [[mat.bit(i, j) for j in range(mat.n)] for i in range(mat.m)]
    mine = [
        (cols, vector(mat, mask))
        for cols, mask in column_sums(mat.column_masks, range(1, k + 1))
    ]
    assert mine == oracles.all_sums(bits, k)


def test_column_sums_size_zero_and_sizes_above_n():
    masks = BitMatrix.from_rows([[1, 0], [0, 1]]).column_masks
    assert list(column_sums(masks, (0,))) == [((), 0)]
    assert list(column_sums(masks, (3, 4))) == []
    assert list(column_sums(masks, (2, 0))) == [((0, 1), 3), ((), 0)]


@given(bit_matrices(max_m=4, max_n=8), st.integers(0, 10))
def test_column_sum_counts_count_every_sum_and_find_its_first_set(mat, max_size):
    # Four rows and eight columns make many sets share a sum.
    layers = column_sum_counts(mat, max_size)
    assert len(layers) == min(max_size, mat.n) + 1
    for size, layer in enumerate(layers):
        want: dict[int, list] = {}
        for cols, mask in column_sums(mat.column_masks, (size,)):
            want.setdefault(mask, []).append(cols)
        assert layer == {mask: (len(sets), sets[0]) for mask, sets in want.items()}


def test_column_sums_budget_is_checked_before_enumerating():
    masks = BitMatrix.identity(40).column_masks
    with pytest.raises(ResourceLimitError):
        column_sums(masks, (20,))
    column_sums(masks, range(6))  # 760,099 sets
    with pytest.raises(ResourceLimitError):
        column_sums(masks, range(7))  # 4,598,479 sets


def test_column_or_mask_agrees_with_vector():
    mat = minimal_bdc(2, 2)
    mask = column_or_mask(mat, (1, 3))
    vec = mat.to_array()[:, [1, 3]].max(axis=1)
    assert vector(mat, mask) == tuple(vec.tolist())


def test_stacking():
    a = BitMatrix.identity(2)
    b = BitMatrix.from_rows([[1, 1]])
    v = vstack(a, b)
    assert v.to_strings() == ["10", "01", "11"]
    with pytest.raises(ValueError):
        vstack(a, BitMatrix.identity(3))
    with pytest.raises(ValueError):
        vstack()


def test_select_columns_duplicates_and_reorders():
    mat = BitMatrix.from_rows([[1, 0], [0, 1]])
    out = select_columns(mat, [1, 0, 1])
    assert out.to_strings() == ["010", "101"]
    with pytest.raises(ValueError):
        select_columns(mat, [2])
    with pytest.raises(ValueError):
        select_columns(mat, [])
