import math
import random
from itertools import permutations

import pytest
from hypothesis import event, given, settings, strategies as st

from bcode import bitmatrix
from bcode.bitmatrix import BitMatrix, column_or, select_columns
from bcode.construct import (
    add_ones_row,
    btc,
    general_bcc,
    minimal_bcc,
    minimal_bdc,
    separable_search,
)
from bcode.properties import (
    CodeKind,
    CodeParams,
    Violation,
    check,
    find_bcc_violation,
    find_bdc_violation,
    find_btc_violation,
    find_separable_violation,
    find_violation,
    is_bcc,
    is_bdc,
    is_btc,
    is_separable,
    verify,
)

import oracles


def as_bits(mat):
    return [[mat.bit(i, j) for j in range(mat.n)] for i in range(mat.m)]


@st.composite
def bit_matrices(draw, max_m=6, max_n=5):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    bits = [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(m)]
    return BitMatrix.from_rows(bits)


# --- detection -------------------------------------------------------------

def test_identity_is_detection_code():
    assert is_bdc(BitMatrix.identity(3), 2, 1)


def test_all_ones_matrix_is_not_detection_code():
    mat = BitMatrix.from_rows([[1, 1, 1], [1, 1, 1]])
    assert not is_bdc(mat, 1, 1)


def test_larger_minimal_code_is_detection_code():
    mat = minimal_bdc(2, 3)
    assert (mat.m, mat.n) == (10, 5)
    assert is_bdc(mat, 2, 3)


def test_detection_violations_are_reported_in_order():
    zero_col = BitMatrix.from_rows([[1, 0], [1, 0]])
    v = find_bdc_violation(zero_col, 1, 1)
    assert v is not None and "column 1" in str(v)

    light_row = BitMatrix.from_rows([[1, 1], [1, 0]])
    v = find_bdc_violation(light_row, 1, 2)
    assert v is not None and "row 1" in str(v)

    covered = BitMatrix.from_rows([[1, 0], [0, 1]])
    v = find_bdc_violation(covered, 2, 1)
    assert v is not None and v.column_sets == ((0, 1),)


# --- correction ------------------------------------------------------------

def test_identity_is_not_correction_code():
    assert not is_bcc(BitMatrix.identity(3), 2, 1)


def test_ones_row_turns_identity_into_correction_code():
    assert is_bcc(add_ones_row(BitMatrix.identity(3)), 2, 1)


def test_minimal_code_is_correction_code_for_weight_two():
    assert is_bcc(minimal_bdc(2, 2), 2, 2)


def test_correction_violation_reports_complement_pair():
    v = find_bcc_violation(BitMatrix.identity(3), 2, 1)
    assert v is not None and len(v.column_sets) == 2
    a, b = v.column_sets
    vec_a = column_or(BitMatrix.identity(3), a)
    vec_b = column_or(BitMatrix.identity(3), b)
    assert tuple(x ^ y for x, y in zip(vec_a, vec_b)) == (1, 1, 1)


# --- separability ----------------------------------------------------------

def test_identity_columns_are_separable():
    assert is_separable(BitMatrix.identity(3), 1)


def test_duplicate_columns_are_not_separable():
    mat = BitMatrix.from_rows([[1, 1], [0, 0], [1, 1]])
    assert not is_separable(mat, 1)


def test_identity_is_two_separable():
    assert is_separable(BitMatrix.identity(3), 2)


def test_separable_violation_reports_equal_pair():
    mat = BitMatrix.from_rows([[1, 1], [1, 1]])
    v = find_separable_violation(mat, 1)
    assert v is not None and v.column_sets == ((0,), (1,))


# --- tracking --------------------------------------------------------------

def test_stacked_correction_plus_separable_is_tracking_code():
    mat = btc(2, 2, 8, seed=3, max_rows=24)
    assert is_btc(mat, 2, 2)


def test_minimal_code_on_four_users_tracks_two_attackers():
    # All 10 Boolean sums of <=2 columns are distinct, so the minimum-row
    # correction code on 4 users is already a tracking code (verified by
    # exhaustive enumeration, see the naive oracle cross-check below).
    mat = minimal_bdc(2, 2)
    assert oracles.naive_is_btc(as_bits(mat), 2, 2)
    assert is_btc(mat, 2, 2)


def test_identity_plus_ones_row_is_tracking_code():
    assert is_btc(add_ones_row(BitMatrix.identity(3)), 1, 1)


# --- dispatch --------------------------------------------------------------

def test_verify_dispatches_by_kind():
    assert verify(minimal_bdc(2, 2), CodeParams(CodeKind.BCC, 2, 2, 4))
    assert not verify(BitMatrix.identity(3), CodeParams(CodeKind.BCC, 2, 1, 3))
    assert not verify(BitMatrix.from_rows([[0, 0], [0, 0]]), CodeParams(CodeKind.BDC, 1, 1, 2))
    assert verify(BitMatrix.identity(3), CodeParams(CodeKind.SEPARABLE, 2, 1, 3))


def test_verify_rejects_mismatched_width():
    with pytest.raises(ValueError):
        verify(BitMatrix.identity(3), CodeParams(CodeKind.BDC, 1, 1, 4))
    with pytest.raises(ValueError):
        verify(general_bcc(2, 4, 8), CodeParams(CodeKind.BCC, 2, 4, 9))


@st.composite
def duplicated_codes(draw):
    """A base matrix (random, or a minimal detection/correction code) with
    its columns picked, often repeated, in any order, plus a claim of any
    kind on it."""
    k0, r0 = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    random_rows = st.lists(st.lists(st.integers(0, 1), min_size=4, max_size=4),
                           min_size=1, max_size=5)
    base = draw(st.one_of(st.just(minimal_bdc(k0, r0)), st.just(minimal_bcc(k0, r0)),
                          random_rows.map(BitMatrix.from_rows)))
    unique = draw(st.booleans())
    order = draw(st.lists(st.integers(0, base.n - 1), min_size=2,
                          max_size=base.n if unique else 12, unique=unique))
    k = draw(st.integers(1, min(4, len(order) - 1)))
    r = draw(st.integers(1, min(4, len(order) - k)))
    kind = draw(st.sampled_from(CodeKind))
    return select_columns(base, order), CodeParams(kind, k, r, len(order))


@given(duplicated_codes())
@settings(max_examples=400, deadline=None)
def test_verify_matches_find_violation_on_duplicated_codes(case):
    matrix, params = case
    full = find_violation(matrix, params)
    event(f"{params.kind.value} {'PASS' if full is None else 'FAIL'}")
    assert verify(matrix, params) == (full is None)
    distinct = len(set(matrix.column_masks))
    if distinct < matrix.n and full is not None and full.reason == "two Boolean sums coincide":
        # A repeated column is the witness once the weaker property holds:
        # check finds it without walking the whole matrix, and for BTC walks
        # only the distinct columns to decide BCC.
        budget = (0 if params.kind is CodeKind.SEPARABLE else
                  sum(math.comb(distinct, s) for s in range(1, min(params.k, distinct) + 1)))
        event(f"{params.kind.value} repeated-column witness")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bitmatrix, "MAX_COLUMN_SETS", budget)
            assert check(matrix, params) == full
    else:
        assert check(matrix, params) == full


def test_verify_on_distinct_columns_passes_general_bcc():
    for k in range(1, 4):
        for r in range(1, 5):
            for n in range(k + r, 13):
                matrix = general_bcc(k, r, n)
                for kind in (CodeKind.BDC, CodeKind.BCC):
                    assert verify(matrix, CodeParams(kind, k, r, n))


def test_verify_decides_repeated_columns_without_the_full_walk(monkeypatch):
    # general_bcc(2, 2, 8) repeats the 3 columns of minimal_bcc(2, 1): its
    # BCC check enumerates 3 + 3 sums, the full one 8 + 28.
    matrix = general_bcc(2, 2, 8)
    monkeypatch.setattr(bitmatrix, "MAX_COLUMN_SETS", 6)
    assert verify(matrix, CodeParams(CodeKind.BDC, 2, 2, 8))
    assert verify(matrix, CodeParams(CodeKind.BCC, 2, 2, 8))
    assert not verify(matrix, CodeParams(CodeKind.BCC, 2, 3, 8))  # row weight 2 < 3
    # A repeated column is two equal sums of size 1, the witness once BCC
    # holds on the distinct columns (for BTC) or at once (for SEPARABLE).
    witness = Violation("two Boolean sums coincide", ((0,), (2,)))
    assert check(matrix, CodeParams(CodeKind.BTC, 2, 2, 8)) == witness
    assert not verify(matrix, CodeParams(CodeKind.BTC, 2, 2, 8))
    monkeypatch.setattr(bitmatrix, "MAX_COLUMN_SETS", 0)
    assert check(matrix, CodeParams(CodeKind.SEPARABLE, 2, 1, 8)) == witness
    assert not verify(matrix, CodeParams(CodeKind.SEPARABLE, 2, 1, 8))
    # Two distinct columns are one Boolean sum for k = 2, covering every row.
    pair = select_columns(BitMatrix.from_rows([[1, 0], [0, 1]]), [0, 1, 0, 1, 1])
    assert not verify(pair, CodeParams(CodeKind.BDC, 2, 1, 5))


def test_params_validation():
    with pytest.raises(ValueError):
        CodeParams(CodeKind.BDC, 0, 1, 2)
    with pytest.raises(ValueError):
        CodeParams(CodeKind.BCC, 2, 2, 3)  # n < k + r
    CodeParams(CodeKind.SEPARABLE, 2, 1, 3)  # no n >= k + r constraint


def test_verifier_argument_validation():
    with pytest.raises(ValueError):
        is_bdc(BitMatrix.identity(2), 0, 1)
    with pytest.raises(ValueError):
        is_bcc(BitMatrix.identity(2), 1, 0)
    with pytest.raises(ValueError):
        is_separable(BitMatrix.identity(2), 0)


# --- properties ------------------------------------------------------------

@given(bit_matrices(), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=60)
def test_verifiers_match_naive_oracles(mat, k, r):
    bits = as_bits(mat)
    assert is_bdc(mat, k, r) == oracles.naive_is_bdc(bits, k, r)
    assert is_bcc(mat, k, r) == oracles.naive_is_bcc(bits, k, r)
    assert is_separable(mat, k) == oracles.naive_is_separable(bits, k)
    assert is_btc(mat, k, r) == oracles.naive_is_btc(bits, k, r)


@given(bit_matrices(), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=60)
def test_property_nesting(mat, k, r):
    if is_btc(mat, k, r):
        assert is_bcc(mat, k, r)
    if is_bcc(mat, k, r):
        assert is_bdc(mat, k, r)


@given(bit_matrices(), st.integers(1, 3), st.integers(1, 3), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_verdicts_are_permutation_invariant(mat, k, r, rnd):
    rows = list(mat.rows)
    rnd.shuffle(rows)
    cols = list(range(mat.n))
    rnd.shuffle(cols)
    shuffled = BitMatrix.from_rows(
        [[(row >> j) & 1 for j in cols] for row in rows]
    )
    assert is_bdc(mat, k, r) == is_bdc(shuffled, k, r)
    assert is_bcc(mat, k, r) == is_bcc(shuffled, k, r)
    assert is_separable(mat, k) == is_separable(shuffled, k)
    assert is_btc(mat, k, r) == is_btc(shuffled, k, r)


@pytest.mark.parametrize("k,r", [(k, r) for k in range(1, 8) for r in range(1, 8) if k + r <= 8])
def test_ones_row_always_upgrades_detection_to_correction(k, r):
    mat = minimal_bdc(k, r)
    assert is_bcc(add_ones_row(mat), k, r)


def test_violation_witness_for_tracking_failure_is_real():
    mat = general_bcc(2, 2, 8)  # duplicated columns: separability must fail
    v = find_btc_violation(mat, 2, 2)
    assert v is not None
    a, b = v.column_sets
    assert column_or(mat, a) == column_or(mat, b)
