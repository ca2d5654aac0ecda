import math
import random
from itertools import permutations

import pytest
from hypothesis import event, given, settings, strategies as st

from bcode import bitmatrix
from bcode.bitmatrix import BitMatrix, column_or_mask, select_columns
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
    Violation,
    find_btc_violation,
    find_violation,
    is_separable,
    verify,
)

import oracles


def as_bits(mat):
    return [[mat.bit(i, j) for j in range(mat.n)] for i in range(mat.m)]


def naive_witness(mat, kind, k, r):
    found = oracles.naive_first_violation(as_bits(mat), kind.value, k, r)
    return None if found is None else Violation(*found)


@st.composite
def bit_matrices(draw, max_m=6, max_n=5):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    bits = [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(m)]
    return BitMatrix.from_rows(bits)


# --- detection -------------------------------------------------------------

def test_identity_is_detection_code():
    assert verify(BitMatrix.identity(3), CodeKind.BDC, 2, 1)


def test_all_ones_matrix_is_not_detection_code():
    mat = BitMatrix.from_rows([[1, 1, 1], [1, 1, 1]])
    assert not verify(mat, CodeKind.BDC, 1, 1)


def test_larger_minimal_code_is_detection_code():
    mat = minimal_bdc(2, 3)
    assert (mat.m, mat.n) == (10, 5)
    assert verify(mat, CodeKind.BDC, 2, 3)


def test_detection_violations_are_reported_in_order():
    zero_col = BitMatrix.from_rows([[1, 0], [1, 0]])
    v = find_violation(zero_col, CodeKind.BDC, 1, 1)
    assert v is not None and "column 1" in str(v)

    light_row = BitMatrix.from_rows([[1, 1, 1], [1, 0, 0]])
    v = find_violation(light_row, CodeKind.BDC, 1, 2)
    assert v is not None and "row 1" in str(v)

    covered = BitMatrix.from_rows([[1, 0, 0], [0, 1, 1]])
    v = find_violation(covered, CodeKind.BDC, 2, 1)
    assert v is not None and v.column_sets == ((0, 1),)


# --- correction ------------------------------------------------------------

def test_identity_is_not_correction_code():
    assert not verify(BitMatrix.identity(3), CodeKind.BCC, 2, 1)


def test_ones_row_turns_identity_into_correction_code():
    assert verify(add_ones_row(BitMatrix.identity(3)), CodeKind.BCC, 2, 1)


def test_minimal_code_is_correction_code_for_weight_two():
    assert verify(minimal_bdc(2, 2), CodeKind.BCC, 2, 2)


def test_correction_violation_reports_complement_pair():
    v = find_violation(BitMatrix.identity(3), CodeKind.BCC, 2, 1)
    assert v is not None and len(v.column_sets) == 2
    a, b = v.column_sets
    eye = BitMatrix.identity(3)
    assert column_or_mask(eye, a) ^ column_or_mask(eye, b) == 0b111


# --- separability ----------------------------------------------------------

def test_identity_columns_are_separable():
    assert verify(BitMatrix.identity(3), CodeKind.SEPARABLE, 1, 1)


def test_duplicate_columns_are_not_separable():
    mat = BitMatrix.from_rows([[1, 1], [0, 0], [1, 1]])
    assert not verify(mat, CodeKind.SEPARABLE, 1, 1)


def test_identity_is_two_separable():
    assert verify(BitMatrix.identity(3), CodeKind.SEPARABLE, 2, 1)


def test_separable_violation_reports_equal_pair():
    mat = BitMatrix.from_rows([[1, 1], [1, 1]])
    v = find_violation(mat, CodeKind.SEPARABLE, 1, 1)
    assert v is not None and v.column_sets == ((0,), (1,))


# --- tracking --------------------------------------------------------------

def test_stacked_correction_plus_separable_is_tracking_code():
    mat = btc(2, 2, 8, seed=3, max_rows=24)
    assert verify(mat, CodeKind.BTC, 2, 2)


def test_minimal_code_on_four_users_tracks_two_attackers():
    # All 10 Boolean sums of <=2 columns are distinct, so the minimum-row
    # correction code on 4 users is already a tracking code (verified by
    # exhaustive enumeration, see the naive oracle cross-check below).
    mat = minimal_bdc(2, 2)
    assert oracles.naive_is_btc(as_bits(mat), 2, 2)
    assert verify(mat, CodeKind.BTC, 2, 2)


def test_identity_plus_ones_row_is_tracking_code():
    assert verify(add_ones_row(BitMatrix.identity(3)), CodeKind.BTC, 1, 1)


# --- dispatch --------------------------------------------------------------

def test_verify_dispatches_by_kind():
    assert verify(minimal_bdc(2, 2), CodeKind.BCC, 2, 2)
    assert not verify(BitMatrix.identity(3), CodeKind.BCC, 2, 1)
    assert not verify(BitMatrix.from_rows([[0, 0], [0, 0]]), CodeKind.BDC, 1, 1)
    assert verify(BitMatrix.identity(3), CodeKind.SEPARABLE, 2, 1)


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
    return select_columns(base, order), kind, k, r


@given(duplicated_codes())
@settings(max_examples=400, deadline=None)
def test_verify_matches_find_violation_on_duplicated_codes(case):
    matrix, kind, k, r = case
    full = naive_witness(matrix, kind, k, r)
    event(f"{kind.value} {'PASS' if full is None else 'FAIL'}")
    assert verify(matrix, kind, k, r) == (full is None)
    distinct = len(set(matrix.column_masks))
    if distinct < matrix.n and full is not None and full.reason == "two Boolean sums coincide":
        # A repeated column is the witness once the weaker property holds:
        # find_violation finds it without walking the whole matrix, and for
        # BTC walks only the distinct columns to decide BCC.
        budget = (0 if kind is CodeKind.SEPARABLE else
                  sum(math.comb(distinct, s) for s in range(1, min(k, distinct) + 1)))
        event(f"{kind.value} repeated-column witness")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bitmatrix, "MAX_COLUMN_SETS", budget)
            assert find_violation(matrix, kind, k, r) == full
    else:
        assert find_violation(matrix, kind, k, r) == full


def test_verify_on_distinct_columns_passes_general_bcc():
    for k in range(1, 4):
        for r in range(1, 5):
            for n in range(k + r, 13):
                matrix = general_bcc(k, r, n)
                for kind in (CodeKind.BDC, CodeKind.BCC):
                    assert verify(matrix, kind, k, r)


def test_verify_decides_repeated_columns_without_the_full_walk(monkeypatch):
    # general_bcc(2, 2, 8) repeats the 3 columns of minimal_bcc(2, 1): its
    # BCC check enumerates 3 + 3 sums, the full one 8 + 28.
    matrix = general_bcc(2, 2, 8)
    monkeypatch.setattr(bitmatrix, "MAX_COLUMN_SETS", 6)
    assert verify(matrix, CodeKind.BDC, 2, 2)
    assert verify(matrix, CodeKind.BCC, 2, 2)
    assert not verify(matrix, CodeKind.BCC, 2, 3)  # row weight 2 < 3
    # A repeated column is two equal sums of size 1, the witness once BCC
    # holds on the distinct columns (for BTC) or at once (for SEPARABLE).
    witness = Violation("two Boolean sums coincide", ((0,), (2,)))
    assert find_violation(matrix, CodeKind.BTC, 2, 2) == witness
    assert not verify(matrix, CodeKind.BTC, 2, 2)
    monkeypatch.setattr(bitmatrix, "MAX_COLUMN_SETS", 0)
    assert find_violation(matrix, CodeKind.SEPARABLE, 2, 1) == witness
    assert not verify(matrix, CodeKind.SEPARABLE, 2, 1)
    # Two distinct columns are one Boolean sum for k = 2, covering every row:
    # one sum decides, where the whole matrix has 10.
    monkeypatch.setattr(bitmatrix, "MAX_COLUMN_SETS", 1)
    pair = select_columns(BitMatrix.from_rows([[1, 0], [0, 1]]), [0, 1, 0, 1, 1])
    assert not verify(pair, CodeKind.BDC, 2, 1)


def test_every_verifier_decides_a_duplicated_code_within_the_default_budget():
    # general_bcc(4, 4, 100) repeats the columns of a small correction code;
    # its whole-matrix walk at k = 4 is 3.9M sums, over the budget.
    matrix = general_bcc(4, 4, 100)
    assert verify(matrix, CodeKind.BDC, 4, 4)
    assert verify(matrix, CodeKind.BCC, 4, 4)
    assert not verify(matrix, CodeKind.BTC, 4, 4)
    assert not verify(matrix, CodeKind.SEPARABLE, 4, 1)
    witness = "two Boolean sums coincide: columns {0} and {5}"
    assert str(find_violation(matrix, CodeKind.BTC, 4, 4)) == witness
    # The two names ``construct`` calls answer alike.
    assert not is_separable(matrix, 4)
    assert str(find_btc_violation(matrix, 4, 4)) == witness


def test_params_validation():
    with pytest.raises(ValueError, match="^k, r and n must be positive$"):
        find_violation(BitMatrix.identity(2), CodeKind.BDC, 0, 1)
    # n = 4 < k + r: refused by both calls, whatever the matrix.
    for call in (verify, find_violation):
        with pytest.raises(ValueError, match=r"^BCC\(3,2,4\) cannot exist: need n >= k \+ r$"):
            call(BitMatrix.identity(4), CodeKind.BCC, 3, 2)
    # SEPARABLE has no n >= k + r constraint and ignores r.
    assert verify(BitMatrix.identity(3), CodeKind.SEPARABLE, 2, 2)
    assert verify(BitMatrix.identity(3), CodeKind.SEPARABLE, 2, 0)


def test_verifier_argument_validation():
    for kind, k, r in ((CodeKind.BDC, 0, 1), (CodeKind.BCC, 1, 0), (CodeKind.SEPARABLE, 0, 1)):
        with pytest.raises(ValueError, match="^k, r and n must be positive$"):
            verify(BitMatrix.identity(2), kind, k, r)


# --- properties ------------------------------------------------------------

def verdict(mat, kind, k, r):
    """``verify``'s verdict; where it refuses n < k + r, no matrix of that
    width has the property (the oracles agree), so the verdict is False."""
    if kind is not CodeKind.SEPARABLE and mat.n < k + r:
        with pytest.raises(ValueError, match="cannot exist"):
            verify(mat, kind, k, r)
        return False
    return verify(mat, kind, k, r)


@given(bit_matrices(), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=60)
def test_verifiers_match_naive_oracles(mat, k, r):
    bits = as_bits(mat)
    assert verdict(mat, CodeKind.BDC, k, r) == oracles.naive_is_bdc(bits, k, r)
    assert verdict(mat, CodeKind.BCC, k, r) == oracles.naive_is_bcc(bits, k, r)
    assert verdict(mat, CodeKind.SEPARABLE, k, 1) == oracles.naive_is_separable(bits, k)
    assert verdict(mat, CodeKind.BTC, k, r) == oracles.naive_is_btc(bits, k, r)
    if mat.n >= k + r:
        assert find_violation(mat, CodeKind.BTC, k, r) == naive_witness(mat, CodeKind.BTC, k, r)


@given(bit_matrices(), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=60)
def test_property_nesting(mat, k, r):
    if verdict(mat, CodeKind.BTC, k, r):
        assert verdict(mat, CodeKind.BCC, k, r)
    if verdict(mat, CodeKind.BCC, k, r):
        assert verdict(mat, CodeKind.BDC, k, r)


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
    assert verdict(mat, CodeKind.BDC, k, r) == verdict(shuffled, CodeKind.BDC, k, r)
    assert verdict(mat, CodeKind.BCC, k, r) == verdict(shuffled, CodeKind.BCC, k, r)
    assert verdict(mat, CodeKind.SEPARABLE, k, 1) == verdict(shuffled, CodeKind.SEPARABLE, k, 1)
    assert verdict(mat, CodeKind.BTC, k, r) == verdict(shuffled, CodeKind.BTC, k, r)


@pytest.mark.parametrize("k,r", [(k, r) for k in range(1, 8) for r in range(1, 8) if k + r <= 8])
def test_ones_row_always_upgrades_detection_to_correction(k, r):
    mat = minimal_bdc(k, r)
    assert verify(add_ones_row(mat), CodeKind.BCC, k, r)


def test_violation_witness_for_tracking_failure_is_real():
    mat = general_bcc(2, 2, 8)  # duplicated columns: separability must fail
    v = find_violation(mat, CodeKind.BTC, 2, 2)
    assert v is not None
    a, b = v.column_sets
    assert column_or_mask(mat, a) == column_or_mask(mat, b)
