import functools
import hashlib
import math
import random
import tracemalloc
from itertools import chain, combinations

import numpy as np
import pytest

from bcode import _streams, bitmatrix, construct
from bcode.bitmatrix import BitMatrix, min_row_weight
from bcode.cli import main
from bcode.construct import (
    CONSTRUCTIONS,
    add_ones_row,
    btc,
    build,
    general_bcc,
    minimal_bcc,
    minimal_bdc,
    partition_code,
    random_code,
    separable_search,
)
from bcode.errors import ConstructionError, ResourceLimitError
from bcode.properties import CodeKind, verify
from bcode.search import canonical_form

import oracles


def as_bits(mat):
    return [[mat.bit(i, j) for j in range(mat.n)] for i in range(mat.m)]


# --- minimal detection codes -------------------------------------------------

def test_minimal_bdc_base_case_is_identity():
    assert minimal_bdc(1, 1) == BitMatrix.identity(2)


def test_minimal_bdc_2_2_contains_every_weight_two_row_once():
    mat = minimal_bdc(2, 2)
    assert (mat.m, mat.n) == (6, 4)
    assert sorted(mat.rows) == sorted(
        v for v in range(16) if bin(v).count("1") == 2
    )


def test_minimal_bdc_1_2_matches_hand_expansion():
    mat = minimal_bdc(1, 2)
    expected = BitMatrix.from_rows([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    assert canonical_form(mat) == canonical_form(expected)
    assert mat == expected  # the recursion is literal, so even the order matches


@pytest.mark.parametrize(
    "k,r", [(k, r) for k in range(1, 8) for r in range(1, 8) if k + r <= 8]
)
def test_minimal_bdc_row_count_and_property(k, r):
    mat = minimal_bdc(k, r)
    assert mat.m == math.comb(k + r, k)
    assert mat.n == k + r
    assert verify(mat, CodeKind.BDC, k, r)


def test_minimal_bdc_resource_limit(monkeypatch, capsys):
    with pytest.raises(ResourceLimitError):
        minimal_bdc(12, 12)
    # minimal_bdc(3, 3) enumerates the C(6, 3) = 20 three-column sets.
    monkeypatch.setattr(bitmatrix, "MAX_COLUMN_SETS", 20)
    assert minimal_bdc(3, 3).m == 20
    monkeypatch.setattr(bitmatrix, "MAX_COLUMN_SETS", 19)
    with pytest.raises(ResourceLimitError):
        minimal_bdc(3, 3)
    assert main(["construct", "--kind", "minimal-bdc", "--k", "3", "--r", "3"]) == 3
    assert "exceeds the budget of 19" in capsys.readouterr().err


def test_minimal_bdc_with_large_row_weight():
    mat = minimal_bdc(1, 1500)
    assert (mat.m, mat.n) == (1501, 1501)
    assert verify(mat, CodeKind.BDC, 1, 1500)
    # Within the column-set budget, but 10^6 x 10^6 entries.
    with pytest.raises(ResourceLimitError):
        minimal_bdc(1, 999_999)


def test_minimal_bdc_validates_arguments():
    with pytest.raises(ValueError):
        minimal_bdc(0, 1)
    with pytest.raises(ValueError):
        minimal_bdc(1, 0)


# --- ones-row upgrade --------------------------------------------------------

def test_add_ones_row_prepends():
    out = add_ones_row(BitMatrix.identity(3))
    assert out.m == 4 and out.to_strings()[0] == "111"
    assert verify(out, CodeKind.BCC, 2, 1)


def test_add_ones_row_on_single_cell():
    out = add_ones_row(BitMatrix.from_rows([[1]]))
    assert out.to_strings() == ["1", "1"]


def test_add_ones_row_keeps_correction_property():
    out = add_ones_row(minimal_bdc(2, 2))
    assert out.m == 7 and verify(out, CodeKind.BCC, 2, 2)


# --- minimal correction codes ------------------------------------------------

def test_minimal_bcc_examples():
    assert minimal_bcc(2, 2).m == 6 and minimal_bcc(2, 2).n == 4
    four_by_three = minimal_bcc(2, 1)
    assert (four_by_three.m, four_by_three.n) == (4, 3)
    assert verify(four_by_three, CodeKind.BCC, 2, 1)
    three = minimal_bcc(1, 2)
    assert (three.m, three.n) == (3, 3)
    assert verify(three, CodeKind.BCC, 1, 2)


@pytest.mark.parametrize(
    "k,r", [(k, r) for k in range(1, 6) for r in range(2, 6) if k + r <= 8]
)
def test_minimal_detection_code_is_already_correcting_for_r_above_one(k, r):
    assert verify(minimal_bdc(k, r), CodeKind.BCC, k, r)


# --- general correction codes ------------------------------------------------

def test_general_bcc_doubles_columns_when_ratio_matches():
    mat = general_bcc(2, 4, 8)
    base = minimal_bcc(2, 2)
    assert (mat.m, mat.n) == (6, 8)
    assert mat.to_strings() == [s + s for s in base.to_strings()]
    assert verify(mat, CodeKind.BCC, 2, 4)


def test_general_bcc_with_rounding_overflow_falls_back_to_fitting_copies():
    mat = general_bcc(2, 2, 8)
    assert (mat.m, mat.n) == (4, 8)  # built from the 4x3 minimal correction code
    assert verify(mat, CodeKind.BCC, 2, 2)
    assert min_row_weight(mat) >= 2


def test_general_bcc_degenerate_case_equals_minimal():
    assert general_bcc(1, 1, 2) == minimal_bcc(1, 1)


def test_general_bcc_rejects_too_few_users():
    with pytest.raises(ValueError):
        general_bcc(2, 4, 5)


@pytest.mark.parametrize("j", [0, 1, 2])
def test_general_bcc_row_count_is_scale_independent(j):
    mat = general_bcc(2, 2 * 2**j, 4 * 2**j)
    assert mat.m == 6
    assert verify(mat, CodeKind.BCC, 2, 2 * 2**j)


@pytest.mark.parametrize(
    "k,r,n",
    [
        (k, r, n)
        for k in range(1, 4)
        for n in range(2, 17)
        for r in range(1, n - k + 1)
        if n >= k + r
    ],
)
def test_general_bcc_verifies_across_the_operating_range(k, r, n):
    mat = general_bcc(k, r, n)
    assert mat.n == n
    assert min_row_weight(mat) >= r
    assert verify(mat, CodeKind.BCC, k, r)


# --- partition codes -----------------------------------------------------------

def test_partition_code_examples():
    mat = partition_code(3, 6)
    assert all(mat.row_weight(i) == 2 for i in range(3))
    assert all(sum(mat.bit(i, j) for i in range(3)) == 1 for j in range(6))
    assert partition_code(1, 4).to_strings() == ["1111"]
    assert partition_code(12, 12) == BitMatrix.identity(12)


def test_partition_code_remainder_goes_to_early_groups():
    mat = partition_code(3, 7)
    assert [mat.row_weight(i) for i in range(3)] == [3, 2, 2]


def test_partition_code_validation():
    with pytest.raises(ValueError):
        partition_code(5, 4)
    with pytest.raises(ValueError):
        partition_code(0, 4)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_partition_code_correction_threshold(k, m):
    # Verified by oracle: partitions detect up to k attackers once m > k,
    # but correction additionally needs m >= 2k + 1 (two sums covering
    # complementary group sets XOR to all-ones below that).
    n = 2 * m
    mat = partition_code(m, n)
    r = n // m
    assert verify(mat, CodeKind.BDC, k, r) == (m >= k + 1)
    assert verify(mat, CodeKind.BCC, k, r) == (m >= 2 * k + 1)
    bits = as_bits(mat)
    assert oracles.naive_is_bcc(bits, k, r) == (m >= 2 * k + 1)


# --- random codes ----------------------------------------------------------------

def test_random_code_row_weights_and_determinism():
    a = random_code(6, 12, 4, seed=42)
    b = random_code(6, 12, 4, seed=42)
    c = random_code(6, 12, 4, seed=43)
    assert a == b
    assert a != c
    assert all(a.row_weight(i) == 4 for i in range(6))
    assert all(any(a.bit(i, j) for i in range(a.m)) for j in range(a.n))


def test_random_code_forced_all_ones():
    assert random_code(1, 3, 3, seed=0).to_strings() == ["111"]


def test_random_code_gives_up_when_columns_cannot_be_covered(monkeypatch):
    monkeypatch.setattr(construct, "RANDOM_CODE_RETRIES", 50)
    with pytest.raises(ConstructionError, match="in 50 attempts"):
        random_code(1, 3, 1, seed=0)


def test_random_code_validation():
    with pytest.raises(ValueError):
        random_code(2, 3, 0, seed=0)
    with pytest.raises(ValueError):
        random_code(2, 3, 4, seed=0)


def test_random_wide_codes_usually_correct_one_attacker():
    hits = sum(verify(random_code(12, 12, 6, seed=s), CodeKind.BCC, 1, 6) for s in range(50))
    assert hits >= 40


# --- entry budget ------------------------------------------------------------------

def test_constructions_refuse_matrices_over_the_entry_budget():
    # Each shape is just over 2^30 entries and is refused before any row exists.
    with pytest.raises(ResourceLimitError):
        partition_code(32769, 32769)
    with pytest.raises(ResourceLimitError):
        random_code(32769, 32769, 1, seed=0)
    with pytest.raises(ResourceLimitError):
        minimal_bcc(32767, 1)  # 32769 x 32768 entries


def test_entry_budget_boundary(monkeypatch):
    monkeypatch.setattr(construct, "MAX_ENTRIES", 12)
    assert partition_code(3, 4).m == 3
    assert random_code(2, 6, 3, seed=0).n == 6
    assert minimal_bcc(2, 1).m == 4  # 4 x 3 entries
    assert minimal_bdc(2, 1).m == 3  # 3 x 3 entries
    with pytest.raises(ResourceLimitError):
        partition_code(3, 5)
    with pytest.raises(ResourceLimitError):
        random_code(2, 7, 3, seed=0)
    with pytest.raises(ResourceLimitError):
        minimal_bcc(3, 1)  # 5 x 4 entries
    with pytest.raises(ResourceLimitError):
        general_bcc(2, 1, 4)  # its 4 x 3 base fits, the 4 x 4 result does not


# --- separable search ---------------------------------------------------------

def test_separable_search_small_cases():
    mat = separable_search(1, 8, 1, seed=0, max_rows=16)
    assert verify(mat, CodeKind.SEPARABLE, 1, 1)
    assert len(set(mat.column_masks)) == 8 and 0 not in mat.column_masks

    mat = separable_search(2, 8, 2, seed=0, max_rows=24)
    assert verify(mat, CodeKind.SEPARABLE, 2, 1)
    assert min_row_weight(mat) >= 2

    mat = separable_search(1, 2, 1, seed=0, max_rows=4)
    assert verify(mat, CodeKind.SEPARABLE, 1, 1)


def test_separable_search_is_deterministic():
    a = separable_search(2, 8, 2, seed=9, max_rows=24)
    b = separable_search(2, 8, 2, seed=9, max_rows=24)
    assert a == b


def test_separable_search_budget_exhaustion():
    with pytest.raises(ConstructionError) as info:
        separable_search(2, 8, 2, seed=0, max_rows=7, attempts_per_m=2)
    assert info.value.last_tried == 7
    with pytest.raises(ConstructionError) as info:
        separable_search(2, 8, 2, seed=0, max_rows=2, attempts_per_m=5)
    assert info.value.last_tried is None  # budget below the lower bound


def test_separable_search_validation():
    with pytest.raises(ValueError):
        separable_search(1, 1, 1, seed=0, max_rows=4)
    with pytest.raises(ValueError):
        separable_search(1, 4, 4, seed=0, max_rows=4)


@pytest.mark.parametrize("max_rows, attempts", [(0, 5), (-3, 5), (8, 0), (8, -1)])
def test_separable_search_refuses_an_empty_budget(max_rows, attempts):
    with pytest.raises(ValueError, match="must be positive"):
        separable_search(1, 4, 1, seed=2, max_rows=max_rows, attempts_per_m=attempts)
    with pytest.raises(ValueError, match="must be positive"):
        btc(1, 1, 4, seed=2, max_rows=max_rows, attempts_per_m=attempts)


# --- tracking codes ------------------------------------------------------------

def test_btc_stacks_correction_on_separable():
    mat = btc(2, 2, 8, seed=1, max_rows=24)
    top = general_bcc(2, 2, 8)
    assert mat.to_strings()[: top.m] == top.to_strings()
    assert verify(mat, CodeKind.BTC, 2, 2)


def test_btc_minimal_case():
    mat = btc(1, 1, 2, seed=2, max_rows=8)
    assert verify(mat, CodeKind.BTC, 1, 1)


def test_btc_wide_tracking_code():
    mat = btc(1, 11, 16, seed=0, max_rows=32)
    assert verify(mat, CodeKind.BTC, 1, 11)
    assert min_row_weight(mat) >= 11


# --- seeded draws: the matrices one numpy call per draw gives -------------------

@functools.cache
def numpy_separable(args):
    return oracles.numpy_separable_search(*args)


def search_outcome(args):
    """(rows, None) of the matrix ``separable_search(*args)`` returns, or
    (None, last_tried) of the error it raises."""
    k, n, min_weight, seed, max_rows, attempts = args
    try:
        return list(separable_search(k, n, min_weight, seed, max_rows, attempts).rows), None
    except ConstructionError as err:
        assert str(err) == f"no separable matrix with {n} columns found up to {max_rows} rows"
        return None, err.last_tried


# (k, n, min_weight, seed, max_rows, attempts_per_m)
SEPARABLE_GRID = [
    (1, 8, 1, 0, 16, 200),
    (2, 8, 2, 9, 24, 200),
    (2, 16, 4, 0, 64, 200),  # the `design` benchmark's btc block
    (2, 16, 4, 1000, 64, 200),
    (3, 12, 2, 5, 64, 20),
    (2, 10, 3, 1, 40, 30),
    (1, 4, 3, 2, 8, 50),  # lo == hi: no weight draw
    (3, 16, 4, 0, 120, 1),  # 79 rows: sums of two 64-bit words
    (2, 8, 7, 0, 70, 2),  # rows of weight n - 1 never separate pairs
    (2, 8, 2, 0, 7, 2),
    (2, 8, 2, 0, 2, 5),  # budget below the lower bound
]


@pytest.mark.parametrize("args", SEPARABLE_GRID, ids=str)
def test_separable_search_equals_one_numpy_call_per_draw(args):
    assert search_outcome(args) == numpy_separable(args)


@pytest.mark.parametrize("entries", [1, 700])
@pytest.mark.parametrize("args", [(2, 8, 2, 9, 24, 200), (2, 10, 3, 1, 40, 30), (3, 16, 4, 0, 120, 1),
                                  (2, 8, 7, 0, 70, 2)], ids=str)
def test_separable_search_is_the_same_across_batch_boundaries(monkeypatch, args, entries):
    # One row per parse and one draw per batch, or batches that end inside
    # a height and parses that end inside a draw.
    monkeypatch.setattr(construct, "BATCH_ENTRIES", entries)
    assert search_outcome(args) == numpy_separable(args)


def test_btc_equals_one_numpy_call_per_draw():
    for seed in (0, 1, 1000):
        rows, _ = numpy_separable((2, 16, 4, seed, 64, 200))
        assert list(btc(2, 4, 16, seed).rows) == list(general_bcc(2, 4, 16).rows) + rows


def test_separable_search_tail_shuffle_branch():
    # Weights above 10001 // 50 make numpy's choice shuffle the tail of
    # arange(n) instead of running Floyd's sampler.
    args = (1, 10001, 1, 0, 15, 3)
    assert search_outcome(args) == numpy_separable(args) == (None, 15)


def test_separable_search_tail_shuffle_memory_is_bounded_by_a_parse():
    # 5,101 row weights of up to 10,001 draws each: a table of every
    # weight's draw ranges took 1.6 GB, where parsing one row at a time
    # peaks near 2 MB.
    tracemalloc.start()
    try:
        with pytest.raises(ConstructionError):
            separable_search(1, 10001, 1, 0, 15, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2.3e6


def test_btc_sorts_one_word_sums_without_lexsort(monkeypatch):
    # Up to 64 rows a draw's sums are one word each and sorted by value; the
    # 79-row grid case sums two words, which lexsort orders.
    real = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda *a, **kw: pytest.fail("lexsort on one-word sums"))
    for seed in (0, 1, 1000):
        rows, _ = numpy_separable((2, 16, 4, seed, 64, 200))
        assert list(btc(2, 4, 16, seed).rows) == list(general_bcc(2, 4, 16).rows) + rows
    calls = []
    monkeypatch.setattr(np, "lexsort", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    args = (3, 16, 4, 0, 120, 1)
    assert search_outcome(args) == numpy_separable(args)
    assert calls


def planted_draws(m, n, seed):
    """Random m-row draws on n columns, as int rows: some as drawn, and
    some with a column made empty, equal to another, the OR of two or three
    others, or another one with its last row flipped."""
    rng = random.Random(seed)
    draws = []
    for plant in ("none", "empty", "equal", "or2", "or3", "last") * 4:
        cols = [rng.getrandbits(m) for _ in range(n)]
        a, b, c, e = rng.sample(range(n), 4)
        cols[e] = {"none": cols[e], "empty": 0, "equal": cols[a], "or2": cols[a] | cols[b],
                   "or3": cols[a] | cols[b] | cols[c], "last": cols[a] ^ (1 << (m - 1))}[plant]
        draws.append([sum(((col >> i) & 1) << j for j, col in enumerate(cols)) for i in range(m)])
    return draws


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 63, 64, 65, 128, 129])
def test_each_draws_verdict_equals_the_oracles(m, k):
    # Sums of one word (m <= 64) and of two or three, on 10 columns packed
    # into two bytes.
    n = 10
    draws = planted_draws(m, n, seed=4 * m + k)
    packed = np.array([[list(row.to_bytes(2, "little")) for row in rows] for rows in draws], np.uint8)
    sets = [np.fromiter(chain.from_iterable(combinations(range(n), j)), np.intp).reshape(-1, j)
            for j in range(1, k + 1)]
    covered = [functools.reduce(int.__or__, rows) == (1 << n) - 1 for rows in draws]
    distinct = [oracles.sums_distinct(rows, n, k) for rows in draws]
    assert construct._covered(packed, n).tolist() == covered
    assert construct._distinct_sums(packed, n, sets).tolist() == distinct
    if m > 1:
        assert set(distinct) == {True, False}


@pytest.mark.parametrize("seed", [0, 5])
def test_btc_verifies_only_the_draw_it_returns(monkeypatch, seed):
    seen = []
    real = construct.is_separable
    monkeypatch.setattr(construct, "is_separable", lambda mat, k: seen.append(mat) or real(mat, k))
    mat = btc(2, 4, 16, seed)
    assert [cand.rows for cand in seen] == [mat.rows[general_bcc(2, 4, 16).m:]]


def test_separable_search_over_the_set_budget_refuses_the_first_distinct_draw(monkeypatch):
    # 200 + C(200, 2) + C(200, 3) sums: only the columns are tested in
    # batches, and the first covered draw with distinct columns is refused.
    seen = []
    real = construct.is_separable
    monkeypatch.setattr(construct, "is_separable", lambda mat, k: seen.append(mat) or real(mat, k))
    with pytest.raises(ResourceLimitError, match="^enumerating 1333500 column sets of 200 columns "
                                                 "exceeds the budget of 1000000$"):
        separable_search(3, 200, 3, seed=0, max_rows=64)
    first = next(
        rows for _, rows in oracles.numpy_separable_candidates(3, 200, 3, 0, 64, 200)
        if rows is not None and len(set(BitMatrix(len(rows), 200, tuple(rows)).column_masks)) == 200
    )
    assert [list(cand.rows) for cand in seen] == [first]


# (m, n, row_weight, seed)
RANDOM_GRID = [
    (6, 12, 4, 42),
    (4, 6, 2, 1),
    (1, 3, 3, 0),  # w == n: Floyd's step j = 0 makes no draw
    (4, 5, 5, 7),
    (1, 1, 1, 3),
    (70, 12, 5, 1),  # more than 64 rows
    (30, 10001, 3000, 0),  # the tail shuffle
    (1, 10001, 10001, 2),  # the tail shuffle with w == n
]


@pytest.mark.parametrize("args", RANDOM_GRID, ids=str)
def test_random_code_equals_one_numpy_call_per_draw(args):
    assert list(random_code(*args).rows) == oracles.numpy_random_code(*args, construct.RANDOM_CODE_RETRIES)


@pytest.mark.parametrize("args", [(1, 3, 1, 0), (2, 10001, 150, 4)], ids=str)
def test_random_code_failure_equals_one_numpy_call_per_draw(monkeypatch, args):
    monkeypatch.setattr(construct, "RANDOM_CODE_RETRIES", 50)
    m, n, w, _ = args
    assert oracles.numpy_random_code(*args, 50) is None
    with pytest.raises(ConstructionError, match=f"^no zero-column-free {m}x{n} draw with row weight {w} "
                                                f"in 50 attempts$"):
        random_code(*args)


def test_random_code_is_the_same_across_batch_boundaries(monkeypatch):
    monkeypatch.setattr(construct, "BATCH_ENTRIES", 40)
    for args in [(6, 12, 4, 42), (70, 12, 5, 1), (3, 4, 2, 9)]:
        assert list(random_code(*args).rows) == oracles.numpy_random_code(*args, construct.RANDOM_CODE_RETRIES)


# Byte pins of `construct --kind btc --k 2 --r 4 --n 16 --seed S -o c.bcode
# --out c.json`: rows, then the sha256 of stdout, c.bcode and c.json.
BTC_PINS = {
    0: (25, "85859a05f006f8c4c994f3fa765c5920802d50ccd04257151b0972681145c21e",
        "bae3eefc8ede0819ba934d66326a0ccc5c38ae73aaec47313cb21fb5b44cfc48",
        "334ab6e73f1849ccac29ae1886a09d6b584f61de1f4be31a489faedfd196fae6"),
    1: (23, "1a04f6a680868d94ec84368949c5468d169f55e8daf13ef8c50eeda8547e1cae",
        "bdd336a506a8833accccdf9ed78cf9f1df731e01b6cd47829cac39d8b5e10070",
        "4421d202ead42782609ab75813b757757a74a7ec8c621f8546e09a42931ba069"),
    1000: (27, "e5edf268961eda0ea905f5125bd16f74d47cc1e1c3807f8e9aafacbbee477dde",
           "6073e66de1ec2f474f1c6a871faf4a784a0d25f9e51b8f5d9c103032919f6952",
           "60287a988d4c4adbb71e8c003be940d6cf463759be132ef16fc6e5b8dbf44d21"),
}


@pytest.mark.parametrize("seed", list(BTC_PINS))
def test_btc_construct_bytes_are_pinned(tmp_path, monkeypatch, capsys, seed):
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "--kind", "btc", "--k", "2", "--r", "4", "--n", "16", "--seed", str(seed),
                 "-o", "c.bcode", "--out", "c.json"]) == 0
    out = capsys.readouterr().out
    rows, *digests = BTC_PINS[seed]
    assert f"rows: {rows}  columns: 16" in out
    blobs = [out.encode(), (tmp_path / "c.bcode").read_bytes(), (tmp_path / "c.json").read_bytes()]
    assert [hashlib.sha256(blob).hexdigest() for blob in blobs] == digests


# --- rejected draws ----------------------------------------------------------------

def test_zero_tokens_make_numpy_redraw():
    assert oracles.zero_output_at(3).random_raw(5).tolist()[3] == 0
    # integers(4, 16) rejects a zero token, so its 3 draws take 5 tokens:
    # 3 outputs and a half, where 3 tokens would take 2 and a half.
    bits = oracles.zero_output_at(0)
    gen = np.random.Generator(bits)
    [gen.integers(4, 16) for _ in range(3)]
    stepped = oracles.zero_output_at(0)
    stepped.advance(3)
    assert bits.state["state"] == stepped.state["state"] and bits.state["has_uint32"] == 1


def first_row_draws(n, lo, hi, w):
    """(kind, range) of each draw of a first row of weight w, in token
    order, when no draw is rejected."""
    return ([("weight", hi - lo)] if lo < hi else []) + oracles.choice_draws(n, w)


@pytest.mark.parametrize("kind, n, lo, hi", [
    ("weight", 16, 4, 15), ("floyd", 16, 4, 15), ("shuffle", 16, 4, 15), ("tail", 10001, 300, 300),
])
def test_rejected_draws_equal_numpy(kind, n, lo, hi):
    # The first zero output whose first token is a draw of this kind that
    # rejects it: then the row and the one after it equal numpy's.
    for k in range(64):
        w = int(np.random.Generator(oracles.zero_output_at(k)).integers(lo, hi + 1))
        draws = first_row_draws(n, lo, hi, w)
        if 2 * k < len(draws) and draws[2 * k][0] == kind:
            assert _streams.bounded(np.zeros(1, np.uint32), draws[2 * k][1])[1].all()
            break
    else:
        pytest.fail(f"no zero output lands on a {kind} draw")
    stream = construct._DrawStream(0, n, lo, hi)
    stream._bits = oracles.zero_output_at(k)
    rows = np.unpackbits(stream.rows(2), axis=1, count=n, bitorder="little")
    gen = np.random.Generator(oracles.zero_output_at(k))
    expected = [sorted(gen.choice(n, int(gen.integers(lo, hi + 1)), replace=False).tolist()) for _ in range(2)]
    assert [np.flatnonzero(row).tolist() for row in rows] == expected


# --- the construction table ------------------------------------------------------

BUILD_CASES = {
    "minimal-bdc": ({"k": 2, "r": 2}, lambda: minimal_bdc(2, 2)),
    "minimal-bcc": ({"k": 3, "r": 1}, lambda: minimal_bcc(3, 1)),
    "bcc": ({"k": 2, "r": 4, "n": 8}, lambda: general_bcc(2, 4, 8)),
    "btc": ({"k": 1, "r": 1, "n": 2, "seed": 5, "max_rows": 64, "attempts_per_m": 200},
            lambda: btc(1, 1, 2, seed=5, max_rows=64)),
    "partition": ({"m": 3, "n": 6}, lambda: partition_code(3, 6)),
    "random": ({"m": 4, "n": 6, "row_weight": 2, "seed": 1},
               lambda: random_code(4, 6, 2, seed=1)),
}


def test_build_cases_cover_the_table_in_kind_order():
    assert list(BUILD_CASES) == list(CONSTRUCTIONS)
    assert all(set(BUILD_CASES[kind][0]) == set(names)
               for kind, (_, names, _) in CONSTRUCTIONS.items())


@pytest.mark.parametrize("kind", list(BUILD_CASES))
def test_build_matches_the_direct_call(kind):
    params, direct = BUILD_CASES[kind]
    assert build(kind, **params) == direct()
    # The CLI passes every flag; parameters the entry does not name are ignored.
    flags = dict.fromkeys(
        ("k", "r", "n", "m", "row_weight", "seed", "max_rows", "attempts_per_m"), 7
    )
    assert build(kind, **{**flags, **params}) == direct()


MISSING_CASES = [
    ("bcc", {"k": 2, "r": 4}, "n"),
    ("minimal-bdc", {"r": 2}, "k"),
    ("partition", {"n": 6, "m": None}, "m"),
    ("random", {"m": 2, "n": 4, "seed": 0}, "row weight"),
    ("btc", {"k": 1, "r": 1, "n": 2, "seed": 0, "max_rows": 8}, "attempts per m"),
]


@pytest.mark.parametrize("kind, params, missing", MISSING_CASES,
                         ids=[kind for kind, _, _ in MISSING_CASES])
def test_build_refuses_a_missing_parameter(kind, params, missing):
    with pytest.raises(ValueError, match=f"^{kind} construction needs {missing}$"):
        build(kind, **params)


def test_build_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="^unknown construction kind 'general'$"):
        build("general", k=2, r=4, n=8)
