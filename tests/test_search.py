import math
import random
from itertools import accumulate, permutations

import pytest
from hypothesis import example, given, settings, strategies as st

from bcode import search
from bcode.bitmatrix import BitMatrix
from bcode.construct import general_bcc, minimal_bcc, minimal_bdc
from bcode.errors import ResourceLimitError
from bcode.properties import CodeKind, find_violation, verify
from bcode.search import SearchResult, canonical_form, exhaustive_min

import oracles


@st.composite
def bit_matrices(draw, max_m=5, max_n=5):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    bits = [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(m)]
    return BitMatrix.from_rows(bits)


def permuted(mat, rnd):
    rows = list(mat.rows)
    rnd.shuffle(rows)
    cols = list(range(mat.n))
    rnd.shuffle(cols)
    return BitMatrix.from_rows([[(row >> j) & 1 for j in cols] for row in rows])


# --- canonical form ----------------------------------------------------------

def test_row_swap_does_not_change_canonical_form():
    a = BitMatrix.identity(2)
    b = BitMatrix.from_rows([[0, 1], [1, 0]])
    assert canonical_form(a) == canonical_form(b)


def test_shuffles_of_the_minimal_code_are_equivalent():
    mat = minimal_bdc(2, 2)
    rnd = random.Random(7)
    for _ in range(5):
        assert canonical_form(mat) == canonical_form(permuted(mat, rnd))


def test_different_codes_have_different_canonical_forms():
    assert canonical_form(BitMatrix.identity(2)) != canonical_form(
        BitMatrix.from_rows([[1, 1], [1, 1]])
    )
    assert canonical_form(BitMatrix.identity(2)) != canonical_form(BitMatrix.identity(3))


@given(bit_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=50)
def test_canonical_form_is_permutation_invariant_and_idempotent(mat, rnd):
    canon = canonical_form(mat)
    assert canonical_form(canon) == canon
    assert canonical_form(permuted(mat, rnd)) == canon


def _bits(rows, n):
    return [[row >> j & 1 for j in range(n)] for row in rows]


# Repeated rows, zero rows and all-ones rows.
EDGE_MATRICES = [BitMatrix(4, 3, (5, 5, 0, 7)), BitMatrix(2, 4, (0, 0)),
                 BitMatrix(3, 4, (15, 15, 15)), BitMatrix(5, 6, (3, 12, 48, 3, 63)),
                 BitMatrix(4, 3, (5, 6, 3, 5)), BitMatrix(3, 4, (0, 9, 0))]


def with_edge_examples(test):
    for mat in EDGE_MATRICES:
        test = example(mat)(test)
    return test


@given(bit_matrices(max_m=6, max_n=6))
@with_edge_examples
@settings(max_examples=80)
def test_canonical_form_equals_the_naive_oracle(mat):
    assert (_bits(canonical_form(mat).rows, mat.n)
            == [list(row) for row in oracles.naive_canonical_form(_bits(mat.rows, mat.n))])


@given(bit_matrices(max_m=6, max_n=6))
@with_edge_examples
@settings(max_examples=80)
def test_orbit_is_every_image_whose_least_row_is_all_ones_at_the_bottom(mat):
    # The members the walk can reach: the full orbit's images (rows sorted)
    # whose least row is 2^w - 1, w the least row weight.
    n, rows = mat.n, mat.rows
    least = 2 ** min(row.bit_count() for row in rows) - 1
    images = {tuple(sorted(sum((row >> src & 1) << pos for pos, src in enumerate(perm))
                           for row in rows))
              for perm in permutations(range(n))}
    assert search._orbit(rows, n) == {image for image in images if image[0] == least}


def test_canonical_form_has_a_column_budget():
    wide = BitMatrix.from_rows([[1] * 11])
    with pytest.raises(ResourceLimitError):
        canonical_form(wide)


# --- exhaustive search ---------------------------------------------------------

def test_search_finds_unique_minimal_detection_code():
    result = exhaustive_min(CodeKind.BDC, 2, 2, 4, 8)
    assert result.min_rows == 6
    assert len(result.codes) == 1
    assert result.codes[0] == canonical_form(minimal_bdc(2, 2))
    assert result.explored >= 1


def test_search_finds_minimal_correction_code_for_weight_one():
    result = exhaustive_min(CodeKind.BCC, 2, 1, 3, 6)
    assert result.min_rows == 4
    assert canonical_form(minimal_bcc(2, 1)) in result.codes


def test_search_tiny_case_returns_identity():
    result = exhaustive_min(CodeKind.BDC, 1, 1, 2, 4)
    assert result.min_rows == 2
    assert len(result.codes) == 1
    assert result.codes[0] == canonical_form(BitMatrix.identity(2))


def test_search_budget_too_small_reports_not_found():
    result = exhaustive_min(CodeKind.BDC, 2, 2, 4, 5)
    assert result.min_rows is None
    assert result.codes == ()


def test_search_on_impossible_parameters_reports_not_found():
    assert exhaustive_min(CodeKind.BDC, 2, 2, 3, 6).min_rows is None


def test_search_validates_budgets():
    with pytest.raises(ValueError):
        exhaustive_min(CodeKind.BDC, 1, 1, 9, 4)
    with pytest.raises(ValueError):
        exhaustive_min(CodeKind.BDC, 1, 1, 4, 13)
    with pytest.raises(ValueError):
        exhaustive_min(CodeKind.BDC, 0, 1, 4, 4)


@pytest.mark.parametrize(
    "k,r", [(k, r) for k in range(1, 5) for r in range(1, 5) if k + r <= 5]
)
def test_search_agrees_with_theory_on_minimal_codes(k, r):
    n = k + r
    bdc = exhaustive_min(CodeKind.BDC, k, r, n, 12)
    assert bdc.min_rows == math.comb(n, k)
    bcc = exhaustive_min(CodeKind.BCC, k, r, n, 12)
    if r > 1:
        assert bcc.min_rows == math.comb(n, k)
    else:
        assert bcc.min_rows == k + 2


def test_separable_search_allows_always_covered_columns():
    # Three distinct nonzero 2-bit columns exist, e.g. rows (0,1,1), (1,0,1),
    # so the minimum is 2 even though column 2 is covered by every row; the
    # detection-style covering prune must not apply to separability.
    result = exhaustive_min(CodeKind.SEPARABLE, 1, 1, 3, 8)
    assert result.min_rows == 2
    mat = result.codes[0]
    sums = {mat.column_masks[j] for j in range(3)}
    assert len(sums) == 3


def test_separable_search_ignores_r_as_its_verifier_does():
    # The rows 0101 and 0011 give four distinct columns, and the separable
    # verifier passes them at any r, so the search must find 2 rows at r = 3.
    result = exhaustive_min(CodeKind.SEPARABLE, 1, 3, 4, 6)
    assert result.min_rows == 2
    assert verify(BitMatrix(2, 4, (0b1010, 0b1100)), CodeKind.SEPARABLE, 1, 3)
    assert result == exhaustive_min(CodeKind.SEPARABLE, 1, 1, 4, 6)


def test_search_rows_fit_the_sum_fields():
    # The walk keeps each Boolean sum over the rows in one 16-bit field.
    assert search.SEARCH_MAX_ROWS < 16


def test_separable_search_respects_information_bound():
    # 7 distinct nonzero sums require at least 3 rows.
    result = exhaustive_min(CodeKind.SEPARABLE, 1, 1, 7, 6)
    assert result.min_rows == 3


def test_every_witness_passes_its_verifier():
    for kind, k, r, n in [
        (CodeKind.BDC, 2, 2, 4),
        (CodeKind.BCC, 2, 1, 3),
        (CodeKind.BCC, 1, 2, 3),
        (CodeKind.SEPARABLE, 1, 1, 3),
    ]:
        result = exhaustive_min(kind, k, r, n, 8)
        assert result.min_rows is not None
        for code in result.codes:
            assert find_violation(code, kind, k, r) is None


def test_search_monotone_cross_check():
    # If a code exists at the minimum height, appending any row of weight
    # >= r keeps it valid one row higher.
    result = exhaustive_min(CodeKind.BDC, 2, 2, 4, 8)
    witness = result.codes[0]
    extended = BitMatrix(
        witness.m + 1, witness.n, witness.rows + (witness.rows[0],)
    )
    assert verify(extended, CodeKind.BDC, 2, 2)


def test_search_is_deterministic():
    a = exhaustive_min(CodeKind.BCC, 2, 1, 3, 6)
    b = exhaustive_min(CodeKind.BCC, 2, 1, 3, 6)
    assert a == b


@given(st.integers(2, 5), st.data())
@settings(max_examples=40)
def test_unique_constant_weight_rows_respect_the_lower_bound(n, data):
    # Any matrix with unique rows of exactly r ones that detects k = n - r
    # attackers needs at least C(n, k) rows.
    r = data.draw(st.integers(1, n - 1))
    k = n - r
    pool = [v for v in range(1, 1 << n) if bin(v).count("1") == r]
    size = data.draw(st.integers(1, len(pool)))
    rows = tuple(sorted(data.draw(st.permutations(pool))[:size]))
    mat = BitMatrix(len(rows), n, rows)
    if verify(mat, CodeKind.BDC, k, r):
        assert mat.m >= math.comb(n, k)


# --- pinned results --------------------------------------------------------------

# (kind, k, r, n, max_m, min_rows, codes as row ints, explored) for every
# search above, acceptance 03, the benchmark's and the README's searches.
# min_rows and codes were recorded before the walk moved onto ints and dedup
# onto orbits (the BTC cases before the walk decided leaves from its
# accumulators), explored since the walk takes only 2^w - 1 as first row,
# and for SEPARABLE and BTC since the split bound prunes their walks.  The
# BCC(2,2,7) and BDC(2,3,8) searches passed the walk budget before the
# first-row break, the last three before the split bound.
PINNED = [
    ("BDC", 2, 2, 4, 8, 6, ((12, 10, 6, 9, 5, 3),), 5),
    ("BCC", 2, 1, 3, 6, 4, ((4, 2, 1, 7),), 12),
    ("BDC", 1, 1, 2, 4, 2, ((2, 1),), 2),
    ("BDC", 2, 2, 4, 5, None, (), 0),
    ("BDC", 2, 2, 3, 6, None, (), 0),
    ("SEPARABLE", 1, 1, 3, 8, 2, ((4, 2), (4, 6), (6, 5)), 9),
    ("BCC", 2, 1, 3, 8, 4, ((4, 2, 1, 7),), 12),
    ("BCC", 1, 2, 3, 8, 3, ((6, 5, 3),), 2),
    ("SEPARABLE", 1, 1, 4, 8, 2, ((12, 10),), 10),
    ("SEPARABLE", 1, 1, 5, 8, 3, ((16, 12, 10), (16, 12, 26), (16, 28, 26), (24, 6, 21),
                                  (24, 20, 10), (24, 20, 14), (24, 20, 18), (24, 20, 26),
                                  (24, 20, 30), (24, 22, 13), (24, 22, 21), (24, 22, 29),
                                  (24, 28, 22), (28, 26, 21), (28, 26, 22), (28, 26, 23)), 567),
    ("BCC", 2, 2, 6, 12, 4, ((48, 12, 3, 63),), 10062),
    ("BDC", 1, 1, 2, 12, 2, ((2, 1),), 2),
    ("BCC", 1, 1, 2, 12, 3, ((2, 1, 3),), 3),
    ("BDC", 1, 2, 3, 12, 3, ((6, 5, 3),), 2),
    ("BCC", 1, 2, 3, 12, 3, ((6, 5, 3),), 2),
    ("BDC", 1, 3, 4, 12, 4, ((14, 13, 11, 7),), 2),
    ("BCC", 1, 3, 4, 12, 4, ((14, 13, 11, 7),), 2),
    ("BDC", 1, 4, 5, 12, 5, ((30, 29, 27, 23, 15),), 2),
    ("BCC", 1, 4, 5, 12, 5, ((30, 29, 27, 23, 15),), 2),
    ("BDC", 2, 1, 3, 12, 3, ((4, 2, 1),), 5),
    ("BCC", 2, 1, 3, 12, 4, ((4, 2, 1, 7),), 12),
    ("BDC", 2, 2, 4, 12, 6, ((12, 10, 6, 9, 5, 3),), 5),
    ("BCC", 2, 2, 4, 12, 6, ((12, 10, 6, 9, 5, 3),), 5),
    ("BDC", 2, 3, 5, 12, 10, ((28, 26, 22, 14, 25, 21, 13, 19, 11, 7),), 5),
    ("BCC", 2, 3, 5, 12, 10, ((28, 26, 22, 14, 25, 21, 13, 19, 11, 7),), 5),
    ("BDC", 3, 1, 4, 12, 4, ((8, 4, 2, 1),), 11),
    ("BCC", 3, 1, 4, 12, 5, ((8, 4, 2, 1, 15),), 56),
    ("BDC", 3, 2, 5, 12, 10, ((24, 20, 12, 18, 10, 6, 17, 9, 5, 3),), 11),
    ("BCC", 3, 2, 5, 12, 10, ((24, 20, 12, 18, 10, 6, 17, 9, 5, 3),), 11),
    ("BDC", 4, 1, 5, 12, 5, ((16, 8, 4, 2, 1),), 23),
    ("BCC", 4, 1, 5, 12, 6, ((16, 8, 4, 2, 1, 31),), 263),
    ("SEPARABLE", 1, 1, 7, 6, 3, ((112, 76, 42), (112, 76, 106), (112, 108, 90),
                                  (120, 102, 85)), 2721),
    ("BTC", 1, 1, 3, 8, 3, ((4, 2, 1), (4, 2, 7), (6, 5, 3)), 23),
    ("BTC", 1, 1, 4, 8, 4, ((8, 4, 2, 1), (8, 4, 2, 9), (8, 4, 2, 13), (8, 4, 2, 15),
                            (8, 4, 10, 3), (8, 4, 10, 13), (8, 4, 10, 15), (8, 4, 14, 3),
                            (8, 4, 14, 11), (8, 4, 14, 13), (8, 4, 14, 15), (8, 6, 5, 3),
                            (8, 6, 5, 15), (8, 6, 13, 11), (8, 6, 13, 15), (8, 6, 14, 5),
                            (8, 6, 14, 13), (8, 12, 6, 5), (8, 12, 6, 11), (8, 12, 6, 15),
                            (8, 14, 13, 7), (12, 10, 5, 15), (12, 10, 6, 9), (12, 10, 6, 13),
                            (12, 10, 6, 15), (12, 10, 7, 15), (12, 10, 9, 7), (12, 10, 13, 7),
                            (12, 14, 11, 7), (14, 13, 11, 7)), 626),
    ("BTC", 2, 1, 4, 8, 5, ((8, 4, 2, 1, 15), (8, 4, 2, 14, 1)), 331),
    ("BTC", 1, 2, 4, 8, 4, ((12, 10, 5, 15), (12, 10, 6, 9), (12, 10, 6, 13), (12, 10, 6, 15),
                            (12, 10, 7, 15), (12, 10, 9, 7), (12, 10, 13, 7), (12, 14, 11, 7),
                            (14, 13, 11, 7)), 172),
    ("BTC", 2, 1, 5, 8, 5, ((16, 8, 4, 2, 1),), 234),
    ("BCC", 2, 2, 7, 12, 4, ((96, 24, 6, 127), (96, 24, 7, 127)), 135131),
    ("BDC", 2, 3, 8, 12, 4, ((224, 152, 120, 7), (224, 208, 56, 7)), 293526),
    ("BTC", 2, 1, 6, 12, 6, ((32, 16, 8, 4, 2, 1), (48, 12, 42, 22, 25, 37)), 65985),
    ("SEPARABLE", 2, 1, 6, 12, 6, ((32, 16, 8, 4, 2, 1), (32, 24, 20, 10, 5, 3),
                                   (32, 24, 20, 10, 5, 35), (48, 12, 42, 22, 25, 3),
                                   (48, 12, 42, 22, 25, 37), (48, 40, 20, 10, 5, 3),
                                   (48, 40, 20, 26, 37, 3), (48, 40, 36, 18, 9, 7)), 81876),
    ("SEPARABLE", 2, 1, 7, 12, 6, ((112, 76, 42, 22, 25, 37),), 34794),
]

NAIVE = {
    "BDC": oracles.naive_is_bdc,
    "BCC": oracles.naive_is_bcc,
    "BTC": oracles.naive_is_btc,
    "SEPARABLE": lambda bits, k, r: oracles.naive_is_separable(bits, k),
}


@pytest.mark.parametrize("kind,k,r,n,max_m,min_rows,codes,explored", PINNED,
                         ids=["-".join(map(str, case[:5])) for case in PINNED])
def test_search_results_are_pinned(kind, k, r, n, max_m, min_rows, codes, explored):
    result = exhaustive_min(CodeKind(kind), k, r, n, max_m)
    assert (result.min_rows, tuple(c.rows for c in result.codes), result.explored) == (
        min_rows, codes, explored)
    for rows in codes:
        assert NAIVE[kind](_bits(rows, n), k, r)


# Every kind on n <= 5 columns, k <= 3, r <= 2 (SEPARABLE ignores r, so its
# r = 2 cases must give the r = 1 results).  Heights stop at 6, or earlier
# where the plain enumeration would pass 5,000 subsets; a case whose minimum
# lies above compares "not found".
GRID = [(kind, k, r, n) for kind in CodeKind for n in range(1, 6) for k in range(1, 4)
        for r in range(1, 3)]


def _affordable_height(r, n, limit=5000):
    rows = sum(math.comb(n, j) for j in range(r, n + 1))
    subsets = accumulate(math.comb(rows, m) for m in range(1, 7))
    return max(1, sum(1 for total in subsets if total <= limit))


@pytest.mark.parametrize("kind,k,r,n", GRID)
def test_search_matches_plain_enumeration(kind, k, r, n):
    max_m = _affordable_height(1 if kind is CodeKind.SEPARABLE else r, n)
    result = exhaustive_min(kind, k, r, n, max_m)
    want = oracles.naive_search(
        kind.value, k, r, n, max_m,
        lambda rows: canonical_form(BitMatrix(len(rows), n, rows)).rows)
    assert (result.min_rows, [c.rows for c in result.codes]) == want


# --- walk budget ---------------------------------------------------------------

def test_search_walk_budget_boundary(monkeypatch):
    # BDC(2,2,4) up to 8 rows visits 35 walk nodes: a pruned root at each of
    # m = 1..5, then 30 at m = 6, 5 of them complete candidates.  Only the
    # first row 3 has a root: no rows of weight >= 3 kill a pair of columns.
    want = exhaustive_min(CodeKind.BDC, 2, 2, 4, 8)
    monkeypatch.setattr(search, "SEARCH_MAX_NODES", 35)
    assert exhaustive_min(CodeKind.BDC, 2, 2, 4, 8) == want
    monkeypatch.setattr(search, "SEARCH_MAX_NODES", 34)
    with pytest.raises(ResourceLimitError, match="budget of 34 walk nodes"):
        exhaustive_min(CodeKind.BDC, 2, 2, 4, 8)
    # A search that finds nothing counts its pruned roots too.
    monkeypatch.setattr(search, "SEARCH_MAX_NODES", 5)
    assert exhaustive_min(CodeKind.BDC, 2, 2, 4, 5).min_rows is None
    monkeypatch.setattr(search, "SEARCH_MAX_NODES", 4)
    with pytest.raises(ResourceLimitError):
        exhaustive_min(CodeKind.BDC, 2, 2, 4, 5)
    # The last row's leaves are counted in one batch, and the boundary stays
    # where a count per leaf puts it: the benchmark's walk search (1,112
    # inner nodes, 10,062 leaves) and a separable walk under the split bound
    # (80 inner nodes, 567 leaves).
    for kind, k, r, n, max_m, nodes in [(CodeKind.BCC, 2, 2, 6, 12, 11174),
                                        (CodeKind.SEPARABLE, 1, 1, 5, 8, 647)]:
        monkeypatch.setattr(search, "SEARCH_MAX_NODES", 1_000_000)
        want = exhaustive_min(kind, k, r, n, max_m)
        monkeypatch.setattr(search, "SEARCH_MAX_NODES", nodes)
        assert exhaustive_min(kind, k, r, n, max_m) == want
        monkeypatch.setattr(search, "SEARCH_MAX_NODES", nodes - 1)
        with pytest.raises(ResourceLimitError, match=f"budget of {nodes - 1} walk nodes"):
            exhaustive_min(kind, k, r, n, max_m)


@pytest.mark.parametrize("kind,k,r,n,max_m", [case[:5] for case in PINNED],
                         ids=["-".join(map(str, case[:5])) for case in PINNED])
def test_walk_accumulators_decide_every_leaf(monkeypatch, kind, k, r, n, max_m):
    # The kill, column and sums accumulators reject every failing candidate,
    # so the verifier core only confirms the first member of each new orbit:
    # it is reached once per returned class, and never finds a witness.
    # Each member it sees is the walk's corner of its orbit: its first row
    # is 2^w - 1, and no row weighs less than w.
    reached = []
    core = search._violation

    def counted(*args):
        verdict = core(*args)
        reached.append((args[3], verdict))
        return verdict

    monkeypatch.setattr(search, "_violation", counted)
    result = exhaustive_min(CodeKind(kind), k, r, n, max_m)
    assert len(reached) == len(result.codes)
    for rows, verdict in reached:
        assert verdict is None
        w = rows[0].bit_count()
        assert rows[0] == 2**w - 1
        assert min(row.bit_count() for row in rows) == w


@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))))
@settings(max_examples=60)
def test_a_column_permutation_makes_the_least_row_all_ones_at_the_bottom(case):
    # The walk's first-row restriction: for distinct rows whose least weight
    # is w, some column order makes 2^w - 1 the least row.
    n, rows = case
    w = min(row.bit_count() for row in rows)
    assert any(
        min(sum((row >> src & 1) << pos for pos, src in enumerate(perm)) for row in rows)
        == 2**w - 1
        for perm in permutations(range(n))
    )


def test_search_reaches_bcc_2_2_7_where_general_bcc_is_optimal():
    result = exhaustive_min(CodeKind.BCC, 2, 2, 7, 12)
    assert (result.min_rows, len(result.codes)) == (4, 2)
    for code in result.codes:
        assert oracles.naive_is_bcc([[row >> j & 1 for j in range(7)] for row in code.rows], 2, 2)
    assert general_bcc(2, 2, 7).m == 4
