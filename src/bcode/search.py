"""Exhaustive search for minimum-row codes, with permutation dedup.

Two codes are equivalent when one is a row/column permutation of the other;
``canonical_form`` picks a unique orbit representative by minimizing the
row-sorted bit string over all column permutations (factorial in n, hence
the hard n <= 10 limit).

``exhaustive_min`` enumerates candidate matrices as size-m subsets of the
distinct n-bit rows with at least r ones, for m = 1 upward, and returns the
first height at which the requested verifier passes, with one canonical
representative per equivalence class.  Restricting to distinct rows of
weight >= r loses no minimal codes: duplicate rows and rows violating the
weight bound can always be removed from a valid code without breaking any
Boolean-sum condition.  Column symmetry is broken at the first row: a
column permutation turns any code whose least row weight is w into one
whose least row is 2^w - 1, so the walk takes only 2^w - 1 (w = r..n) as
first row, and only rows of weight >= w after it.  Every orbit keeps a
member the walk reaches.  For the detection/correction/tracking kinds the
subset walk prunes branches that provably cannot kill every size-k column
set (a necessary condition for those kinds, but not for plain separability,
which is searched without it); pruning skips only candidates the verifier
would reject.  Properties and prunes are invariant under column
permutation, so results match the plain enumeration exactly.

The walk works on ints.  It keeps the column masks of the current row stack
as it pushes and pops rows, and loops over the last row without recursing.
Most complete candidates are decided there in O(1) and rejected: for the
detection/correction/tracking kinds, when the kill accumulator (the size-k
column sets some row kills) or the column accumulator (the columns some row
covers) falls short with the last row, since some size-k sum then covers
every model or some column is all zero (every pool ends with 2^n - 1, so
only the last row can settle that); for separability and tracking, when
two columns are equal, since they are two equal sums of size 1.  Only the
rest reach the verifier core ``properties._violation`` on the row and
column ints, and a ``BitMatrix`` is built only for a passing candidate.
Dedup is by orbit: the first passing member of an orbit gets one
``canonical_form`` call, and the whole orbit (one row-sorted matrix per
column permutation) goes into a set.  Every orbit member passes, and a later
member is recognised in the set without being verified again.  The walk
counts its nodes (a root per height and first row, then every subset prefix
it visits, complete candidates included, the last row's all at once; pruned
branches, and first rows whose pool can satisfy the prunes at no height, are
never visited) and raises ``ResourceLimitError`` (CLI exit 3) once the count
exceeds ``SEARCH_MAX_NODES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator

from .bitmatrix import BitMatrix, column_sums
from .errors import ResourceLimitError
from .properties import CodeKind, _check_params, _violation

# The walk no longer calls ``find_violation``; the benchmark's tracer wraps
# ``search.find_violation`` by name, so the name stays importable here.
from .properties import find_violation  # noqa: F401

CANONICAL_MAX_COLUMNS = 10
SEARCH_MAX_COLUMNS = 8
SEARCH_MAX_ROWS = 12
# Most subset-walk nodes one ``exhaustive_min`` call may visit.  The
# benchmark's walk-heavy search visits 11,174, BCC(k=2, r=2, n=7) 142,045.
SEARCH_MAX_NODES = 1_000_000


def _column_images(mat: BitMatrix) -> Iterator[tuple[int, ...]]:
    """The matrix under every column permutation, rows sorted ascending.

    In the image of ``perm``, bit ``pos`` of a row is bit ``perm[pos]`` of
    the original row, so the images are exactly the orbit's members as the
    search walk holds them.
    """
    n = mat.n
    full = (1 << n) - 1
    # All rows packed into one int, row i at bit i * n, so moving a column
    # moves it in every row at once.
    shifts = range(0, mat.m * n, n)
    packed = sum(row << shift for row, shift in zip(mat.rows, shifts))
    columns = [sum(1 << (shift + j) for shift in shifts) & packed for j in range(n)]
    # moved[pos][j] is column j of every row, moved to position pos; an
    # image is the sum of one moved column per position.
    moved = [[col << pos >> j for j, col in enumerate(columns)] for pos in range(n)]
    for perm in permutations(range(n)):
        image = sum(map(list.__getitem__, moved, perm))
        yield tuple(sorted([image >> shift & full for shift in shifts]))


def _reversed_bits(value: int, n: int) -> int:
    return int(format(value, f"0{n}b")[::-1], 2)


def canonical_form(mat: BitMatrix) -> BitMatrix:
    """Unique representative of the row/column permutation orbit.

    Minimizes the matrix read as a bit string (rows concatenated, rows
    sorted within each column permutation).  Idempotent; two matrices are
    equivalent iff their canonical forms are equal.
    """
    if mat.n > CANONICAL_MAX_COLUMNS:
        raise ResourceLimitError(
            f"canonical form enumerates n! column orders; n={mat.n} exceeds "
            f"{CANONICAL_MAX_COLUMNS}"
        )
    # The bit string reads column 0 first, as a row's most significant bit;
    # an image row holds column 0 in its least significant bit.  So an image
    # read as ints is the bit string of the matrix with the image's columns
    # reversed, and as the reversed orders are again all column orders, the
    # least image with each row's bits reversed is the least bit string.
    best = min(_column_images(mat))
    return BitMatrix(mat.m, mat.n, tuple(_reversed_bits(row, mat.n) for row in best))


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exhaustive minimum-row search.

    ``min_rows`` is None when no code exists within the row budget.
    ``codes`` holds one canonical representative per equivalence class at
    the minimum height, sorted by canonical form.  ``explored`` counts the
    complete candidate matrices the walk reached, whether the accumulators,
    the verifier or the set of seen orbits decided them.
    """

    min_rows: int | None
    codes: tuple[BitMatrix, ...]
    explored: int


def exhaustive_min(
    kind: CodeKind,
    k: int,
    r: int,
    n: int,
    max_m: int,
) -> SearchResult:
    """Smallest row count admitting a ``kind`` code, by exhaustive search.

    The first row is 2^w - 1 for w = r..n in turn, and the later rows are
    the distinct n-bit words above it with at least w ones, ordered as
    integers ascending; subsets are visited in combinatorial order, so the
    first witness found is deterministic.
    """
    if n > SEARCH_MAX_COLUMNS:
        raise ValueError(f"search supports n <= {SEARCH_MAX_COLUMNS}, got {n}")
    if max_m > SEARCH_MAX_ROWS:
        raise ValueError(f"search supports max_m <= {SEARCH_MAX_ROWS}, got {max_m}")
    if k < 1 or r < 1 or n < 1 or max_m < 1:
        raise ValueError("k, r, n and max_m must be positive")
    try:
        _check_params(kind, k, r, n)
    except ValueError:
        # n < k + r: no detection-family code can exist at any height.
        return SearchResult(None, (), 0)

    full_cols = (1 << n) - 1

    # Kind-sound prunes only.  For the detection family (and tracking, which
    # contains it): every size-k column set must be "killed" by some row
    # whose zero set contains it, otherwise that set's Boolean sum covers
    # every model; and no column may end up all-zero.  Neither holds for
    # plain separability (an always-covered column is fine there), so those
    # walks prune nothing.  kill[v] is a bitmask over the size-k sets row v
    # kills.
    covering_kinds = kind is not CodeKind.SEPARABLE
    set_masks = (
        [sm for _, sm in column_sums(BitMatrix.identity(n).column_masks, (k,))]
        if covering_kinds
        else []
    )
    full_kill = (1 << len(set_masks)) - 1
    kill = [0] * (1 << n)
    for idx, sm in enumerate(set_masks):
        # The rows that kill a set are the subsets of its complement.
        rest = sub = full_cols ^ sm
        while True:
            kill[sub] |= 1 << idx
            if not sub:
                break
            sub = (sub - 1) & rest

    # The first-row symmetry break (module docstring) as one pool of rows
    # per least row weight w: 2^w - 1 at index 0, the only first row the
    # walk's root tries, then the rows above it of weight >= w, ending with
    # 2^n - 1.  Each pool keeps its own kill, suffix and column-index
    # arrays, so the walk needs no weight test.
    pools = []
    for w in range(r, n + 1):
        first = (1 << w) - 1
        values = [first] + [v for v in range(first + 1, 1 << n) if v.bit_count() >= w]
        kills = [kill[v] for v in values]
        count = len(values)
        suffix_kill = [0] * (count + 1)
        for i in range(count - 1, -1, -1):
            suffix_kill[i] = suffix_kill[i + 1] | kills[i]
        if suffix_kill[0] != full_kill:
            continue  # the root would prune this pool at every height
        max_kill = max(km.bit_count() for km in kills)
        ones = [[j for j in range(n) if v >> j & 1] for v in values]
        pools.append((values, kills, suffix_kill, max_kill, ones))

    # Separability needs sum_{j<=k} C(n, j) distinct sum vectors, which do
    # not fit below ceil(log2) rows; sound for tracking codes as well.
    min_m = 1
    if kind in (CodeKind.SEPARABLE, CodeKind.BTC):
        num_sums = sum(math.comb(n, j) for j in range(1, min(k, n) + 1))
        min_m = max(1, (num_sums - 1).bit_length())

    budget = SEARCH_MAX_NODES
    # A repeated column is two equal sums of size 1.
    distinct_kinds = kind in (CodeKind.SEPARABLE, CodeKind.BTC)
    rows: list[int] = []
    cols = [0] * n
    # Rows are pushed in ascending order, so a candidate's rows form the
    # sorted tuple that ``_column_images`` yields for each orbit member.
    seen: set[tuple[int, ...]] = set()
    codes: list[BitMatrix] = []
    nodes = explored = 0

    def over_budget() -> ResourceLimitError:
        return ResourceLimitError(
            f"searching {kind.value}(k={k}, r={r}, n={n}) up to m={max_m} "
            f"visits more than the budget of {budget} walk nodes"
        )

    def walk(pool: tuple, m: int, start: int, stop: int, kill_acc: int, col_acc: int) -> None:
        # The row at depth len(rows) is a pool index in [start, stop), where
        # stop leaves room for the rows after it.
        nonlocal nodes, explored
        values, kills, suffix_kill, max_kill, ones = pool
        nodes += 1
        if nodes > budget:
            raise over_budget()
        if kill_acc | suffix_kill[start] != full_kill:
            return
        depth = len(rows)
        left = m - depth
        missing = (full_kill & ~kill_acc).bit_count()
        if missing > left * max_kill:
            return
        bit = 1 << depth
        if left > 1:
            next_stop = len(values) - left + 2
            for i in range(start, stop):
                row = values[i]
                rows.append(row)
                for j in ones[i]:
                    cols[j] |= bit
                walk(pool, m, i + 1, next_stop, kill_acc | kills[i], col_acc | row)
                for j in ones[i]:
                    cols[j] ^= bit
                rows.pop()
            return
        # One row left: every index in [start, stop) completes a candidate,
        # and each counts as one node, so they are counted all at once.
        nodes += stop - start
        if nodes > budget:
            raise over_budget()
        explored += stop - start
        for i in range(start, stop):
            row = values[i]
            if covering_kinds and (
                kill_acc | kills[i] != full_kill or col_acc | row != full_cols
            ):
                continue
            rows.append(row)
            for j in ones[i]:
                cols[j] |= bit
            if not distinct_kinds or len(set(cols)) == n:
                key = tuple(rows)
                if key not in seen and _violation(kind, k, r, key, cols) is None:
                    cand = BitMatrix(m, n, key)
                    codes.append(canonical_form(cand))
                    seen.update(_column_images(cand))
            for j in ones[i]:
                cols[j] ^= bit
            rows.pop()

    for m in range(min_m, max_m + 1):
        for pool in pools:
            # The root takes only index 0, the pool's 2^w - 1.
            walk(pool, m, 0, min(1, len(pool[0]) - m + 1), 0, 0)
        if codes:
            return SearchResult(m, tuple(sorted(codes, key=lambda c: c.rows)), explored)
    return SearchResult(None, (), explored)
