"""Exhaustive search for minimum-row codes, with permutation dedup.

Two codes are equivalent when one is a row/column permutation of the other;
``canonical_form`` picks a unique orbit representative by minimizing the
row-sorted bit string over all column permutations (factorial in n, hence
the hard n <= 10 limit).

``exhaustive_min`` enumerates candidate matrices as size-m subsets of the
distinct n-bit rows with at least r ones, for m = 1 upward, and returns the
first height at which the requested verifier passes, with all passing
candidates deduplicated by canonical form.  Restricting to distinct rows of
weight >= r loses no minimal codes: duplicate rows and rows violating the
weight bound can always be removed from a valid code without breaking any
Boolean-sum condition.  For the detection/correction/tracking kinds the
subset walk prunes branches that provably cannot cover every size-k column
set or that leave a column all-zero (necessary conditions for those kinds,
but not for plain separability, which is searched without them); pruning
skips only candidates the verifier would reject, so results match the plain
enumeration exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

from .bitmatrix import BitMatrix, column_sums
from .errors import ResourceLimitError
from .properties import CodeKind, CodeParams, find_violation

CANONICAL_MAX_COLUMNS = 10
SEARCH_MAX_COLUMNS = 8
SEARCH_MAX_ROWS = 12


def _row_msb(row: int, perm: tuple[int, ...]) -> int:
    """Row bits reordered by ``perm`` and packed most-significant-first,
    so integer order equals bit-string lexicographic order."""
    acc = 0
    for j in perm:
        acc = (acc << 1) | ((row >> j) & 1)
    return acc


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
    n = mat.n
    best: tuple[int, ...] | None = None
    for perm in permutations(range(n)):
        key = tuple(sorted(_row_msb(row, perm) for row in mat.rows))
        if best is None or key < best:
            best = key
    assert best is not None
    rows = []
    for msb in best:
        row = 0
        for pos in range(n):
            row |= ((msb >> (n - 1 - pos)) & 1) << pos
        rows.append(row)
    return BitMatrix(mat.m, mat.n, tuple(rows))


def equivalent(a: BitMatrix, b: BitMatrix) -> bool:
    if (a.m, a.n) != (b.m, b.n):
        return False
    return canonical_form(a) == canonical_form(b)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an exhaustive minimum-row search.

    ``min_rows`` is None when no code exists within the row budget.
    ``codes`` holds one canonical representative per equivalence class at
    the minimum height, sorted by canonical form.  ``explored`` counts the
    complete candidate matrices that were handed to the verifier.
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

    Candidate rows are the distinct n-bit words with at least r ones,
    ordered as integers ascending; subsets are visited in combinatorial
    order, so the first witness found is deterministic.
    """
    if n > SEARCH_MAX_COLUMNS:
        raise ValueError(f"search supports n <= {SEARCH_MAX_COLUMNS}, got {n}")
    if max_m > SEARCH_MAX_ROWS:
        raise ValueError(f"search supports max_m <= {SEARCH_MAX_ROWS}, got {max_m}")
    if k < 1 or r < 1 or n < 1 or max_m < 1:
        raise ValueError("k, r, n and max_m must be positive")
    try:
        params = CodeParams(kind, k, r, n)
    except ValueError:
        # n < k + r: no detection-family code can exist at any height.
        return SearchResult(None, (), 0)

    candidates = [v for v in range(1, 1 << n) if v.bit_count() >= r]
    full_cols = (1 << n) - 1

    # Kind-sound prunes only.  For the detection family (and tracking, which
    # contains it): every size-k column set must be "killed" by some row
    # whose zero set contains it, otherwise that set's Boolean sum covers
    # every model; and no column may end up all-zero.  Neither holds for
    # plain separability (an always-covered column is fine there), so those
    # walks prune nothing.  kill[i] is a bitmask over the size-k sets row i
    # kills.
    covering_kinds = kind is not CodeKind.SEPARABLE
    set_masks = (
        [sm for _, sm in column_sums(BitMatrix.identity(n), (k,))] if covering_kinds else []
    )
    full_kill = (1 << len(set_masks)) - 1
    kill = []
    for v in candidates:
        km = 0
        for idx, sm in enumerate(set_masks):
            if v & sm == 0:
                km |= 1 << idx
        kill.append(km)
    max_kill = max((km.bit_count() for km in kill), default=0)

    count = len(candidates)
    suffix_kill = [0] * (count + 1)
    suffix_cols = [0] * (count + 1)
    for i in range(count - 1, -1, -1):
        suffix_kill[i] = suffix_kill[i + 1] | kill[i]
        suffix_cols[i] = suffix_cols[i + 1] | (candidates[i] if covering_kinds else full_cols)

    # Separability needs sum_{j<=k} C(n, j) distinct sum vectors, which do
    # not fit below ceil(log2) rows; sound for tracking codes as well.
    min_m = 1
    if kind in (CodeKind.SEPARABLE, CodeKind.BTC):
        num_sums = sum(math.comb(n, j) for j in range(1, min(k, n) + 1))
        min_m = max(1, (num_sums - 1).bit_length())

    explored = 0

    for m in range(min_m, max_m + 1):
        passing: list[BitMatrix] = []
        stack: list[int] = []

        def walk(start: int, kill_acc: int, col_acc: int) -> None:
            nonlocal explored
            left = m - len(stack)
            if left == 0:
                explored += 1
                rows = tuple(candidates[i] for i in stack)
                cand = BitMatrix(m, n, rows)
                if find_violation(cand, params) is None:
                    passing.append(cand)
                return
            if kill_acc | suffix_kill[start] != full_kill:
                return
            if col_acc | suffix_cols[start] != full_cols:
                return
            missing = (full_kill & ~kill_acc).bit_count()
            if missing > left * max_kill:
                return
            for i in range(start, count - left + 1):
                stack.append(i)
                walk(i + 1, kill_acc | kill[i], col_acc | candidates[i])
                stack.pop()

        walk(0, 0, 0)
        if passing:
            seen: dict[tuple[int, ...], BitMatrix] = {}
            for cand in passing:
                canon = canonical_form(cand)
                seen.setdefault(canon.rows, canon)
            codes = tuple(sorted(seen.values(), key=lambda c: c.rows))
            return SearchResult(m, codes, explored)
    return SearchResult(None, (), explored)
