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
Boolean-sum condition.  For the detection/correction/tracking kinds the
subset walk prunes branches that provably cannot cover every size-k column
set or that leave a column all-zero (necessary conditions for those kinds,
but not for plain separability, which is searched without them); pruning
skips only candidates the verifier would reject, so results match the plain
enumeration exactly.

The walk works on ints.  It keeps the column masks of the current row stack
as it pushes and pops rows, and decides each complete candidate with the
verifier core ``properties._violation`` on the row and column ints; a
``BitMatrix`` is built only for a passing candidate.  Dedup is by orbit:
the first passing member of an orbit gets one ``canonical_form`` call, and
the whole orbit (one row-sorted matrix per column permutation) goes into a
set.  Properties and prunes are invariant under column permutation, so every
orbit member passes, and a later member is recognised in the set without
being verified again.  The walk counts its nodes (every subset prefix it
visits, complete candidates included; pruned branches are never visited)
and raises ``ResourceLimitError`` (CLI exit 3) once the count exceeds
``SEARCH_MAX_NODES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator

from .bitmatrix import BitMatrix, column_sums
from .errors import ResourceLimitError
from .properties import CodeKind, CodeParams, _violation

# The walk no longer calls ``find_violation``; the benchmark's tracer wraps
# ``search.find_violation`` by name, so the name stays importable here.
from .properties import find_violation  # noqa: F401

CANONICAL_MAX_COLUMNS = 10
SEARCH_MAX_COLUMNS = 8
SEARCH_MAX_ROWS = 12
# Most subset-walk nodes one ``exhaustive_min`` call may visit.  The
# benchmark's walk-heavy search visits 55,436, the 7-column separable search
# in the tests 341,376.
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
    complete candidate matrices the walk reached, whether the verifier or
    the set of seen orbits decided them.
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
        CodeParams(kind, k, r, n)
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

    budget = SEARCH_MAX_NODES
    ones = [[j for j in range(n) if v >> j & 1] for v in candidates]
    rows: list[int] = []
    cols = [0] * n
    # Rows are pushed in ascending order, so a candidate's rows form the
    # sorted tuple that ``_column_images`` yields for each orbit member.
    seen: set[tuple[int, ...]] = set()
    codes: list[BitMatrix] = []
    nodes = explored = 0

    def walk(m: int, start: int, kill_acc: int, col_acc: int) -> None:
        nonlocal nodes, explored
        nodes += 1
        if nodes > budget:
            raise ResourceLimitError(
                f"searching {kind.value}(k={k}, r={r}, n={n}) up to m={max_m} "
                f"visits more than the budget of {budget} walk nodes"
            )
        depth = len(rows)
        left = m - depth
        if left == 0:
            explored += 1
            key = tuple(rows)
            if key not in seen and _violation(kind, k, r, key, cols) is None:
                cand = BitMatrix(m, n, key)
                codes.append(canonical_form(cand))
                seen.update(_column_images(cand))
            return
        if kill_acc | suffix_kill[start] != full_kill:
            return
        if col_acc | suffix_cols[start] != full_cols:
            return
        missing = (full_kill & ~kill_acc).bit_count()
        if missing > left * max_kill:
            return
        bit = 1 << depth
        for i in range(start, count - left + 1):
            row = candidates[i]
            rows.append(row)
            for j in ones[i]:
                cols[j] |= bit
            walk(m, i + 1, kill_acc | kill[i], col_acc | row)
            for j in ones[i]:
                cols[j] ^= bit
            rows.pop()

    for m in range(min_m, max_m + 1):
        walk(m, 0, 0, 0)
        if codes:
            return SearchResult(m, tuple(sorted(codes, key=lambda c: c.rows)), explored)
    return SearchResult(None, (), explored)
