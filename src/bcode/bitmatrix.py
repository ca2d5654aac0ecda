"""Dense binary matrices backed by Python int bitsets.

Row i is stored as an integer whose bit j is the (i, j) entry, so Boolean
OR / XOR / compare on whole rows or columns are single int operations.
Python ints are arbitrary precision, which covers both the packed-word
fast path (heights up to a machine word) and taller matrices with one
representation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ResourceLimitError

# A set of column indices, strictly increasing, no duplicates.
ColumnSet = tuple[int, ...]

# Most column sets one ``column_sums`` call may enumerate, and most layer
# updates one ``column_sum_counts`` call may make.  The largest documented
# enumeration (verifiers at n = 24, k = 4) stays about ten times below it;
# the decoder tables at n = 100, counts up to 50, take 69,355 updates.
MAX_COLUMN_SETS = 1_000_000


@dataclass(frozen=True)
class BitMatrix:
    """Immutable m x n matrix over {0, 1}.

    ``rows[i]`` has bit j set iff entry (i, j) is 1.  Instances are safe to
    share across threads and may be used as dict keys.
    """

    m: int
    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"matrix must be at least 1x1, got {self.m}x{self.n}")
        if len(self.rows) != self.m:
            raise ValueError(f"expected {self.m} rows, got {len(self.rows)}")
        for i, row in enumerate(self.rows):
            if not isinstance(row, int) or row < 0 or row >= (1 << self.n):
                raise ValueError(f"row {i} does not fit in {self.n} columns")

    @classmethod
    def from_rows(cls, bits: Iterable[Iterable[int]]) -> "BitMatrix":
        """Build from an iterable of 0/1 row sequences."""
        rows = []
        n = None
        for r in bits:
            r = list(r)
            if n is None:
                n = len(r)
            elif len(r) != n:
                raise ValueError("ragged rows")
            acc = 0
            for j, b in enumerate(r):
                if b not in (0, 1):
                    raise ValueError(f"entry {b!r} is not 0 or 1")
                acc |= int(b) << j  # int: 1.0 and True pass the test above
            rows.append(acc)
        if n is None or not rows:
            raise ValueError("matrix must have at least one row")
        return cls(len(rows), n, tuple(rows))

    @classmethod
    def from_array(cls, arr) -> "BitMatrix":
        a = np.asarray(arr)
        if a.ndim != 2:
            raise ValueError("expected a 2-D array")
        bad = a[(a != 0) & (a != 1)]
        if bad.size:
            raise ValueError(f"entry {bad[0].item()!r} is not 0 or 1")
        return cls.from_rows(a.astype(int).tolist())

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        if n < 1:
            raise ValueError("identity size must be positive")
        return cls(n, n, tuple(1 << i for i in range(n)))

    def bit(self, i: int, j: int) -> int:
        if not (0 <= i < self.m and 0 <= j < self.n):
            raise IndexError(f"({i}, {j}) outside {self.m}x{self.n}")
        return (self.rows[i] >> j) & 1

    @functools.cached_property
    def column_masks(self) -> tuple[int, ...]:
        """Columns as ints; bit i of ``column_masks[j]`` is entry (i, j)."""
        cols = [0] * self.n
        for i, row in enumerate(self.rows):
            while row:
                low = row & -row
                cols[low.bit_length() - 1] |= 1 << i
                row ^= low
        return tuple(cols)

    def row_weight(self, i: int) -> int:
        return self.rows[i].bit_count()

    def to_strings(self) -> list[str]:
        return [
            "".join("1" if (row >> j) & 1 else "0" for j in range(self.n))
            for row in self.rows
        ]

    def to_array(self) -> np.ndarray:
        """Dense uint8 array of shape (m, n)."""
        width = (self.n + 7) // 8
        packed = b"".join(row.to_bytes(width, "little") for row in self.rows)
        return np.unpackbits(
            np.frombuffer(packed, dtype=np.uint8).reshape(self.m, width),
            axis=1,
            count=self.n,
            bitorder="little",
        )

    def __str__(self) -> str:
        return "\n".join(self.to_strings())


def vstack(*mats: BitMatrix) -> BitMatrix:
    """Stack matrices vertically; all must share the column count."""
    if not mats:
        raise ValueError("nothing to stack")
    n = mats[0].n
    if any(mat.n != n for mat in mats):
        raise ValueError("column counts differ")
    rows: list[int] = []
    for mat in mats:
        rows.extend(mat.rows)
    return BitMatrix(len(rows), n, tuple(rows))


def select_columns(mat: BitMatrix, columns: Sequence[int]) -> BitMatrix:
    """New matrix made of the given columns of ``mat``, in the given order."""
    if not columns:
        raise ValueError("need at least one column")
    if any(not 0 <= j < mat.n for j in columns):
        raise ValueError("column index out of range")
    rows = []
    for row in mat.rows:
        acc = 0
        for pos, j in enumerate(columns):
            acc |= ((row >> j) & 1) << pos
        rows.append(acc)
    return BitMatrix(mat.m, len(columns), tuple(rows))


def check_column_set(mat: BitMatrix, columns: Sequence[int]) -> ColumnSet:
    """Validate a column set: nonempty, strictly increasing, in range."""
    cols = tuple(columns)
    if not cols:
        raise ValueError("column set must be nonempty")
    prev = -1
    for j in cols:
        if not isinstance(j, int) or not 0 <= j < mat.n:
            raise ValueError(f"column index {j!r} outside [0, {mat.n})")
        if j <= prev:
            raise ValueError("column indices must be strictly increasing")
        prev = j
    return cols


def column_or_mask(mat: BitMatrix, columns: Sequence[int]) -> int:
    """Boolean sum (OR) of the given columns, as a row-position bitmask."""
    cols = check_column_set(mat, columns)
    masks = mat.column_masks
    acc = 0
    for j in cols:
        acc |= masks[j]
    return acc


def column_sums(
    masks: Sequence[int], sizes: Iterable[int]
) -> Iterator[tuple[ColumnSet, int]]:
    """(column set, Boolean sum) for every column set whose size is in
    ``sizes``, over the matrix whose columns are ``masks`` (bit i of
    ``masks[j]`` is entry (i, j); a ``BitMatrix`` passes its
    ``column_masks``).

    Sizes are visited in the order given and sets lexicographically within
    a size; size 0 yields ``((), 0)`` and sizes above ``len(masks)`` yield
    nothing.  Raises ``ResourceLimitError`` before enumerating anything when
    the call would visit more than ``MAX_COLUMN_SETS`` sets.
    """
    sizes = tuple(sizes)
    total = sum(math.comb(len(masks), size) for size in sizes)
    if total > MAX_COLUMN_SETS:
        raise ResourceLimitError(
            f"enumerating {total} column sets of {len(masks)} columns exceeds the "
            f"budget of {MAX_COLUMN_SETS}"
        )

    # Only the inner function is a generator, so the budget check above runs
    # at the call, not at the first ``next``.  It takes its inputs as
    # arguments, read as fast locals rather than closure cells.
    def sums(masks: Sequence[int], sizes: tuple[int, ...]) -> Iterator[tuple[ColumnSet, int]]:
        for size in sizes:
            for cols in combinations(range(len(masks)), size):
                acc = 0
                for j in cols:
                    acc |= masks[j]
                yield cols, acc

    return sums(masks, sizes)


def column_sum_counts(
    mat: BitMatrix, max_size: int
) -> list[dict[int, tuple[int, ColumnSet]]]:
    """For each size s in 0..``max_size``, every Boolean sum of s columns
    mapped to (number of column sets of size s with that sum, the
    lexicographically first of them).

    Counts are exact ints, so the C(n, s) sets are never listed.  The columns
    are added from last to first: column j extends each entry of the layer
    below with j in front, and of the sets meeting on one new sum the one
    with the smallest tail comes first.  Each (column, entry of the layer
    below) is one update; past ``MAX_COLUMN_SETS`` updates it raises
    ``ResourceLimitError``.  There are never more updates than column sets.
    """
    masks = mat.column_masks
    layers: list[dict[int, tuple[int, ColumnSet]]] = [{0: (1, ())}]
    layers += [{} for _ in range(min(max_size, mat.n))]
    updates = 0
    for j in reversed(range(mat.n)):
        col = masks[j]
        for size in range(min(max_size, mat.n - j), 0, -1):
            below = layers[size - 1]
            updates += len(below)
            if updates > MAX_COLUMN_SETS:
                raise ResourceLimitError(
                    f"counting the sums of up to {max_size} of {mat.n} columns exceeds "
                    f"the budget of {MAX_COLUMN_SETS} updates"
                )
            reached: dict[int, tuple[int, ColumnSet]] = {}
            for mask, (count, tail) in below.items():
                key = mask | col
                hit = reached.get(key)
                if hit is not None:
                    count, tail = hit[0] + count, min(hit[1], tail)
                reached[key] = (count, tail)
            layer = layers[size]
            for key, (count, tail) in reached.items():
                old = layer.get(key)
                layer[key] = (count + (old[0] if old else 0), (j,) + tail)
    return layers


def min_row_weight(mat: BitMatrix) -> int:
    """Smallest number of 1s in any row."""
    return min(row.bit_count() for row in mat.rows)
