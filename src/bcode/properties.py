"""Exact verifiers for the detection / correction / tracking code properties.

A code matrix assigns models (rows) to users (columns).  Up to k cooperating
attackers compromise exactly the models whose rows intersect the attacker
columns, i.e. the Boolean sum of those columns.  The three nested properties
checked here are:

* detection (BDC):   no OR of 1..k columns covers every model,
* correction (BCC):  additionally, no two such ORs are bitwise complements,
* tracking (BTC):    additionally, all such ORs are pairwise distinct
                     (the separability property).

All verifiers enumerate column sets exhaustively and are exact; the intended
operating range is n <= 24, k <= 4.  The enumeration visits
sum_{j=1..k} C(n, j) sums through ``bitmatrix.mask_sums``, which refuses
with ``ResourceLimitError`` any call over ``bitmatrix.MAX_COLUMN_SETS`` sets;
complement/duplicate detection is done with a hash set over the sums, which
decides the pairwise conditions without the quadratic pass over pairs.
``check`` is the entry point for a whole matrix: it returns the first
witness, as ``find_violation`` does, but decides a matrix with repeated
columns on its distinct columns.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .bitmatrix import BitMatrix, ColumnSet, mask_sums, min_row_weight, select_columns


class CodeKind(enum.Enum):
    BDC = "BDC"
    BCC = "BCC"
    BTC = "BTC"
    SEPARABLE = "SEPARABLE"


@dataclass(frozen=True)
class CodeParams:
    """Target property plus its parameters (k attackers, row weight r, n users)."""

    kind: CodeKind
    k: int
    r: int
    n: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.r < 1 or self.n < 1:
            raise ValueError("k, r and n must be positive")
        if self.kind in (CodeKind.BDC, CodeKind.BCC, CodeKind.BTC) and self.n < self.k + self.r:
            raise ValueError(
                f"{self.kind.value}({self.k},{self.r},{self.n}) cannot exist: need n >= k + r"
            )


@dataclass(frozen=True)
class Violation:
    """Witness for a failed property check.

    ``column_sets`` holds the offending column set(s): one set whose OR is
    all-ones, a pair whose ORs XOR to all-ones, a pair with identical ORs,
    or empty for structural failures (zero column, low row weight).
    """

    reason: str
    column_sets: tuple[ColumnSet, ...] = ()

    def __str__(self) -> str:
        if self.column_sets:
            sets = " and ".join("{" + ",".join(map(str, s)) + "}" for s in self.column_sets)
            return f"{self.reason}: columns {sets}"
        return self.reason


def _check_args(k: int, r: int | None = None) -> None:
    if k < 1:
        raise ValueError("k must be positive")
    if r is not None and r < 1:
        raise ValueError("r must be positive")


def _violation(
    kind: CodeKind, k: int, r: int, rows: Sequence[int], cols: Sequence[int]
) -> Violation | None:
    """First witness against ``kind`` for the matrix with these rows and
    columns (``cols[j]`` has bit i set iff entry (i, j) is 1), or None.

    The one verifier: ``find_violation`` and the search walk both decide
    here, the walk on the ints it keeps without building a ``BitMatrix``.
    Each kind extends the one before it (BDC, BCC, BTC), and each check runs
    only when the weaker property holds; SEPARABLE checks only distinctness
    and ignores ``r``.  Every enumeration goes through ``mask_sums`` and its
    budget.
    """
    full = (1 << len(rows)) - 1
    n = len(cols)
    sizes = range(1, min(k, n) + 1)
    if kind is not CodeKind.SEPARABLE:
        if 0 in cols:
            return Violation(f"column {cols.index(0)} is all zeros")
        weights = [row.bit_count() for row in rows]
        if min(weights) < r:
            i = next(i for i, w in enumerate(weights) if w < r)
            return Violation(f"row {i} has weight {weights[i]} < {r}")
        # Boolean sums are monotone in the addend set, so only size-k sets
        # need covering checks when n >= k: a smaller covering sum implies a
        # covering size-k superset.
        for cols_set, acc in mask_sums(cols, (k,) if n >= k else sizes):
            if acc == full:
                return Violation("Boolean sum covers every model", (cols_set,))
        if kind is CodeKind.BDC:
            return None
        # Two sums XOR to all-ones exactly when one is the complement of the
        # other, so one pass with a sum -> first-achiever table decides it.
        seen: dict[int, ColumnSet] = {}
        for cols_set, acc in mask_sums(cols, sizes):
            other = seen.get(acc ^ full)
            if other is not None:
                return Violation("two Boolean sums are complements", (other, cols_set))
            seen.setdefault(acc, cols_set)
        if kind is CodeKind.BCC:
            return None
    seen = {}
    for cols_set, acc in mask_sums(cols, sizes):
        other = seen.get(acc)
        if other is not None:
            return Violation("two Boolean sums coincide", (other, cols_set))
        seen[acc] = cols_set
    return None


def find_bdc_violation(mat: BitMatrix, k: int, r: int) -> Violation | None:
    """First witness against the detection property, or None.

    Checks, in order: zero columns, minimum row weight, then the covering
    condition on Boolean sums.
    """
    _check_args(k, r)
    return _violation(CodeKind.BDC, k, r, mat.rows, mat.column_masks)


def find_bcc_violation(mat: BitMatrix, k: int, r: int) -> Violation | None:
    """First witness against the correction property, or None: a detection
    witness, else the first pair of complementary Boolean sums."""
    _check_args(k, r)
    return _violation(CodeKind.BCC, k, r, mat.rows, mat.column_masks)


def find_separable_violation(mat: BitMatrix, k: int) -> Violation | None:
    """First pair of distinct column sets with equal Boolean sums, or None."""
    _check_args(k)
    return _violation(CodeKind.SEPARABLE, k, 1, mat.rows, mat.column_masks)


def find_btc_violation(mat: BitMatrix, k: int, r: int) -> Violation | None:
    """First witness against the tracking property, or None: a correction
    witness, else the first pair of equal Boolean sums."""
    _check_args(k, r)
    return _violation(CodeKind.BTC, k, r, mat.rows, mat.column_masks)


def is_bdc(mat: BitMatrix, k: int, r: int) -> bool:
    return find_bdc_violation(mat, k, r) is None


def is_bcc(mat: BitMatrix, k: int, r: int) -> bool:
    return find_bcc_violation(mat, k, r) is None


def is_separable(mat: BitMatrix, k: int) -> bool:
    return find_separable_violation(mat, k) is None


def is_btc(mat: BitMatrix, k: int, r: int) -> bool:
    return find_btc_violation(mat, k, r) is None


def find_violation(mat: BitMatrix, params: CodeParams) -> Violation | None:
    """First witness against the property ``params`` names, or None."""
    if mat.n != params.n:
        raise ValueError(f"matrix has {mat.n} columns but params expect {params.n}")
    return _violation(params.kind, params.k, params.r, mat.rows, mat.column_masks)


def _decide(mat: BitMatrix, params: CodeParams) -> Violation | None | bool:
    """The verdict on ``mat``, walking the whole matrix only without
    repeated columns: None when the property holds, else the first witness,
    or False when ``mat`` fails and only ``find_violation`` on the whole
    matrix can name the witness.

    Repeated columns leave the Boolean sums unchanged, so BDC and BCC are
    decided on the first-occurrence columns with the row weights of the
    whole matrix, which keeps a column-duplicated code far inside the
    column-set budget.  A repeated column is two equal sums of size 1, so
    where the weaker property holds (always, for SEPARABLE) the first
    witness is the first column equal to an earlier one.
    """
    masks = mat.column_masks
    firsts = {col: j for j, col in reversed(list(enumerate(masks)))}
    if len(firsts) == mat.n or mat.n != params.n:  # find_violation refuses the latter
        return find_violation(mat, params)
    if params.kind is not CodeKind.SEPARABLE:
        # With at most k distinct columns, their one Boolean sum covers every row.
        if min_row_weight(mat) < params.r or len(firsts) <= params.k:
            return False
        distinct = select_columns(mat, sorted(firsts.values()))
        weaker = CodeKind.BDC if params.kind is CodeKind.BDC else CodeKind.BCC
        if find_violation(distinct, CodeParams(weaker, params.k, 1, distinct.n)) is not None:
            return False
        if weaker is params.kind:
            return None
    j = next(j for j, col in enumerate(masks) if firsts[col] != j)
    return Violation("two Boolean sums coincide", ((firsts[masks[j]],), (j,)))


def check(mat: BitMatrix, params: CodeParams) -> Violation | None:
    """``find_violation(mat, params)``, with a matrix that repeats columns
    decided on its distinct columns: the whole matrix is walked at most
    once, and only when no column repeats or for the witness of a failure
    the distinct columns do not name."""
    verdict = _decide(mat, params)
    return find_violation(mat, params) if verdict is False else verdict


def verify(mat: BitMatrix, params: CodeParams) -> bool:
    """Whether ``mat`` has the property ``params`` names (``check`` explains
    a failure)."""
    return _decide(mat, params) is None
