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
sum_{j=1..k} C(n, j) sums through ``bitmatrix.column_sums``, which refuses
with ``ResourceLimitError`` any call over ``bitmatrix.MAX_COLUMN_SETS`` sets;
complement/duplicate detection is done with a hash set over the sums, which
decides the pairwise conditions without the quadratic pass over pairs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .bitmatrix import BitMatrix, ColumnSet, column_sums, min_row_weight, select_columns


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


def find_bdc_violation(mat: BitMatrix, k: int, r: int) -> Violation | None:
    """First witness against the detection property, or None.

    Checks, in order: zero columns, minimum row weight, then the covering
    condition on Boolean sums.  Because sums are monotone in the addend set,
    only size-k sets need checking when n >= k; smaller violating sums imply
    a violating size-k superset.
    """
    _check_args(k, r)
    full = mat.all_ones_mask
    for j, col in enumerate(mat.column_masks):
        if col == 0:
            return Violation(f"column {j} is all zeros")
    for i, row in enumerate(mat.rows):
        w = row.bit_count()
        if w < r:
            return Violation(f"row {i} has weight {w} < {r}")
    sizes = (k,) if mat.n >= k else range(1, mat.n + 1)
    for cols, acc in column_sums(mat, sizes):
        if acc == full:
            return Violation("Boolean sum covers every model", (cols,))
    return None


def find_bcc_violation(mat: BitMatrix, k: int, r: int) -> Violation | None:
    """First witness against the correction property, or None.

    Two sums XOR to all-ones exactly when one is the bitwise complement of
    the other, so a single pass with a sum -> first-achiever table decides
    the pairwise condition.
    """
    bad = find_bdc_violation(mat, k, r)
    if bad is not None:
        return bad
    full = mat.all_ones_mask
    seen: dict[int, ColumnSet] = {}
    for cols, acc in column_sums(mat, range(1, min(k, mat.n) + 1)):
        other = seen.get(acc ^ full)
        if other is not None:
            return Violation("two Boolean sums are complements", (other, cols))
        seen.setdefault(acc, cols)
    return None


def find_separable_violation(mat: BitMatrix, k: int) -> Violation | None:
    """First pair of distinct column sets with equal Boolean sums, or None."""
    _check_args(k)
    seen: dict[int, ColumnSet] = {}
    for cols, acc in column_sums(mat, range(1, min(k, mat.n) + 1)):
        other = seen.get(acc)
        if other is not None:
            return Violation("two Boolean sums coincide", (other, cols))
        seen[acc] = cols
    return None


def find_btc_violation(mat: BitMatrix, k: int, r: int) -> Violation | None:
    bad = find_bcc_violation(mat, k, r)
    if bad is not None:
        return bad
    return find_separable_violation(mat, k)


def is_bdc(mat: BitMatrix, k: int, r: int) -> bool:
    return find_bdc_violation(mat, k, r) is None


def is_bcc(mat: BitMatrix, k: int, r: int) -> bool:
    return find_bcc_violation(mat, k, r) is None


def is_separable(mat: BitMatrix, k: int) -> bool:
    return find_separable_violation(mat, k) is None


def is_btc(mat: BitMatrix, k: int, r: int) -> bool:
    return find_btc_violation(mat, k, r) is None


def find_violation(mat: BitMatrix, params: CodeParams) -> Violation | None:
    """Dispatch to the verifier matching ``params.kind``."""
    if mat.n != params.n:
        raise ValueError(f"matrix has {mat.n} columns but params expect {params.n}")
    if params.kind is CodeKind.BDC:
        return find_bdc_violation(mat, params.k, params.r)
    if params.kind is CodeKind.BCC:
        return find_bcc_violation(mat, params.k, params.r)
    if params.kind is CodeKind.BTC:
        return find_btc_violation(mat, params.k, params.r)
    if params.kind is CodeKind.SEPARABLE:
        return find_separable_violation(mat, params.k)
    raise ValueError(f"unknown code kind {params.kind!r}")


def verify(mat: BitMatrix, params: CodeParams) -> bool:
    """Whether ``mat`` has the property ``params`` names (``find_violation``
    explains a failure).  Repeated columns leave the Boolean sums unchanged,
    so BDC and BCC are decided on the distinct columns and the row weights
    of the whole matrix, which keeps a column-duplicated code far inside the
    column-set budget; a repeated column is two equal sums of size 1, so
    SEPARABLE and BTC fail."""
    firsts = {col: j for j, col in reversed(list(enumerate(mat.column_masks)))}
    if len(firsts) == mat.n or mat.n != params.n:  # find_violation refuses the latter
        return find_violation(mat, params) is None
    if params.kind in (CodeKind.SEPARABLE, CodeKind.BTC):
        return False
    # With at most k distinct columns, their one Boolean sum covers every row.
    if min_row_weight(mat) < params.r or len(firsts) <= params.k:
        return False
    distinct = select_columns(mat, sorted(firsts.values()))
    return find_violation(distinct, CodeParams(params.kind, params.k, 1, distinct.n)) is None
