"""Exact verifiers for the detection / correction / tracking code properties.

A code matrix assigns models (rows) to users (columns).  Up to k cooperating
attackers compromise exactly the models whose rows intersect the attacker
columns, i.e. the Boolean sum of those columns.  The three nested properties
checked here are:

* detection (BDC):   no OR of 1..k columns covers every model,
* correction (BCC):  additionally, no two such ORs are bitwise complements,
* tracking (BTC):    additionally, all such ORs are pairwise distinct
                     (the separability property).

Every verifier is exact and decides through one core, ``_decide``, which
enumerates column sets exhaustively; the intended operating range is
n <= 24, k <= 4.  The enumeration visits sum_{j=1..k} C(n, j) sums through
``bitmatrix.column_sums``, which refuses with ``ResourceLimitError`` any call
over ``bitmatrix.MAX_COLUMN_SETS`` sets; complement/duplicate detection is
done with a hash set over the sums, which decides the pairwise conditions
without the quadratic pass over pairs.  A matrix with repeated columns is
decided on its distinct columns, since repeats leave the Boolean sums
unchanged.  ``verify`` gives the verdict and ``find_violation`` the first
witness, walking the whole matrix at most once; both take the kind, k and r,
and read n off the matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .bitmatrix import BitMatrix, ColumnSet, column_sums


class CodeKind(enum.Enum):
    BDC = "BDC"
    BCC = "BCC"
    BTC = "BTC"
    SEPARABLE = "SEPARABLE"


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


def _check_params(kind: CodeKind, k: int, r: int, n: int) -> None:
    """Refuse parameters no ``kind`` code on n >= 1 users can have:
    nonpositive k, nonpositive r (except for SEPARABLE, which ignores r),
    or, for the detection family, n < k + r."""
    if k < 1 or (r < 1 and kind is not CodeKind.SEPARABLE):
        raise ValueError("k, r and n must be positive")
    if kind is not CodeKind.SEPARABLE and n < k + r:
        raise ValueError(f"{kind.value}({k},{r},{n}) cannot exist: need n >= k + r")


def _violation(
    kind: CodeKind, k: int, r: int, rows: Sequence[int], cols: Sequence[int]
) -> Violation | None:
    """First witness against ``kind`` for the matrix with these rows and
    columns (``cols[j]`` has bit i set iff entry (i, j) is 1), or None.

    The one walk: ``_decide`` and the search both decide here, the search
    on the ints it keeps without building a ``BitMatrix``.
    Each kind extends the one before it (BDC, BCC, BTC), and each check runs
    only when the weaker property holds; SEPARABLE checks only distinctness
    and ignores ``r``.  Every enumeration goes through ``column_sums`` and its
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
        for cols_set, acc in column_sums(cols, (k,) if n >= k else sizes):
            if acc == full:
                return Violation("Boolean sum covers every model", (cols_set,))
        if kind is CodeKind.BDC:
            return None
        # Two sums XOR to all-ones exactly when one is the complement of the
        # other, so one pass with a sum -> first-achiever table decides it.
        seen: dict[int, ColumnSet] = {}
        for cols_set, acc in column_sums(cols, sizes):
            other = seen.get(acc ^ full)
            if other is not None:
                return Violation("two Boolean sums are complements", (other, cols_set))
            seen.setdefault(acc, cols_set)
        if kind is CodeKind.BCC:
            return None
    seen = {}
    for cols_set, acc in column_sums(cols, sizes):
        other = seen.get(acc)
        if other is not None:
            return Violation("two Boolean sums coincide", (other, cols_set))
        seen[acc] = cols_set
    return None


def _decide(mat: BitMatrix, kind: CodeKind, k: int, r: int) -> Violation | None | bool:
    """The verdict on ``mat``, walking the whole matrix only without
    repeated columns: None when ``kind`` holds, else the first witness, or
    False when ``mat`` fails and only the whole matrix can name the witness.

    Repeated columns leave the Boolean sums unchanged, so BDC and BCC are
    decided on the distinct columns with the rows of the whole matrix.  A
    repeated column is two equal sums of size 1, so where the weaker
    property holds (always, for SEPARABLE) the first witness is the first
    column equal to an earlier one.
    """
    _check_params(kind, k, r, mat.n)
    masks = mat.column_masks
    firsts: dict[int, int] = {}
    for j, col in enumerate(masks):
        firsts.setdefault(col, j)
    if len(firsts) == mat.n:
        return _violation(kind, k, r, mat.rows, masks)
    if kind is not CodeKind.SEPARABLE:
        weaker = CodeKind.BDC if kind is CodeKind.BDC else CodeKind.BCC
        if _violation(weaker, k, r, mat.rows, list(firsts)) is not None:
            return False
        if weaker is kind:
            return None
    j = next(j for j, col in enumerate(masks) if firsts[col] != j)
    return Violation("two Boolean sums coincide", ((firsts[masks[j]],), (j,)))


def find_violation(mat: BitMatrix, kind: CodeKind, k: int, r: int) -> Violation | None:
    """First witness against ``kind`` with k attackers and row weight r, or
    None.  The whole matrix is walked at most once: when no column repeats,
    or for the witness of a failure the distinct columns do not name."""
    verdict = _decide(mat, kind, k, r)
    return _violation(kind, k, r, mat.rows, mat.column_masks) if verdict is False else verdict


def verify(mat: BitMatrix, kind: CodeKind, k: int, r: int) -> bool:
    """Whether ``mat`` is a ``kind`` code with k attackers and row weight r
    (``find_violation`` explains a failure)."""
    return _decide(mat, kind, k, r) is None


# ``construct`` calls the next two, and the benchmark's tracer wraps them
# there by name; they go once the tracer stops wrapping them.
def is_separable(mat: BitMatrix, k: int) -> bool:
    return verify(mat, CodeKind.SEPARABLE, k, 1)


def find_btc_violation(mat: BitMatrix, k: int, r: int) -> Violation | None:
    return find_violation(mat, CodeKind.BTC, k, r)
