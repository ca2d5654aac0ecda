"""Constructions for detection / correction / tracking codes.

Deterministic constructions:

* ``minimal_bdc`` builds the unique (up to permutation) minimum-row
  detection code on n = k + r users: one row per r-subset of the users.
* ``minimal_bcc`` upgrades it to a correction code; for r = 1 this needs
  one extra all-ones row, for r > 1 the detection code is already one.
* ``general_bcc`` reaches arbitrary n >= k + r by duplicating the columns
  of a minimal correction code, which leaves the set of Boolean sums
  unchanged; the row count therefore depends only on k and the utilization
  ratio, not on n itself.
* ``partition_code`` is the non-overlapping baseline (one-hot columns).

Randomized constructions (deterministic given the seed):

* ``random_code`` draws constant-weight rows independently.
* ``separable_search`` samples candidate matrices of growing height until
  one verifies as separable; correctness is unconditional because every
  returned matrix is verified.
* ``btc`` stacks a correction code on top of a separable matrix.

A construction too large to build is refused with ``ResourceLimitError``
before any row exists, by the entry budget ``MAX_ENTRIES`` or by the
column-set budget of ``bitmatrix.column_sums``.

``CONSTRUCTIONS`` lists every construction with its parameters and claimed
property, and ``build`` runs one by name.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .bitmatrix import BitMatrix, column_sums, select_columns, vstack
from .errors import ConstructionError, ResourceLimitError
from .properties import CodeKind, _check_params, is_separable

# ``btc`` does not verify its stack, but the benchmark's tracer wraps
# ``construct.find_btc_violation`` by name.
from .properties import find_btc_violation  # noqa: F401

# Most entries (rows x columns) a constructed matrix may hold: 128 MiB of row
# bits.  With k = 1 the column-set budget alone admits a 10^6 x 10^6 matrix.
MAX_ENTRIES = 1 << 30
# Draws ``random_code`` makes before giving up on covering every column.
RANDOM_CODE_RETRIES = 1000
# Default budget of the separable search in ``btc``: tallest height, draws per height.
BTC_MAX_ROWS = 64
BTC_ATTEMPTS = 200


def _check_entries(what: str, m: int, n: int) -> None:
    """Refuse an m x n matrix over the entry budget before building any row."""
    if m * n > MAX_ENTRIES:
        raise ResourceLimitError(f"{what} needs {m} x {n} entries (> {MAX_ENTRIES})")


def minimal_bdc(k: int, r: int) -> BitMatrix:
    """Minimum-row detection code on k + r users: C(k+r, k) rows.

    Row s is the indicator of the s-th r-subset of the users in
    lexicographic order, so any k users miss at least one model; the layout
    is fixed so outputs are reproducible, though any row/column permutation
    would be equally valid.  Oversized codes are refused by the entry
    budget or by ``column_sums``' column-set budget.
    """
    if k < 1 or r < 1:
        raise ValueError("k and r must be positive")
    rows = math.comb(k + r, k)
    _check_entries(f"minimal detection code for k={k}, r={r}", rows, k + r)
    sums = column_sums(BitMatrix.identity(k + r).column_masks, (r,))
    return BitMatrix(rows, k + r, tuple(mask for _, mask in sums))


def add_ones_row(mat: BitMatrix) -> BitMatrix:
    """Prepend an all-ones row.

    Every Boolean column sum then has a 1 in the first position, so no two
    sums can be complements: this upgrades any detection code to a
    correction code at the cost of one row.
    """
    ones = (1 << mat.n) - 1
    return BitMatrix(mat.m + 1, mat.n, (ones,) + mat.rows)


def minimal_bcc(k: int, r: int) -> BitMatrix:
    """Minimum-row correction code on k + r users.

    For r > 1 the minimal detection code already satisfies the complement
    condition; for r = 1 it does not, and one all-ones row on top of the
    identity is optimal (k + 2 rows).
    """
    if k < 1 or r < 1:
        raise ValueError("k and r must be positive")
    if r == 1:
        _check_entries(f"minimal correction code for k={k}, r=1", k + 2, k + 1)
        return add_ones_row(BitMatrix.identity(k + 1))
    return minimal_bdc(k, r)


def general_bcc(k: int, r: int, n: int) -> BitMatrix:
    """Correction code for arbitrary n >= k + r by column duplication.

    Chooses the largest duplication factor p <= floor((n - r) / k) such that
    p copies of the base code on k + ceil(r/p) users fit in n columns, then
    pads with leading base columns.  Every Boolean sum of the result equals
    a Boolean sum of the base code, and the p full copies alone give row
    weight p * ceil(r/p) >= r.
    """
    _check_params(CodeKind.BCC, k, r, n)
    # A factor above n // (k + 1) cannot fit even with r0 = 1.
    p_cap = min((n - r) // k, n // (k + 1))
    p, r0 = 1, r
    for cand in range(p_cap, 0, -1):
        cand_r0 = -(-r // cand)
        if cand * (k + cand_r0) <= n:
            p, r0 = cand, cand_r0
            break
    base = minimal_bcc(k, r0)
    _check_entries(f"correction code for k={k}, r={r} on n={n} users", base.m, n)
    width = k + r0
    lead = n - p * width
    order = list(range(lead)) + list(range(width)) * p
    return select_columns(base, order)


def partition_code(m: int, n: int) -> BitMatrix:
    """Non-overlapping partition of n users into m groups (one-hot columns).

    Group sizes differ by at most one; remainder users go to the earliest
    groups.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    if m > n:
        raise ValueError(f"cannot split {n} users into {m} nonempty groups")
    _check_entries("partition code", m, n)
    base, rem = divmod(n, m)
    rows = []
    start = 0
    for g in range(m):
        size = base + (1 if g < rem else 0)
        rows.append(((1 << size) - 1) << start)
        start += size
    return BitMatrix(m, n, tuple(rows))


def _random_matrix(rng: np.random.Generator, n: int, weights: Iterable[int]) -> BitMatrix | None:
    """A matrix with one row per weight, with that many ones in uniformly
    drawn columns, or None when the draw leaves some column all zero."""
    rows = []
    covered = 0
    for weight in weights:
        # The drawn columns are distinct, so their sum is their OR.
        row = sum(1 << j for j in rng.choice(n, size=weight, replace=False).tolist())
        rows.append(row)
        covered |= row
    return BitMatrix(len(rows), n, tuple(rows)) if covered == (1 << n) - 1 else None


def random_code(m: int, n: int, row_weight: int, seed: int) -> BitMatrix:
    """Random matrix with exactly ``row_weight`` ones per row.

    Rows are i.i.d. uniform over constant-weight words; a draw with any
    all-zero column is rejected and retried (up to
    ``RANDOM_CODE_RETRIES`` draws), preserving the conditional
    distribution.  Deterministic given the seed.
    """
    if not 1 <= row_weight <= n:
        raise ValueError("row weight must be in [1, n]")
    if m < 1:
        raise ValueError("m must be positive")
    _check_entries("random code", m, n)
    rng = np.random.default_rng(seed)
    for _ in range(RANDOM_CODE_RETRIES):
        code = _random_matrix(rng, n, [row_weight] * m)
        if code is not None:
            return code
    raise ConstructionError(
        f"no zero-column-free {m}x{n} draw with row weight {row_weight} "
        f"in {RANDOM_CODE_RETRIES} attempts"
    )


def separable_search(
    k: int,
    n: int,
    min_weight: int,
    seed: int,
    max_rows: int,
    attempts_per_m: int = BTC_ATTEMPTS,
) -> BitMatrix:
    """Search for a matrix whose Boolean sums of 1..k columns are all distinct.

    For each candidate height m (starting at the information-theoretic lower
    bound), draws ``attempts_per_m`` random matrices with per-row weight at
    least ``min_weight`` (biased toward n/2, where unions separate best) and
    returns the first one that verifies and has no zero column.  Randomized
    with verification: the returned matrix is separable unconditionally.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if n < 2:
        raise ValueError("need at least two users")
    if not 1 <= min_weight <= n - 1:
        raise ValueError("minimum row weight must be in [1, n-1]")
    if max_rows < 1 or attempts_per_m < 1:
        raise ValueError("the row budget and the draws per height must be positive")
    num_sums = sum(math.comb(n, j) for j in range(1, min(k, n) + 1))
    start_m = max(1, math.ceil(math.log2(num_sums + 1)))
    lo = max(min_weight, int(n / 2 - math.sqrt(n)), 1)
    hi = n - 1
    rng = np.random.default_rng(seed)
    last: int | None = None
    for m in range(start_m, max_rows + 1):
        last = m
        for _ in range(attempts_per_m):
            # Lazy, so each row's weight is drawn just before its columns.
            weights = (int(rng.integers(lo, hi + 1)) for _ in range(m))
            cand = _random_matrix(rng, n, weights)
            if cand is not None and is_separable(cand, k):
                return cand
    raise ConstructionError(
        f"no separable matrix with {n} columns found up to {max_rows} rows",
        last_tried=last,
    )


def btc(
    k: int,
    r: int,
    n: int,
    seed: int,
    max_rows: int = BTC_MAX_ROWS,
    attempts_per_m: int = BTC_ATTEMPTS,
) -> BitMatrix:
    """Tracking code: a correction code stacked on a separable matrix.

    The stack is a tracking code by construction, so it is not verified
    again.  The top block is a correction code: no sum of 1..k columns
    covers it and no two sums are complements on it, so none does on the
    stack.  The bottom block is verified separable, so the sums are
    distinct.  Both blocks have row weight >= r and no zero column.
    """
    top = general_bcc(k, r, n)
    return vstack(top, separable_search(k, n, r, seed, max_rows, attempts_per_m))


# Every construction by ``--kind`` name: its function, the names of the
# parameters ``build`` passes it, and the property its output is built to
# have (None: no claimed property, a RAW code).
CONSTRUCTIONS = {
    "minimal-bdc": (minimal_bdc, ("k", "r"), CodeKind.BDC),
    "minimal-bcc": (minimal_bcc, ("k", "r"), CodeKind.BCC),
    "bcc": (general_bcc, ("k", "r", "n"), CodeKind.BCC),
    "btc": (btc, ("k", "r", "n", "seed", "max_rows", "attempts_per_m"), CodeKind.BTC),
    "partition": (partition_code, ("m", "n"), None),
    "random": (random_code, ("m", "n", "row_weight", "seed"), None),
}


def build(kind: str, **params: int | None) -> BitMatrix:
    """Run the ``kind`` construction on the parameters its table entry
    names; parameters it does not name are ignored."""
    if kind not in CONSTRUCTIONS:
        raise ValueError(f"unknown construction kind {kind!r}")
    fn, names, _ = CONSTRUCTIONS[kind]
    for name in names:
        if params.get(name) is None:
            raise ValueError(f"{kind} construction needs {name.replace('_', ' ')}")
    return fn(**{name: params[name] for name in names})
