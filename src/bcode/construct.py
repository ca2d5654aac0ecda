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

Both samplers draw the rows ``rng = np.random.default_rng(seed)`` gives
with one ``rng.integers`` (the weight; none for ``random_code``) and one
``rng.choice(n, w, replace=False)`` per row, but read the seed's PCG64
output in bulk (``_DrawStream``), where ``_streams`` reproduces numpy's
draws on it (rows that may shuffle the tail of ``arange(n)``, n > 10,000,
are numpy's to draw).  Draws are tested in batches: every column covered
and, for the search, the Boolean sums of 1..k columns pairwise distinct,
packed into 64-bit words and sorted per draw.  The stream parses a fixed
number of rows at a time, as many as ``BATCH_ENTRIES`` tokens and row
entries hold (at least one), and a batch of draws starts at one draw and
doubles, within the same budget of row entries and column sums (at least
one draw).  ``is_separable`` is then called on the first draw that
passes, the one the search returns.  ``btc(2, 4, 16, seed)`` rejects
2,200-3,000 draws of at most 64 rows, so each sum is one word and a
draw's sums are sorted by value.

A construction too large to build is refused with ``ResourceLimitError``
before any row exists, by the entry budget ``MAX_ENTRIES`` or by the
column-set budget of ``bitmatrix.column_sums``.

``CONSTRUCTIONS`` lists every construction with its parameters and claimed
property, and ``build`` runs one by name.
"""

from __future__ import annotations

import math
from itertools import chain, combinations
from typing import Iterable, Iterator

import numpy as np

from . import _streams, bitmatrix
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
# Most entries one batch of random draws holds: the tokens and column sets
# of its rows, and the Boolean sums each draw is tested on.
BATCH_ENTRIES = 1 << 14


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


class _DrawStream:
    """The rows ``rng = np.random.default_rng(seed)`` draws, each as
    ``w = rng.integers(lo, hi + 1)`` then ``rng.choice(n, w, replace=False)``,
    read from the seed's PCG64 output in bulk.

    A row is a draw on [0, hi - lo] for its weight (none when lo == hi)
    followed by ``choice``'s draws, laid out and sampled as ``_streams``
    lays out and samples them (``choice_layout``, ``choice_samples``).
    Without a rejection a row takes a number of tokens fixed by its weight
    (``choice_tokens``), so a parse finds the row starts in one pass and
    reads every draw of its rows at once, on consecutive tokens.  A
    rejected token is dropped from the stream, since the draw takes the
    next one, and the parse runs again from its first row.  numpy's own
    ``Generator`` draws every row when one of weight hi would shuffle the
    tail (``_streams.shuffles_tail``).
    """

    def __init__(self, seed: int, n: int, lo: int, hi: int) -> None:
        self._bits = np.random.PCG64(seed)
        self._tokens = np.empty(0, np.uint32)
        self._parsed, self._next = np.empty((0, -(-n // 8)), np.uint8), 0
        self.n, self.lo, self.hi, self.head = n, lo, hi, hi - lo
        self._span = _streams.choice_tokens(n, np.arange(lo, hi + 1), self.head).tolist()
        # Entries a parse holds per row: its tokens and its set.
        self.row_entries = n + max(self._span)

    def rows(self, count: int) -> np.ndarray:
        """The next ``count`` rows' column sets, bit-packed little-endian
        as a (count, ceil(n / 8)) uint8 array."""
        parts = []
        while count:
            if self._next == len(self._parsed):
                self._parsed, self._next = self._parse(), 0
            take = min(count, len(self._parsed) - self._next)
            parts.append(self._parsed[self._next : self._next + take])
            self._next += take
            count -= take
        return np.concatenate(parts)

    def _parse(self) -> np.ndarray:
        """The next rows, as many as ``BATCH_ENTRIES`` entries hold (at
        least one), always the same number: numpy keeps freed arrays under
        1 KiB for reuse by size, so sizes that vary grow the process."""
        n, span, head = self.n, self._span, self.head
        count = max(1, BATCH_ENTRIES // self.row_entries)
        sets = np.zeros((count, n), bool)
        if _streams.shuffles_tail(n, self.hi):
            gen = np.random.Generator(self._bits)
            for row in sets:
                row[gen.choice(n, gen.integers(self.lo, self.hi + 1), replace=False)] = True
            return np.packbits(sets, axis=1, bitorder="little")
        while True:
            need = count * max(span)
            if len(self._tokens) < need:
                raw = self._bits.random_raw((need - len(self._tokens) + 1) // 2)
                self._tokens = np.concatenate([self._tokens, raw.astype("<u8").view("<u4")])
            tokens = self._tokens
            w, end = np.full(count, self.lo), count * span[0]
            if head:
                # A row's weight index is the bounded draw on its first token.
                index, end = [], 0
                for _ in range(count):
                    i = (tokens.item(end) * len(span)) >> 32
                    index.append(i)
                    end += span[i]
                w += np.fromiter(index, np.intp, count)
            layout = _streams.choice_layout(n, w, head)
            values, rejected = _streams.bounded(tokens[:end], layout[1])
            if not rejected.any():
                break
            self._tokens = np.delete(tokens, rejected.argmax())
        self._tokens = tokens[end:]
        sets[_streams.choice_samples(n, w, values, layout)] = True
        return np.packbits(sets, axis=1, bitorder="little")


def _batches(
    stream: _DrawStream, heights: Iterable[tuple[int, int]], tested: int
) -> Iterator[tuple[int, np.ndarray]]:
    """(m, draws) over ``heights``, (m, count) pairs of consecutive draws
    of m rows: ``draws`` is a (d, m, ceil(n / 8)) array of packed rows.
    d starts at one and doubles, and at most ``BATCH_ENTRIES`` entries are
    spent on a batch's rows and on the ``tested`` column sums of each draw
    (at least one draw)."""
    size = 1
    for m, count in heights:
        cap = max(1, BATCH_ENTRIES // (m * stream.row_entries + tested * -(-m // 64)))
        done = 0
        while done < count:
            d = min(size, cap, count - done)
            yield m, stream.rows(d * m).reshape(d, m, -1)
            done += d
            size *= 2


def _covered(draws: np.ndarray, n: int) -> np.ndarray:
    """For each of the (d, m, ceil(n / 8)) packed draws, whether every
    column has a one."""
    full = np.packbits(np.ones(n, bool), bitorder="little")
    return (np.bitwise_or.reduce(draws, axis=1) == full).all(axis=1)


def _matrix(rows: np.ndarray, n: int) -> BitMatrix:
    """The matrix of (m, ceil(n / 8)) packed rows."""
    return BitMatrix(len(rows), n, tuple(int.from_bytes(row.tobytes(), "little") for row in rows))


def _distinct_sums(draws: np.ndarray, n: int, sets: list[np.ndarray]) -> np.ndarray:
    """For each of the (d, m, ceil(n / 8)) packed draws, whether the
    Boolean sums of the column sets ``sets`` (one index array per size)
    are pairwise distinct.  The sums are packed into 64-bit words, bit i of
    word t is row 64 t + i, and sorted per draw: by value when a sum is one
    word (m <= 64), else by ``lexsort`` over its words."""
    bits = np.unpackbits(draws, axis=2, count=n, bitorder="little")
    packed = np.packbits(bits, axis=1, bitorder="little").transpose(0, 2, 1)
    d, _, nbytes = packed.shape
    cols = np.zeros((d, n, -(-nbytes // 8) * 8), np.uint8)
    cols[..., :nbytes] = packed
    cols = cols.view("<i8")
    sums = []
    for idx in sets:
        acc = cols[:, idx[:, 0]]
        for t in range(1, idx.shape[1]):
            acc |= cols[:, idx[:, t]]
        sums.append(acc)
    keys = np.concatenate(sums, axis=1)
    if keys.shape[2] == 1:
        keys = np.sort(keys, axis=1)
    else:
        order = np.lexsort(np.moveaxis(keys, 2, 0)[::-1], axis=-1)
        keys = np.take_along_axis(keys, order[..., None], axis=1)
    return ~(keys[:, 1:] == keys[:, :-1]).all(axis=2).any(axis=1)


def random_code(m: int, n: int, row_weight: int, seed: int) -> BitMatrix:
    """Random matrix with exactly ``row_weight`` ones per row.

    Rows are i.i.d. uniform over constant-weight words; a draw with any
    all-zero column is rejected and retried (up to
    ``RANDOM_CODE_RETRIES`` draws), preserving the conditional
    distribution.  Deterministic given the seed: the rows are those
    ``rng.choice(n, row_weight, replace=False)`` draws in turn for
    ``rng = np.random.default_rng(seed)``.
    """
    if not 1 <= row_weight <= n:
        raise ValueError("row weight must be in [1, n]")
    if m < 1:
        raise ValueError("m must be positive")
    _check_entries("random code", m, n)
    stream = _DrawStream(seed, n, row_weight, row_weight)
    for _, draws in _batches(stream, [(m, RANDOM_CODE_RETRIES)], 0):
        covered = np.flatnonzero(_covered(draws, n))
        if covered.size:
            return _matrix(draws[covered[0]], n)
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
    bound), draws ``attempts_per_m`` random matrices and returns the first
    one with no zero column whose sums are distinct.  Each row draws its
    weight uniformly from [max(min_weight, floor(n/2 - sqrt(n))), n - 1]
    and then that many distinct columns, as ``rng.integers`` and
    ``rng.choice(replace=False)`` do for ``rng = np.random.default_rng(seed)``.
    The draws are tested in batches; the first that passes is returned once
    ``is_separable`` verifies it, so the returned matrix is separable
    unconditionally.  When the sums of 1..k columns exceed the column-set
    budget, only the columns are tested in batches and ``is_separable``
    refuses the first draw that passes.
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
    sizes = range(1, min(k, n) + 1) if num_sums <= bitmatrix.MAX_COLUMN_SETS else (1,)
    sets = [
        np.fromiter(chain.from_iterable(combinations(range(n), j)), np.intp).reshape(-1, j)
        for j in sizes
    ]
    stream = _DrawStream(seed, n, lo, n - 1)
    heights = ((m, attempts_per_m) for m in range(start_m, max_rows + 1))
    last: int | None = None
    for last, draws in _batches(stream, heights, sum(map(len, sets))):
        for i in np.flatnonzero(_covered(draws, n) & _distinct_sums(draws, n, sets)):
            cand = _matrix(draws[i], n)
            if is_separable(cand, k):
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
