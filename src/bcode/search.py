"""Exhaustive search for minimum-row codes, with permutation dedup.

Two codes are equivalent when one is a row/column permutation of the other;
``canonical_form`` picks a unique orbit representative by minimizing the
row-sorted bit string over all column permutations.  The minimum puts the
columns of a least-weight row first, so only those t * w! * (n - w)!
column orders are tried (t distinct rows of least weight w); that is still
n! at worst, hence the hard n <= 10 limit.

``exhaustive_min`` enumerates candidate matrices as size-m subsets of the
distinct n-bit rows with at least r ones (at least one for separability,
which ignores r), for m = 1 upward, and returns the first height at which
the requested verifier passes, with one canonical representative per
equivalence class.  Restricting to distinct rows of weight >= r loses no
minimal codes: duplicate rows and rows violating the weight bound can
always be removed from a valid code without breaking any Boolean-sum
condition.  Column symmetry is broken at the first row: a column
permutation turns any code whose least row weight is w into one whose
least row is 2^w - 1, so the walk takes only 2^w - 1 (w = r..n, or w = 1..n
for separability) as first row, and only rows of weight >= w after it.
Every orbit keeps a member the walk reaches.  For the detection/correction/
tracking kinds the subset walk prunes branches that provably cannot kill
every size-k column set (a necessary condition for those kinds, but not for
plain separability).  For separability and tracking it prunes by the split
bound (the counting bound of nonadaptive group testing, Du & Hwang,
*Combinatorial Group Testing*): the sums of 1..k columns must end pairwise
distinct, so a group of sums equal on the rows so far must be split by the
``left`` rows to come, which tell at most 2^left apart.  Pruning skips only
candidates the verifier would reject.  Properties and prunes are invariant
under column permutation, so results match the plain enumeration exactly.

The walk works on ints.  One sums accumulator holds the partial Boolean
sum of each tracked column set, one 16-bit field per set: the n columns,
then for separability and tracking the sets of sizes 2..k.  The walk loops
over the last row without recursing, and rejects most complete candidates
there: for the detection/correction/tracking kinds in O(1), when the kill
accumulator (the size-k column sets some row kills) or the column
accumulator (the columns some row covers) falls short with the last row,
since some size-k sum then covers every model or some column is all zero
(every pool ends with 2^n - 1, so only the last row can settle that); for
separability and tracking, when two fields are equal, since the sums of
1..k columns must be pairwise distinct.  Only the rest reach the verifier
core ``properties._violation`` on the rows and the column fields, and a
``BitMatrix`` is built only for a passing candidate.
Dedup is by orbit, through a ``seen`` set of the orbit images the walk
can reach: every candidate's least row is 2^w - 1, so the first passing
member of an orbit gets one ``_orbit`` call, which gives the row-sorted
images whose least row is 2^w - 1.  They all go into ``seen``, and the
least of them is the orbit's canonical form.  Every orbit member passes,
and a later member is found in ``seen`` without being verified again; the
walk still visits it.  The walk counts its nodes (a root per height and first row, then
every subset prefix it visits, complete candidates included, the last row's
all at once; pruned branches, and first rows whose pool can satisfy the
prunes at no height, are never visited) and raises ``ResourceLimitError``
(CLI exit 3) once the count exceeds ``SEARCH_MAX_NODES``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from struct import Struct
from typing import Sequence

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
# benchmark's walk-heavy search visits 11,174, BCC(k=2, r=2, n=7) 142,045
# and, under the split bound, SEPARABLE(k=2, r=1, n=7) 619,916.
SEARCH_MAX_NODES = 1_000_000


def _orbit(rows: Sequence[int], n: int) -> set[tuple[int, ...]]:
    """The members of the rows' orbit that the search walk can reach, each
    as its rows sorted ascending.

    A member is the matrix under a column order: in the image of ``perm``,
    bit ``pos`` of a row is bit ``perm[pos]`` of the original row.  Every
    walk candidate's least row is 2^w - 1, w its least row weight, and an
    image has that least row exactly when ``perm`` puts the columns of a
    least-weight row first.  So for t distinct such rows this enumerates
    t * w! * (n - w)! column orders instead of n!, and as no row sorts
    below 2^w - 1, the orbit's least image is among them.
    """
    full = (1 << n) - 1
    # All rows packed into one int, row i at bit i * n, so moving a column
    # moves it in every row at once.
    shifts = range(0, len(rows) * n, n)
    packed = sum(row << shift for row, shift in zip(rows, shifts))
    columns = [sum(1 << (shift + j) for shift in shifts) & packed for j in range(n)]
    w = min(row.bit_count() for row in rows)
    images: set[tuple[int, ...]] = set()
    for least in {row for row in rows if row.bit_count() == w}:
        # An image is a head (the least row's columns moved to positions
        # 0..w-1) plus a tail (the other columns moved to w..n-1).
        first = [j for j in range(n) if least >> j & 1]
        rest = [j for j in range(n) if not least >> j & 1]
        heads = [sum(columns[j] << pos >> j for pos, j in enumerate(perm))
                 for perm in permutations(first)]
        tails = [sum(columns[j] << pos >> j for pos, j in enumerate(perm, w))
                 for perm in permutations(rest)]
        for head in heads:
            images.update(tuple(sorted([(head | tail) >> shift & full for shift in shifts]))
                          for tail in tails)
    return images


def _least(orbit: set[tuple[int, ...]], n: int) -> BitMatrix:
    """The canonical form of an orbit, from its members as ``_orbit`` gives
    them.

    The canonical bit string reads column 0 first, as a row's most
    significant bit; an image row holds column 0 in its least significant
    bit.  So an image read as ints is the bit string of the matrix with the
    image's columns reversed, and as the reversed orders are again all
    column orders, the least image with each row's bits reversed is the
    least bit string.
    """
    best = min(orbit)
    return BitMatrix(len(best), n, tuple(int(format(row, f"0{n}b")[::-1], 2) for row in best))


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
    return _least(_orbit(mat.rows, mat.n), mat.n)


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

    The first row is 2^w - 1 for w = r..n in turn (w = 1..n for SEPARABLE,
    which ignores r as its verifier does), and the later rows are the
    distinct n-bit words above it with at least w ones, ordered as integers
    ascending; subsets are visited in combinatorial order, so the first
    witness found is deterministic.
    """
    if n > SEARCH_MAX_COLUMNS:
        raise ValueError(f"search supports n <= {SEARCH_MAX_COLUMNS}, got {n}")
    if max_m > SEARCH_MAX_ROWS:
        raise ValueError(f"search supports max_m <= {SEARCH_MAX_ROWS}, got {max_m}")
    if k < 1 or n < 1 or max_m < 1 or (r < 1 and kind is not CodeKind.SEPARABLE):
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
    # plain separability (an always-covered column is fine there), whose
    # walks prune by the split bound alone.  kill[v] is a bitmask over the
    # size-k sets row v kills.
    covering_kinds = kind is not CodeKind.SEPARABLE
    unit_masks = BitMatrix.identity(n).column_masks
    set_masks = [sm for _, sm in column_sums(unit_masks, (k,))] if covering_kinds else []
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

    # The sums accumulator: set s's partial Boolean sum over the rows pushed
    # so far in the 16 bits from 16 * s (a height is at most SEARCH_MAX_ROWS
    # = 12); pushing row v at depth d ORs in hit[v] << d, and hit[v] has bit
    # 0 of set s's field set iff row v meets s.  The first n sets are the
    # columns.  Separability and tracking add the sets of sizes 2..k for the
    # split bound: the sums of 1..k columns must end pairwise distinct, so
    # sums equal on the rows so far must be told apart by the ``left`` rows
    # to come, which tell at most 2^left apart.
    distinct_kinds = kind in (CodeKind.SEPARABLE, CodeKind.BTC)
    sizes = range(1, (min(k, n) if distinct_kinds else 1) + 1)
    sum_masks = [sm for _, sm in column_sums(unit_masks, sizes)]
    num_sums = len(sum_masks)
    unpack = Struct(f"<{num_sums}H").unpack  # an accumulator's bytes to its fields
    hit = [sum(1 << 16 * s for s, sm in enumerate(sum_masks) if sm & v) for v in range(1 << n)]

    # The first-row symmetry break (module docstring) as one pool of rows
    # per least row weight w: 2^w - 1 at index 0, the only first row the
    # walk's root tries, then the rows above it of weight >= w, ending with
    # 2^n - 1.  Each pool keeps its own kill, suffix and hit arrays, so the
    # walk needs no weight test.  SEPARABLE ignores r, as its verifier does.
    pools = []
    for w in range(1 if kind is CodeKind.SEPARABLE else r, n + 1):
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
        pools.append((values, kills, suffix_kill, max_kill, [hit[v] for v in values]))

    # The split bound at the root: the num_sums distinct sums do not fit
    # below ceil(log2(num_sums)) rows.
    min_m = max(1, (num_sums - 1).bit_length()) if distinct_kinds else 1

    budget = SEARCH_MAX_NODES
    rows: list[int] = []
    # Rows are pushed in ascending order, so a candidate's rows form the
    # sorted tuple that ``_orbit`` gives for each orbit member it reaches.
    seen: set[tuple[int, ...]] = set()
    codes: list[BitMatrix] = []
    nodes = explored = 0

    def over_budget() -> ResourceLimitError:
        return ResourceLimitError(
            f"searching {kind.value}(k={k}, r={r}, n={n}) up to m={max_m} "
            f"visits more than the budget of {budget} walk nodes"
        )

    def walk(
        pool: tuple, m: int, start: int, stop: int, kill_acc: int, col_acc: int, sum_acc: int
    ) -> None:
        # The row at depth len(rows) is a pool index in [start, stop), where
        # stop leaves room for the rows after it.
        nonlocal nodes, explored
        values, kills, suffix_kill, max_kill, hits = pool
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
        if distinct_kinds and 1 << left < num_sums:
            if max(Counter(unpack(sum_acc.to_bytes(2 * num_sums, "little"))).values()) > 1 << left:
                return
        if left > 1:
            next_stop = len(values) - left + 2
            for i in range(start, stop):
                row = values[i]
                rows.append(row)
                walk(pool, m, i + 1, next_stop, kill_acc | kills[i], col_acc | row,
                     sum_acc | hits[i] << depth)
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
            fields = unpack((sum_acc | hits[i] << depth).to_bytes(2 * num_sums, "little"))
            # Two equal sums of 1..k columns, a repeated column among them.
            if distinct_kinds and len(set(fields)) < num_sums:
                continue
            key = (*rows, row)
            if key not in seen and _violation(kind, k, r, key, fields[:n]) is None:
                orbit = _orbit(key, n)
                seen.update(orbit)
                codes.append(_least(orbit, n))

    for m in range(min_m, max_m + 1):
        for pool in pools:
            # The root takes only index 0, the pool's 2^w - 1.
            walk(pool, m, 0, min(1, len(pool[0]) - m + 1), 0, 0, 0)
        if codes:
            return SearchResult(m, tuple(sorted(codes, key=lambda c: c.rows)), explored)
    return SearchResult(None, (), explored)
