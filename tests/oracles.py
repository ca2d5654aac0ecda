"""Independent brute-force oracles used to cross-check the package.

Everything here is written naively on lists of lists, separate from the
package's bitset/vectorized implementations: nested loops, no shortcuts,
no log-space tricks.  Slower but obviously faithful to the definitions.
"""

from __future__ import annotations

import functools
import math
import operator
from itertools import combinations, permutations, product

import numpy as np


def or_of_columns(bits, cols):
    m = len(bits)
    return tuple(1 if any(bits[i][j] for j in cols) else 0 for i in range(m))


def all_sums(bits, k):
    n = len(bits[0])
    out = []
    for size in range(1, min(k, n) + 1):
        for cols in combinations(range(n), size):
            out.append((cols, or_of_columns(bits, cols)))
    return out


def naive_is_bdc(bits, k, r):
    m, n = len(bits), len(bits[0])
    for j in range(n):
        if all(bits[i][j] == 0 for i in range(m)):
            return False
    if any(sum(row) < r for row in bits):
        return False
    ones = tuple([1] * m)
    return all(vec != ones for _, vec in all_sums(bits, k))


def naive_is_bcc(bits, k, r):
    if not naive_is_bdc(bits, k, r):
        return False
    m = len(bits)
    ones = tuple([1] * m)
    sums = all_sums(bits, k)
    for a in range(len(sums)):
        for b in range(a + 1, len(sums)):
            xor = tuple(x ^ y for x, y in zip(sums[a][1], sums[b][1]))
            if xor == ones:
                return False
    return True


def naive_is_separable(bits, k):
    sums = [vec for _, vec in all_sums(bits, k)]
    for a in range(len(sums)):
        for b in range(a + 1, len(sums)):
            if sums[a] == sums[b]:
                return False
    return True


def naive_is_btc(bits, k, r):
    return naive_is_bcc(bits, k, r) and naive_is_separable(bits, k)


def naive_canonical_form(bits):
    """The least row-sorted bit string over all column orders, as rows.

    Under each column order the rows are read column 0 first and sorted;
    the least such string (rows compared in turn, all of one length) is
    returned as its sorted list of bit tuples.
    """
    n = len(bits[0])
    return min(sorted(tuple(row[j] for j in perm) for row in bits)
               for perm in permutations(range(n)))


def _first_pair(sums, related):
    """The earliest later set with an earlier partner, matched with its
    earliest partner, or None."""
    for b in range(len(sums)):
        for a in range(b):
            if related(sums[a][1], sums[b][1]):
                return sums[a][0], sums[b][0]
    return None


def naive_first_violation(bits, kind, k, r):
    """First witness against ``kind`` ("BDC", "BCC", "BTC" or "SEPARABLE")
    as ``(reason, column_sets)``, or None.  In order: a zero column, a
    light row, a covering size-k set (any size when n < k), a complement
    pair, then an equal pair; SEPARABLE checks only the equal pair."""
    m, n = len(bits), len(bits[0])
    ones = tuple([1] * m)
    sums = all_sums(bits, k)
    if kind != "SEPARABLE":
        for j in range(n):
            if all(bits[i][j] == 0 for i in range(m)):
                return f"column {j} is all zeros", ()
        for i in range(m):
            if sum(bits[i]) < r:
                return f"row {i} has weight {sum(bits[i])} < {r}", ()
        for cols, vec in sums:
            if (len(cols) == k or n < k) and vec == ones:
                return "Boolean sum covers every model", (cols,)
        if kind == "BDC":
            return None
        pair = _first_pair(sums, lambda u, v: tuple(x ^ y for x, y in zip(u, v)) == ones)
        if pair is not None:
            return "two Boolean sums are complements", pair
        if kind == "BCC":
            return None
    pair = _first_pair(sums, lambda u, v: u == v)
    return None if pair is None else ("two Boolean sums coincide", pair)


def naive_decoder_tables(bits, count_prior):
    """The decoder's enumeration tables, by listing every support.

    Supports run over the counts with mass in ascending order, and
    lexicographically within a count.  A mask is an int (bit i for model i).
    Returns ``(masks, mask_logw, groups, group_first, group_logw,
    group_mask_idx)``: the masks in first-occurrence order, the log of each
    mask's weight summed one support at a time (p_s / C(n, s) per support of
    count s), the positive-size (size, mask) groups numbered in
    first-occurrence order, each group's first support, its log weight
    log(p_s / C(n, s)) and the index of its mask.
    """
    n = len(bits[0])
    masks, weights = [], []
    groups, group_first, group_logw = {}, [], []
    for size in sorted(count_prior):
        if count_prior[size] <= 0:
            continue
        weight = count_prior[size] / math.comb(n, size)
        for cols in combinations(range(n), size):
            mask = sum(bit << i for i, bit in enumerate(or_of_columns(bits, cols)))
            if mask not in masks:
                masks.append(mask)
                weights.append(0.0)
            weights[masks.index(mask)] += weight
            if size and (size, mask) not in groups:
                groups[size, mask] = len(groups)
                group_first.append(cols)
                group_logw.append(math.log(weight) if weight > 0 else -math.inf)
    mask_logw = [math.log(w) if w > 0 else -math.inf for w in weights]
    group_mask_idx = [masks.index(mask) for _, mask in groups]
    return masks, mask_logw, groups, group_first, group_logw, group_mask_idx


def padded(support, width):
    """``support`` as ``decode_block`` reports it, padded with -1 to ``width``."""
    return [*support, *[-1] * (width - len(support))]


def naive_joint_weight(bits, confusions, success_rate, count_prior, x, y, t, l):
    n = len(bits[0])
    count = sum(x)
    weight = count_prior[count] / math.comb(n, count)
    prod = weight
    for i in range(len(bits)):
        clean = confusions[i][l][y[i]]
        compromised = any(bits[i][j] and x[j] for j in range(n))
        if compromised:
            prod *= success_rate * (t == y[i]) + (1 - success_rate) * clean
        else:
            prod *= clean
    return prod


def naive_evidence(masks, confusions, success_rate, classes, y):
    """The decoder's per-mask evidence of one output vector, by a plain loop
    over (mask, target, label).

    A mask is an int (bit i set iff model i is compromised).  Returns
    ``(by_label, total)``: ``by_label[b][l]`` is the log of the summed
    likelihoods over the targets t of the outputs under mask b and true
    label l, and ``total[b]`` the log of the sum over (t, l); log 0 is -inf.
    """
    by_label, total = [], []
    for mask in masks:
        per_label = []
        for l in range(classes):
            summed = 0.0
            for t in range(classes):
                prod = 1.0
                for i, out in enumerate(y):
                    clean = confusions[i][l][out]
                    if mask >> i & 1:
                        prod *= success_rate * (1.0 if t == out else 0.0) + (1 - success_rate) * clean
                    else:
                        prod *= clean
                summed += prod
            per_label.append(summed)
        by_label.append([math.log(v) if v > 0 else -math.inf for v in per_label])
        summed = sum(per_label)
        total.append(math.log(summed) if summed > 0 else -math.inf)
    return by_label, total


def naive_posteriors(bits, confusions, attack_prior, success_rate, count_prior, classes, y):
    """Literal evaluation of the three posteriors in plain arithmetic on
    the inputs' own number type: floats, or ``Decimal`` for values that
    must not underflow.

    Returns (attack, labels, attackers) where attackers maps indicator
    tuples to probabilities, or None entries where the normalizer is zero.
    """
    m, n = len(bits), len(bits[0])
    xs = [
        x
        for x in product((0, 1), repeat=n)
        if sum(x) in count_prior and count_prior[sum(x)] > 0
    ]

    def p(x, t, l):
        return naive_joint_weight(bits, confusions, success_rate, count_prior, x, y, t, l)

    attack_sum = sum(p(x, t, l) for x in xs for t in range(classes) for l in range(classes))
    clean_by_label = [
        math.prod(confusions[i][l][y[i]] for i in range(m)) for l in range(classes)
    ]
    clean_sum = sum(clean_by_label)

    num = attack_prior * attack_sum
    den = num + (1 - attack_prior) * classes * clean_sum
    attack = num / den if den > 0 else None

    label_scores = [
        attack_prior * sum(p(x, t, l) for x in xs for t in range(classes))
        + (1 - attack_prior) * classes * clean_by_label[l]
        for l in range(classes)
    ]
    tot = sum(label_scores)
    labels = [s / tot for s in label_scores] if tot > 0 else None

    att_scores = {
        x: sum(p(x, t, l) for t in range(classes) for l in range(classes))
        for x in xs
        if sum(x) >= 1
    }
    att_tot = sum(att_scores.values())
    attackers = (
        {x: s / att_tot for x, s in att_scores.items()} if att_tot > 0 else None
    )
    return attack, labels, attackers


def choice_sampled_outputs(bits, support, target, true_label, confusions, success_rate, rng):
    """One output vector drawn model by model with ``Generator.choice``.

    Model i is compromised iff it trains on an attacker; it emits the target
    when ``rng.random() < success_rate`` and otherwise, like a clean model,
    draws ``rng.choice(c, p=confusions[i][true_label])``.  This is the draw
    sequence every seeded simulation is defined by.
    """
    c = len(confusions[0])
    y = []
    for i in range(len(bits)):
        compromised = any(bits[i][j] for j in support)
        if compromised and rng.random() < success_rate:
            y.append(target)
        else:
            y.append(int(rng.choice(c, p=confusions[i][true_label])))
    return y


# PCG64's LCG multiplier; its output xors the two halves of the stepped
# state and rotates the result.
PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341


def zero_output_at(k, run=1):
    """A PCG64 whose raw outputs k..k + run - 1 (from 0) are 0, for a run of
    1 or 2: k + 1 inverse LCG steps before a state whose halves are equal.
    One zero output keeps the stream of ``PCG64(7)``; for two, the stream is
    the odd inc that steps that state to a second one with equal halves
    (halves of opposite parity make it odd)."""
    bits = np.random.PCG64(7)
    state = bits.state
    half = 0x0123456789ABCDEF
    lcg = (half << 64) | half
    if run == 2:
        second = (half + 1) << 64 | half + 1
        state["state"]["inc"] = (second - PCG64_MULTIPLIER * lcg) % (1 << 128)
    inc = state["state"]["inc"]
    inverse = pow(PCG64_MULTIPLIER, -1, 1 << 128)
    for _ in range(k + 1):
        lcg = (lcg - inc) * inverse % (1 << 128)
    state["state"]["state"] = lcg
    bits.state = state
    return bits


def pcg64_states(words):
    """The state of a ``PCG64`` seeded with each row of the (T, 4) uint64
    ``words``, as ``PCG64.state`` reads it: the first two words are the
    initial state and the last two the stream, and seeding steps the LCG
    twice."""
    for s_hi, s_lo, i_hi, i_lo in words.tolist():
        inc = ((i_hi << 65) | (i_lo << 1) | 1) % (1 << 128)
        state = ((inc + ((s_hi << 64) | s_lo)) * PCG64_MULTIPLIER + inc) % (1 << 128)
        yield {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }


def seed_words(bits):
    """The (1, 4) uint64 words that seed a ``PCG64`` into the LCG state of
    ``bits``: seeding with state s and stream i sets inc = 2i + 1 and the
    state to M (s + inc) + inc, so s and i are solved back from them."""
    state = bits.state["state"]
    inc = state["inc"]
    s = ((state["state"] - inc) * pow(PCG64_MULTIPLIER, -1, 1 << 128) - inc) % (1 << 128)
    i = inc >> 1
    return np.array([[s >> 64, s % (1 << 64), i >> 64, i % (1 << 64)]], dtype=np.uint64)


def choice_draws(n, w):
    """(kind, range) of each bounded draw ``Generator.choice(n, w,
    replace=False)`` makes, in token order, when no draw is rejected: the
    tail shuffle of ``arange(n)`` for n > 10,000 and w > n // 50, else
    Floyd's steps (none on [0, 0]) and the sample's shuffle."""
    if n > 10_000 and w > n // 50:
        return [("tail", i) for i in range(n - 1, max(n - w, 1) - 1, -1)]
    return [("floyd", j) for j in range(max(n - w, 1), n)] + [("shuffle", i) for i in range(w - 1, 0, -1)]


def naive_search(kind, k, r, n, max_m, canonical):
    """Minimum height and its sorted canonical codes, by plain enumeration.

    Every size-m subset of the distinct n-bit rows with at least r ones (at
    least one for SEPARABLE, which ignores r; as ints, bit j is column j) is
    checked with the naive verifier of ``kind`` ("BDC", "BCC", "BTC" or
    "SEPARABLE"), for m = 1 upward; ``canonical`` maps the rows of each
    passing subset to its orbit's representative.
    Returns ``(None, [])`` when no height up to ``max_m`` passes.
    """
    checks = {
        "BDC": lambda bits: naive_is_bdc(bits, k, r),
        "BCC": lambda bits: naive_is_bcc(bits, k, r),
        "BTC": lambda bits: naive_is_btc(bits, k, r),
        "SEPARABLE": lambda bits: naive_is_separable(bits, k),
    }
    least = 1 if kind == "SEPARABLE" else r
    rows = [v for v in range(1, 1 << n) if bin(v).count("1") >= least]
    for m in range(1, max_m + 1):
        codes = set()
        for subset in combinations(rows, m):
            bits = [[(v >> j) & 1 for j in range(n)] for v in subset]
            if checks[kind](bits):
                codes.add(canonical(subset))
        if codes:
            return m, sorted(codes)
    return None, []


# --- seeded random constructions, one numpy call per draw ------------------------
#
# ``construct`` reads the seed's bit stream in bulk; these are the loops it
# reproduces, with the same ``rng`` calls in the same order.

def numpy_random_matrix(rng, n, weights):
    """One row per weight, with that many ones in columns drawn by
    ``rng.choice``, or None when some column is all zero."""
    rows = []
    covered = 0
    for weight in weights:
        row = sum(1 << j for j in rng.choice(n, size=weight, replace=False).tolist())
        rows.append(row)
        covered |= row
    return rows if covered == (1 << n) - 1 else None


def numpy_random_code(m, n, row_weight, seed, retries):
    """The rows of the first of ``retries`` draws without a zero column,
    or None."""
    rng = np.random.default_rng(seed)
    for _ in range(retries):
        rows = numpy_random_matrix(rng, n, [row_weight] * m)
        if rows is not None:
            return rows
    return None


def numpy_separable_candidates(k, n, min_weight, seed, max_rows, attempts_per_m):
    """(m, rows or None) for every draw of the separable search in turn,
    None for a draw with a zero column."""
    num_sums = sum(math.comb(n, j) for j in range(1, min(k, n) + 1))
    start_m = max(1, math.ceil(math.log2(num_sums + 1)))
    lo = max(min_weight, int(n / 2 - math.sqrt(n)), 1)
    hi = n - 1
    rng = np.random.default_rng(seed)
    for m in range(start_m, max_rows + 1):
        for _ in range(attempts_per_m):
            weights = (int(rng.integers(lo, hi + 1)) for _ in range(m))
            yield m, numpy_random_matrix(rng, n, weights)


def sums_distinct(rows, n, k):
    """Whether the ORs of every 1..k of the n columns of int ``rows`` are
    pairwise distinct."""
    cols = [sum(((row >> j) & 1) << i for i, row in enumerate(rows)) for j in range(n)]
    sums = [
        functools.reduce(operator.or_, (cols[j] for j in s))
        for size in range(1, min(k, n) + 1)
        for s in combinations(range(n), size)
    ]
    return len(set(sums)) == len(sums)


def numpy_separable_search(k, n, min_weight, seed, max_rows, attempts_per_m):
    """(rows of the first separable draw without a zero column, None), or
    (None, the last height tried) when there is none."""
    last = None
    for m, rows in numpy_separable_candidates(k, n, min_weight, seed, max_rows, attempts_per_m):
        last = m
        if rows is not None and sums_distinct(rows, n, k):
            return rows, None
    return None, last
