"""Independent brute-force oracles used to cross-check the package.

Everything here is written naively on lists of lists, separate from the
package's bitset/vectorized implementations: nested loops, no shortcuts,
no log-space tricks.  Slower but obviously faithful to the definitions.
"""

from __future__ import annotations

import math
from itertools import combinations, product


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


def naive_joint_weight(bits, confusions, success_rate, count_prior, x, y, t, l):
    n = len(bits[0])
    count = sum(x)
    weight = count_prior[count] / math.comb(n, count)
    prod = weight
    for i in range(len(bits)):
        clean = confusions[i][l][y[i]]
        compromised = any(bits[i][j] and x[j] for j in range(n))
        if compromised:
            prod *= success_rate * (1.0 if t == y[i] else 0.0) + (1 - success_rate) * clean
        else:
            prod *= clean
    return prod


def naive_posteriors(bits, confusions, attack_prior, success_rate, count_prior, classes, y):
    """Literal evaluation of the three posteriors in plain floats.

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


def naive_search(kind, k, r, n, max_m, canonical):
    """Minimum height and its sorted canonical codes, by plain enumeration.

    Every size-m subset of the distinct n-bit rows with at least r ones (as
    ints, bit j is column j) is checked with the naive verifier of ``kind``
    ("BDC", "BCC", "BTC" or "SEPARABLE"), for m = 1 upward; ``canonical``
    maps the rows of each passing subset to its orbit's representative.
    Returns ``(None, [])`` when no height up to ``max_m`` passes.
    """
    checks = {
        "BDC": lambda bits: naive_is_bdc(bits, k, r),
        "BCC": lambda bits: naive_is_bcc(bits, k, r),
        "BTC": lambda bits: naive_is_btc(bits, k, r),
        "SEPARABLE": lambda bits: naive_is_separable(bits, k),
    }
    rows = [v for v in range(1, 1 << n) if bin(v).count("1") >= r]
    for m in range(1, max_m + 1):
        codes = set()
        for subset in combinations(rows, m):
            bits = [[(v >> j) & 1 for j in range(n)] for v in subset]
            if checks[kind](bits):
                codes.add(canonical(subset))
        if codes:
            return m, sorted(codes)
    return None, []
