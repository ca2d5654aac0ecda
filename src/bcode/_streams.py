"""numpy's random streams in bulk: ``SeedSequence`` seeding, ``PCG64``
output by LCG jump-ahead and the draws ``Generator`` makes from it.
``construct`` reads one seed's draws through this module, and ``simulate``
a chunk of trials' draws; it alone lays out (``choice_layout``) and
samples (``choice_samples``) Floyd's draws of ``Generator.choice``.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from functools import cache, lru_cache

import numpy as np

# numpy's SeedSequence (numpy/random/bit_generator.pyx): pool size, hash and
# mix constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 2**32 - 1
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = 2**64 - 1


@cache
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """``init`` times mult^0..count mod 2^32, as a read-only (count + 1, 1)
    uint32 column: the successive hash constants of SeedSequence."""
    consts = np.array([init * pow(mult, i, 2**32) & _MASK32 for i in range(count + 1)], np.uint32)
    consts.flags.writeable = False
    return consts[:, None]


def _words32(seed: int) -> list[int]:
    """The little-endian 32-bit words of a seed, as SeedSequence reads it;
    a negative seed raises ``ValueError``, as ``default_rng`` does."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    return words


def seed_entropy(seeds: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The entropy of (seed, t) for each of ``seeds``, built once for all
    of their trials: the seed's words, then the one word of t, padded with
    zero words to the pool's size.  Returns an (L, S) uint32 table, column
    s for seeds[s] with t's word left 0, and the row t's word goes to."""
    words = [_words32(seed) for seed in seeds]
    sizes = np.array([len(w) for w in words])
    table = np.zeros((max(sizes.max() + 1, _POOL_SIZE), len(words)), np.uint32)
    for col, w in enumerate(words):
        table[: len(w), col] = w
    return table, sizes


def seed_words(entropy: tuple[np.ndarray, np.ndarray], owner: np.ndarray,
               trials: np.ndarray) -> np.ndarray:
    """``SeedSequence([seeds[owner[x]], trials[x]]).generate_state(4,
    np.uint64)`` for every x, one row each, from ``entropy =
    seed_entropy(seeds)``: ``trials`` holds uint32 trial indices and
    ``owner`` the index of each one's seed.  Streams whose entropy has the
    same length (every seed below 2^96) are seeded in one pass
    (``_generate``)."""
    table, sizes = entropy
    words = table[:, owner]
    words[sizes[owner], np.arange(len(owner))] = trials
    lengths = np.maximum(sizes + 1, _POOL_SIZE)
    out = np.empty((len(owner), 4), np.uint64)
    for length in set(lengths.tolist()):
        at = lengths[owner] == length
        out[at] = _generate(words[:length, at])
    return out


def _generate(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's pool mixing and state generation on uint32 words,
    with one column of the (L, T) ``entropy`` per stream.  The hashes a
    source word makes for the pool words are independent, so each source
    word updates all of them in one step."""
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * len(entropy))
    used = 0

    def hashmix(values: np.ndarray, count: int) -> np.ndarray:
        nonlocal used
        out = values ^ consts[used : used + count]
        out *= consts[used + 1 : used + count + 1]
        out ^= out >> 16
        used += count
        return out

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = _MIX_MULT_L * x - _MIX_MULT_R * y
        out ^= out >> 16
        return out

    pool = hashmix(entropy[:_POOL_SIZE], _POOL_SIZE)
    for src in range(_POOL_SIZE):
        others = [dst for dst in range(_POOL_SIZE) if dst != src]
        pool[others] = mix(pool[others], hashmix(pool[src], _POOL_SIZE - 1))
    for src in range(_POOL_SIZE, len(entropy)):
        pool = mix(pool, hashmix(entropy[src], _POOL_SIZE))

    consts = _hash_consts(_INIT_B, _MULT_B, 8)
    state = pool[np.arange(8) % _POOL_SIZE] ^ consts[:-1]
    state *= consts[1:]
    state ^= state >> 16
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


@lru_cache(maxsize=8)
def _jumps(length: int) -> tuple[np.ndarray, ...]:
    """A_(j+2) and C_(j+3) of outputs j = 0..length - 1, as read-only
    uint64 limbs: high, low, and the low one's 32-bit halves.

    j steps of the LCG take state s to A_j s + C_j inc mod 2^128, with
    A_j = M^j and C_j = 1 + M + ... + M^(j-1) (Brown, "Random number
    generation with arbitrary strides", 1994).  Seeding with words s and i
    sets inc = 2i + 1 and the state to M (s + inc) + inc, and output j
    steps j + 1 times more, to A_(j+2) s + C_(j+3) inc."""
    mult, mask = _PCG64_MULT, 2**128 - 1
    a, c, limbs = mult * mult & mask, (mult * mult + mult + 1) & mask, []
    for _ in range(length):
        limbs += [[x >> 64, x & _MASK64, x & _MASK32, x >> 32 & _MASK32] for x in (a, c)]
        a, c = a * mult & mask, (c * mult + 1) & mask
    table = np.array(limbs, np.uint64).reshape(length, 8).T.copy()
    table.flags.writeable = False
    return tuple(table)


def _mulhi(a0: np.ndarray, a1: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the products of a = a1 2^32 + a0 and b, from
    32-bit limbs (Warren, *Hacker's Delight*, 8-2)."""
    b0, b1 = b & _MASK32, b >> 32
    t = a0 * b0
    t >>= 32
    t += a1 * b0
    w = t & _MASK32
    w += a0 * b1
    w >>= 32
    t >>= 32
    w += t
    w += a1 * b1
    return w


def pcg64_raw(words: np.ndarray, length: int) -> np.ndarray:
    """Raw outputs 0..length - 1 of the ``PCG64`` each row of the (T, 4)
    uint64 ``words`` seeds, as ``PCG64`` takes
    ``SeedSequence.generate_state(4, uint64)``: state high and low, then
    stream high and low.

    The 128-bit products run on uint64 limbs: the low 64 bits wrap, and
    the high 64 bits are the cross terms plus one ``_mulhi``.  An output is
    the xor of the state's halves rotated right by its top 6 bits (XSL-RR;
    O'Neill, PCG, HMC-CS-2014-0905).  The (T, length) arrays are updated
    in place, which keeps fewer in cache.
    """
    a_hi, a_lo, a0, a1, c_hi, c_lo, c0, c1 = _jumps(length)
    s_hi, s_lo, i_hi, i_lo = words.T[:, :, None]
    inc_hi, inc_lo = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    lo = a_lo * s_lo
    state_lo = c_lo * inc_lo
    state_lo += lo
    hi = _mulhi(a0, a1, s_lo)
    hi += _mulhi(c0, c1, inc_lo)
    for x, y in [(a_lo, s_hi), (a_hi, s_lo), (c_lo, inc_hi), (c_hi, inc_lo)]:
        hi += x * y
    hi += state_lo < lo
    rot = hi >> 58
    hi ^= state_lo
    out = hi >> rot
    hi <<= -rot & 63
    out |= hi
    return out


def bounded(tokens: np.ndarray, ranges) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw on [0, range] from each 32-bit token (Lemire
    2019): the values, and which tokens the draw rejects.

    ``tokens`` and ``ranges`` broadcast, so one call reads every draw of
    a parse: a seed's rows (``construct._DrawStream``), or a (trials,
    draws) array of tokens against the ranges of one count's trials
    (``trial_draws``).  Ranges lie below 2^32 - 1, where numpy draws on
    32-bit tokens; a draw on [0, 0] takes no token, so callers leave it out."""
    excl = np.asarray(ranges, np.uint64) + 1
    prod = tokens.astype(np.uint64)
    prod *= excl
    rejected = (prod & 0xFFFFFFFF) < (0xFFFFFFFF + 1 - excl) % excl
    prod >>= 32
    return prod.astype(np.intp), rejected


def floyd(n: int, rows: np.ndarray, steps: np.ndarray, values: np.ndarray,
          first: np.ndarray | int) -> np.ndarray:
    """The column each draw of Floyd's sampler adds to its sample: draw x
    is row rows[x]'s step steps[x], first[x]..n - 1 in order, and drew
    values[x].  A row's draws add its w distinct columns.

    Step j adds j itself when it drew j, a value an earlier step drew, or
    an earlier step t >= first that added itself; otherwise it adds the
    value.  So step j's answer, when it is step t's, is found for all
    steps at once by pointer jumping.  A value must be at most its step,
    as a bounded draw is; pointers that do not resolve in the jumps a
    valid chain needs raise ``ValueError``.
    """
    # Keys below 2^16 are sorted by radix.
    key = (rows * n + values).astype(np.min_scalar_type(n * (rows.max(initial=0) + 1)))
    order = np.argsort(key, kind="stable")
    redrawn = np.zeros(len(key), bool)
    redrawn[order[1:]] = key[order[1:]] == key[order[:-1]]
    # 1: adds itself, 0: adds its value, -1: as step ``target`` does.
    adds_self = np.where((values == steps) | redrawn, 1, np.where(values >= first, -1, 0))
    index = np.arange(len(key))
    target = np.where(adds_self < 0, index - (steps - values), index)
    # A chain of earlier steps is shorter than len(key): each jump doubles
    # the steps a pointer passes.
    for _ in range(len(key).bit_length() + 1):
        if not (adds_self < 0).any():
            return np.where(adds_self == 1, steps, values)
        adds_self = adds_self[target]
        target = target[target]
    raise ValueError("a Floyd draw's value is above its step")


def shuffles_tail(n: int, w: np.ndarray | int) -> np.ndarray | bool:
    """Whether ``choice(n, w, replace=False)`` shuffles the tail of
    ``arange(n)`` in place of Floyd's sampler (elementwise for arrays)."""
    return (n > 10_000) & (w > n // 50)


@cache
def _seed_words() -> type:
    """An ``ISeedSequence`` of given words, made on first use (it loads numpy.random)."""
    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = np.ascontiguousarray(words, dtype=np.uint64)

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
                raise ValueError("PCG64 takes four uint64 seed words")
            return self.words

    return SeedWords


def generator(words: np.ndarray) -> np.random.Generator:
    """numpy's ``Generator`` on the ``PCG64`` the (4,) uint64 ``words``
    seed, as ``PCG64`` takes ``SeedSequence.generate_state(4, uint64)``."""
    return np.random.Generator(np.random.PCG64(_seed_words()(words)))


def choice_tokens(n: int, w: np.ndarray | int, head: int = 0) -> np.ndarray | int:
    """The tokens a row takes when no draw rejects one: a draw on
    [0, head] when head > 0, then those of ``choice(n, w, replace=False)``
    by Floyd's sampler (elementwise for an array of weights)."""
    return (head > 0) + w - (w == n) + np.maximum(w - 1, 0)


def choice_layout(n: int, w: np.ndarray, head: int = 0) -> tuple[np.ndarray, ...]:
    """(row, range) of every bounded draw of the rows of weights ``w``, in
    the order they read their tokens, and whether the draw adds to its
    row's sample.

    A row draws on [0, head] (no draw when head = 0), then ``choice(n, w,
    replace=False)`` by Floyd's sampler (Bentley and Floyd 1987; no row
    may shuffle the tail), one draw on [0, j] for j = n - w..n - 1, then
    shuffles the sample with one draw on [0, i] for i = w - 1..1.  A draw
    on [0, 0] (Floyd's j = 0 when w = n) takes no token and is left out.
    Without a rejected token, the rows' draws read consecutive tokens.
    """
    tokens = choice_tokens(n, w, head)
    row = np.repeat(np.arange(len(w)), tokens)
    step = np.arange(len(row)) - np.repeat(np.cumsum(tokens) - tokens + (head > 0), tokens)
    drawn = w - (w == n)
    sampled = step < drawn[row]
    # Floyd's j ascending, then the sample shuffle's i descending.
    ranges = np.where(sampled, (n - drawn)[row] + step, (w - 1 + drawn)[row] - step)
    if head:
        ranges[step < 0] = head
        sampled &= step >= 0
    return row, ranges, sampled


def choice_samples(n: int, w: np.ndarray, values: np.ndarray,
                   layout: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(row, column) of the w columns ``choice(n, w, replace=False)``
    samples, as a set, for each row of weights ``w``, in row order, from
    ``values``, the rows' draws as ``layout``, their ``choice_layout``,
    lays them out.  A row of weight n takes every column and the others
    are sampled together (``floyd``); the sample's shuffle keeps the set."""
    row, ranges, sampled = layout
    every, rows = w == n, np.arange(len(w)).repeat(w)
    cols = np.empty(len(rows), np.intp)
    cols[every[rows]] = np.arange(n * every.sum()) % n
    at = sampled & ~every[row]
    cols[~every[rows]] = floyd(n, row[at], ranges[at], values[at], n - w[row[at]])
    return rows, cols


def trial_length(n: int, counts: np.ndarray, c: int, m: int) -> int:
    """Raw outputs ``trial_draws`` reads per trial with attacker counts
    among ``counts``: the most tokens a trial's draws take (its support's
    unless it shuffles the tail, its label's and, when c > 2, its
    target's), and 2m doubles."""
    support = choice_tokens(n, np.where(shuffles_tail(n, counts), 0, counts)).max()
    return (support + 2 + (c > 2)) // 2 + 2 * m


def trial_draws(words: np.ndarray, raw: np.ndarray, n: int, counts: np.ndarray, c: int,
                m: int) -> tuple[np.ndarray, ...]:
    """The support columns ``choice(n, k, replace=False)`` draws, in trial
    order, the labels ``integers(c)`` draws, the ``integers(c - 1)``
    targets (0 when c = 2) and the 2m output doubles of the trials the rows
    of ``words`` seed, from the first raw outputs of their streams
    (``pcg64_raw``), one row of ``raw`` each.  Trial x has counts[x]
    attackers, and trials of one count come in runs.

    The outputs are read as 32-bit tokens, the low half of each output
    first.  Without a rejected token, a trial's draw d reads token d, its
    ``choice`` draws laid out as ``choice_layout`` lays them out, and the
    doubles start at output ceil(draws / 2), since ``next_double`` skips
    the buffered half.  A double is the top 53 bits of an output times
    2^-53, as ``Generator.random`` makes it.  numpy's own ``Generator``
    draws a tail-shuffle trial, laid out with no attackers, and a trial
    that rejects a token (``generator``; ``choice(n, 0)`` draws nothing).
    """
    tail = shuffles_tail(n, counts)
    weights = np.where(tail, 0, counts)
    layout = choice_layout(n, weights)
    firsts = np.searchsorted(layout[0], np.arange(len(counts) + 1))  # trials' first draws, and the end
    values = np.empty(len(layout[0]), np.intp)
    labels, targets = np.empty(len(counts), np.intp), np.zeros(len(counts), np.intp)
    doubles, redraw = np.empty((len(counts), 2 * m)), np.empty(len(counts), bool)
    tokens = raw.astype("<u8", copy=False).view("<u4")
    cuts = [0, *(np.flatnonzero(np.diff(counts)) + 1).tolist(), len(counts)]
    for a, b in zip(cuts, cuts[1:]):
        # The ranges every trial of the run reads: its support's, its
        # label's and, when c > 2, its target's (else a draw on [0, 0]).
        d = firsts[a + 1] - firsts[a]
        ranges = np.append(layout[1][firsts[a] : firsts[a] + d], [c - 1, c - 2][: 1 + (c > 2)])
        got, rejected = bounded(tokens[a:b, : len(ranges)], ranges)
        start = -(-len(ranges) // 2)
        doubles[a:b] = (raw[a:b, start : start + 2 * m] >> 11) * 2.0**-53
        redraw[a:b] = rejected.any(axis=1)
        values[firsts[a] : firsts[b]] = got[:, :d].ravel()
        labels[a:b] = got[:, d]
        targets[a:b] = got[:, -1] if c > 2 else 0
    support = np.empty(counts.sum(), np.intp)
    support[np.repeat(~tail, counts)] = choice_samples(n, weights, values, layout)[1]
    ends = np.cumsum(counts)
    for x in np.flatnonzero(redraw | tail).tolist():
        gen = generator(words[x])
        support[ends[x] - counts[x] : ends[x]] = gen.choice(n, counts[x], replace=False)
        labels[x], targets[x] = gen.integers(c), gen.integers(c - 1)
        doubles[x] = gen.random(2 * m)
    return support, labels, targets, doubles
