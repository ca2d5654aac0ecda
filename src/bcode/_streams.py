"""numpy's random streams in bulk: ``SeedSequence`` seeding, ``PCG64``
output by LCG jump-ahead and the draws ``Generator`` makes from it.
``construct`` reads one seed's draws through this module, and ``simulate``
a chunk of trials' draws.
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


def seed_words(seeds: Sequence[int], owner: np.ndarray, trials: np.ndarray) -> np.ndarray:
    """``SeedSequence([seeds[owner[x]], trials[x]]).generate_state(4,
    np.uint64)`` for every x, one row each: ``trials`` holds uint32 trial
    indices and ``owner`` the index of each one's seed.

    The entropy of (seed, t) is the seed's words followed by the one word
    of t, padded with zero words to the pool's size.  Streams whose
    entropy has the same length (every seed below 2^96) are seeded in one
    pass (``_generate``).
    """
    words = [_words32(seed) for seed in seeds]
    sizes = np.array([len(w) for w in words])
    table = np.zeros((max(sizes.max() + 1, _POOL_SIZE), len(words)), np.uint32)
    for col, w in enumerate(words):
        table[: len(w), col] = w
    entropy = table[:, owner]
    entropy[sizes[owner], np.arange(len(owner))] = trials
    lengths = np.maximum(sizes + 1, _POOL_SIZE)
    out = np.empty((len(owner), 4), np.uint64)
    for length in set(lengths.tolist()):
        at = lengths[owner] == length
        out[at] = _generate(entropy[:length, at])
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
    2019): the values, and which tokens the draw rejects and redraws.

    ``tokens`` and ``ranges`` broadcast, so one call reads every draw of
    a parse: the rows of one seed's stream (``construct._DrawStream``), or
    a (trials, draws) array of tokens, one trial's stream per row, against
    the draw ranges every trial shares (``trial_draws``).  Ranges lie below
    2^32 - 1, where numpy draws on 32-bit tokens; a draw on [0, 0] takes no
    token, so callers leave it out."""
    excl = np.asarray(ranges, np.uint64) + 1
    prod = tokens.astype(np.uint64)
    prod *= excl
    rejected = (prod & 0xFFFFFFFF) < (0xFFFFFFFF + 1 - excl) % excl
    prod >>= 32
    return prod.astype(np.intp), rejected


def ragged(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, offset) of each of ``counts.sum()`` items: item t is the
    offset[t]-th of the ``counts[owner[t]]`` items of owner[t]."""
    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)


def floyd(n: int, rows: np.ndarray, steps: np.ndarray, values: np.ndarray,
          first: np.ndarray | int) -> np.ndarray:
    """The column each draw of Floyd's sampler adds to its sample: draw x
    is row rows[x]'s step steps[x], first[x]..n - 1 in order, and drew
    values[x].  A row's draws add its w distinct columns.

    Step j adds j itself when it drew j, a value an earlier step drew, or
    an earlier step t >= first that added itself; otherwise it adds the
    value.  So step j's answer, when it is step t's, is found for all
    steps at once by pointer jumping.
    """
    key = rows * n + values
    order = np.argsort(key, kind="stable")
    redrawn = np.zeros(len(key), bool)
    redrawn[order[1:]] = key[order[1:]] == key[order[:-1]]
    # 1: adds itself, 0: adds its value, -1: as step ``target`` does.
    adds_self = np.where((values == steps) | redrawn, 1, np.where(values >= first, -1, 0))
    index = np.arange(len(key))
    target = np.where(adds_self < 0, index - (steps - values), index)
    while (adds_self < 0).any():
        adds_self = adds_self[target]
        target = target[target]
    return np.where(adds_self == 1, steps, values)


def tail_shuffles(n: int, w):
    """Whether ``choice(n, w, replace=False)`` shuffles the tail of
    ``arange(n)`` rather than run Floyd's sampler (elementwise for an
    array of weights)."""
    return (n > 10_000) & (w > n // 50)


def tail_sample(n: int, w: int, values: list[int]) -> list[int]:
    """The w columns ``choice(n, w, replace=False)`` takes by shuffling the
    tail of ``arange(n)``: the swap at i = n - 1 down to max(n - w, 1)
    exchanges entries i and the i-th of ``values``, and the last w entries
    are the sample."""
    perm = list(range(n))
    for i, t in zip(range(n - 1, 0, -1), values):
        perm[i], perm[t] = perm[t], perm[i]
    return perm[n - w :]


def trial_ranges(n: int, k: int, c: int) -> tuple[np.ndarray, bool]:
    """The ranges of a trial's bounded draws, in the order they read its
    tokens, and whether its support comes from ``choice``'s tail shuffle.

    A trial draws ``choice(n, k, replace=False)`` (nothing when k = 0),
    ``integers(c)`` and ``integers(c - 1)``.  When n > 10,000 and
    k > n // 50, ``choice`` shuffles the tail of ``arange(n)``, one draw
    on [0, i] for i = n - 1 down to max(n - k, 1); otherwise it runs
    Floyd's sampler, one draw on [0, j] for j = n - k..n - 1, then shuffles
    the sample with one draw on [0, i] for i = k - 1..1.  A draw on [0, 0]
    (Floyd's j = 0 when k = n, ``integers(1)`` when c = 2) takes no token
    and is left out.
    """
    tail = tail_shuffles(n, k)
    if k == 0:
        support = []
    elif tail:
        support = range(n - 1, max(n - k, 1) - 1, -1)
    else:
        support = [*range(max(n - k, 1), n), *range(k - 1, 0, -1)]
    return np.array([*support, c - 1, *([c - 2] if c > 2 else [])], dtype=np.uint64), tail


def redrawn(words: np.ndarray, ranges: np.ndarray, length: int,
            m: int) -> tuple[np.ndarray, np.ndarray]:
    """The draws and the 2m raw outputs of its doubles, as ``trial_draws``
    gives them, of the one trial the (4,) ``words`` seed, whose draws
    reject a token.

    A rejected token is used up and the draw takes the next one, so it is
    dropped from the tokens and the draws are read again.  When the
    tokens or the doubles run past ``length`` outputs, the stream is read
    again, twice as long.
    """
    while True:
        raw = pcg64_raw(words[None], length)[0]
        tokens = raw.astype("<u8", copy=False).view("<u4")
        while len(tokens) >= len(ranges):
            values, rejected = bounded(tokens[: len(ranges)], ranges)
            if not rejected.any():
                # next_double skips a buffered token: the doubles start at
                # output ceil(tokens used / 2).
                start = (2 * length - len(tokens) + len(ranges) + 1) // 2
                if start + 2 * m <= length:
                    return values, raw[start : start + 2 * m]
                break
            tokens = np.delete(tokens, rejected.argmax())
        length *= 2


def trial_draws(words: np.ndarray, raw: np.ndarray, ranges: np.ndarray,
                m: int) -> tuple[np.ndarray, np.ndarray]:
    """The bounded draws on ``ranges`` and the 2m output doubles of the
    trials whose streams the rows of ``words`` seed, one row each, from
    the first raw outputs of those streams (``pcg64_raw``), one row of
    ``raw`` each.

    The outputs are read as 32-bit tokens, the low half of each output
    first.  Without a rejected token, draw d reads token d and the doubles
    start at output ceil(draws / 2), since ``next_double`` skips the
    buffered half; the rare row that rejects a token is parsed on its own
    (``redrawn``).  A double is the top 53 bits of an output times 2^-53,
    as ``Generator.random`` makes it.
    """
    values, rejected = bounded(raw.astype("<u8", copy=False).view("<u4")[:, : len(ranges)], ranges)
    start = -(-len(ranges) // 2)
    top = raw[:, start : start + 2 * m] >> 11
    for b in np.flatnonzero(rejected.any(axis=1)):
        values[b], doubles = redrawn(words[b], ranges, raw.shape[1], m)
        top[b] = doubles >> 11
    return values, top * 2.0**-53


def supports(values: np.ndarray, n: int, k: int, tail: bool) -> np.ndarray:
    """The (trials, k) supports ``choice(n, k, replace=False)`` draws, as
    sets, from each row of ``values``, which begins with its draws."""
    if k == n:
        return np.broadcast_to(np.arange(n), (len(values), n))
    if tail:
        return np.array([tail_sample(n, k, row[:k]) for row in values.tolist()], dtype=np.intp)
    rows = np.repeat(np.arange(len(values)), k)
    steps = np.tile(np.arange(n - k, n), len(values))
    return floyd(n, rows, steps, values[:, :k].ravel(), n - k).reshape(len(values), k)
