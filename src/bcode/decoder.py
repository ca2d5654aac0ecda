"""Bayesian decoder for ensemble outputs under targeted data poisoning.

Generative model, per inference: with probability ``attack_prior`` an attack
is active.  Under an attack, the attacker set is drawn by first drawing its
size from ``count_prior`` and then a uniform subset of users of that size;
every model trained on at least one attacker is forced to the attack target
with probability ``success_rate``, independently per model, and otherwise
predicts like a clean model.  Clean predictions follow the model's confusion
row for the true label.  Targets and true labels are uniform a priori.

Posteriors come from exact enumeration over (attacker set, target, label).
Attacker sets that compromise the same set of models share their likelihood
table, so the enumeration is grouped by compromised-model mask; products
over models are accumulated in log space with max-shift normalization before
exponentiation (plain products over m factors in [0, 1] underflow quickly).
An attacker set's score depends only on its size and its mask, so attackers
are scored per (size, mask) group.  ``DecoderConfig`` counts the supports
of every (size, mask) exactly in one pass over the columns
(``bitmatrix.column_sum_counts``) without listing them; a decode then costs
O(B * m * c^2) for B masks plus O(G) for G groups, and only reading the
attacker posterior enumerates the sum_j C(n, j) supports.

One kernel decodes a (T, m) block of output vectors at once
(``decode_block``); ``decode`` and the three posterior functions run it on
one row.  Every row goes through the same float operations in the same
order whatever the block, so a row decodes bit for bit as it would alone.
The config builds the kernel's per-model inputs once: the floored logs of
a clean model's, a missing compromised model's and a hitting compromised
model's probability of every output, each an (m, c_out, c_l) table that a
block gathers by [model, output], plus the clean-model matrix and the
log-prior constants.  These tables are read-only, so a config cannot drift
from them.  The block's log-likelihoods form one (c_t, T, c_l, B) array,
target axis first: a single matrix product of the per-model factors with
the mask matrix fills it, the clean models' part is added in place, and
the logsumexp over targets (max, shift, exp, sum) runs in place over that
leading axis, the layout numpy reduces fastest.  The per-mask total is the
logsumexp over labels of that (T, c_l, B) result.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .bitmatrix import BitMatrix, column_sum_counts, column_sums
from .errors import DegenerateEvidenceError

# Stand-in for log(0) inside masked matrix products: 0 * -inf would be NaN,
# 0 * _LOG_FLOOR is 0, and exp(_LOG_FLOOR - shift) underflows to exactly 0
# for any realistic shift.  Anything below _FLOOR_CUTOFF is restored to -inf.
_LOG_FLOOR = -1.0e30
_FLOOR_CUTOFF = -1.0e29

_PROB_TOL = 1e-9
_NEG_DBL_MAX = -np.finfo(np.float64).max

# Floats in each of the decoder's two largest per-block arrays, rows x
# max(masks, models) x classes^2: the per-model factors and the
# log-likelihoods, and the factors are freed once the log-likelihoods are
# filled.  On the README code (a 2-vCPU Xeon, numpy 2.4) a row decoded in
# 7.7 us in blocks of 27 rows (2^15 floats), 6.3 us in blocks of 54 (2^16)
# and 6.1-6.2 us in blocks of 64-72.  From 80 rows (96,000 floats) glibc
# hands the arrays' pages back to the system after every block and
# faults them in again, and a row cost 8.4-8.5 us.  The README example
# (``--threads 1``) took 0.50 s at 2^15, 0.42 s at 2^16 and 0.50 s at
# 2^17 (109 rows, past that edge).  2^16 keeps below the edge, and memory
# stays flat in the number of trials.
BLOCK_ENTRIES = 1 << 16


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """Log of summed exponentials along ``axis``; tolerates -inf entries and
    all--inf slices (call it under ``np.errstate(divide="ignore")``)."""
    # An all--inf slice shifts by -DBL_MAX and still sums to log(0) = -inf.
    shift = np.maximum(a.max(axis=axis, keepdims=True), _NEG_DBL_MAX)
    return np.log(np.exp(a - shift).sum(axis=axis)) + shift.squeeze(axis)


def _floored(log_p: np.ndarray) -> np.ndarray:
    return np.maximum(log_p, _LOG_FLOOR)  # a log is -inf or at least -745


def _unfloored(log_p: np.ndarray) -> np.ndarray:
    return np.where(log_p <= _FLOOR_CUTOFF, -np.inf, log_p)


def _safe_log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


def _log_weight(weight: float, terms: Callable[[], list[tuple[float, int, int]]]) -> float:
    """log(weight), the float sum of p * num / total over ``terms()``, where
    it is normal; else a logsumexp of log p + log num - log total from the
    exact ints (a total from 2^1023 on makes p / total subnormal: pass 0)."""
    if weight >= 2.0**-1022:
        return math.log(weight)
    return float(_logsumexp(np.array([math.log(p) + math.log(num) - math.log(total)
                                      for p, num, total in terms()]), axis=0))


@dataclass(frozen=True, eq=False)
class DecoderConfig:
    """Everything the decoder needs to know about code, noise and priors.

    ``confusions`` is an (m, c, c) stack, one row-stochastic matrix per
    model; entry (i, j, q) is the probability that clean model i classifies
    class-j data as class q.  Entries must be nonnegative and every row must
    sum to 1 within 1e-9, so any accepted stack can also be sampled from
    (``simulate`` checks rows the way ``Generator.choice`` does).  The
    config keeps its own read-only copy, so the enumeration tables derived
    from it cannot go stale.
    ``count_prior`` maps attacker counts to probabilities (its keys define
    which counts are enumerated; they must sum to 1 and stay within [0, n]).
    The config keeps a read-only copy of it, for the same reason, and every
    table derived from these inputs is read-only too.
    A config pickles as its constructor arguments: a pool worker rebuilds it.
    Configs compare and hash by identity, since an array has no one truth
    value to compare by.
    """

    code: BitMatrix
    confusions: np.ndarray
    attack_prior: float
    success_rate: float
    count_prior: Mapping[int, float]
    num_classes: int

    # Derived tables, built once and reused across decodes.  The three log
    # tables are (m, c_out, c_l): a clean model's, a compromised model's on
    # a missed target and on a hit target, floored.
    _log_clean: np.ndarray = field(init=False, repr=False)
    _log_miss: np.ndarray = field(init=False, repr=False)
    _log_hit: np.ndarray = field(init=False, repr=False)
    _mask_matrix: np.ndarray = field(init=False, repr=False)
    _clean_matrix: np.ndarray = field(init=False, repr=False)  # 1 - _mask_matrix.T
    _mask_logw: np.ndarray = field(init=False, repr=False)
    _log_attack_prior: float = field(init=False, repr=False)
    _log_clean_prior: float = field(init=False, repr=False)  # log(1 - attack_prior) + log(c)
    _groups: Mapping[tuple[int, int], int] = field(init=False, repr=False)
    # (G + 1, w): group g's first support padded with -1; row -1 is all -1.
    _group_first: np.ndarray = field(init=False, repr=False)
    _group_logw: np.ndarray = field(init=False, repr=False)
    _group_mask_idx: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        confusions = np.array(self.confusions, dtype=float)
        confusions.setflags(write=False)
        object.__setattr__(self, "confusions", confusions)
        m, n, c = self.code.m, self.code.n, self.num_classes
        if c < 1:
            raise ValueError("need at least one class")
        if self.confusions.shape != (m, c, c):
            raise ValueError(
                f"confusions must have shape ({m}, {c}, {c}), got {self.confusions.shape}"
            )
        if not np.all((self.confusions >= 0.0) & (self.confusions <= 1 + _PROB_TOL)):
            raise ValueError("confusion entries must lie in [0, 1]")
        rowsums = self.confusions.sum(axis=2)
        if np.any(np.abs(rowsums - 1.0) > _PROB_TOL):
            raise ValueError("every confusion row must sum to 1")
        if not 0.0 <= self.attack_prior <= 1.0:
            raise ValueError("attack prior must lie in [0, 1]")
        if not 0.0 <= self.success_rate <= 1.0:
            raise ValueError("success rate must lie in [0, 1]")
        if not self.count_prior:
            raise ValueError("count prior must not be empty")
        prior: dict[int, float] = {}
        total = 0.0
        for count, prob in self.count_prior.items():
            if not isinstance(count, (int, np.integer)) or count < 0:
                raise ValueError(f"attacker count {count!r} must be a nonnegative int")
            if count > n:
                raise ValueError(f"attacker count {count} exceeds the {n} users")
            prob = prior[int(count)] = float(prob)
            if not prob >= 0.0:  # also refuses NaN
                raise ValueError("count prior probabilities must be nonnegative")
            total += prob
        object.__setattr__(self, "count_prior", MappingProxyType(prior))
        if not abs(total - 1.0) <= _PROB_TOL:
            raise ValueError(f"count prior must sum to 1, got {total}")
        # Nonempty: the probabilities are nonnegative and sum to about 1.
        sizes = [count for count in sorted(prior) if prior[count] > 0.0]

        # Exact (size, mask) counts from one pass over the columns.  Masks
        # come in first-occurrence order over the supports of the sizes with
        # mass (by smallest such size, then first support), and each weighs
        # sum_s p_s * count_s / C(n, s).  The groups are the (size, mask)
        # keys of positive size, ordered by their first supports.
        layers = column_sum_counts(self.code, sizes[-1])
        per_size = {count: math.comb(n, count) for count in sizes}
        mask_key: dict[int, tuple[int, tuple[int, ...]]] = {}
        mask_weight: dict[int, float] = {}
        for count in sizes:
            for mask, (num, first) in layers[count].items():
                mask_key.setdefault(mask, (count, first))
                weight = prior[count] * (num / per_size[count])
                mask_weight[mask] = mask_weight.get(mask, 0.0) + weight
        mask_order = {mask: b for b, mask in enumerate(sorted(mask_key, key=mask_key.get))}
        groups = sorted(
            ((count, first), mask)
            for count in sizes
            if count
            for mask, (_, first) in layers[count].items()
        )
        size_logw = {s: _log_weight(prior[s] / per_size[s] if per_size[s] < 2.0**1023 else 0.0,
                                    lambda: [(prior[s], 1, per_size[s])]) for s in sizes}

        # A clean model's, a missing and a hitting compromised model's
        # probability of each output, (m, c_out, c_l) each, logged at once.
        s = self.success_rate
        probs = np.empty((3, m, c, c))
        probs[0] = self.confusions.transpose(0, 2, 1)
        np.multiply(1.0 - s, probs[0], out=probs[1])
        np.add(s, probs[1], out=probs[2])
        with np.errstate(divide="ignore"):
            logs = np.log(probs)
            if (lost := probs[1:] < 2.0**-1022).any():  # underflowed: log the terms
                miss = np.log(1.0 - s) + logs[0]
                np.copyto(logs[1:], [miss, np.logaddexp(np.log(s), miss)], where=lost)
        log_clean, log_miss, log_hit = _floored(logs)
        mask_matrix = BitMatrix(len(mask_order), m, tuple(mask_order)).to_array().astype(float)
        tables = {
            "_log_clean": log_clean,
            "_log_miss": log_miss,
            "_log_hit": log_hit,
            "_mask_matrix": mask_matrix,
            "_clean_matrix": 1.0 - mask_matrix.T,
            "_mask_logw": np.array([_log_weight(mask_weight[mask], lambda: [
                (prior[s], layers[s][mask][0], per_size[s]) for s in sizes if mask in layers[s]])
                for mask in mask_order]),
            "_log_attack_prior": _safe_log(self.attack_prior),
            "_log_clean_prior": _safe_log(1.0 - self.attack_prior) + math.log(c),
            "_groups": MappingProxyType(
                {(count, mask): g for g, ((count, _), mask) in enumerate(groups)}
            ),
            "_group_first": np.array(
                [[*first, *[-1] * (sizes[-1] - count)] for (count, first), _ in groups]
                + [[-1] * sizes[-1]], dtype=int),
            "_group_logw": np.array([size_logw[count] for (count, _), _ in groups]),
            "_group_mask_idx": np.array([mask_order[mask] for _, mask in groups], dtype=int),
        }
        for name, value in tables.items():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return DecoderConfig, (self.code, self.confusions, self.attack_prior,
                               self.success_rate, dict(self.count_prior), self.num_classes)

    @property
    def kmax(self) -> int:
        return max(self.count_prior)

    @property
    def block_rows(self) -> int:
        """Rows per ``decode_block`` call that keep each of the kernel's
        largest per-block arrays within ``BLOCK_ENTRIES`` floats."""
        per_row = max(len(self._mask_matrix), self.code.m) * self.num_classes**2
        return max(1, BLOCK_ENTRIES // per_row)


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """All decoder outputs for one ensemble prediction vector.

    ``attacker_posterior`` maps attacker indicator tuples (0/1 per user) to
    probabilities conditioned on an attack being active; it is empty when
    the count prior puts no mass on positive counts or no attacker
    hypothesis has support.  It is expanded from the per-group scores on
    first read, which enumerates the supports once (the config only counts
    them), within ``column_sums``' budget.  ``decoded_attackers`` is empty
    unless the attack posterior clears the decision threshold.  Results
    compare and hash by identity, as configs do.
    """

    attack_posterior: float
    label_posterior: np.ndarray
    decoded_label: int
    decoded_attackers: tuple[int, ...]
    _cfg: DecoderConfig = field(repr=False)
    _scores: np.ndarray = field(repr=False)

    @functools.cached_property
    def attacker_posterior(self) -> dict[tuple[int, ...], float]:
        return _expand_attackers(self._scores, self._cfg)


@dataclass(frozen=True)
class BlockDecode:
    """Decoder outputs for a (T, m) block of output vectors, one row each.

    Row b holds exactly what ``decode`` returns for the b-th vector (the
    same floats, bit for bit), except that a row whose outputs have zero
    probability under every hypothesis is flagged in ``degenerate`` instead
    of raising; its posteriors are NaN.  ``scores`` holds the log-score of
    every (size, mask) attacker group, and ``decoded_attackers`` the first
    support of the row's reported group, padded with -1 to the widest count
    with mass (all -1 when none is reported).
    """

    attack_posterior: np.ndarray  # (T,)
    label_posterior: np.ndarray  # (T, c)
    decoded_label: np.ndarray  # (T,)
    decoded_attackers: np.ndarray  # (T, w) int
    degenerate: np.ndarray  # (T,) bool
    scores: np.ndarray  # (T, G)


@dataclass(frozen=True)
class _Evidence:
    clean_ll: np.ndarray  # (T, c)    log prod_i C[i, l, y_i]
    mask_total: np.ndarray  # (T, B)    logsumexp over (t, l) per compromised mask
    mask_by_label: np.ndarray  # (T, c, B) logsumexp over t per label and compromised mask


def _class_indices(outputs, num_classes: int) -> np.ndarray:
    """``outputs`` as int class indices in [0, num_classes), refusing values
    that are not integers rather than truncating them; no copy of an int array."""
    y = np.asarray(outputs)
    if y.dtype.kind not in "biu":
        with np.errstate(invalid="ignore"):
            ints = y.astype(int) if y.dtype.kind == "f" else None
        if ints is None or not np.array_equal(ints, y):
            raise ValueError("outputs must be integer class indices")
        y = ints
    if y.size and (y.min() < 0 or y.max() >= num_classes):
        raise ValueError(f"outputs must be class indices in [0, {num_classes})")
    return y.astype(int, copy=False)


def _validate_outputs(outputs, cfg: DecoderConfig, block: bool = False) -> np.ndarray:
    """Outputs as a (T, m) block of class indices; a single vector is one row."""
    y = _class_indices(outputs, cfg.num_classes)
    m = cfg.code.m
    if y.ndim != 1 + block or y.shape[-1] != m:
        expected = f"a (T, {m}) block of outputs" if block else f"{m} outputs"
        raise ValueError(f"expected {expected}, got shape {y.shape}")
    return y.reshape(-1, m)


def _evidence(y: np.ndarray, cfg: DecoderConfig) -> _Evidence:
    """Evidence of every row of a (T, m) block of outputs.

    A row costs the same float operations in the same order whatever the
    block size, so its evidence does not depend on the rest of the block
    (the one matrix product sums each entry over the models in turn, which
    ``tests/test_decoder.py`` pins for blocks of every size it decodes).
    Sums run over floored logs; any sum holding a floored term lies below
    _FLOOR_CUTOFF, contributes exactly 0 to a logsumexp with a finite
    term, and is restored to -inf.
    """
    (rows, m), c = y.shape, cfg.num_classes
    models = np.arange(m)
    clean_y = cfg._log_clean[models, y]  # (T, m, c_l): [b, i, l] = log C[i, l, y_bi]
    # (c_t, T, c_l, m): a compromised model's log-probability of emitting
    # y_bi, "hit" when the target t is y_bi and "miss" otherwise.
    factors = np.empty((c, rows, c, m))
    factors[...] = cfg._log_miss[models, y].transpose(0, 2, 1)
    factors[y, np.arange(rows)[:, None], :, models] = cfg._log_hit[models, y]

    mb = cfg._mask_matrix  # (B, m)
    ll = (factors.reshape(-1, m) @ mb.T).reshape(c, rows, c, len(mb))  # (c_t, T, c_l, B)
    del factors  # the block's two largest arrays are never alive with much else
    ll += clean_y.transpose(0, 2, 1) @ cfg._clean_matrix  # the clean models' part, (T, c_l, B)
    # Logsumexp over the targets, in place.  Floored logs keep every entry
    # finite, so the shift needs no guard against -inf.
    shift = ll.max(axis=0)
    ll -= shift
    np.exp(ll, out=ll)
    mask_by_label = _unfloored(np.log(ll.sum(axis=0)) + shift)

    return _Evidence(
        clean_ll=_unfloored(clean_y.sum(axis=1)),
        mask_total=_logsumexp(mask_by_label, axis=1),
        mask_by_label=mask_by_label,
    )


def _attack_posteriors(ev: _Evidence, cfg: DecoderConfig) -> tuple[np.ndarray, np.ndarray]:
    """(T,) attack posteriors, and (T,) flags of the degenerate rows, which
    no hypothesis explains and whose posteriors are NaN."""
    log_attack = cfg._log_attack_prior + _logsumexp(cfg._mask_logw + ev.mask_total, axis=1)
    log_clean = cfg._log_clean_prior + _logsumexp(ev.clean_ll, axis=1)
    denom = np.logaddexp(log_attack, log_clean)
    # math.exp, not np.exp: the two can differ in the last bit.
    attack = [math.exp(a - d) for a, d in zip(log_attack.tolist(), denom.tolist())]
    return np.array(attack), denom == -math.inf


def _label_posteriors(ev: _Evidence, cfg: DecoderConfig) -> np.ndarray:
    """(T, c) label posteriors; NaN rows where every label scores zero."""
    attack_by_label = _logsumexp(cfg._mask_logw + ev.mask_by_label, axis=2)  # (T, c)
    log_scores = np.logaddexp(cfg._log_attack_prior + attack_by_label,
                              cfg._log_clean_prior + ev.clean_ll)
    return np.exp(log_scores - _logsumexp(log_scores, axis=1)[:, None])


def _attacker_scores(ev: _Evidence, cfg: DecoderConfig) -> np.ndarray:
    """(T, G) log-score of every (size, mask) group, in ``cfg._groups``
    order; each support of a group has exactly this score."""
    return cfg._group_logw + ev.mask_total[:, cfg._group_mask_idx]


def _decode_rows(
    y: np.ndarray, cfg: DecoderConfig, attack_threshold: float = 0.5
) -> BlockDecode:
    """The decoder: one evidence pass over a validated (T, m) block feeding
    the attack and label posteriors and the attacker scores of every row."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ev = _evidence(y, cfg)
        attack, degenerate = _attack_posteriors(ev, cfg)
        labels = _label_posteriors(ev, cfg)
    scores = _attacker_scores(ev, cfg)
    group = np.full(len(y), -1)
    if scores.shape[1]:
        report = (attack > attack_threshold) & (scores.max(axis=1) > -math.inf)
        group = np.where(report, scores.argmax(axis=1), -1)
    attackers = cfg._group_first.take(group, axis=0)
    return BlockDecode(attack, labels, labels.argmax(axis=1), attackers, degenerate, scores)


def _decode_one(outputs, cfg: DecoderConfig, attack_threshold: float = 0.5) -> BlockDecode:
    """The decoder on one output vector, refusing outputs no hypothesis explains."""
    block = _decode_rows(_validate_outputs(outputs, cfg), cfg, attack_threshold)
    if block.degenerate[0]:
        raise DegenerateEvidenceError(
            "zero probability under every hypothesis",
            {"attack_prior": cfg.attack_prior, "success_rate": cfg.success_rate},
        )
    return block


def attack_posterior(outputs: Sequence[int], cfg: DecoderConfig) -> float:
    """Posterior probability that an attack is active given the outputs."""
    return float(_decode_one(outputs, cfg).attack_posterior[0])


def label_posterior(outputs: Sequence[int], cfg: DecoderConfig) -> np.ndarray:
    """Posterior over true labels, marginalizing attacks, attackers, targets."""
    return _decode_one(outputs, cfg).label_posterior[0]


def attacker_posterior(
    outputs: Sequence[int], cfg: DecoderConfig
) -> dict[tuple[int, ...], float]:
    """Posterior over attacker indicator vectors, conditioned on an attack.

    Requires the count prior to include at least one positive count.
    """
    if cfg.kmax < 1:
        raise ValueError("count prior has no positive attacker count")
    block = _decode_rows(_validate_outputs(outputs, cfg), cfg)
    result = _expand_attackers(block.scores[0], cfg)
    if not result:
        raise DegenerateEvidenceError("no attacker hypothesis has support")
    return result


def _expand_attackers(
    scores: np.ndarray, cfg: DecoderConfig
) -> dict[tuple[int, ...], float]:
    """Attacker posterior over every support of positive size, in
    enumeration order (empty when no hypothesis has support)."""
    keys: list[tuple[int, ...]] = []
    group_idx: list[int] = []
    sizes = sorted({size for size, _ in cfg._groups})
    for combo, mask in column_sums(cfg.code.column_masks, sizes):
        indicator = [0] * cfg.code.n
        for j in combo:
            indicator[j] = 1
        keys.append(tuple(indicator))
        group_idx.append(cfg._groups[len(combo), mask])
    support_scores = scores[group_idx]
    with np.errstate(divide="ignore"):
        norm = float(_logsumexp(support_scores, axis=0)) if support_scores.size else -math.inf
    if norm == -math.inf:
        return {}
    return dict(zip(keys, np.exp(support_scores - norm).tolist()))


def decode_block(outputs: np.ndarray, cfg: DecoderConfig) -> BlockDecode:
    """``decode`` for every row of a (T, m) block of output vectors in one
    evidence pass; a degenerate row is flagged instead of raising."""
    return _decode_rows(_validate_outputs(outputs, cfg, block=True), cfg)


def decode(
    outputs: Sequence[int],
    cfg: DecoderConfig,
    attack_threshold: float = 0.5,
) -> DecodeResult:
    """Full decode: one evidence pass feeding the attack and label
    posteriors and the attacker scores.

    The decoded label is the argmax of the label posterior (lowest index on
    ties).  Attackers are reported only when the attack posterior exceeds
    ``attack_threshold``; the reported set is the support of the most
    probable attacker hypothesis (the first one on ties, which is the first
    support of the first maximal group).  A threshold outside [0, 1], NaN
    included, raises ``ValueError``.
    """
    if not 0 <= attack_threshold <= 1:
        raise ValueError(f"attack threshold must lie in [0, 1], got {attack_threshold}")
    block = _decode_one(outputs, cfg, attack_threshold)
    return DecodeResult(
        float(block.attack_posterior[0]),
        block.label_posterior[0],
        int(block.decoded_label[0]),
        tuple(j for j in block.decoded_attackers[0].tolist() if j >= 0),
        cfg,
        block.scores[0],
    )


def majority_votes(outputs: np.ndarray, num_classes: int) -> np.ndarray:
    """Modal class of every row of a (T, m) block of outputs; ties break
    toward the lowest index."""
    y = _class_indices(outputs, num_classes)
    if y.ndim != 2 or y.shape[1] == 0:
        raise ValueError("need a (T, m) block of outputs with m >= 1")
    rows = np.arange(len(y))[:, None]
    counts = np.bincount((y + num_classes * rows).ravel(), minlength=len(y) * num_classes)
    return counts.reshape(len(y), num_classes).argmax(axis=1)


def majority_vote(outputs: Sequence[int], num_classes: int) -> int:
    """Modal class of the outputs; ties break toward the lowest index."""
    y = np.asarray(outputs)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("need one nonempty vector of outputs")
    return int(majority_votes(y[None], num_classes)[0])


def estimate_confusion(
    pairs: Sequence[tuple[int, int]],
    num_classes: int,
    smoothing: float = 1.0,
) -> np.ndarray:
    """Row-stochastic confusion matrix from (true, predicted) label pairs.

    Additive smoothing keeps rows valid for classes with no samples; with
    zero smoothing an empty row falls back to uniform.
    """
    if num_classes < 1:
        raise ValueError("need at least one class")
    if smoothing < 0:
        raise ValueError("smoothing must be nonnegative")
    counts = np.zeros((num_classes, num_classes), dtype=float)
    for true_label, predicted in pairs:
        if not (0 <= true_label < num_classes and 0 <= predicted < num_classes):
            raise ValueError("labels must lie in [0, num_classes)")
        counts[true_label, predicted] += 1.0
    counts += smoothing
    totals = counts.sum(axis=1, keepdims=True)
    uniform = np.full(num_classes, 1.0 / num_classes)
    out = np.where(totals > 0, counts / np.where(totals > 0, totals, 1.0), uniform)
    return out


def identity_confusions(num_models: int, num_classes: int) -> np.ndarray:
    """Stack of exact identity confusion matrices (perfectly clean models)."""
    return np.broadcast_to(
        np.eye(num_classes), (num_models, num_classes, num_classes)
    ).copy()


def uniform_count_prior(lo: int, hi: int) -> dict[int, float]:
    """Uniform attacker-count distribution over lo..hi inclusive."""
    if lo < 0 or hi < lo:
        raise ValueError("need 0 <= lo <= hi")
    p = 1.0 / (hi - lo + 1)
    return {count: p for count in range(lo, hi + 1)}
