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
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
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

# Floats in each of the decoder's largest per-block arrays, rows x
# max(masks, models) x classes^2.  At 2^14 (128 KiB, glibc's default mmap
# threshold) blocks of 10-13 rows on the README code decoded 25-45% faster
# per row than blocks of 16-48, whose temporaries are mapped afresh; either
# way numpy's per-call cost is amortized and peak memory stays flat.
BLOCK_ENTRIES = 1 << 14


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """Log of summed exponentials along ``axis``; tolerates -inf entries and
    all--inf slices (call it under ``np.errstate(divide="ignore")``)."""
    amax = a.max(axis=axis, keepdims=True)
    shift = np.where(np.isfinite(amax), amax, 0.0)
    return np.log(np.exp(a - shift).sum(axis=axis)) + shift.squeeze(axis)


def _floored(log_p: np.ndarray) -> np.ndarray:
    return np.where(np.isneginf(log_p), _LOG_FLOOR, log_p)


def _unfloored(log_p: np.ndarray) -> np.ndarray:
    return np.where(log_p <= _FLOOR_CUTOFF, -np.inf, log_p)


def _safe_log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


@dataclass(frozen=True)
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
    The config keeps a read-only copy of it, for the same reason.
    A config pickles as its constructor arguments: a pool worker rebuilds it.
    """

    code: BitMatrix
    confusions: np.ndarray
    attack_prior: float
    success_rate: float
    count_prior: Mapping[int, float]
    num_classes: int

    # Derived enumeration tables, built once and reused across decodes.
    _log_conf: np.ndarray = field(init=False, repr=False)
    _mask_matrix: np.ndarray = field(init=False, repr=False)
    _mask_logw: np.ndarray = field(init=False, repr=False)
    _groups: dict[tuple[int, int], int] = field(init=False, repr=False)
    _group_first: tuple[tuple[int, ...], ...] = field(init=False, repr=False)
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
        size_logw = {s: _safe_log(prior[s] / per_size[s]) for s in sizes}

        with np.errstate(divide="ignore"):
            log_conf = _floored(np.log(self.confusions))
        masks = BitMatrix(len(mask_order), m, tuple(mask_order))
        tables = {
            "_log_conf": log_conf,
            "_mask_matrix": masks.to_array().astype(float),
            "_mask_logw": np.array([_safe_log(mask_weight[mask]) for mask in mask_order]),
            "_groups": {(count, mask): g for g, ((count, _), mask) in enumerate(groups)},
            "_group_first": tuple(first for (_, first), _ in groups),
            "_group_logw": np.array([size_logw[count] for (count, _), _ in groups]),
            "_group_mask_idx": np.array([mask_order[mask] for _, mask in groups], dtype=int),
        }
        for name, value in tables.items():
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


@dataclass(frozen=True)
class DecodeResult:
    """All decoder outputs for one ensemble prediction vector.

    ``attacker_posterior`` maps attacker indicator tuples (0/1 per user) to
    probabilities conditioned on an attack being active; it is empty when
    the count prior puts no mass on positive counts or no attacker
    hypothesis has support.  It is expanded from the per-group scores on
    first read, which enumerates the supports once (the config only counts
    them), within ``column_sums``' budget.  ``decoded_attackers`` is empty
    unless the attack posterior clears the decision threshold.
    """

    attack_posterior: float
    label_posterior: np.ndarray
    decoded_label: int
    decoded_attackers: tuple[int, ...]
    _cfg: DecoderConfig = field(repr=False, compare=False)
    _scores: np.ndarray = field(repr=False, compare=False)

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
    every (size, mask) attacker group, and ``decoded_attackers`` the
    reported support per row.
    """

    attack_posterior: np.ndarray  # (T,)
    label_posterior: np.ndarray  # (T, c)
    decoded_label: np.ndarray  # (T,)
    decoded_attackers: tuple[tuple[int, ...], ...]
    degenerate: np.ndarray  # (T,) bool
    scores: np.ndarray  # (T, G)


@dataclass(frozen=True)
class _Evidence:
    clean_ll: np.ndarray  # (T, c)    log prod_i C[i, l, y_i]
    mask_total: np.ndarray  # (T, B)    logsumexp over (t, l) per compromised mask
    mask_by_label: np.ndarray  # (T, B, c) logsumexp over t per compromised mask


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
    if np.any(y < 0) or np.any(y >= num_classes):
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
    block size, so its evidence does not depend on the rest of the block.
    Sums run over floored logs; any sum holding a floored term lies below
    _FLOOR_CUTOFF, contributes exactly 0 to a logsumexp with a finite
    term, and is restored to -inf.
    """
    (rows, m), c = y.shape, cfg.num_classes
    models = np.arange(m)
    clean_y = cfg._log_conf[models, :, y]  # (T, m, c_l): [b, i, l] = log C[i, l, y_bi]
    # (T, m, c_t, c_l): a compromised model's log-probability of emitting
    # y_bi, "hit" when the target t is y_bi and "miss" otherwise.
    s = cfg.success_rate
    base = (1.0 - s) * cfg.confusions[models, :, y]
    factors = np.repeat(_floored(np.log(base))[:, :, None, :], c, axis=2)
    factors[np.arange(rows)[:, None], models, y] = _floored(np.log(s + base))

    mb = cfg._mask_matrix  # (B, m)
    masks = len(mb)
    compromised = (mb @ factors.reshape(rows, m, c * c)).reshape(rows, masks, c, c)
    clean_part = ((1.0 - mb) @ clean_y)[:, :, None, :]  # (T, B, 1, c_l)
    ll = compromised + clean_part  # (T, B, c_t, c_l)

    return _Evidence(
        clean_ll=_unfloored(clean_y.sum(axis=1)),
        mask_total=_unfloored(_logsumexp(ll.reshape(rows, masks, c * c), axis=2)),
        mask_by_label=_unfloored(_logsumexp(ll, axis=2)),
    )


def _attack_posteriors(ev: _Evidence, cfg: DecoderConfig) -> tuple[np.ndarray, np.ndarray]:
    """(T,) attack posteriors, and (T,) flags of the degenerate rows, which
    no hypothesis explains and whose posteriors are NaN."""
    log_attack = _safe_log(cfg.attack_prior) + _logsumexp(cfg._mask_logw + ev.mask_total, axis=1)
    log_clean = (
        _safe_log(1.0 - cfg.attack_prior)
        + math.log(cfg.num_classes)
        + _logsumexp(ev.clean_ll, axis=1)
    )
    denom = np.logaddexp(log_attack, log_clean)
    # math.exp, not np.exp: the two can differ in the last bit.
    attack = [math.exp(a - d) for a, d in zip(log_attack.tolist(), denom.tolist())]
    return np.array(attack), denom == -math.inf


def _label_posteriors(ev: _Evidence, cfg: DecoderConfig) -> np.ndarray:
    """(T, c) label posteriors; NaN rows where every label scores zero."""
    attack_by_label = _logsumexp(
        cfg._mask_logw[:, None] + ev.mask_by_label, axis=1
    )  # (T, c)
    log_scores = np.logaddexp(
        _safe_log(cfg.attack_prior) + attack_by_label,
        _safe_log(1.0 - cfg.attack_prior) + math.log(cfg.num_classes) + ev.clean_ll,
    )
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
    attackers: list[tuple[int, ...]] = [()] * len(y)
    if scores.shape[1]:
        best = scores.argmax(axis=1)
        report = (attack > attack_threshold) & (scores.max(axis=1) > -math.inf)
        attackers = [
            cfg._group_first[g] if r else () for g, r in zip(best.tolist(), report.tolist())
        ]
    return BlockDecode(
        attack, labels, labels.argmax(axis=1), tuple(attackers), degenerate, scores
    )


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
    support of the first maximal group).
    """
    block = _decode_one(outputs, cfg, attack_threshold)
    return DecodeResult(
        float(block.attack_posterior[0]),
        block.label_posterior[0],
        int(block.decoded_label[0]),
        block.decoded_attackers[0],
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
