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
are scored per (size, mask) group.  ``DecoderConfig`` enumerates the
sum_j C(n, j) supports over the sizes j in the count prior once; a decode
then costs O(B * m * c^2) for B masks plus O(G) for G groups, and reading
the attacker posterior enumerates the supports once more.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .bitmatrix import BitMatrix, column_sums
from .errors import DegenerateEvidenceError

# Stand-in for log(0) inside masked matrix products: 0 * -inf would be NaN,
# 0 * _LOG_FLOOR is 0, and exp(_LOG_FLOOR - shift) underflows to exactly 0
# for any realistic shift.  Anything below _FLOOR_CUTOFF is restored to -inf.
_LOG_FLOOR = -1.0e30
_FLOOR_CUTOFF = -1.0e29

_PROB_TOL = 1e-9


def _logsumexp(a: np.ndarray, axis: int | None = None):
    """Log of summed exponentials; tolerates -inf entries and all--inf input."""
    amax = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(amax), amax, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - shift), axis=axis))
    out = out + np.squeeze(shift, axis=axis) if axis is not None else out + shift.reshape(())
    if axis is None:
        return float(out)
    return out


def _safe_log(x: float) -> float:
    return math.log(x) if x > 0.0 else -math.inf


@dataclass(frozen=True)
class DecoderConfig:
    """Everything the decoder needs to know about code, noise and priors.

    ``confusions`` is an (m, c, c) stack, one row-stochastic matrix per
    model; entry (i, j, q) is the probability that clean model i classifies
    class-j data as class q.  The config keeps its own read-only copy, so
    the enumeration tables derived from it cannot go stale.
    ``count_prior`` maps attacker counts to probabilities (its keys define
    which counts are enumerated; they must sum to 1 and stay within [0, n]).
    """

    code: BitMatrix
    confusions: np.ndarray
    attack_prior: float
    success_rate: float
    count_prior: dict[int, float]
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
        if not np.all((self.confusions >= -_PROB_TOL) & (self.confusions <= 1 + _PROB_TOL)):
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
        object.__setattr__(
            self, "count_prior", {int(k): float(v) for k, v in self.count_prior.items()}
        )
        total = 0.0
        for count, prob in self.count_prior.items():
            if count < 0:
                raise ValueError(f"attacker count {count!r} must be a nonnegative int")
            if count > n:
                raise ValueError(f"attacker count {count} exceeds the {n} users")
            if not prob >= 0.0:  # also refuses NaN
                raise ValueError("count prior probabilities must be nonnegative")
            total += prob
        if not abs(total - 1.0) <= _PROB_TOL:
            raise ValueError(f"count prior must sum to 1, got {total}")
        sizes = [count for count in sorted(self.count_prior) if self.count_prior[count] > 0.0]
        if not sizes:
            raise ValueError("count prior assigns no probability to any count")

        # One pass over the supports: every support weighs its mask; those of
        # positive size are also the attacker hypotheses, grouped by (size,
        # mask) in first-occurrence order with each group's first support.
        # Only the empty support (listed first when count 0 has mass) is not
        # a hypothesis.
        per_size = [math.comb(n, count) for count in sizes]
        weights = [self.count_prior[count] / num for count, num in zip(sizes, per_size)]
        mask_idx: list[int] = []
        mask_order: dict[int, int] = {}
        first: dict[tuple[int, int], tuple[int, ...]] = {}
        for combo, mask in column_sums(self.code, sizes):
            mask_idx.append(mask_order.setdefault(mask, len(mask_order)))
            if combo:
                first.setdefault((len(combo), mask), combo)
        mask_weight = np.bincount(mask_idx, weights=np.repeat(weights, per_size))
        size_logw = {count: _safe_log(w) for count, w in zip(sizes, weights)}

        with np.errstate(divide="ignore"):
            log_conf = np.log(self.confusions)
        masks = BitMatrix(len(mask_order), m, tuple(mask_order))
        tables = {
            "_log_conf": log_conf,
            "_mask_matrix": masks.to_array().astype(float),
            "_mask_logw": np.array([_safe_log(w) for w in mask_weight]),
            "_groups": {key: g for g, key in enumerate(first)},
            "_group_first": tuple(first.values()),
            "_group_logw": np.array([size_logw[size] for size, _ in first]),
            "_group_mask_idx": np.array([mask_order[mask] for _, mask in first], dtype=int),
        }
        for name, value in tables.items():
            object.__setattr__(self, name, value)

    @property
    def kmax(self) -> int:
        return max(self.count_prior)


@dataclass(frozen=True)
class DecodeResult:
    """All decoder outputs for one ensemble prediction vector.

    ``attacker_posterior`` maps attacker indicator tuples (0/1 per user) to
    probabilities conditioned on an attack being active; it is empty when
    the count prior puts no mass on positive counts or no attacker
    hypothesis has support.  It is expanded from the per-group scores on
    first read, which enumerates the supports once.  ``decoded_attackers``
    is empty unless the attack posterior clears the decision threshold.
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
class _Evidence:
    clean_ll: np.ndarray  # (c,)   log prod_i C[i, l, y_i]
    mask_total: np.ndarray  # (B,)   logsumexp over (t, l) per compromised mask
    mask_by_label: np.ndarray  # (B, c) logsumexp over t per compromised mask


def _validate_outputs(outputs: Sequence[int], cfg: DecoderConfig) -> np.ndarray:
    y = np.asarray(outputs, dtype=int)
    if y.shape != (cfg.code.m,):
        raise ValueError(f"expected {cfg.code.m} outputs, got shape {y.shape}")
    if np.any(y < 0) or np.any(y >= cfg.num_classes):
        raise ValueError(f"outputs must be class indices in [0, {cfg.num_classes})")
    return y


def _evidence(y: np.ndarray, cfg: DecoderConfig) -> _Evidence:
    m, c = cfg.code.m, cfg.num_classes
    rows = np.arange(m)
    conf_y = cfg.confusions[rows, :, y]  # (m, c): [i, l] = C[i, l, y_i]
    log_conf_y = cfg._log_conf[rows, :, y]
    clean_ll = log_conf_y.sum(axis=0)

    s = cfg.success_rate
    base = (1.0 - s) * conf_y
    with np.errstate(divide="ignore"):
        log_miss = np.log(base)  # compromised model, target != y_i
        log_hit = np.log(s + base)  # compromised model, target == y_i
    target_is_output = y[:, None] == np.arange(c)[None, :]  # (m, c_t)
    factors = np.where(
        target_is_output[:, :, None], log_hit[:, None, :], log_miss[:, None, :]
    )  # (m, c_t, c_l)

    flat = np.where(np.isneginf(factors), _LOG_FLOOR, factors).reshape(m, c * c)
    clean_flat = np.where(np.isneginf(log_conf_y), _LOG_FLOOR, log_conf_y)
    mb = cfg._mask_matrix  # (B, m)
    compromised = (mb @ flat).reshape(-1, c, c)
    clean_part = (1.0 - mb) @ clean_flat  # (B, c_l)
    ll = compromised + clean_part[:, None, :]
    ll = np.where(ll <= _FLOOR_CUTOFF, -np.inf, ll)

    mask_total = _logsumexp(ll.reshape(ll.shape[0], -1), axis=1)
    mask_by_label = _logsumexp(ll, axis=1)
    return _Evidence(clean_ll, mask_total, mask_by_label)


def attack_posterior(outputs: Sequence[int], cfg: DecoderConfig) -> float:
    """Posterior probability that an attack is active given the outputs."""
    y = _validate_outputs(outputs, cfg)
    ev = _evidence(y, cfg)
    return _attack_posterior_from(ev, cfg)


def _attack_posterior_from(ev: _Evidence, cfg: DecoderConfig) -> float:
    log_attack = _safe_log(cfg.attack_prior) + _logsumexp(cfg._mask_logw + ev.mask_total)
    log_clean = (
        _safe_log(1.0 - cfg.attack_prior)
        + math.log(cfg.num_classes)
        + _logsumexp(ev.clean_ll)
    )
    denom = np.logaddexp(log_attack, log_clean)
    if denom == -math.inf:
        raise DegenerateEvidenceError(
            "zero probability under every hypothesis",
            {"attack_prior": cfg.attack_prior, "success_rate": cfg.success_rate},
        )
    return float(math.exp(log_attack - denom))


def label_posterior(outputs: Sequence[int], cfg: DecoderConfig) -> np.ndarray:
    """Posterior over true labels, marginalizing attacks, attackers, targets."""
    y = _validate_outputs(outputs, cfg)
    ev = _evidence(y, cfg)
    return _label_posterior_from(ev, cfg)


def _label_posterior_from(ev: _Evidence, cfg: DecoderConfig) -> np.ndarray:
    attack_by_label = _logsumexp(
        cfg._mask_logw[:, None] + ev.mask_by_label, axis=0
    )  # (c,)
    log_scores = np.logaddexp(
        _safe_log(cfg.attack_prior) + attack_by_label,
        _safe_log(1.0 - cfg.attack_prior) + math.log(cfg.num_classes) + ev.clean_ll,
    )
    norm = _logsumexp(log_scores)
    if norm == -math.inf:
        raise DegenerateEvidenceError("all label scores are zero")
    return np.exp(log_scores - norm)


def attacker_posterior(
    outputs: Sequence[int], cfg: DecoderConfig
) -> dict[tuple[int, ...], float]:
    """Posterior over attacker indicator vectors, conditioned on an attack.

    Requires the count prior to include at least one positive count.
    """
    if cfg.kmax < 1:
        raise ValueError("count prior has no positive attacker count")
    y = _validate_outputs(outputs, cfg)
    result = _expand_attackers(_attacker_scores(_evidence(y, cfg), cfg), cfg)
    if not result:
        raise DegenerateEvidenceError("no attacker hypothesis has support")
    return result


def _attacker_scores(ev: _Evidence, cfg: DecoderConfig) -> np.ndarray:
    """Log-score of every (size, mask) group, in ``cfg._groups`` order; each
    support of a group has exactly this score."""
    return cfg._group_logw + ev.mask_total[cfg._group_mask_idx]


def _expand_attackers(
    scores: np.ndarray, cfg: DecoderConfig
) -> dict[tuple[int, ...], float]:
    """Attacker posterior over every support of positive size, in
    enumeration order (empty when no hypothesis has support)."""
    keys: list[tuple[int, ...]] = []
    group_idx: list[int] = []
    sizes = sorted({size for size, _ in cfg._groups})
    for combo, mask in column_sums(cfg.code, sizes):
        indicator = [0] * cfg.code.n
        for j in combo:
            indicator[j] = 1
        keys.append(tuple(indicator))
        group_idx.append(cfg._groups[len(combo), mask])
    support_scores = scores[group_idx]
    norm = _logsumexp(support_scores) if support_scores.size else -math.inf
    if norm == -math.inf:
        return {}
    return dict(zip(keys, np.exp(support_scores - norm).tolist()))


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
    y = _validate_outputs(outputs, cfg)
    ev = _evidence(y, cfg)
    attack = _attack_posterior_from(ev, cfg)
    labels = _label_posterior_from(ev, cfg)
    decoded_label = int(np.argmax(labels))

    scores = _attacker_scores(ev, cfg)
    decoded_attackers: tuple[int, ...] = ()
    if attack > attack_threshold and scores.size and scores.max() > -math.inf:
        decoded_attackers = cfg._group_first[int(np.argmax(scores))]
    return DecodeResult(attack, labels, decoded_label, decoded_attackers, cfg, scores)


def majority_vote(outputs: Sequence[int], num_classes: int) -> int:
    """Modal class of the outputs; ties break toward the lowest index."""
    y = np.asarray(outputs, dtype=int)
    if y.size == 0:
        raise ValueError("need at least one output")
    if np.any(y < 0) or np.any(y >= num_classes):
        raise ValueError(f"outputs must be class indices in [0, {num_classes})")
    return int(np.argmax(np.bincount(y, minlength=num_classes)))


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
