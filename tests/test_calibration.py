"""The sampler and the decoder checked against each other.

Tests elsewhere check each side against its own oracle.  Here scenarios are
drawn from the decoder's own prior, outputs from ``sample_outputs``, and the
decoder's posteriors must be calibrated on them: among draws given posterior
p, a fraction p must be true (binned, within binomial tolerance), and the
true label must rank uniformly among draws from its posterior
(simulation-based calibration, Talts et al., arXiv:1804.06788).
"""

import math
from collections import namedtuple

import numpy as np
import pytest

from bcode.construct import general_bcc
from bcode.decoder import DecoderConfig, decode_block
from bcode.simulate import Scenario, sample_outputs

DRAWS = 24_000
BINS = 10
RANKS = 9  # posterior draws per scenario; the true label's rank is in 0..RANKS

# ``Scenario`` refuses a target equal to the true label, which the decoder's
# prior draws under an attack with probability 1/c; ``sample_outputs`` reads
# only these four fields, so such a draw goes in through this stand-in.
NoOpAttack = namedtuple("NoOpAttack", "attackers support target true_label")


def draw_scenario(cfg, rng):
    """(attack, count, support, target, label) from the decoder's prior:
    an attack with probability ``attack_prior``, then a count from
    ``count_prior`` and a uniform support of that size; target and label
    uniform over the classes."""
    attack = bool(rng.random() < cfg.attack_prior)
    counts = sorted(cfg.count_prior)
    count = int(rng.choice(counts, p=[cfg.count_prior[k] for k in counts])) if attack else 0
    support = tuple(sorted(int(j) for j in rng.choice(cfg.code.n, size=count, replace=False)))
    target, label = (int(v) for v in rng.integers(cfg.num_classes, size=2))
    return attack, count, support, target, label


def draw_outputs(cfg, support, target, label, seed):
    if support and target == label:
        flags = tuple(int(j in support) for j in range(cfg.code.n))
        scenario = NoOpAttack(flags, support, target, label)
    else:
        scenario = Scenario.from_support(cfg.code.n, support, target, label)
    return sample_outputs(cfg.code, scenario, cfg.confusions, cfg.success_rate, seed)


def calibration_config():
    code = general_bcc(2, 2, 5)  # users 0 and 1 train the same models
    c = 3
    rng = np.random.default_rng(11)
    confusions = 0.45 * np.eye(c) + 0.55 * rng.dirichlet(np.ones(c), size=(code.m, c))
    return DecoderConfig(code, confusions, 0.5, 0.7, {0: 0.2, 1: 0.4, 2: 0.4}, c)


@pytest.fixture(scope="module")
def draws():
    cfg = calibration_config()
    rng = np.random.default_rng(2024)
    attacks, labels, outputs = [], [], []
    for _ in range(DRAWS):
        attack, _, support, target, label = draw_scenario(cfg, rng)
        attacks.append(attack)
        labels.append(label)
        outputs.append(draw_outputs(cfg, support, target, label, int(rng.integers(2**63))))
    result = decode_block(np.array(outputs), cfg)
    assert not result.degenerate.any()
    return np.array(attacks), np.array(labels), result


def chi2_critical(df):
    """The chi-square quantile with ``df`` degrees of freedom that is
    exceeded with probability 1e-4 (Wilson-Hilferty approximation)."""
    return df * (1 - 2 / (9 * df) + 3.719 * math.sqrt(2 / (9 * df))) ** 3


def assert_binned_calibration(prob, truth):
    """Posteriors ``prob`` of the events ``truth`` fall into BINS bins; in a
    bin the true events are a sum of independent Bernoulli(p) draws, so
    their standardized excess over the summed posterior, squared and summed
    over the bins, is chi-square.  Bins whose variance is under 5 are too
    thin for the normal approximation and are left out."""
    bins = np.minimum((prob * BINS).astype(int), BINS - 1)
    terms = []
    for b in range(BINS):
        p, hit = prob[bins == b], truth[bins == b]
        var = float((p * (1 - p)).sum())
        if var >= 5:
            terms.append((hit.sum() - p.sum()) ** 2 / var)
    assert len(terms) >= 5
    assert sum(terms) < chi2_critical(len(terms)), terms


def test_attack_posterior_is_calibrated(draws):
    attacks, _, result = draws
    assert_binned_calibration(result.attack_posterior, attacks)


def test_label_posterior_is_calibrated(draws):
    _, labels, result = draws
    classes = np.arange(result.label_posterior.shape[1])
    assert_binned_calibration(
        result.label_posterior.ravel(), (labels[:, None] == classes).ravel()
    )


def test_true_label_ranks_uniformly_among_posterior_draws(draws):
    _, labels, result = draws
    rng = np.random.default_rng(7)
    post = result.label_posterior
    cdf = np.cumsum(post, axis=1)
    cdf[:, -1] = 1.0
    sampled = (rng.random((len(post), RANKS, 1)) >= cdf[:, None, :]).sum(axis=2)
    below = (sampled < labels[:, None]).sum(axis=1)
    ties = (sampled == labels[:, None]).sum(axis=1)
    # A tie ranks the true label at a uniform place among its equals.
    ranks = below + (rng.random(len(post)) * (ties + 1)).astype(int)
    counts = np.bincount(ranks, minlength=RANKS + 1)
    expected = len(post) / (RANKS + 1)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < chi2_critical(RANKS), counts
