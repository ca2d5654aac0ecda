"""Monte-Carlo evaluation of codes against synthetic model ensembles.

Instead of training real models, each ensemble member gets a synthetic
confusion matrix derived from how much data it sees per class: per-user
class distributions are drawn from a symmetric Dirichlet (small
concentration = strongly non-IID users), and a model's per-class accuracy
grows with its per-class training mass through a saturating curve.  Ensemble
outputs are then sampled from exactly the generative model the decoder
assumes, so decoder performance isolates the code's contribution.

The evaluated code is the one the ``DecoderConfig`` was built for, and
outputs are drawn from that config's confusion stack, so a simulation
samples and decodes under one model.  ``run_trials`` evaluates one attacker
count, as the paper judges a code against a given number of attackers;
``sweep`` repeats it over counts and runs.  All sampling is deterministic
given seeds; each trial draws from its own stream, the one
``np.random.default_rng([seed, trial index])`` gives, so results do not
depend on execution order and parallel sweeps reproduce serial ones bit for
bit.  ``sweep`` runs all of its (count, run) tasks through one batched
pass, and ``run_trials`` is its one-task case: a chunk of trials, which may
span tasks, has its streams seeded and stepped and the draws ``choice``,
``integers`` and ``random`` make from them parsed at once (``_streams``,
or numpy's ``Generator``), and its outputs sampled; each distinct output
vector among a span of trials is decoded once, in blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import _streams
from .bitmatrix import BitMatrix, column_or_mask
from .decoder import BLOCK_ENTRIES, DecoderConfig, decode_block, majority_votes
from .errors import ResourceLimitError
# The one-vector forms stay importable here: bench/tracing.py wraps them by
# these names.
from .decoder import decode, majority_vote  # noqa: F401

# Generator.choice's tolerance on a probability row's sum.
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)

# Trials per run: a trial index is one 32-bit word of its stream's entropy.
MAX_TRIALS = 2**32


def dirichlet_profiles(
    alpha: float, n_users: int, num_classes: int, seed: int
) -> np.ndarray:
    """Per-user class-mass profiles, one row per user, each summing to 1.

    Rows are i.i.d. symmetric Dirichlet(alpha) draws, sampled as normalized
    independent Gamma(alpha, 1) variables (fixing the sampling identity pins
    the stream for reproducibility).  Small alpha concentrates each user on
    few classes.
    """
    if not 0.0 < alpha < math.inf:  # also refuses NaN
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if n_users < 1 or num_classes < 1:
        raise ValueError("need at least one user and one class")
    rng = np.random.default_rng(seed)
    raw = rng.gamma(alpha, 1.0, size=(n_users, num_classes))
    totals = raw.sum(axis=1, keepdims=True)
    uniform = np.full(num_classes, 1.0 / num_classes)
    return np.where(totals > 0, raw / np.where(totals > 0, totals, 1.0), uniform)


def uniform_profile(n_users: int, num_classes: int) -> np.ndarray:
    """Exactly IID profile: every user holds 1/c mass per class."""
    if n_users < 1 or num_classes < 1:
        raise ValueError("need at least one user and one class")
    return np.full((n_users, num_classes), 1.0 / num_classes)


def synth_confusion(
    code: BitMatrix,
    profile: np.ndarray,
    a_max: float = 0.99,
    kappa: float = 0.05,
) -> np.ndarray:
    """Synthetic confusion matrices standing in for trained models.

    Model i sees class-j mass d = sum of profile rows of its users; its
    diagonal accuracy is a_max * d / (d + kappa) (more data, better
    accuracy, saturating at a_max), with the remaining mass spread uniformly
    over the other classes.  A class the model never sees is classified
    uniformly among the rest.
    """
    profile = np.asarray(profile, dtype=float)
    if profile.ndim != 2 or profile.shape[0] != code.n:
        raise ValueError(f"profile must have {code.n} rows (one per user)")
    if np.any(profile < 0):
        raise ValueError("profile masses must be nonnegative")
    if not 0.0 < a_max <= 1.0:
        raise ValueError("a_max must lie in (0, 1]")
    if not 0.0 < kappa < math.inf:  # also refuses NaN
        raise ValueError(f"kappa must be positive and finite, got {kappa}")
    c = profile.shape[1]
    mass = code.to_array().astype(float) @ profile  # (m, c)
    acc = a_max * mass / (mass + kappa)
    out = np.empty((code.m, c, c))
    if c == 1:
        out[:] = 1.0
        return out
    off = (1.0 - acc) / (c - 1)  # (m, c)
    out[:] = off[:, :, None]
    rows = np.arange(c)
    out[:, rows, rows] = acc
    return out


@dataclass(frozen=True)
class Scenario:
    """Ground truth for one simulated inference.

    ``attackers`` is a 0/1 indicator over users.  When anyone attacks, the
    target must differ from the true label (a target equal to the truth
    would make the attack a no-op and silently inflate accuracy).
    """

    attackers: tuple[int, ...]
    target: int
    true_label: int

    def __post_init__(self) -> None:
        if any(b not in (0, 1) for b in self.attackers):
            raise ValueError("attacker indicator must be 0/1")
        if self.target < 0 or self.true_label < 0:
            raise ValueError("target and true label must be class indices")
        if any(self.attackers) and self.target == self.true_label:
            raise ValueError("an active attack needs target != true label")

    @classmethod
    def from_support(
        cls, n_users: int, support: Sequence[int], target: int, true_label: int
    ) -> "Scenario":
        flags = [0] * n_users
        for j in support:
            if not 0 <= j < n_users:
                raise ValueError(f"attacker {j} outside the users [0, {n_users})")
            flags[j] = 1
        return cls(tuple(flags), target, true_label)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(j for j, b in enumerate(self.attackers) if b)


def _choice_cdfs(confusions: np.ndarray) -> np.ndarray:
    """CDF of every row of an (m, c, c) confusion stack, as
    ``Generator.choice(c, p=row)`` computes it: cumulative sums divided by
    the last one.  Refuses, with ``ValueError``, every row choice refuses."""
    if confusions.ndim != 3 or confusions.shape[1] != confusions.shape[2]:
        raise ValueError(f"confusions must be an (m, c, c) stack, got shape {confusions.shape}")
    sums = confusions.sum(axis=2)
    if np.isnan(sums).any():
        raise ValueError("confusion probabilities contain NaN")
    if (confusions < 0).any():
        raise ValueError("confusion probabilities must be nonnegative")
    if (np.abs(sums - 1.0) > _CHOICE_ATOL).any():
        raise ValueError("every confusion row must sum to 1")
    cdfs = confusions.cumsum(axis=2)
    cdfs /= cdfs[:, :, -1:]
    return cdfs


def _sample_block(
    compromised: np.ndarray,
    targets: np.ndarray,
    labels: np.ndarray,
    cdfs: np.ndarray,
    success_rate: float,
    draws: np.ndarray,
) -> np.ndarray:
    """Output vectors of a block of trials, one row each; the models
    flagged in a row of the (T, m) ``compromised`` are compromised.

    Row b reads the doubles of ``draws[b]`` in order, model by model, as one
    ``rng.random()`` per draw would: a compromised model reads one and emits
    the target if it is below ``success_rate``; otherwise the model reads
    one more, its clean draw, which maps through its CDF row for the true
    label to what ``rng.choice(c, p=row)`` draws (counting the CDF entries
    <= u).  A row holds 2m doubles, enough for every model's two draws;
    the ones past those it reads are never used, and a trial draws nothing
    after them.
    """
    rows, m = compromised.shape
    flat = draws.ravel()
    # Each row's read pointer at model i's clean draw, in ``flat``, had no
    # earlier attack succeeded: one draw per earlier model, one success draw
    # per compromised model up to i.  Every success before i moves it back
    # by one, and a compromised model's success draw sits just before it.
    clean_at = (np.arange(0, flat.size, draws.shape[1])[:, None] + np.arange(m)
                + np.cumsum(compromised, axis=1))
    hit = np.zeros((rows, m), dtype=bool)
    hits = np.zeros(rows, dtype=np.intp)
    for i in np.flatnonzero(compromised.any(axis=0)):
        # Rows that do not flag model i read some double and ignore it.
        success = flat[clean_at[:, i] - hits - 1] < success_rate
        hit[:, i] = compromised[:, i] & success
        hits += hit[:, i]
    u = flat[clean_at - np.cumsum(hit, axis=1)]
    clean = (cdfs[np.arange(m), labels[:, None]] <= u[:, :, None]).sum(axis=2)
    return np.where(hit, targets[:, None], clean)


def sample_outputs(
    code: BitMatrix,
    scenario: Scenario,
    confusions: np.ndarray,
    success_rate: float,
    seed: int,
) -> np.ndarray:
    """Draw one ensemble output vector from the decoder's generative model.

    A model is compromised iff it trains on any attacker; a compromised
    model emits the target with probability ``success_rate`` and otherwise
    (like every clean model) draws from its confusion row for the true
    label.  Models are independent; the draws come from
    ``np.random.default_rng(seed)`` and are those of one
    ``Generator.choice`` per clean model.  This is the block sampler of
    ``run_trials`` on one row; ``run_trials`` seeds each trial's stream,
    ``default_rng([seed, t])``, in one pass that gives the same states.  A
    confusion row that ``choice`` would refuse raises ``ValueError``, and so
    does a target or true label outside the stack's classes.
    """
    confusions = np.asarray(confusions, dtype=float)
    if len(scenario.attackers) != code.n:
        raise ValueError(f"scenario covers {len(scenario.attackers)} users, code has {code.n}")
    if confusions.shape[0] != code.m:
        raise ValueError(f"need one confusion matrix per model ({code.m})")
    if not 0.0 <= success_rate <= 1.0:
        raise ValueError("success rate must lie in [0, 1]")
    cdfs = _choice_cdfs(confusions)
    classes = cdfs.shape[1]
    if scenario.target >= classes or scenario.true_label >= classes:
        raise ValueError(f"target and true label must be classes in [0, {classes})")
    mask = column_or_mask(code, scenario.support) if scenario.support else 0
    compromised = np.array([mask >> i & 1 for i in range(code.m)], dtype=bool)
    draws = np.random.default_rng(seed).random(2 * code.m)
    return _sample_block(
        compromised[None],
        np.array([scenario.target]),
        np.array([scenario.true_label]),
        cdfs,
        success_rate,
        draws[None],
    )[0]


@dataclass(frozen=True)
class CountStats:
    """Aggregate statistics over the Monte-Carlo trials of one attacker
    count.

    True/false positives count decoded attackers inside/outside the planted
    set; means and standard deviations are per-trial population statistics.
    Degenerate-evidence decodes are counted, scored as failures, and never
    fatal.
    """

    trials: int
    decode_accuracy: float
    majority_accuracy: float
    tp_mean: float
    tp_sd: float
    fp_mean: float
    fp_sd: float
    degenerate: int


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy int; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _checked_count(cfg: DecoderConfig, count: int) -> int:
    """``count`` as an int, refused unless it is an int key of
    ``cfg.count_prior`` (a float such as 1.7 is never truncated)."""
    if not _is_int(count) or count not in cfg.count_prior:
        raise ValueError(f"attacker count {count!r} must be an int key of the decoder count prior")
    return int(count)


def _check_trials(trials: int) -> None:
    if not _is_int(trials):
        raise ValueError(f"trials must be an int, got {trials!r}")
    if trials < 1:
        raise ValueError("need at least one trial")
    if trials > MAX_TRIALS:
        raise ResourceLimitError(
            f"{trials} trials exceed the {MAX_TRIALS} trial streams a run seeds"
        )


def run_trials(
    cfg: DecoderConfig,
    attacker_count: int,
    trials: int,
    seed: int,
) -> CountStats:
    """Sample ``trials`` scenarios with ``attacker_count`` attackers on
    ``cfg.code``, decode them, and aggregate accuracy / tracking stats.

    The count must be a key of ``cfg.count_prior``.  Per trial: the support
    is drawn uniformly among subsets of that size, the true label
    uniformly, and the target uniformly among the other classes; outputs
    are sampled from the generative model and decoded.  Each trial uses the
    stream ``np.random.default_rng([seed, trial index])`` gives and draws
    what ``choice(n, k, replace=False)`` (skipped for zero attackers),
    ``integers(c)`` (the label), ``integers(c - 1)`` (the target) and
    ``random(2m)`` (the output doubles) draw from it, in that order.  This
    is the one-task case of the batched pass ``sweep`` runs
    (``_run_tasks``).  A trial count that is not an int, a bool included,
    is refused with ``ValueError``, and more than ``MAX_TRIALS`` trials
    raise ``ResourceLimitError``.
    """
    attacker_count = _checked_count(cfg, attacker_count)
    _check_trials(trials)
    *stats, degenerate = _run_tasks(cfg, trials, [(attacker_count, seed)])[:, 0].tolist()
    return CountStats(trials, *stats, int(degenerate))


def _run_tasks(cfg: DecoderConfig, trials: int, tasks: Sequence[tuple[int, int]]) -> np.ndarray:
    """The statistics ``run_trials(cfg, count, trials, seed)`` reports for
    every (count, seed) in ``tasks``, one column each (``_task_stats``), in
    one pass over their trials laid end to end.

    A chunk of trials, as many as keep the stream kernel's arrays, their
    supports' models and their CDF comparisons within
    ``decoder.BLOCK_ENTRIES`` entries, has its streams seeded and their
    first outputs computed in one numpy pass each, has its draws parsed
    at once (``_streams.trial_draws``) and is sampled at once
    (``_sample_block``).
    The trials sampled before a decode, a span, which may hold trials of
    several tasks, have each of their distinct output vectors decoded once,
    in blocks of ``cfg.block_rows`` rows; every trial takes its vector's
    decoded label, attackers and degenerate flag, and its majority vote and
    true and false positives are counted per trial.  A task's statistics
    are taken as soon as its last trial is decoded.  None of this changes a
    reported number: every trial draws and every row decodes exactly as it
    would alone, and each task's statistics reduce the same values in the
    same order.
    """
    c = cfg.num_classes
    if c < 2:
        raise ValueError("attack simulation needs at least two classes")
    code = cfg.code
    n, m = code.n, code.m
    # (n + 1, m): the last row, user -1, which pads supports, trains no model.
    models_of_user = np.vstack([code.to_array().T.astype(bool), np.zeros(m, bool)])
    cdfs = _choice_cdfs(cfg.confusions)
    counts = np.array([count for count, _ in tasks])
    entropy = _streams.seed_entropy([seed for _, seed in tasks])
    width = counts.max()
    length = _streams.trial_length(n, counts, c, m)
    # Trials parsed and sampled at once: the stream kernel's (trials,
    # length) uint64 arrays, up to seven at a time, the supports' models
    # and the CDF comparisons each fit in BLOCK_ENTRIES entries.
    chunk = max(1, BLOCK_ENTRIES // max(7 * length, width * m, m * c))
    rows = cfg.block_rows
    # Trials sampled before they are decoded: as many whole decode blocks
    # as a chunk holds, or one block sampled in several chunks.
    span = rows * max(1, chunk // rows)

    def sample(start: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        owner, t = np.divmod(np.arange(start, stop), trials)
        words = _streams.seed_words(entropy, owner, t.astype(np.uint32))
        raw = _streams.pcg64_raw(words, length)
        cols, labels, targets, draws = _streams.trial_draws(words, raw, n, counts[owner], c, m)
        attacks = np.arange(width) < counts[owner][:, None]
        users = np.full((stop - start, width), -1)
        users[attacks] = cols
        # Reduced over the leading axis, where numpy's reduction is fastest.
        compromised = models_of_user[users.T].any(axis=0)
        targets += targets >= labels
        y = _sample_block(compromised, targets, labels, cdfs, cfg.success_rate, draws)
        return users, labels, y

    total = len(tasks) * trials
    stats, pending, held = [], [], 0
    for first in range(0, total, span):
        last = min(first + span, total)
        parts = [sample(s, min(s + chunk, last)) for s in range(first, last, chunk)]
        planted, labels, y = (np.concatenate(part) for part in zip(*parts))
        # Each distinct output vector of the span is decoded once: sorted,
        # equal rows are neighbours, and ``inverse`` maps every trial to its
        # vector's place among the distinct rows.
        order = np.lexsort(y.T)
        ys = y[order]
        first_of = np.concatenate([[True], (ys[1:] != ys[:-1]).any(axis=1)])
        inverse = np.empty_like(order)
        inverse[order] = first_of.cumsum() - 1
        distinct = ys[first_of]
        results = [decode_block(distinct[start:start + rows], cfg)
                   for start in range(0, len(distinct), rows)]
        decoded, reported, degenerate = (
            np.concatenate([getattr(r, name) for r in results])[inverse]
            for name in ("decoded_label", "decoded_attackers", "degenerate"))
        # A row reports and plants distinct users, so a user on both sides is
        # a pair of equal neighbours once sorted; so is a pair of pads, -1.
        both = np.hstack([reported, planted])
        both.sort(axis=1)
        tp = ((both[:, 1:] == both[:, :-1]) & (both[:, 1:] >= 0)).sum(axis=1)
        # Per trial: decoded right, majority right, true and false
        # positives, and degenerate.
        outcomes = np.array((~degenerate & (decoded == labels),
                             majority_votes(y, c) == labels,
                             tp, (reported >= 0).sum(axis=1) - tp, degenerate), dtype=np.int32)
        pending.append(outcomes)
        held += last - first
        if held >= trials:
            outcomes = np.concatenate(pending, axis=1)
            done = held - held % trials
            stats.append(_task_stats(outcomes[:, :done].reshape(5, -1, trials)))
            pending, held = [outcomes[:, done:]], held - done
    return np.concatenate(stats, axis=1)


def _task_stats(outcomes: np.ndarray) -> np.ndarray:
    """The (7, tasks) ``CountStats`` fields but ``trials`` of each task from
    its (5, tasks, trials) outcomes; a row reduces as its trials alone would."""
    means = outcomes.mean(axis=2)
    sds = outcomes[2:4].std(axis=2)
    return np.stack([means[0], means[1], means[2], sds[0], means[3], sds[1],
                     outcomes[4].sum(axis=1)])


@dataclass(frozen=True)
class SweepPoint:
    """One attacker count evaluated over repeated runs.

    Means are averages of per-run means; standard deviations are population
    deviations across the run means (run-to-run variability).
    """

    attacker_count: int
    runs: int
    trials_per_run: int
    decode_acc_mean: float
    decode_acc_sd: float
    majority_acc_mean: float
    majority_acc_sd: float
    tp_mean: float
    tp_sd: float
    fp_mean: float
    fp_sd: float
    degenerate: int


def sweep(
    cfg: DecoderConfig,
    attacker_counts: Sequence[int],
    trials: int,
    runs: int,
    seed: int,
    workers: int = 1,
) -> list[SweepPoint]:
    """Evaluate each attacker count over ``runs`` repeated runs of
    ``run_trials`` on ``cfg.code``.

    Run seeds derive deterministically from ``seed``.  Every (count, run)
    task goes through one batched pass (``_run_tasks``), or, with more than
    one worker, the tasks are dealt out to a process pool of up to
    ``workers`` processes, at most one per task, each of which runs its
    share in one pass and builds the config once.  Neither changes any
    reported number.  An empty count list, a run count that is not an int
    or is below one, fewer than one worker and a trial count
    ``run_trials`` refuses are refused before any task runs.
    """
    if not _is_int(runs):
        raise ValueError(f"runs must be an int, got {runs!r}")
    if runs < 1:
        raise ValueError("need at least one run")
    _check_trials(trials)
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    if len(attacker_counts) == 0:
        raise ValueError("need at least one attacker count")
    counts = [_checked_count(cfg, c) for c in attacker_counts]
    rng = np.random.default_rng(seed)
    run_seeds = rng.integers(0, 2**63, size=(len(counts), runs))
    tasks = [(count, run_seed) for count, row in zip(counts, run_seeds.tolist()) for run_seed in row]
    workers = min(workers, len(tasks))
    if workers > 1:
        # Imported here, or every `import bcode` would load the pool stack
        # (multiprocessing, subprocess, socket, logging).  Worker w takes
        # every workers-th task, which spreads each count's runs evenly.
        from concurrent.futures import ProcessPoolExecutor

        stats = np.empty((7, len(tasks)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shares = pool.map(partial(_run_tasks, cfg, trials),
                              [tasks[w::workers] for w in range(workers)])
            for w, share in enumerate(shares):
                stats[:, w::workers] = share
    else:
        stats = _run_tasks(cfg, trials, tasks)

    # A C-ordered (statistic, count, run) array: each row is contiguous, so
    # it reduces as the count's runs alone would.
    stats = stats.reshape(7, len(counts), runs)[[0, 1, 2, 4, 6]]
    means, sds = stats[:4].mean(axis=2), stats[:4].std(axis=2)
    return [
        SweepPoint(count, runs, trials, dec, dec_sd, maj, maj_sd, tp, tp_sd, fp, fp_sd, deg)
        for count, (dec, maj, tp, fp), (dec_sd, maj_sd, tp_sd, fp_sd), deg in zip(
            counts, means.T.tolist(), sds.T.tolist(), stats[4].sum(axis=1).astype(int).tolist())
    ]
