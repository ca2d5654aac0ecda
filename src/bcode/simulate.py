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
bit.  ``run_trials`` seeds those streams, steps them and makes the draws
``choice``, ``integers`` and ``random`` make from them for a chunk of trials
at once in numpy (``_streams``), and samples the chunk's outputs together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _checked_count(cfg: DecoderConfig, count: int) -> int:
    """``count`` as an int, refused unless it is an int key of
    ``cfg.count_prior`` (a float such as 1.7 is never truncated)."""
    if not isinstance(count, (int, np.integer)) or count not in cfg.count_prior:
        raise ValueError(f"attacker count {count!r} must be an int key of the decoder count prior")
    return int(count)


def _check_trials(trials: int) -> None:
    if not isinstance(trials, (int, np.integer)):
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
    ``random(2m)`` (the output doubles) draw from it, in that order.  The
    streams are seeded in one pass; a chunk of trials, as many as keep its
    raw outputs, its supports' models and its CDF comparisons within
    ``decoder.BLOCK_ENTRIES`` entries, has its streams' first outputs
    computed in one numpy pass and is parsed and sampled at once
    (``_streams.trial_draws``, ``_streams.supports``,
    ``_sample_block``), and outputs are decoded in blocks of
    ``cfg.block_rows`` trials.  None of this changes a reported number:
    every trial draws and every row decodes exactly as it would alone.
    A trial count that is not an int is refused with ``ValueError``, and
    more than ``MAX_TRIALS`` trials raise ``ResourceLimitError``.
    """
    attacker_count = _checked_count(cfg, attacker_count)
    _check_trials(trials)
    c = cfg.num_classes
    if c < 2:
        raise ValueError("attack simulation needs at least two classes")

    code = cfg.code
    n, m, k = code.n, code.m, attacker_count
    models_of_user = code.to_array().T.astype(bool)  # (n, m)
    cdfs = _choice_cdfs(cfg.confusions)
    # Each user of group g's reported support as the key g * n + user,
    # sorted, and a last key above every other; a row reported as group -1
    # asks for negative keys, none of which is there, and its size is the
    # last one, 0.
    firsts = cfg._group_first
    keys = np.array(sorted(g * n + j for g, first in enumerate(firsts) for j in first)
                    + [len(firsts) * n])
    sizes = np.array([len(first) for first in firsts] + [0])
    words = _streams.seed_words(seed, np.arange(trials, dtype=np.uint32))
    ranges, tail = _streams.trial_ranges(n, k, c)
    label_at = len(ranges) - 1 - (c > 2)
    # Raw outputs read per trial: its tokens, two spare ones for rejected
    # tokens, and 2m doubles.
    length = (len(ranges) + 3) // 2 + 2 * m
    # Trials parsed and sampled at once: their tokens, supports' models and
    # CDF comparisons each fit in BLOCK_ENTRIES entries.
    chunk = max(1, BLOCK_ENTRIES // max(2 * length, k * m, m * c))
    rows = cfg.block_rows
    # Trials sampled before they are decoded: as many whole decode blocks
    # as a chunk holds, or one block sampled in several chunks.
    span = rows * max(1, chunk // rows)
    decode_ok = np.zeros(trials, dtype=bool)
    majority_ok = np.zeros(trials, dtype=bool)
    tp = np.zeros(trials)
    fp = np.zeros(trials)
    degenerate = np.zeros(trials, dtype=bool)

    def sample(sel: slice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        values, draws = _streams.trial_draws(words[sel], ranges, length, m)
        supports = _streams.supports(values, n, k, tail)
        labels = values[:, label_at]
        targets = values[:, -1] if c > 2 else np.zeros_like(labels)
        targets = targets + (targets >= labels)
        compromised = models_of_user[supports].any(axis=1)
        y = _sample_block(compromised, targets, labels, cdfs, cfg.success_rate, draws)
        return supports, labels, y

    for first in range(0, trials, span):
        last = min(first + span, trials)
        parts = [sample(slice(s, min(s + chunk, last))) for s in range(first, last, chunk)]
        supports, labels, y = (np.concatenate(part) for part in zip(*parts))
        for start in range(first, last, rows):
            sel = slice(start, min(start + rows, last))
            at = slice(start - first, sel.stop - first)
            result = decode_block(y[at], cfg)
            majority_ok[sel] = majority_votes(y[at], c) == labels[at]
            degenerate[sel] = result.degenerate
            decode_ok[sel] = ~result.degenerate & (result.decoded_label == labels[at])
            asked = result.group[:, None] * n + supports[at]
            tp[sel] = (keys[np.searchsorted(keys, asked)] == asked).sum(axis=1)
            fp[sel] = sizes[result.group] - tp[sel]

    return CountStats(
        trials=trials,
        decode_accuracy=float(decode_ok.mean()),
        majority_accuracy=float(majority_ok.mean()),
        tp_mean=float(tp.mean()),
        tp_sd=float(np.std(tp)),
        fp_mean=float(fp.mean()),
        fp_sd=float(np.std(fp)),
        degenerate=int(degenerate.sum()),
    )


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


def _sweep_task(args) -> CountStats:
    return run_trials(*args)


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

    Run seeds derive deterministically from ``seed``; tasks are independent
    and may execute in a process pool of up to ``workers`` processes, at most
    one per task, without changing any reported number.  An empty count
    list, a run count that is not an int or is below one, fewer than one
    worker and a trial count ``run_trials`` refuses are refused before any
    task runs.
    """
    if not isinstance(runs, (int, np.integer)):
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
    tasks = [
        (cfg, count, trials, int(run_seeds[ci, run]))
        for ci, count in enumerate(counts)
        for run in range(runs)
    ]
    if workers > 1 and len(tasks) > 1:
        # Imported here, or every `import bcode` would load the pool stack
        # (multiprocessing, subprocess, socket, logging).  The pool forks all
        # its workers at the first submit, so start no more than there are
        # tasks.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            reports = list(pool.map(_sweep_task, tasks))
    else:
        reports = [_sweep_task(t) for t in tasks]

    points = []
    for ci, count in enumerate(counts):
        chunk = reports[ci * runs : (ci + 1) * runs]
        dec = np.array([r.decode_accuracy for r in chunk])
        maj = np.array([r.majority_accuracy for r in chunk])
        tpm = np.array([r.tp_mean for r in chunk])
        fpm = np.array([r.fp_mean for r in chunk])
        points.append(
            SweepPoint(
                attacker_count=count,
                runs=runs,
                trials_per_run=trials,
                decode_acc_mean=float(dec.mean()),
                decode_acc_sd=float(np.std(dec)),
                majority_acc_mean=float(maj.mean()),
                majority_acc_sd=float(np.std(maj)),
                tp_mean=float(tpm.mean()),
                tp_sd=float(np.std(tpm)),
                fp_mean=float(fpm.mean()),
                fp_sd=float(np.std(fpm)),
                degenerate=sum(r.degenerate for r in chunk),
            )
        )
    return points
