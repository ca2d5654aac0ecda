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
given seeds; each trial derives its own stream from (seed, trial index), so
results do not depend on execution order and parallel sweeps reproduce
serial ones bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bitmatrix import BitMatrix, column_or_mask
from .decoder import DecoderConfig, decode_block, majority_votes
# The one-vector forms stay importable here: bench/tracing.py wraps them by
# these names.
from .decoder import decode, majority_vote  # noqa: F401

# Generator.choice's tolerance on a probability row's sum.
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


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


def _sample(
    mask: int,
    target: int,
    true_label: int,
    cdfs: np.ndarray,
    success_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One output vector; the models in ``mask`` are compromised.

    Draws exactly what one ``rng.choice(c, p=row)`` per clean draw would:
    one ``rng.random()`` mapped through the row's CDF (``searchsorted``
    with side="right" on a nondecreasing CDF counts the entries <= u).
    """
    m = cdfs.shape[0]
    y = np.full(m, target)
    clean: list[int] = []
    draws: list[float] = []
    for i in range(m):
        if (mask >> i) & 1 and rng.random() < success_rate:
            continue
        clean.append(i)
        draws.append(rng.random())
    y[clean] = (cdfs[clean, true_label] <= np.array(draws)[:, None]).sum(axis=1)
    return y


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
    label.  Models are independent; deterministic given the seed.  The
    draws are those of one ``Generator.choice`` per clean model, and a
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
    support = scenario.support
    mask = column_or_mask(code, support) if support else 0
    return _sample(
        mask,
        scenario.target,
        scenario.true_label,
        cdfs,
        success_rate,
        np.random.default_rng(seed),
    )


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
    stream derived from (seed, trial index).  Outputs are decoded in blocks
    of ``cfg.block_rows`` trials, which changes no reported number: every
    row decodes exactly as it would alone.
    """
    attacker_count = _checked_count(cfg, attacker_count)
    if trials < 1:
        raise ValueError("need at least one trial")
    c = cfg.num_classes
    if c < 2:
        raise ValueError("attack simulation needs at least two classes")

    code = cfg.code
    n, m = code.n, code.m
    masks = code.column_masks
    cdfs = _choice_cdfs(cfg.confusions)
    rows = cfg.block_rows
    label_arr = np.empty(trials, dtype=int)
    decode_ok = np.zeros(trials, dtype=bool)
    majority_ok = np.zeros(trials, dtype=bool)
    tp = np.zeros(trials)
    fp = np.zeros(trials)
    degenerate = np.zeros(trials, dtype=bool)

    for start in range(0, trials, rows):
        block = range(start, min(start + rows, trials))
        y = np.empty((len(block), m), dtype=int)
        supports = []
        for b, t in enumerate(block):
            rng = np.random.default_rng([seed, t])
            support = sorted(int(j) for j in rng.choice(n, size=attacker_count, replace=False))
            label = int(rng.integers(c))
            target = int(rng.integers(c - 1))
            if target >= label:
                target += 1
            mask = 0
            for j in support:
                mask |= masks[j]
            y[b] = _sample(mask, target, label, cdfs, cfg.success_rate, rng)
            label_arr[t] = label
            supports.append(set(support))

        sel = slice(block.start, block.stop)
        result = decode_block(y, cfg)
        majority_ok[sel] = majority_votes(y, c) == label_arr[sel]
        degenerate[sel] = result.degenerate
        decode_ok[sel] = ~result.degenerate & (result.decoded_label == label_arr[sel])
        for t, support, found in zip(block, supports, result.decoded_attackers):
            tp[t] = len(support.intersection(found))
            fp[t] = len(found) - tp[t]

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
    list, fewer than one run or fewer than one worker is refused before any
    task runs.
    """
    if runs < 1:
        raise ValueError("need at least one run")
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
