import ast
import concurrent.futures
import math
import pickle
import tracemalloc
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bcode import _streams, decoder, simulate
from bcode.bitmatrix import BitMatrix
from bcode.construct import btc, general_bcc, partition_code
from bcode.decoder import (
    BLOCK_ENTRIES,
    DecoderConfig,
    decode,
    decode_block,
    identity_confusions,
    majority_vote,
    uniform_count_prior,
)
from bcode.errors import DegenerateEvidenceError, ResourceLimitError
from bcode.simulate import (
    CountStats,
    Scenario,
    dirichlet_profiles,
    run_trials,
    sample_outputs,
    sweep,
    synth_confusion,
    uniform_profile,
)

import oracles

THREE_MODEL_CODE = BitMatrix.from_rows([[1, 0], [0, 1], [1, 1]])


# --- class profiles ------------------------------------------------------------

def test_dirichlet_profiles_shape_and_row_sums():
    prof = dirichlet_profiles(0.5, 12, 10, seed=4)
    assert prof.shape == (12, 10)
    assert np.allclose(prof.sum(axis=1), 1.0)
    assert (prof >= 0).all()


def test_dirichlet_profiles_are_deterministic_per_seed():
    a = dirichlet_profiles(0.1, 6, 5, seed=1)
    b = dirichlet_profiles(0.1, 6, 5, seed=1)
    c = dirichlet_profiles(0.1, 6, 5, seed=2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_large_alpha_approaches_uniform_shares():
    prof = dirichlet_profiles(1e6, 8, 4, seed=0)
    assert np.allclose(prof, 0.25, atol=0.01)


def test_small_alpha_concentrates_mass():
    skewed = dirichlet_profiles(0.1, 50, 10, seed=0).max(axis=1).mean()
    spread = dirichlet_profiles(10.0, 50, 10, seed=0).max(axis=1).mean()
    assert skewed > spread + 0.2


def test_single_user_single_class():
    assert np.array_equal(dirichlet_profiles(0.1, 1, 1, seed=0), [[1.0]])


def test_profile_validation():
    with pytest.raises(ValueError):
        dirichlet_profiles(0.0, 2, 2, seed=0)
    with pytest.raises(ValueError):
        uniform_profile(0, 2)


# --- synthetic confusions ---------------------------------------------------------

def test_synth_confusion_rows_are_stochastic():
    code = general_bcc(2, 4, 8)
    conf = synth_confusion(code, uniform_profile(8, 10))
    assert conf.shape == (code.m, 10, 10)
    assert np.allclose(conf.sum(axis=2), 1.0)


def test_synth_confusion_saturates_with_mass():
    code = BitMatrix.from_rows([[1] * 12])  # one model on all users
    conf = synth_confusion(code, uniform_profile(12, 3))
    # per-class mass 4.0 >> kappa, so the diagonal approaches the ceiling
    assert np.all(np.diag(conf[0]) > 0.97)


def test_synth_confusion_zero_mass_class_is_uniform_elsewhere():
    profile = np.array([[1.0, 0.0], [1.0, 0.0]])
    code = BitMatrix.from_rows([[1, 1]])
    conf = synth_confusion(code, profile)
    assert conf[0, 1, 0] == pytest.approx(1.0)  # class 1 never seen
    assert conf[0, 1, 1] == pytest.approx(0.0)


def test_synth_confusion_monotone_in_user_supersets():
    profile = dirichlet_profiles(0.3, 6, 4, seed=8)
    small = BitMatrix.from_rows([[1, 1, 0, 0, 0, 0]])
    large = BitMatrix.from_rows([[1, 1, 1, 0, 0, 1]])
    diag_small = np.diag(synth_confusion(small, profile)[0])
    diag_large = np.diag(synth_confusion(large, profile)[0])
    assert np.all(diag_large >= diag_small)


def test_synth_confusion_single_class():
    code = BitMatrix.from_rows([[1, 1]])
    conf = synth_confusion(code, uniform_profile(2, 1))
    assert conf.shape == (1, 1, 1) and conf[0, 0, 0] == 1.0


# --- scenarios and sampling ----------------------------------------------------------

def test_scenario_validation():
    Scenario((0, 0), 1, 1)  # no attackers: target may equal the label
    with pytest.raises(ValueError):
        Scenario((1, 0), 1, 1)
    with pytest.raises(ValueError):
        Scenario((2, 0), 1, 0)
    sc = Scenario.from_support(4, [1, 3], 0, 2)
    assert sc.attackers == (0, 1, 0, 1) and sc.support == (1, 3)
    for outside in ([-1], [4]):
        with pytest.raises(ValueError, match=r"outside the users \[0, 4\)"):
            Scenario.from_support(4, outside, 1, 0)


def test_sample_outputs_worked_example():
    sc = Scenario.from_support(2, [0], 1, 0)
    y = sample_outputs(THREE_MODEL_CODE, sc, identity_confusions(3, 2), 1.0, seed=0)
    assert list(y) == [1, 0, 1]


def test_sample_outputs_clean_scenario_with_exact_models():
    sc = Scenario.from_support(2, [], 0, 1)
    y = sample_outputs(THREE_MODEL_CODE, sc, identity_confusions(3, 2), 1.0, seed=3)
    assert list(y) == [1, 1, 1]


def test_sample_outputs_failed_attacks_match_clean_distribution():
    # With success rate 0, output frequencies must match the no-attack ones.
    conf = np.array([[[0.7, 0.3], [0.2, 0.8]]] * 3)
    attacked = Scenario.from_support(2, [0], 1, 0)
    clean = Scenario.from_support(2, [], 1, 0)
    n = 20000
    counts_a = np.zeros(3)
    counts_c = np.zeros(3)
    for s in range(n):
        counts_a += sample_outputs(THREE_MODEL_CODE, attacked, conf, 0.0, seed=s)
        counts_c += sample_outputs(THREE_MODEL_CODE, clean, conf, 0.0, seed=n + s)
    se = math.sqrt(0.3 * 0.7 / n)
    assert np.all(np.abs(counts_a / n - 0.3) < 4 * se)
    assert np.all(np.abs(counts_a / n - counts_c / n) < 5 * se)


def test_sample_outputs_validation():
    sc = Scenario.from_support(3, [0], 1, 0)
    with pytest.raises(ValueError):
        sample_outputs(THREE_MODEL_CODE, sc, identity_confusions(3, 2), 1.0, seed=0)


@pytest.mark.parametrize("target,label", [(7, 0), (1, 9), (3, 0)])
def test_sample_outputs_refuses_classes_outside_the_stack(target, label):
    sc = Scenario.from_support(2, [0], target, label)
    with pytest.raises(ValueError, match=r"classes in \[0, 3\)"):
        sample_outputs(THREE_MODEL_CODE, sc, identity_confusions(3, 3), 1.0, seed=0)


@st.composite
def sampling_cases(draw):
    """A code, a scenario, a confusion stack with hard zeros and a success
    rate that is often exactly 0 or 1."""
    m, n, c = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(1, 4))
    bits = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    entry = st.just(0.0) | st.floats(0.0, 1.0) | st.just(1.0)
    weights = np.array(draw(st.lists(entry, min_size=m * c * c, max_size=m * c * c)))
    weights = weights.reshape(m, c, c)
    empty = weights.sum(axis=2) == 0.0
    weights[empty, draw(st.integers(0, c - 1))] = 1.0
    confusions = weights / weights.sum(axis=2, keepdims=True)
    support = sorted(draw(st.sets(st.integers(0, n - 1)))) if c > 1 else []
    label = draw(st.integers(0, c - 1))
    target = draw(st.integers(0, c - 1).filter(lambda t: not support or t != label))
    success_rate = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return bits, support, target, label, confusions, success_rate


@settings(max_examples=400, deadline=None)
@given(sampling_cases(), st.integers(0, 2**64 - 1))
def test_sampler_draws_what_per_model_choice_draws(case, seed):
    bits, support, target, label, confusions, success_rate = case
    code = BitMatrix.from_rows(bits)
    scenario = Scenario.from_support(code.n, support, target, label)
    got = sample_outputs(code, scenario, confusions, success_rate, seed)
    want = oracles.choice_sampled_outputs(bits, support, target, label, confusions.tolist(),
                                          success_rate, np.random.default_rng(seed))
    assert got.tolist() == want


@pytest.mark.parametrize(
    "row,accepted",
    [
        ([1.2, -0.2], False),
        ([math.nan, 1.0], False),
        ([0.5, 0.5 + 1e-7], False),  # sum off by more than sqrt(eps)
        ([0.5, 0.5 + 1e-9], True),
        ([0.0, 1.0], True),
    ],
)
def test_sampler_refuses_the_confusion_rows_choice_refuses(row, accepted):
    conf = identity_confusions(3, 2)
    conf[1, 0] = row
    bits = [[1, 0], [0, 1], [1, 1]]
    sc = Scenario.from_support(2, [], 1, 0)
    if accepted:
        want = oracles.choice_sampled_outputs(bits, [], 1, 0, conf.tolist(), 1.0,
                                              np.random.default_rng(5))
        assert sample_outputs(THREE_MODEL_CODE, sc, conf, 1.0, seed=5).tolist() == want
        return
    with pytest.raises(ValueError):
        oracles.choice_sampled_outputs(bits, [], 1, 0, conf.tolist(), 1.0, np.random.default_rng(5))
    with pytest.raises(ValueError):
        sample_outputs(THREE_MODEL_CODE, sc, conf, 1.0, seed=5)


@st.composite
def perturbed_stacks(draw):
    """A row-stochastic stack for THREE_MODEL_CODE with hard zeros, perturbed
    around the decoder's and the sampler's tolerances: each row moves a
    small mass from one entry to another (which can make a zero entry
    negative), and one row's sum is nudged."""
    c = draw(st.integers(2, 3))
    entry = st.just(0.0) | st.floats(0.0, 1.0) | st.just(1.0)
    weights = np.array(draw(st.lists(entry, min_size=3 * c * c, max_size=3 * c * c)))
    weights = weights.reshape(3, c, c)
    weights[weights.sum(axis=2) == 0.0, 0] = 1.0
    stack = weights / weights.sum(axis=2, keepdims=True)
    shift = st.sampled_from([0.0, 5e-10, 1e-9, 2e-9, 1e-8])
    index = st.integers(0, c - 1)
    for row in stack.reshape(3 * c, c):
        eps, src, dst = draw(shift), draw(index), draw(index)
        row[src] -= eps
        row[dst] += eps
    nudge = draw(st.sampled_from([0.0, 5e-10, -5e-10, 2e-9, -2e-9, 1e-8, -1e-8]))
    stack[draw(st.integers(0, 2)), draw(index), draw(index)] += nudge
    return stack


@settings(max_examples=300, deadline=None)
@given(perturbed_stacks())
def test_every_stack_the_decoder_accepts_can_be_simulated(confusions):
    c = confusions.shape[1]
    try:
        cfg = DecoderConfig(THREE_MODEL_CODE, confusions, 0.5, 0.9, uniform_count_prior(0, 1), c)
    except ValueError:
        return
    for count in (0, 1):
        assert run_trials(cfg, count, trials=4, seed=0).trials == 4


# --- trial harness ---------------------------------------------------------------------

def perfect_cfg(code, kmax, classes=4):
    return DecoderConfig(
        code,
        identity_confusions(code.m, classes),
        0.5,
        1.0,
        uniform_count_prior(0, kmax),
        classes,
    )


def test_perfect_models_decode_every_attack():
    code = general_bcc(2, 2, 4)
    for count in (1, 2):
        rep = run_trials(perfect_cfg(code, 2), count, trials=150, seed=0)
        assert rep.decode_accuracy == 1.0
        assert rep.fp_mean == 0.0
        assert rep.degenerate == 0


def test_zero_attackers_defines_clean_accuracy():
    code = general_bcc(2, 2, 4)
    rep = run_trials(perfect_cfg(code, 2), 0, trials=50, seed=1)
    assert rep.decode_accuracy == 1.0
    assert rep.trials == 50


def test_tracking_code_with_perfect_models_has_exact_tp():
    code = btc(1, 2, 6, seed=4, max_rows=24)
    rep = run_trials(perfect_cfg(code, 1), 1, trials=100, seed=2)
    assert rep.tp_mean == 1.0 and rep.tp_sd == 0.0
    assert rep.fp_mean == 0.0


def test_reports_are_bit_for_bit_deterministic():
    code = general_bcc(2, 4, 8)
    prof = dirichlet_profiles(0.2, 8, 5, seed=3)
    cfg = DecoderConfig(
        code, synth_confusion(code, prof), 0.5, 0.99, uniform_count_prior(0, 2), 5
    )
    for count in (0, 1, 2):
        a = run_trials(cfg, count, trials=60, seed=9)
        b = run_trials(cfg, count, trials=60, seed=9)
        assert a == b


def reference_report(code, cfg, attacker_count, trials, seed):
    """``run_trials`` as a loop over trials: draws from per-model
    ``Generator.choice``, then one ``decode`` and one ``majority_vote`` each."""
    bits = [[code.bit(i, j) for j in range(code.n)] for i in range(code.m)]
    conf = cfg.confusions.tolist()
    c = cfg.num_classes
    rows = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        support = sorted(int(j) for j in rng.choice(code.n, size=attacker_count, replace=False))
        label = int(rng.integers(c))
        target = int(rng.integers(c - 1))
        target += target >= label
        y = oracles.choice_sampled_outputs(bits, support, target, label, conf,
                                           cfg.success_rate, rng)
        try:
            result = decode(y, cfg)
        except DegenerateEvidenceError:
            ok, found, degenerate = False, set(), True
        else:
            ok, found, degenerate = result.decoded_label == label, set(result.decoded_attackers), False
        rows.append((ok, majority_vote(y, c) == label, len(found & set(support)),
                     len(found - set(support)), degenerate))
    ok, majority, tp, fp, degenerate = (np.array(col) for col in zip(*rows))
    tp, fp = tp.astype(float), fp.astype(float)
    return CountStats(
        trials=trials,
        decode_accuracy=float(ok.mean()),
        majority_accuracy=float(majority.mean()),
        tp_mean=float(tp.mean()),
        tp_sd=float(np.std(tp)),
        fp_mean=float(fp.mean()),
        fp_sd=float(np.std(fp)),
        degenerate=int(degenerate.sum()),
    )


def synth_cfg(code, classes, seed, q=3):
    profile = dirichlet_profiles(0.1, code.n, classes, seed=seed)
    return DecoderConfig(code, synth_confusion(code, profile), 0.5, 0.99,
                         uniform_count_prior(0, q), classes)


# The configurations of acceptance tests 06, 09i and 09ii, and one where
# every attack by one user is degenerate: with exact models a clean
# ensemble agrees, and the two attackers the prior allows compromise both
# models, so no hypothesis explains one model voting apart.
ACCEPTANCE_RUNS = [
    pytest.param(general_bcc(2, 2, 4), lambda code: perfect_cfg(code, 2, classes=10),
                 [0, 1, 2], id="06-bcc-2-2-4"),
    pytest.param(general_bcc(2, 4, 8), lambda code: perfect_cfg(code, 2, classes=10),
                 [0, 1, 2], id="06-bcc-2-4-8"),
    pytest.param(partition_code(12, 12), lambda code: synth_cfg(code, 10, 3), [0], id="09i-r1"),
    pytest.param(general_bcc(4, 4, 12), lambda code: synth_cfg(code, 10, 3), [0], id="09i-r4"),
    pytest.param(general_bcc(2, 6, 12), lambda code: synth_cfg(code, 10, 3), [0], id="09i-r6"),
    pytest.param(general_bcc(2, 4, 8), lambda code: synth_cfg(code, 10, 1), [0, 1, 2, 3],
                 id="09ii"),
    pytest.param(BitMatrix.from_rows([[1, 0], [0, 1]]),
                 lambda code: DecoderConfig(code, identity_confusions(2, 3), 0.5, 1.0,
                                            {0: 0.5, 1: 0.0, 2: 0.5}, 3),
                 [0, 1, 2], id="degenerate"),
]


@pytest.mark.parametrize("code,make_cfg,counts", ACCEPTANCE_RUNS)
def test_run_trials_equals_a_loop_of_one_vector_decodes(code, make_cfg, counts):
    cfg = make_cfg(code)
    for count in counts:
        got = run_trials(cfg, count, trials=150, seed=8)
        assert got == reference_report(code, cfg, count, trials=150, seed=8)
        if count == 1 and cfg.count_prior[1] == 0.0:
            assert got.degenerate == got.trials > 0


@st.composite
def simulation_configs(draw):
    """A small code, a confusion stack and a count prior, both with hard
    zeros, and a success rate that is often exactly 0 or 1."""
    m, n, c = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(2, 4))
    bits = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    entry = st.just(0.0) | st.floats(0.0, 1.0) | st.just(1.0)
    weights = np.array(draw(st.lists(entry, min_size=m * c * c, max_size=m * c * c)))
    weights = weights.reshape(m, c, c)
    weights[weights.sum(axis=2) == 0.0, draw(st.integers(0, c - 1))] = 1.0
    confusions = weights / weights.sum(axis=2, keepdims=True)
    counts = draw(st.lists(entry, min_size=1, max_size=n + 1))
    counts[draw(st.integers(0, len(counts) - 1))] = 1.0
    prior = {k: w / sum(counts) for k, w in enumerate(counts)}
    attack_prior = draw(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    success_rate = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    return DecoderConfig(BitMatrix.from_rows(bits), confusions, attack_prior, success_rate,
                         prior, c)


def as_bits(code):
    return [[code.bit(i, j) for j in range(code.n)] for i in range(code.m)]


class FixedDraws:
    """Stands in for ``st.data()`` in an ``@example``: every draw is
    ``value``."""

    def __init__(self, value):
        self.value = value

    def draw(self, strategy):
        return self.value


@settings(max_examples=200, deadline=None)
@given(cfg=simulation_configs(), data=st.data())
# One attacker has prior mass 5e-324, whose weight 5e-324 / C(6, 1)
# underflows a float; only the attack explains outputs of class 1 or 2.
@example(cfg=DecoderConfig(BitMatrix(2, 6, (0, 32)), np.tile([1.0, 0.0, 0.0], (2, 3, 1)), 0.5, 1.0,
                           {0: 1.0, 1: 5e-324}, 3),
         data=FixedDraws([[0, 1], [0, 2]]))
# Model 1, compromised and missing, emits class 1 with probability
# 0.5 * 5e-324, which underflows a float; only label 1 explains that.
@example(cfg=DecoderConfig(BitMatrix(2, 1, (1, 1)),
                           np.array([[[0.0, 0.0, 1.0]] * 3, [[0.0, 0.0, 1.0], [0.0, 5e-324, 1.0], [0.0, 0.0, 1.0]]]),
                           0.5, 0.5, {0: 0.0, 1: 1.0}, 3),
         data=FixedDraws([[0, 1]]))
def test_config_tables_equal_the_per_block_formulas(cfg, data):
    # A block that emits every class from every model gathers every table
    # entry, through the formulas the evidence kernel once ran per block,
    # except that a miss or hit below the normal floats, whose product or
    # sum lost digits, is logged from its terms (the exact oracle below
    # checks those).
    m, c, s = cfg.code.m, cfg.num_classes, cfg.success_rate
    models, every = np.arange(m), np.repeat(np.arange(c)[:, None], m, axis=1)
    with np.errstate(divide="ignore"):
        conf = cfg.confusions[models, :, every]
        base = (1.0 - s) * conf
        miss = np.where(base < 2.0**-1022, np.log(1.0 - s) + np.log(conf), np.log(base))
        hit = np.where(s + base < 2.0**-1022, np.logaddexp(np.log(s), miss), np.log(s + base))
        assert cfg._log_miss[models, every].tobytes() == decoder._floored(miss).tobytes()
        assert cfg._log_hit[models, every].tobytes() == decoder._floored(hit).tobytes()
        log_conf = decoder._floored(np.log(cfg.confusions))
    assert cfg._log_clean[models, every].tobytes() == log_conf[models, :, every].tobytes()
    rows = data.draw(st.lists(st.lists(st.integers(0, c - 1), min_size=m, max_size=m),
                              min_size=1, max_size=4))
    block = decode_block(np.array(rows), cfg)
    # The oracle runs on the exact values of the config's floats, in
    # decimals that cannot underflow as its plain float products can.
    exact = np.vectorize(Decimal, otypes=[object])
    with localcontext(prec=40):
        for b, y in enumerate(rows):
            attack, labels, _ = oracles.naive_posteriors(
                as_bits(cfg.code), exact(cfg.confusions).tolist(), Decimal(cfg.attack_prior),
                Decimal(s), {k: Decimal(p) for k, p in cfg.count_prior.items()}, c, y)
            assert block.degenerate[b] == (attack is None)
            if attack is not None:
                assert block.attack_posterior[b] == pytest.approx(float(attack), rel=1e-12,
                                                                  abs=1e-300)
                assert block.label_posterior[b] == pytest.approx([float(p) for p in labels],
                                                                 rel=1e-12, abs=1e-300)


# Blocks of 1, 3 and the default number of rows put trials at different rows
# of a block, where each follows its own read pointer through its doubles.
@pytest.mark.parametrize("rows", [1, 3, None])
@settings(max_examples=100, deadline=None)
@given(cfg=simulation_configs(), trials=st.integers(1, 7), seed=st.integers(0, 2**70))
def test_sampler_and_decoder_together_equal_the_reference(rows, cfg, trials, seed):
    with pytest.MonkeyPatch.context() as patch:
        if rows is not None:
            patch.setattr(DecoderConfig, "block_rows", rows)
        for count in cfg.count_prior:
            assert run_trials(cfg, count, trials, seed) == reference_report(
                cfg.code, cfg, count, trials, seed)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**100, 2**200 + 3])
def test_trial_streams_are_seeded_as_default_rng_seeds_them(seed):
    # From 2**96 on a seed takes four entropy words or more, so with the
    # trial's word the pool of four is mixed with one word more, or four.
    trials = np.array([*range(1000), 2**32 - 1], dtype=np.uint32)
    entropy = _streams.seed_entropy([seed])
    states = oracles.pcg64_states(_streams.seed_words(entropy, np.zeros(len(trials), int), trials))
    for t, state in zip(trials.tolist(), states, strict=True):
        assert state == np.random.default_rng([seed, t]).bit_generator.state
    bitgen = np.random.PCG64()
    bitgen.state = state
    assert np.array_equal(np.random.Generator(bitgen).random(8),
                          np.random.default_rng([seed, 2**32 - 1]).random(8))


def test_a_negative_seed_is_refused_as_default_rng_refuses_it():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng([-1, 0])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        _streams.seed_entropy([0, -1])
    with pytest.raises(ValueError, match="expected non-negative integer"):
        run_trials(perfect_cfg(general_bcc(2, 2, 4), 2), 1, trials=3, seed=-1)


# At the default block size: the README code with 10 classes (54 rows at
# 2^16 entries) and a two-class config (1,092 rows).
@pytest.mark.parametrize("cfg", [
    pytest.param(synth_cfg(general_bcc(2, 4, 8), 10, 2), id="bcc-2-4-8-c10"),
    pytest.param(synth_cfg(general_bcc(3, 4, 24), 2, 1), id="bcc-3-4-24-c2"),
])
def test_trials_at_the_block_edges_equal_the_reference(cfg):
    rows = cfg.block_rows
    for trials in (rows - 1, rows, rows + 1):
        for count in (0, 2):
            assert run_trials(cfg, count, trials, seed=11) == reference_report(
                cfg.code, cfg, count, trials, seed=11)
    y = np.random.default_rng(3).integers(0, cfg.num_classes, size=(rows + 1, cfg.code.m))
    block = decode_block(y, cfg)
    for b, row in enumerate(y):
        want = decode(row, cfg)
        assert block.attack_posterior[b] == want.attack_posterior
        assert block.label_posterior[b].tobytes() == want.label_posterior.tobytes()
        assert block.scores[b].tobytes() == want._scores.tobytes()
        assert block.decoded_attackers[b].tolist() == oracles.padded(
            want.decoded_attackers, block.decoded_attackers.shape[1])


@pytest.mark.parametrize("rows", [1, 7, 1000])
def test_block_boundaries_do_not_change_the_report(monkeypatch, rows):
    code = general_bcc(2, 4, 8)
    cfg = synth_cfg(code, 10, 2)
    trials = 60
    counts = (0, 1, 2, 3)
    want = [run_trials(cfg, count, trials, seed=4) for count in counts]
    blocks, sampled = [], []

    def recording(y, cfg):
        blocks.append(y.copy())
        return decode_block(y, cfg)

    def sampling(*args):
        sampled.append(sample_block(*args))
        return sampled[-1]

    sample_block = simulate._sample_block
    monkeypatch.setattr(DecoderConfig, "block_rows", rows)
    monkeypatch.setattr(simulate, "decode_block", recording)
    monkeypatch.setattr(simulate, "_sample_block", sampling)
    for count, report in zip(counts, want):
        blocks.clear()
        sampled.clear()
        assert run_trials(cfg, count, trials, seed=4) == report
        # The 60 trials fit one span at every block size here, so its blocks
        # hold each distinct sampled vector exactly once.
        assert all(len(block) <= rows for block in blocks)
        decoded = [tuple(row) for block in blocks for row in block.tolist()]
        assert len(decoded) == len(set(decoded))
        assert set(decoded) == {tuple(row) for y in sampled for row in y.tolist()}


def test_run_trials_decodes_each_distinct_vector_once(monkeypatch):
    # Exact models and no attackers: every vector is its true label
    # repeated, so 200 trials emit at most one vector per class.
    code = general_bcc(2, 4, 8)
    cfg = perfect_cfg(code, 2, classes=10)
    decoded = []

    def recording(y, cfg):
        decoded.append(len(y))
        return decode_block(y, cfg)

    monkeypatch.setattr(simulate, "decode_block", recording)
    assert run_trials(cfg, 0, 200, seed=6) == reference_report(code, cfg, 0, 200, seed=6)
    assert 0 < sum(decoded) <= cfg.num_classes


# --- trial draws parsed from raw output --------------------------------------------

def trial_draws(n, k, c):
    """(kind, range) of each bounded draw of a trial, in token order, when
    no draw is rejected: ``choice`` (none for k = 0), then the label and the
    target (none on [0, 0])."""
    support = oracles.choice_draws(n, k) if k else []
    return support + [("label", c - 1)] + ([("target", c - 2)] if c > 2 else [])


# Reads with two tokens to spare, with none (the zero output's two rejected
# tokens push the doubles past the read), with no doubles either (they run
# the tokens out), and with two tokens to spare and two zero outputs in a
# row (four rejected tokens): numpy's Generator draws the trial each time,
# past the read.
@pytest.mark.parametrize("spare, m, zeros", [(2, 3, 1), (0, 3, 1), (0, 0, 1), (2, 3, 2)],
                         ids=["read-ahead", "doubles-overrun", "tokens-overrun", "four-rejected"])
@pytest.mark.parametrize("kind, n, k, c", [
    ("floyd", 16, 6, 10), ("shuffle", 16, 6, 10), ("tail", 10_001, 201, 3),
    ("label", 16, 0, 10), ("target", 16, 6, 10),
])
def test_rejected_tokens_are_redrawn_as_numpy_redraws_them(monkeypatch, kind, n, k, c, spare,
                                                           m, zeros):
    # The first zero output whose first token goes to a draw of this kind
    # that rejects it; the draw rejects every token of the zero outputs.
    draws = trial_draws(n, k, c)
    zero_tokens = np.zeros(1, np.uint32)
    z = next((z for z in range(64) if 2 * z < len(draws) and draws[2 * z][0] == kind
              and _streams.bounded(zero_tokens, draws[2 * z][1])[1].all()), None)
    assert z is not None, f"no zero output lands on a {kind} draw"
    ranges = [r for _, r in draws]
    reads, kernel = [], _streams.pcg64_raw
    monkeypatch.setattr(_streams, "pcg64_raw",
                        lambda words, length: reads.append(length) or kernel(words, length))
    length = -(-(len(ranges) + spare) // 2) + 2 * m
    words = oracles.seed_words(oracles.zero_output_at(z, zeros))
    support, labels, targets, doubles = _streams.trial_draws(words, _streams.pcg64_raw(words, length),
                                                             n, np.array([k]), c, m)
    # The chunk's read alone: the trial is not read again.
    assert reads == [length]
    gen = np.random.Generator(oracles.zero_output_at(z, zeros))
    want = gen.choice(n, k, replace=False).tolist() if k else []
    assert set(support.tolist()) == set(want)
    assert labels[0] == gen.integers(c)
    assert targets[0] == gen.integers(c - 1)
    assert doubles[0].tobytes() == gen.random(2 * m).tobytes()


def assert_trials_draw_as_numpy_does(words, gens, n, counts, c, m):
    """The chunk of trials the rows of ``words`` seed, with ``counts``
    attackers, draws what each of ``gens``, the trials' own generators,
    draws."""
    raw = _streams.pcg64_raw(words, _streams.trial_length(n, counts, c, m))
    support, labels, targets, doubles = _streams.trial_draws(words, raw, n, counts, c, m)
    rows = np.split(support, np.cumsum(counts)[:-1])
    for gen, k, row, label, target, double in zip(gens, counts.tolist(), rows, labels, targets, doubles,
                                                  strict=True):
        assert sorted(row.tolist()) == sorted(gen.choice(n, k, replace=False).tolist())
        assert (label, target) == (gen.integers(c), gen.integers(c - 1))
        assert double.tobytes() == gen.random(2 * m).tobytes()


def test_a_rejecting_trial_after_a_run_of_another_count_draws_as_numpy_does():
    # The zero output's first token makes the trial's first Floyd draw, on
    # [0, 10], reject it, and the trial sits after two trials of another
    # count in its chunk.
    n, c, m = 16, 10, 3
    assert _streams.bounded(np.zeros(1, np.uint32), n - 6)[1].all()
    others = _streams.seed_words(_streams.seed_entropy([5]), np.zeros(2, int), np.arange(2, dtype=np.uint32))
    words = np.vstack([others, oracles.seed_words(oracles.zero_output_at(0))])
    gens = [np.random.default_rng([5, 0]), np.random.default_rng([5, 1]),
            np.random.Generator(oracles.zero_output_at(0))]
    assert_trials_draw_as_numpy_does(words, gens, n, np.array([2, 2, 6]), c, m)


def test_one_chunk_draws_floyd_tail_and_rejecting_trials_as_numpy_does():
    # A Floyd trial, a tail-shuffle trial (201 > 10,001 // 50) and a trial
    # whose first Floyd draw, on [0, 9,999], rejects the zero output's
    # first token, in one chunk.
    n, c, m = 10_001, 3, 3
    assert _streams.bounded(np.zeros(1, np.uint32), n - 2)[1].all()
    others = _streams.seed_words(_streams.seed_entropy([5]), np.zeros(2, int), np.arange(2, dtype=np.uint32))
    words = np.vstack([others, oracles.seed_words(oracles.zero_output_at(0))])
    gens = [np.random.default_rng([5, 0]), np.random.default_rng([5, 1]),
            np.random.Generator(oracles.zero_output_at(0))]
    assert_trials_draw_as_numpy_does(words, gens, n, np.array([2, 201, 2]), c, m)


# A code whose first two models each train on 50 of its 10,001 users, so
# which users attack decides which models are compromised.
TAIL_CODE = BitMatrix.from_rows([[int(lo <= j < hi) for j in range(10_001)]
                                 for lo, hi in [(0, 50), (50, 100), (100, 10_001)]])

EDGE_RUNS = [
    pytest.param(general_bcc(2, 2, 4), lambda code: synth_cfg(code, 2, 1, q=2), [0, 1, 2],
                 id="two-classes"),
    pytest.param(general_bcc(2, 2, 4), lambda code: synth_cfg(code, 3, 1, q=4), [0, 4],
                 id="every-user-attacks"),
    pytest.param(general_bcc(2, 2, 4), lambda code: synth_cfg(code, 2, 4, q=4), [4],
                 id="every-user-attacks-two-classes"),
    # 201 > 10,001 // 50, so choice tail-shuffles arange(n); the count has
    # no prior mass, so the decoder tables never enumerate its supports.
    pytest.param(TAIL_CODE, lambda code: DecoderConfig(code, identity_confusions(3, 3), 0.5, 0.5,
                                                       {0: 1.0, 201: 0.0}, 3),
                 [201], id="tail-shuffle"),
]


@pytest.mark.parametrize("code,make_cfg,counts", EDGE_RUNS)
def test_draw_edge_cases_equal_the_reference(code, make_cfg, counts):
    cfg = make_cfg(code)
    for count in counts:
        assert run_trials(cfg, count, 40, seed=5) == reference_report(code, cfg, count, 40, seed=5)


def test_run_trials_memory_does_not_grow_with_the_users():
    # 10,001 users and reports of one and two users: a table per group or
    # per row of a block that is as wide as the users would take over 100 MB.
    cfg = DecoderConfig(TAIL_CODE, identity_confusions(3, 3), 0.5, 0.9,
                        {0: 0.5, 1: 0.25, 2: 0.25}, 3)
    assert run_trials(cfg, 2, 200, seed=3) == reference_report(TAIL_CODE, cfg, 2, 200, seed=3)
    tracemalloc.start()
    try:
        stats = run_trials(cfg, 2, 3000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.fp_mean > 0
    assert peak <= 8 * BLOCK_ENTRIES * 8


def test_run_trials_memory_is_linear_in_the_count():
    # Reports and plants of 200 users: comparing every reported user with
    # every planted one would take 500 * 200 * 200 bytes, over twice the bound.
    code = partition_code(2, 400)
    cfg = DecoderConfig(code, identity_confusions(2, 2), 0.5, 0.9, {0: 0.5, 200: 0.5}, 2)
    assert run_trials(cfg, 200, 20, seed=1) == reference_report(code, cfg, 200, 20, seed=1)
    tracemalloc.start()
    try:
        stats = run_trials(cfg, 200, 500, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.tp_mean > 0 and stats.fp_mean > 0
    assert peak <= 12 * 500 * 200 * 8


# Chunks of 1, 5 and 16 trials on the README code (60 entries a trial),
# inside decode blocks of 54 rows and across blocks of 7.
@pytest.mark.parametrize("entries", [1, 300, 1000])
@pytest.mark.parametrize("rows", [None, 7])
def test_chunk_boundaries_do_not_change_the_report(monkeypatch, entries, rows):
    code = general_bcc(2, 4, 8)
    cfg = synth_cfg(code, 10, 2)
    monkeypatch.setattr(simulate, "BLOCK_ENTRIES", entries)
    if rows is not None:
        monkeypatch.setattr(DecoderConfig, "block_rows", rows)
    for count in (0, 2, 3):
        assert run_trials(cfg, count, 60, seed=4) == reference_report(code, cfg, count, 60, seed=4)


def test_run_trials_validation():
    code = general_bcc(2, 2, 4)
    cfg = perfect_cfg(code, 2)
    with pytest.raises(ValueError):
        run_trials(cfg, 3, trials=10, seed=0)  # outside the count prior
    with pytest.raises(ValueError):
        run_trials(cfg, 1, trials=0, seed=0)


@pytest.mark.parametrize("trials,error", [(0, ValueError), (-2, ValueError),
                                          (2**32 + 1, ResourceLimitError)])
def test_trial_counts_are_refused_before_any_task_runs(monkeypatch, trials, error):
    cfg = perfect_cfg(general_bcc(2, 2, 4), 2)
    # run_trials refuses more trials than a run seeds before allocating any
    with pytest.raises(error, match="trial"):
        run_trials(cfg, 1, trials=trials, seed=0)
    monkeypatch.setattr(simulate, "_run_tasks", lambda *args: pytest.fail("a task ran"))
    with pytest.raises(error, match="trial"):
        sweep(cfg, [0, 1], trials=trials, runs=2, seed=0, workers=2)


@pytest.mark.parametrize("trials", [2.0, 2.5, "2", None, True])
def test_trial_counts_must_be_ints(monkeypatch, trials):
    cfg = perfect_cfg(general_bcc(2, 2, 4), 2)
    with pytest.raises(ValueError, match="trials must be an int"):
        run_trials(cfg, 1, trials, seed=0)
    assert run_trials(cfg, 1, np.int64(2), seed=0) == run_trials(cfg, 1, 2, seed=0)
    monkeypatch.setattr(simulate, "_run_tasks", lambda *args: pytest.fail("a task ran"))
    with pytest.raises(ValueError, match="trials must be an int"):
        sweep(cfg, [1], trials=trials, runs=1, seed=0)


@pytest.mark.parametrize("runs", [1.5, 2.0, "2", None, True])
def test_run_counts_must_be_ints(monkeypatch, runs):
    cfg = perfect_cfg(general_bcc(2, 2, 4), 2)
    monkeypatch.setattr(simulate, "_run_tasks", lambda *args: pytest.fail("a task ran"))
    with pytest.raises(ValueError, match="runs must be an int"):
        sweep(cfg, [1], trials=2, runs=runs, seed=0)


@pytest.mark.parametrize("count", [1.7, 1.0, -1, 3, "1", None, True])
def test_attacker_counts_must_be_int_keys_of_the_prior(monkeypatch, count):
    cfg = perfect_cfg(general_bcc(2, 2, 4), 2)
    with pytest.raises(ValueError, match="attacker count"):
        run_trials(cfg, count, trials=5, seed=0)
    # sweep refuses the whole list before it runs a single task
    monkeypatch.setattr(simulate, "_run_tasks", lambda *args: pytest.fail("a task ran"))
    with pytest.raises(ValueError, match="attacker count"):
        sweep(cfg, [0, count], trials=5, runs=1, seed=0)


def test_numpy_integer_counts_are_accepted():
    cfg = perfect_cfg(general_bcc(2, 2, 4), 2)
    assert run_trials(cfg, np.int64(1), 10, seed=3) == run_trials(cfg, 1, 10, seed=3)
    (point,) = sweep(cfg, [np.int64(1)], trials=10, runs=1, seed=3)
    assert type(point.attacker_count) is int and point.attacker_count == 1


def test_majority_vote_bound_on_partitions():
    # Perfect models, 2k+1 groups: majority always survives k attackers.
    code = partition_code(3, 6)
    rep = run_trials(perfect_cfg(code, 1), 1, trials=80, seed=5)
    assert rep.majority_accuracy == 1.0
    # A high-utilization code admits attacks that defeat majority voting but
    # not the decoder.
    rich = general_bcc(2, 4, 8)
    rep = run_trials(perfect_cfg(rich, 2), 2, trials=80, seed=6)
    assert rep.majority_accuracy < 1.0
    assert rep.decode_accuracy == 1.0


def test_reliability_cliff_under_mild_noise():
    code = general_bcc(2, 4, 8)
    conf = synth_confusion(code, uniform_profile(8, 10))
    cfg = DecoderConfig(code, conf, 0.5, 0.99, uniform_count_prior(0, 3), 10)
    one = run_trials(cfg, 1, trials=300, seed=7).decode_accuracy
    two = run_trials(cfg, 2, trials=300, seed=7).decode_accuracy
    assert one > two


# --- sweeps -------------------------------------------------------------------------------

def test_sweep_aggregates_runs_deterministically():
    code = general_bcc(2, 2, 4)
    cfg = perfect_cfg(code, 2)
    a = sweep(cfg, [0, 1], trials=40, runs=3, seed=11)
    b = sweep(cfg, [0, 1], trials=40, runs=3, seed=11)
    assert a == b
    assert [p.attacker_count for p in a] == [0, 1]
    assert all(p.runs == 3 and p.trials_per_run == 40 for p in a)
    assert a[1].decode_acc_mean == 1.0


def test_sweep_parallel_matches_serial():
    code = general_bcc(2, 2, 4)
    prof = dirichlet_profiles(0.5, 4, 4, seed=0)
    cfg = DecoderConfig(
        code, synth_confusion(code, prof), 0.5, 0.99, uniform_count_prior(0, 2), 4
    )
    serial = sweep(cfg, [0, 1], trials=30, runs=2, seed=3, workers=1)
    parallel = sweep(cfg, [0, 1], trials=30, runs=2, seed=3, workers=2)
    assert serial == parallel


def test_sweep_starts_at_most_one_worker_per_task(monkeypatch):
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = perfect_cfg(general_bcc(2, 2, 4), 2)
    serial = sweep(cfg, [0, 1], trials=5, runs=2, seed=3)
    assert sweep(cfg, [0, 1], trials=5, runs=2, seed=3, workers=64) == serial
    assert sweep(cfg, [0, 1], trials=5, runs=2, seed=3, workers=3) == serial
    assert started == [4, 3]


def sweep_reference(cfg, counts, trials, runs, seed):
    """``sweep`` as one ``run_trials`` call per (count, run), each count's
    runs aggregated on their own."""
    run_seeds = np.random.default_rng(seed).integers(0, 2**63, size=(len(counts), runs))
    points = []
    for count, row in zip(counts, run_seeds.tolist()):
        reports = [run_trials(cfg, count, trials, run_seed) for run_seed in row]
        dec, maj, tp, fp = (np.array(col) for col in zip(*[
            (r.decode_accuracy, r.majority_accuracy, r.tp_mean, r.fp_mean) for r in reports]))
        points.append(simulate.SweepPoint(
            count, runs, trials, float(dec.mean()), float(np.std(dec)), float(maj.mean()),
            float(np.std(maj)), float(tp.mean()), float(np.std(tp)), float(fp.mean()),
            float(np.std(fp)), sum(r.degenerate for r in reports)))
    return points


# Zero, one and the most attackers, every user where the prior allows it,
# two classes (no target draw) and the tail-shuffle path; nine runs, so the
# means over runs take numpy's unrolled pairwise sum.
SWEEP_RUNS = [
    pytest.param(general_bcc(2, 4, 8), lambda code: synth_cfg(code, 10, 2), [0, 1, 3],
                 id="readme"),
    pytest.param(general_bcc(2, 2, 4), lambda code: synth_cfg(code, 3, 1, q=4), [4, 0, 1],
                 id="every-user-attacks"),
    pytest.param(general_bcc(2, 2, 4), lambda code: synth_cfg(code, 2, 4, q=4), [0, 1, 4],
                 id="two-classes"),
    pytest.param(TAIL_CODE, lambda code: DecoderConfig(code, identity_confusions(3, 3), 0.5, 0.5,
                                                       {0: 0.5, 1: 0.5, 201: 0.0}, 3),
                 [0, 201, 1], id="tail-shuffle"),
]


# Chunks of two trials and decode blocks of 7 rows, on 13 trials a task,
# put chunk and block edges inside tasks and tasks inside blocks.
@pytest.mark.parametrize("entries, rows", [(None, None), (300, 7)], ids=["default", "small"])
@pytest.mark.parametrize("code,make_cfg,counts", SWEEP_RUNS)
def test_sweep_equals_run_trials_task_by_task(monkeypatch, code, make_cfg, counts, entries, rows):
    cfg = make_cfg(code)
    want = sweep_reference(cfg, counts, 13, 9, seed=6)
    # Mixed counts out of order, and seeds of one, two, three and five
    # entropy words.
    tasks = [(counts[1], 5), (counts[0], 2**64 + 3), (counts[0], 2**40), (counts[2], 2**140 + 1)]
    alone = np.hstack([simulate._run_tasks(cfg, 13, [task]) for task in tasks])
    if entries is not None:
        monkeypatch.setattr(simulate, "BLOCK_ENTRIES", entries)
        monkeypatch.setattr(DecoderConfig, "block_rows", rows)
    assert sweep(cfg, counts, 13, 9, seed=6) == want
    assert simulate._run_tasks(cfg, 13, tasks).tobytes() == alone.tobytes()


def test_sweep_memory_does_not_grow_with_the_tasks():
    # 16 tasks of 15,000 trials: outcomes kept for every task at once would
    # take 4.8 MB, over the bound.
    cfg = DecoderConfig(TAIL_CODE, identity_confusions(3, 3), 0.5, 0.9,
                        {0: 0.5, 1: 0.25, 2: 0.25}, 3)
    tracemalloc.start()
    try:
        points = sweep(cfg, [1, 2], 15_000, 8, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert points[1].fp_mean > 0
    assert peak <= 8 * BLOCK_ENTRIES * 8


def test_sweep_builds_each_seeds_words_once(monkeypatch):
    # 1,000 tasks of 10 trials span many chunks; each seed's entropy words
    # are built once, not once per chunk.
    calls, real = [], _streams._words32
    monkeypatch.setattr(_streams, "_words32", lambda seed: calls.append(seed) or real(seed))
    cfg = synth_cfg(general_bcc(2, 4, 8), 10, 2)
    monkeypatch.setattr(simulate, "BLOCK_ENTRIES", 3000)
    sweep(cfg, [0, 1], 10, 500, seed=1)
    assert len(calls) <= 1000


def test_sweep_builds_the_config_once_per_worker(monkeypatch):
    class PicklingPool:
        """Runs every share here, pickled as a process pool sends it."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, shares):
            return [fn(share) for fn, share in
                    (pickle.loads(pickle.dumps((fn, share))) for share in shares)]

    cfg = perfect_cfg(general_bcc(2, 2, 4), 2)
    serial = sweep(cfg, [0, 1], trials=5, runs=2, seed=3)
    builds = []
    post_init = DecoderConfig.__post_init__
    monkeypatch.setattr(DecoderConfig, "__post_init__",
                        lambda self: builds.append(1) or post_init(self))
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", PicklingPool)
    for workers in (2, 3, 64):
        builds.clear()
        assert sweep(cfg, [0, 1], trials=5, runs=2, seed=3, workers=workers) == serial
        assert len(builds) == min(workers, 4)


def test_simulate_reads_no_private_name_of_the_decoder():
    # The decoder alone knows which support a row reports; simulate scores
    # what decode_block returns and reads no private table of a config.
    found = []
    source = Path(simulate.__file__).read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in ("decoder", "bcode.decoder"):
            found += [f"decoder.{a.name}" for a in node.names if a.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in ("cfg", "decoder") and node.attr.startswith("_")):
            found.append(f"{node.value.id}.{node.attr}")
    assert found == []


# --- generative / decoder consistency (small version) --------------------------------------

def test_sampled_frequencies_match_the_likelihood_model():
    conf = np.array(
        [
            [[0.8, 0.2], [0.3, 0.7]],
            [[0.9, 0.1], [0.4, 0.6]],
            [[0.6, 0.4], [0.25, 0.75]],
        ]
    )
    success = 0.8
    sc = Scenario.from_support(2, [0], 1, 0)
    samples = 20000
    counts: dict[tuple, int] = {}
    for s in range(samples):
        y = tuple(sample_outputs(THREE_MODEL_CODE, sc, conf, success, seed=s))
        counts[y] = counts.get(y, 0) + 1

    cols = THREE_MODEL_CODE.column_masks
    mask = cols[0]
    for y, count in counts.items():
        prob = 1.0
        for i in range(3):
            clean = conf[i, sc.true_label, y[i]]
            if (mask >> i) & 1:
                prob *= success * (1.0 if y[i] == sc.target else 0.0) + (1 - success) * clean
            else:
                prob *= clean
        se = math.sqrt(prob * (1 - prob) / samples)
        assert abs(count / samples - prob) <= 4 * se + 1e-12
