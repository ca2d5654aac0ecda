import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcode import simulate
from bcode.bitmatrix import BitMatrix
from bcode.construct import btc, general_bcc, partition_code
from bcode.decoder import (
    DecoderConfig,
    decode,
    decode_block,
    identity_confusions,
    majority_vote,
    uniform_count_prior,
)
from bcode.errors import DegenerateEvidenceError
from bcode.simulate import (
    CountStats,
    EvaluationReport,
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
    rep = run_trials(code, perfect_cfg(code, 2), [1, 2], trials=150, seed=0)
    assert rep.decode_accuracy == 1.0
    assert rep.fp_mean == 0.0
    assert rep.degenerate == 0


def test_zero_attackers_defines_clean_accuracy():
    code = general_bcc(2, 2, 4)
    rep = run_trials(code, perfect_cfg(code, 2), [0], trials=50, seed=1)
    assert rep.clean_accuracy == rep.decode_accuracy == 1.0
    assert rep.per_count[0].trials == 50


def test_tracking_code_with_perfect_models_has_exact_tp():
    code = btc(1, 2, 6, seed=4, max_rows=24)
    rep = run_trials(code, perfect_cfg(code, 1), [1], trials=100, seed=2)
    assert rep.tp_mean == 1.0 and rep.tp_sd == 0.0
    assert rep.fp_mean == 0.0


def test_reports_are_bit_for_bit_deterministic():
    code = general_bcc(2, 4, 8)
    prof = dirichlet_profiles(0.2, 8, 5, seed=3)
    cfg = DecoderConfig(
        code, synth_confusion(code, prof), 0.5, 0.99, uniform_count_prior(0, 2), 5
    )
    a = run_trials(code, cfg, [0, 1, 2], trials=60, seed=9)
    b = run_trials(code, cfg, [0, 1, 2], trials=60, seed=9)
    assert a == b


def reference_report(code, cfg, attacker_counts, trials, seed):
    """``run_trials`` as a loop over trials: draws from per-model
    ``Generator.choice``, then one ``decode`` and one ``majority_vote`` each."""
    bits = [[code.bit(i, j) for j in range(code.n)] for i in range(code.m)]
    conf = cfg.confusions.tolist()
    c = cfg.num_classes
    rows = []
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        count = attacker_counts[int(rng.integers(len(attacker_counts)))]
        support = sorted(int(j) for j in rng.choice(code.n, size=count, replace=False))
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
        rows.append((count, ok, majority_vote(y, c) == label, len(found & set(support)),
                     len(found - set(support)), degenerate))
    count, ok, majority, tp, fp, degenerate = (np.array(col) for col in zip(*rows))
    tp, fp = tp.astype(float), fp.astype(float)

    def stats(sel):
        return dict(
            trials=int(sel.sum()),
            decode_accuracy=float(ok[sel].mean()),
            majority_accuracy=float(majority[sel].mean()),
            tp_mean=float(tp[sel].mean()),
            tp_sd=float(np.std(tp[sel])),
            fp_mean=float(fp[sel].mean()),
            fp_sd=float(np.std(fp[sel])),
            degenerate=int(degenerate[sel].sum()),
        )

    clean = count == 0
    return EvaluationReport(
        **stats(np.ones(trials, dtype=bool)),
        clean_accuracy=float(ok[clean].mean()) if clean.any() else None,
        per_count={k: CountStats(**stats(count == k))
                   for k in sorted(set(attacker_counts)) if (count == k).any()},
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
    got = run_trials(code, cfg, counts, trials=150, seed=8)
    assert got == reference_report(code, cfg, counts, trials=150, seed=8)
    if cfg.count_prior.get(1) == 0.0:
        assert got.per_count[1].degenerate == got.per_count[1].trials > 0


@pytest.mark.parametrize("rows", [1, 7, 1000])
def test_block_boundaries_do_not_change_the_report(monkeypatch, rows):
    code = general_bcc(2, 4, 8)
    cfg = synth_cfg(code, 10, 2)
    trials = 60
    want = run_trials(code, cfg, [0, 1, 2, 3], trials, seed=4)
    blocks = []

    def recording(y, cfg):
        blocks.append(len(y))
        return decode_block(y, cfg)

    monkeypatch.setattr(DecoderConfig, "block_rows", rows)
    monkeypatch.setattr(simulate, "decode_block", recording)
    assert run_trials(code, cfg, [0, 1, 2, 3], trials, seed=4) == want
    assert blocks == [min(rows, trials - start) for start in range(0, trials, rows)]


def test_run_trials_validation():
    code = general_bcc(2, 2, 4)
    cfg = perfect_cfg(code, 2)
    with pytest.raises(ValueError):
        run_trials(code, cfg, [3], trials=10, seed=0)  # outside the count prior
    with pytest.raises(ValueError):
        run_trials(code, cfg, [], trials=10, seed=0)
    with pytest.raises(ValueError):
        run_trials(partition_code(2, 4), cfg, [1], trials=10, seed=0)


def test_majority_vote_bound_on_partitions():
    # Perfect models, 2k+1 groups: majority always survives k attackers.
    code = partition_code(3, 6)
    rep = run_trials(code, perfect_cfg(code, 1), [1], trials=80, seed=5)
    assert rep.majority_accuracy == 1.0
    # A high-utilization code admits attacks that defeat majority voting but
    # not the decoder.
    rich = general_bcc(2, 4, 8)
    rep = run_trials(rich, perfect_cfg(rich, 2), [2], trials=80, seed=6)
    assert rep.majority_accuracy < 1.0
    assert rep.decode_accuracy == 1.0


def test_reliability_cliff_under_mild_noise():
    code = general_bcc(2, 4, 8)
    conf = synth_confusion(code, uniform_profile(8, 10))
    cfg = DecoderConfig(code, conf, 0.5, 0.99, uniform_count_prior(0, 3), 10)
    one = run_trials(code, cfg, [1], trials=300, seed=7).decode_accuracy
    two = run_trials(code, cfg, [2], trials=300, seed=7).decode_accuracy
    assert one > two


# --- sweeps -------------------------------------------------------------------------------

def test_sweep_aggregates_runs_deterministically():
    code = general_bcc(2, 2, 4)
    cfg = perfect_cfg(code, 2)
    a = sweep(code, cfg, [0, 1], trials=40, runs=3, seed=11)
    b = sweep(code, cfg, [0, 1], trials=40, runs=3, seed=11)
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
    serial = sweep(code, cfg, [0, 1], trials=30, runs=2, seed=3, workers=1)
    parallel = sweep(code, cfg, [0, 1], trials=30, runs=2, seed=3, workers=2)
    assert serial == parallel


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
