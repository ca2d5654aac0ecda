import math

import numpy as np
import pytest

from bcode.bitmatrix import BitMatrix
from bcode.construct import btc, general_bcc, partition_code
from bcode.decoder import DecoderConfig, identity_confusions, uniform_count_prior
from bcode.simulate import (
    Scenario,
    dirichlet_profiles,
    run_trials,
    sample_outputs,
    sweep,
    synth_confusion,
    uniform_profile,
)

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
