import copy
import dataclasses
import functools
import math
import pickle
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bcode import bitmatrix, decoder
from bcode.bitmatrix import BitMatrix, column_or_mask, select_columns
from bcode.construct import general_bcc, minimal_bcc, partition_code
from bcode.decoder import (
    DecoderConfig,
    attack_posterior,
    attacker_posterior,
    decode,
    decode_block,
    estimate_confusion,
    identity_confusions,
    label_posterior,
    majority_vote,
    majority_votes,
    uniform_count_prior,
)
from bcode.errors import DegenerateEvidenceError, ResourceLimitError
from bcode.simulate import dirichlet_profiles, synth_confusion

import oracles

THREE_MODEL_CODE = BitMatrix.from_rows([[1, 0], [0, 1], [1, 1]])


def three_model_cfg(attack_prior=0.5, success_rate=1.0):
    return DecoderConfig(
        code=THREE_MODEL_CODE,
        confusions=identity_confusions(3, 2),
        attack_prior=attack_prior,
        success_rate=success_rate,
        count_prior=uniform_count_prior(0, 1),
        num_classes=2,
    )


def as_bits(mat):
    return [[mat.bit(i, j) for j in range(mat.n)] for i in range(mat.m)]


def random_config(rng):
    """Small random decoder configuration plus an output vector."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(1, 8))
    c = int(rng.integers(2, 4))
    kmax = int(rng.integers(0, min(2, n) + 1))
    while True:
        bits = rng.integers(0, 2, size=(m, n))
        if bits.any():
            break
    code = BitMatrix.from_array(bits)
    conf = rng.dirichlet(np.ones(c) * rng.uniform(0.3, 3.0), size=(m, c))
    # Occasionally zero out an entry to exercise hard zeros.
    if rng.random() < 0.3:
        i = int(rng.integers(m))
        j = int(rng.integers(c))
        conf[i, j] = 0.0
        conf[i, j, int(rng.integers(c))] = 1.0
    attack_prior = float(rng.choice([0.0, 1.0, rng.uniform(0.05, 0.95)]))
    success_rate = float(rng.choice([0.0, 1.0, rng.uniform(0.05, 0.95)]))
    raw = rng.uniform(0.05, 1.0, size=kmax + 1)
    q = {i: float(p / raw.sum()) for i, p in enumerate(raw)}
    cfg = DecoderConfig(code, conf, attack_prior, success_rate, q, c)
    y = tuple(int(v) for v in rng.integers(0, c, size=m))
    return cfg, y


# Count priors with zero mass on some positive counts; their keys still
# bound the enumeration, but only the counts with mass become hypotheses.
ZERO_MASS_PRIORS = (
    {0: 0.5, 1: 0.0, 2: 0.5},
    {1: 0.0, 2: 1.0},
    {0: 0.2, 1: 0.3, 2: 0.0, 3: 0.5},
    {0: 0.0, 1: 0.6, 2: 0.4},
)


def grouped_config(rng):
    """Random configuration on a column-duplicated code, where many attacker
    sets of one size compromise the same models, plus an output vector drawn
    from a planted attack so the attackers are usually reported."""
    k, r = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    code = general_bcc(k, r, int(rng.integers(k + r + 1, 8)))
    c = int(rng.integers(2, 4))
    conf = rng.dirichlet(np.ones(c) * rng.uniform(0.3, 3.0), size=(code.m, c))
    conf = 0.5 * conf + 0.5 * np.eye(c)
    prior = ZERO_MASS_PRIORS[int(rng.integers(len(ZERO_MASS_PRIORS)))]
    if rng.random() < 0.25:
        prior = uniform_count_prior(0, 2)
    cfg = DecoderConfig(code, conf, float(rng.uniform(0.5, 0.95)),
                        float(rng.choice([1.0, rng.uniform(0.8, 1.0)])), prior, c)
    support = rng.choice(code.n, size=int(rng.integers(1, 3)), replace=False)
    label, target = rng.choice(c, size=2, replace=False)
    y = [int(target) if any(code.bit(i, int(j)) for j in support) else int(label)
         for i in range(code.m)]
    if rng.random() < 0.3:
        y[int(rng.integers(code.m))] = int(rng.integers(c))
    return cfg, tuple(y)


def exact_models_config(rng):
    """Exact models and certain success on a column-duplicated code: every
    output vector is explained exactly or not at all, so equal scores and
    degenerate rows are common."""
    k, r = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    code = general_bcc(k, r, int(rng.integers(k + r + 1, 8)))
    c = int(rng.integers(2, 4))
    prior = ZERO_MASS_PRIORS[int(rng.integers(len(ZERO_MASS_PRIORS)))]
    cfg = DecoderConfig(code, identity_confusions(code.m, c), float(rng.uniform(0.3, 0.9)),
                        1.0, prior, c)
    return cfg, tuple(int(v) for v in rng.integers(0, c, size=code.m))


def shares_groups(cfg, post):
    """Whether two attacker sets in ``post`` have one size and one Boolean
    sum, so that the decoder scores them as one (size, mask) group."""
    groups = {
        (sum(x), column_or_mask(cfg.code, [j for j, bit in enumerate(x) if bit]))
        for x in post
    }
    return len(groups) < len(post)


def oracle_for(cfg, y):
    return oracles.naive_posteriors(
        as_bits(cfg.code),
        cfg.confusions.tolist(),
        cfg.attack_prior,
        cfg.success_rate,
        cfg.count_prior,
        cfg.num_classes,
        list(y),
    )


# --- configuration validation -------------------------------------------------

def test_config_validation():
    code = THREE_MODEL_CODE
    good = identity_confusions(3, 2)
    with pytest.raises(ValueError):
        DecoderConfig(code, good[:2], 0.5, 1.0, {0: 1.0}, 2)
    with pytest.raises(ValueError):
        DecoderConfig(code, good, 1.5, 1.0, {0: 1.0}, 2)
    with pytest.raises(ValueError):
        DecoderConfig(code, good, 0.5, -0.1, {0: 1.0}, 2)
    with pytest.raises(ValueError):
        DecoderConfig(code, good, 0.5, 1.0, {0: 0.5, 1: 0.4}, 2)
    with pytest.raises(ValueError):
        DecoderConfig(code, good, 0.5, 1.0, {0: 0.5, 3: 0.5}, 2)  # kmax > n
    with pytest.raises(ValueError):
        DecoderConfig(code, good, 0.5, 1.0, {}, 2)
    with pytest.raises(ValueError):
        DecoderConfig(code, good, 0.5, 1.0, {0: math.nan, 1: 1.0}, 2)
    with pytest.raises(ValueError, match="must be a nonnegative int"):
        DecoderConfig(code, good, 0.5, 1.0, {0.5: 0.5, 1.7: 0.5}, 2)
    with pytest.raises(ValueError, match="must be a nonnegative int"):
        DecoderConfig(code, good, 0.5, 1.0, {-1: 0.5, 1: 0.5}, 2)
    numpy_keys = DecoderConfig(code, good, 0.5, 1.0, {np.int64(0): 0.5, np.int64(1): 0.5}, 2)
    assert numpy_keys.count_prior == {0: 0.5, 1: 0.5}
    bad_rows = good.copy()
    bad_rows[0, 0] = [0.5, 0.6]
    with pytest.raises(ValueError):
        DecoderConfig(code, bad_rows, 0.5, 1.0, {0: 1.0}, 2)
    # Sums to 1 within the tolerance, but its log would make posteriors NaN.
    negative = good.copy()
    negative[0, 0] = [1 + 5e-10, -5e-10]
    with pytest.raises(ValueError, match=r"confusion entries must lie in \[0, 1\]"):
        DecoderConfig(code, negative, 0.5, 1.0, {0: 1.0}, 2)


def test_config_owns_a_frozen_copy_of_its_inputs():
    code = general_bcc(2, 4, 8)
    rng = np.random.default_rng(0)
    conf = rng.dirichlet(np.ones(4), size=(code.m, 4))
    cfg = DecoderConfig(code, conf, 0.5, 0.9, uniform_count_prior(0, 2), 4)
    y = [int(v) for v in rng.integers(0, 4, size=code.m)]
    before = decode(y, cfg).attack_posterior
    conf[:] = 0.25
    assert decode(y, cfg).attack_posterior == before
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.success_rate = 0.5
    with pytest.raises(ValueError):
        cfg.confusions[0, 0, 0] = 1.0


def test_config_count_prior_is_read_only_and_pickles():
    code = general_bcc(2, 2, 4)
    cfg = DecoderConfig(code, identity_confusions(code.m, 3), 0.5, 0.9,
                        uniform_count_prior(0, 2), 3)
    with pytest.raises(TypeError):
        cfg.count_prior[4] = 0.0
    assert cfg.kmax == 2 and sorted(cfg.count_prior) == [0, 1, 2]
    restored = pickle.loads(pickle.dumps(cfg))
    assert restored.count_prior == cfg.count_prior
    with pytest.raises(TypeError):
        restored.count_prior[4] = 0.0
    for name in ("_mask_matrix", "_mask_logw", "_group_first", "_group_logw", "_group_mask_idx"):
        assert np.array_equal(getattr(restored, name), getattr(cfg, name))
    assert restored._groups == cfg._groups


def test_config_tables_are_read_only_and_pickle_to_equal_tables():
    code = general_bcc(2, 2, 4)
    conf = np.random.default_rng(1).dirichlet(np.ones(3), size=(code.m, 3))
    cfg = DecoderConfig(code, conf, 0.5, 0.9, uniform_count_prior(0, 2), 3)
    derived = [f.name for f in dataclasses.fields(cfg) if not f.init]
    arrays = [name for name in derived if isinstance(getattr(cfg, name), np.ndarray)]
    assert len(arrays) == 9
    for name in arrays:
        with pytest.raises(ValueError, match="read-only"):
            getattr(cfg, name).flat[0] = 0
    with pytest.raises(TypeError):
        cfg._groups[1, 1] = 0
    restored = pickle.loads(pickle.dumps(cfg))
    for name in derived:
        got, want = getattr(restored, name), getattr(cfg, name)
        if name in arrays:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes() and not got.flags.writeable
        else:
            assert got == want


def test_configs_and_results_compare_and_hash_by_identity():
    code = general_bcc(2, 2, 4)
    cfg = DecoderConfig(code, identity_confusions(code.m, 3), 0.5, 0.9,
                        uniform_count_prior(0, 2), 3)
    restored = pickle.loads(pickle.dumps(cfg))
    assert cfg == cfg and cfg != restored
    assert {cfg: 1, restored: 2}[restored] == 2
    result = decode([0] * code.m, cfg)
    again = decode([0] * code.m, cfg)
    assert result == result and result != again
    assert {result: 1, again: 2}[again] == 2


def test_config_enumeration_budget(monkeypatch):
    # The tables count supports per (size, mask), so the 4.1M supports of
    # this column-duplicated code cost 4,325 updates and build.
    code = general_bcc(4, 4, 100)
    cfg = DecoderConfig(
        code, identity_confusions(code.m, 2), 0.5, 0.9, uniform_count_prior(0, 4), 2
    )
    assert len(cfg._mask_matrix) == 31 and len(cfg._groups) == 75
    # All sums of the identity differ: one update per support of size 1..3,
    # 6 + 15 + 20 = 41 of them.
    identity = BitMatrix.identity(6)
    make = functools.partial(
        DecoderConfig, identity, identity_confusions(6, 2), 0.5, 0.9, uniform_count_prior(0, 3), 2
    )
    monkeypatch.setattr(bitmatrix, "MAX_COLUMN_SETS", 41)
    make()
    monkeypatch.setattr(bitmatrix, "MAX_COLUMN_SETS", 40)
    with pytest.raises(ResourceLimitError, match="budget of 40 updates"):
        make()


# --- joint weight ----------------------------------------------------------------

def three_model_joint_weight(x, y, t, l):
    cfg = three_model_cfg()
    return oracles.naive_joint_weight(
        as_bits(cfg.code), cfg.confusions.tolist(), cfg.success_rate, cfg.count_prior, x, y, t, l
    )


def test_joint_weight_no_attackers_perfect_models():
    assert three_model_joint_weight((0, 0), (0, 0, 0), 1, 0) == pytest.approx(0.5)


def test_joint_weight_single_attacker_worked_example():
    assert three_model_joint_weight((1, 0), (1, 0, 1), 1, 0) == pytest.approx(0.25)


def test_joint_weight_failed_forced_target_is_zero():
    assert three_model_joint_weight((1, 0), (0, 0, 1), 1, 0) == 0.0


# --- attack posterior -------------------------------------------------------------

def test_attack_posterior_zero_prior_means_zero():
    cfg = three_model_cfg(attack_prior=0.0)
    for y in [(0, 0, 0), (1, 1, 1)]:
        assert attack_posterior(y, cfg) == 0.0
    noisy = DecoderConfig(
        code=THREE_MODEL_CODE,
        confusions=np.full((3, 2, 2), 0.5),
        attack_prior=0.0,
        success_rate=1.0,
        count_prior=uniform_count_prior(0, 1),
        num_classes=2,
    )
    for y in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
        assert attack_posterior(y, noisy) == 0.0


def test_attack_posterior_zero_prior_with_impossible_outputs_is_degenerate():
    # With no attack allowed and exact models, mixed outputs cannot occur at
    # all; that is a modeling contradiction, not a probability-zero answer.
    cfg = three_model_cfg(attack_prior=0.0)
    with pytest.raises(DegenerateEvidenceError):
        attack_posterior((1, 0, 1), cfg)


def test_attack_posterior_is_one_when_clean_cannot_explain():
    cfg = three_model_cfg()
    assert attack_posterior((1, 0, 1), cfg) == pytest.approx(1.0)


def test_attack_posterior_on_clean_looking_outputs():
    cfg = three_model_cfg()
    value = attack_posterior((0, 0, 0), cfg)
    assert value == pytest.approx(0.75 / 1.75)
    assert 0.0 < value < 1.0


# --- label posterior ----------------------------------------------------------------

def test_label_posterior_consistent_outputs_pick_that_class():
    cfg = three_model_cfg()
    post = label_posterior((1, 1, 1), cfg)
    assert int(np.argmax(post)) == 1


def test_label_posterior_worked_example_all_mass_on_true_label():
    cfg = three_model_cfg()
    post = label_posterior((1, 0, 1), cfg)
    assert post[0] == pytest.approx(1.0)


def test_label_posterior_uniform_confusions_are_uninformative():
    conf = np.full((3, 2, 2), 0.5)
    cfg = DecoderConfig(THREE_MODEL_CODE, conf, 0.5, 0.5, uniform_count_prior(0, 1), 2)
    post = label_posterior((1, 0, 1), cfg)
    assert post == pytest.approx([0.5, 0.5])


# --- attacker posterior ----------------------------------------------------------------

def test_attacker_posterior_identifies_single_attacker():
    cfg = three_model_cfg()
    post = attacker_posterior((1, 0, 1), cfg)
    assert post[(1, 0)] == pytest.approx(1.0)


def test_attacker_posterior_splits_on_symmetric_code():
    code = partition_code(2, 2)
    cfg = DecoderConfig(
        code, identity_confusions(2, 2), 0.5, 1.0, uniform_count_prior(0, 1), 2
    )
    post = attacker_posterior((1, 0), cfg)
    assert post[(1, 0)] == pytest.approx(0.5)
    assert post[(0, 1)] == pytest.approx(0.5)


def test_attacker_posterior_requires_positive_counts():
    cfg = DecoderConfig(
        THREE_MODEL_CODE, identity_confusions(3, 2), 0.5, 1.0, {0: 1.0}, 2
    )
    with pytest.raises(ValueError):
        attacker_posterior((0, 0, 0), cfg)


def test_attacker_posterior_refuses_outputs_no_attacker_explains():
    # Each user compromises one model, which emits the target; the other two
    # are perfect, so they would agree on the label, but all three differ.
    code = BitMatrix.identity(3)
    cfg = DecoderConfig(code, identity_confusions(3, 3), 0.5, 1.0, {1: 1.0}, 3)
    with pytest.raises(DegenerateEvidenceError, match="no attacker hypothesis has support"):
        attacker_posterior([0, 1, 2], cfg)


def test_attacker_posterior_recovers_planted_attackers_on_tracking_code():
    # The minimal correction code on 4 users has all Boolean sums distinct,
    # so with perfect models the planted set is always the argmax.
    code = minimal_bcc(2, 2)
    cfg = DecoderConfig(
        code, identity_confusions(code.m, 3), 0.5, 1.0, uniform_count_prior(0, 2), 3
    )
    for size in (1, 2):
        for support in combinations(range(4), size):
            y = [2 if any(code.bit(i, j) for j in support) else 0 for i in range(code.m)]
            post = attacker_posterior(y, cfg)
            best = max(post, key=post.get)
            assert best == tuple(1 if j in support else 0 for j in range(4))


# --- decode -----------------------------------------------------------------------------

def test_decode_worked_example():
    cfg = three_model_cfg()
    result = decode((1, 0, 1), cfg)
    assert result.attack_posterior == pytest.approx(1.0)
    assert result.decoded_label == 0
    assert result.decoded_attackers == (0,)
    assert result.attacker_posterior[(1, 0)] == pytest.approx(1.0)


def test_decode_with_zero_attack_prior_reports_clean():
    cfg = three_model_cfg(attack_prior=0.0)
    result = decode((0, 0, 0), cfg)
    assert result.attack_posterior == 0.0
    assert result.decoded_label == 0
    assert result.decoded_attackers == ()


def test_decode_threshold_gates_attacker_reporting():
    cfg = three_model_cfg()
    result = decode((0, 0, 0), cfg)  # attack posterior ~0.43
    assert result.decoded_attackers == ()
    result = decode((0, 0, 0), cfg, attack_threshold=0.3)
    assert result.decoded_attackers != ()


def test_decode_tie_breaks_toward_lowest_label():
    conf = np.full((3, 2, 2), 0.5)
    cfg = DecoderConfig(THREE_MODEL_CODE, conf, 0.5, 0.5, uniform_count_prior(0, 1), 2)
    result = decode((1, 0, 1), cfg)
    assert result.label_posterior == pytest.approx([0.5, 0.5])
    assert result.decoded_label == 0


def test_decode_posteriors_are_normalized():
    rng = np.random.default_rng(5)
    for _ in range(40):
        cfg, y = random_config(rng)
        try:
            result = decode(y, cfg)
        except DegenerateEvidenceError:
            continue
        assert result.label_posterior.sum() == pytest.approx(1.0, abs=1e-9)
        if result.attacker_posterior:
            total = sum(result.attacker_posterior.values())
            assert total == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= result.attack_posterior <= 1.0


def test_decode_raises_on_impossible_outputs():
    code = THREE_MODEL_CODE
    cfg = DecoderConfig(
        code, identity_confusions(3, 3), 0.5, 1.0, uniform_count_prior(0, 1), 3
    )
    raised = []
    for fn in (decode, attack_posterior, label_posterior):
        with pytest.raises(DegenerateEvidenceError) as info:
            fn((1, 2, 0), cfg)
        raised.append((str(info.value), info.value.diagnostics))
    assert raised == [raised[0]] * 3
    assert raised[0][1] == {"attack_prior": 0.5, "success_rate": 1.0}


def test_smaller_attacker_sets_are_preferred_when_masks_tie():
    # Duplicated columns: user 0 and user 4 compromise the same models, so
    # {0} and {0, 4} explain identical outputs; the combinatorial weight
    # must strictly favor the singleton.
    code = general_bcc(2, 4, 8)
    cfg = DecoderConfig(
        code, identity_confusions(code.m, 3), 0.5, 1.0, uniform_count_prior(0, 2), 3
    )
    y = [2 if code.bit(i, 0) else 0 for i in range(code.m)]
    post = attacker_posterior(y, cfg)
    single = tuple(1 if j == 0 else 0 for j in range(8))
    pair = tuple(1 if j in (0, 4) else 0 for j in range(8))
    assert post[single] > post[pair] > 0.0


def test_label_posterior_is_equivariant_under_class_relabeling():
    rng = np.random.default_rng(11)
    for _ in range(10):
        cfg, y = random_config(rng)
        c = cfg.num_classes
        perm = rng.permutation(c)
        conf2 = cfg.confusions[:, np.argsort(perm), :][:, :, np.argsort(perm)]
        cfg2 = DecoderConfig(
            cfg.code, conf2, cfg.attack_prior, cfg.success_rate, cfg.count_prior, c
        )
        y2 = tuple(int(perm[v]) for v in y)
        try:
            base = label_posterior(y, cfg)
            mapped = label_posterior(y2, cfg2)
        except DegenerateEvidenceError:
            continue
        assert mapped[perm] == pytest.approx(base, rel=1e-9, abs=1e-12)


# --- oracle equivalence -------------------------------------------------------------------

def test_posteriors_match_naive_oracle_on_random_configs():
    rng = np.random.default_rng(123)
    checked = grouped = 0
    for trial in range(80):
        cfg, y = random_config(rng) if trial < 60 else grouped_config(rng)
        attack_o, labels_o, attackers_o = oracle_for(cfg, y)
        if attack_o is None:
            with pytest.raises(DegenerateEvidenceError):
                attack_posterior(y, cfg)
            continue
        assert attack_posterior(y, cfg) == pytest.approx(attack_o, rel=1e-12, abs=1e-300)
        assert label_posterior(y, cfg) == pytest.approx(labels_o, rel=1e-12, abs=1e-300)
        if attackers_o is not None and cfg.kmax >= 1:
            mine = attacker_posterior(y, cfg)
            assert list(decode(y, cfg).attacker_posterior.items()) == list(mine.items())
            assert set(mine) == set(attackers_o)
            for key, value in attackers_o.items():
                assert mine[key] == pytest.approx(value, rel=1e-12, abs=1e-300)
            grouped += shares_groups(cfg, mine)
        checked += 1
    assert checked >= 45 and grouped >= 15


# (classes, models, success rate): m > c at c = 2, and m < c.
@pytest.mark.parametrize("classes,models,success_rate", [
    (2, 5, 0.99), (2, 7, 0.0), (2, 4, 1.0), (5, 3, 0.99), (6, 2, 0.0), (4, 3, 1.0),
])
def test_evidence_matches_the_naive_loop(classes, models, success_rate):
    rng = np.random.default_rng(100 * classes + models)
    degenerate = 0
    for trial in range(12):
        n = int(rng.integers(1, 5))
        bits = rng.integers(0, 2, size=(models, n))
        bits[0, 0] = 1
        if trial % 3 == 0:
            conf = identity_confusions(models, classes)
        else:
            conf = rng.dirichlet(np.ones(classes), size=(models, classes))
            if trial % 3 == 2:
                # Hard zeros: a row with one entry, and a zero entry elsewhere.
                conf[0, 0] = np.eye(classes)[1]
                conf[-1, -1, 0] = 0.0
                conf[-1, -1] /= conf[-1, -1].sum()
        cfg = DecoderConfig(BitMatrix.from_array(bits), conf, 0.5, success_rate,
                            uniform_count_prior(0, min(n, 2)), classes)
        y = rng.integers(0, classes, size=(6, models))
        y[0] = np.arange(models) % 2  # unexplained by exact models that never err
        with np.errstate(divide="ignore", invalid="ignore"):
            ev = decoder._evidence(y, cfg)
        masks = [sum(int(bit) << i for i, bit in enumerate(row)) for row in cfg._mask_matrix]
        for b, row in enumerate(y.tolist()):
            by_label, total = oracles.naive_evidence(
                masks, cfg.confusions.tolist(), success_rate, classes, row)
            for got, want in ((ev.mask_by_label[b], np.array(by_label).T),
                              (ev.mask_total[b], np.array(total))):
                assert np.array_equal(got == -np.inf, want == -np.inf)
                finite = want > -np.inf
                assert np.allclose(got[finite], want[finite], rtol=0, atol=1e-12)
            degenerate += all(v == -math.inf for v in total)
    assert degenerate > 0


@st.composite
def table_configs(draw):
    """A config on a random code, on ``general_bcc`` or on a random code with
    repeated columns, whose count prior may skip counts, put zero mass on
    some and include count 0 or not; plus a block of outputs, one row drawn
    from a planted attack."""
    source = draw(st.sampled_from(["random", "general_bcc", "repeated"]))
    if source == "general_bcc":
        k, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        code = general_bcc(k, r, draw(st.integers(k + r, 9)))
    else:
        m, n = draw(st.integers(1, 6)), draw(st.integers(1, 8))
        code = BitMatrix.from_rows(
            [[draw(st.integers(0, 1)) for _ in range(n)] for _ in range(m)]
        )
        if source == "repeated":
            columns = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=9))
            code = select_columns(code, columns)
    counts = draw(st.sets(st.integers(0, min(code.n, 4)), min_size=1))
    masses = {count: draw(st.sampled_from([0, 0, 1, 2, 5])) for count in sorted(counts)}
    assume(any(masses.values()))
    prior = {count: mass / sum(masses.values()) for count, mass in masses.items()}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = int(rng.integers(2, 4))
    conf = 0.5 * rng.dirichlet(np.ones(c), size=(code.m, c)) + 0.5 * np.eye(c)
    cfg = DecoderConfig(code, conf, float(rng.uniform(0.3, 0.95)), 0.9, prior, c)
    support = rng.choice(code.n, size=int(rng.integers(1, min(code.n, 3) + 1)), replace=False)
    planted = [1 if any(code.bit(i, int(j)) for j in support) else 0 for i in range(code.m)]
    outputs = np.vstack([planted, rng.integers(0, c, size=(4, code.m))])
    return cfg, outputs


@settings(max_examples=200, deadline=None)
@given(table_configs())
def test_config_tables_match_the_support_enumeration(case):
    cfg, outputs = case
    masks, mask_logw, groups, first, group_logw, mask_idx = oracles.naive_decoder_tables(
        as_bits(cfg.code), cfg.count_prior
    )
    assert [int(row @ (1 << np.arange(cfg.code.m))) for row in cfg._mask_matrix] == masks
    assert list(cfg._groups.items()) == list(groups.items())
    width = max(map(len, first), default=0)
    firsts = [oracles.padded(support, width) for support in [*first, ()]]
    assert cfg._group_first.tolist() == firsts
    assert cfg._group_mask_idx.tolist() == mask_idx
    assert cfg._group_logw.tolist() == group_logw
    # The mask weights are summed in another order: equal to 1e-13
    # relative, so their logs to 1e-13 absolute.
    assert cfg._mask_logw.tolist() == pytest.approx(mask_logw, rel=1e-13, abs=1e-13)
    enumerated = copy.copy(cfg)
    tables = {
        "_mask_matrix": np.array(
            [[(mask >> i) & 1 for i in range(cfg.code.m)] for mask in masks], dtype=float
        ),
        "_mask_logw": np.array(mask_logw),
        "_groups": groups,
        "_group_first": np.array(firsts, dtype=int),
        "_group_logw": np.array(group_logw),
        "_group_mask_idx": np.array(mask_idx, dtype=int),
    }
    for name, value in tables.items():
        object.__setattr__(enumerated, name, value)
    got, want = decode_block(outputs, cfg), decode_block(outputs, enumerated)
    assert got.decoded_label.tolist() == want.decoded_label.tolist()
    assert got.decoded_attackers.tolist() == want.decoded_attackers.tolist()
    assert got.degenerate.tolist() == want.degenerate.tolist()


def test_decoded_attackers_are_the_first_most_probable_hypothesis():
    # The attacker hypotheses follow the empty support when count 0 has mass
    # and start at the first support otherwise; the two fixed priors are the
    # cases without the empty support.  The last source draws column-
    # duplicated codes, where the first maximal group holds several supports.
    rng = np.random.default_rng(29)
    priors = (None, {1: 0.5, 2: 0.5}, {0: 0.0, 1: 1.0}, "grouped")
    checked = [0] * len(priors)
    grouped = 0
    for trial in range(320):
        which = trial % len(priors)
        cfg, y = (grouped_config if priors[which] == "grouped" else random_config)(rng)
        if isinstance(priors[which], dict):
            if max(priors[which]) > cfg.code.n:
                continue
            cfg = dataclasses.replace(cfg, count_prior=priors[which])
        try:
            result = decode(y, cfg)
        except DegenerateEvidenceError:
            continue
        if result.attack_posterior <= 0.5 or not result.attacker_posterior:
            assert result.decoded_attackers == ()
            continue
        post = attacker_posterior(y, cfg)
        assert list(result.attacker_posterior.items()) == list(post.items())
        attackers_o = oracle_for(cfg, y)[2]
        assert set(post) == set(attackers_o)
        for key, value in attackers_o.items():
            assert post[key] == pytest.approx(value, rel=1e-12, abs=1e-300)
        best = max(post.values())
        first = next(key for key, prob in post.items() if prob == best)
        assert result.decoded_attackers == tuple(j for j, bit in enumerate(first) if bit)
        checked[which] += 1
        grouped += sum(prob == best for prob in post.values()) > 1
    assert min(checked) >= 10 and grouped >= 40


# --- idealized sweeps (small-scale versions of the acceptance runs) -----------------------

def idealized_outputs(code, support, target, label):
    return [
        target if any(code.bit(i, j) for j in support) else label
        for i in range(code.m)
    ]


@pytest.mark.parametrize(
    "code,k",
    [
        (minimal_bcc(1, 1), 1),
        (minimal_bcc(1, 3), 1),
        (minimal_bcc(2, 2), 2),
        (general_bcc(2, 2, 6), 2),
        (general_bcc(1, 2, 5), 1),
        (partition_code(5, 8), 2),
    ],
)
def test_correction_codes_always_recover_the_label_with_perfect_models(code, k):
    c = 3
    cfg = DecoderConfig(
        code, identity_confusions(code.m, c), 0.5, 1.0, uniform_count_prior(0, k), c
    )
    for size in range(0, k + 1):
        for support in combinations(range(code.n), size):
            for label in range(c):
                for target in range(c):
                    if size > 0 and target == label:
                        continue
                    y = idealized_outputs(code, support, target if size else 0, label)
                    result = decode(y, cfg)
                    assert result.decoded_label == label


def test_tracking_codes_also_recover_the_attackers():
    code = minimal_bcc(2, 2)  # separable, see test_properties
    c = 3
    cfg = DecoderConfig(
        code, identity_confusions(code.m, c), 0.5, 1.0, uniform_count_prior(0, 2), c
    )
    for size in (1, 2):
        for support in combinations(range(code.n), size):
            y = idealized_outputs(code, support, 1, 0)
            result = decode(y, cfg)
            assert result.attack_posterior > 0.5
            assert result.decoded_attackers == support
    clean = decode(idealized_outputs(code, (), 0, 2), cfg)
    assert clean.attack_posterior < 0.5
    assert clean.decoded_attackers == ()


@pytest.mark.parametrize("make", [random_config, grouped_config, exact_models_config])
def test_block_decoding_equals_one_row_decoding(make):
    rng = np.random.default_rng(23)
    degenerate = 0
    for _ in range(60):
        cfg, y = make(rng)
        others = rng.integers(0, cfg.num_classes, size=(int(rng.integers(0, 9)), cfg.code.m))
        block = np.vstack([np.array([y]), others, np.array([y])])
        got = decode_block(block, cfg)
        for b, row in enumerate(block):
            try:
                want = decode(row, cfg)
            except DegenerateEvidenceError:
                assert got.degenerate[b]
                degenerate += 1
                continue
            assert not got.degenerate[b]
            assert got.attack_posterior[b] == want.attack_posterior
            assert got.label_posterior[b].tobytes() == want.label_posterior.tobytes()
            assert got.decoded_label[b] == want.decoded_label
            assert got.decoded_attackers[b].tolist() == oracles.padded(
                want.decoded_attackers, got.decoded_attackers.shape[1])
            assert got.scores[b].tobytes() == want._scores.tobytes()
    if make is exact_models_config:
        assert degenerate > 0


def test_block_group_is_the_reported_group_of_every_row():
    # Exact models and certain success: rows no hypothesis explains are
    # degenerate, clean-looking rows stay below the threshold, and planted
    # attacks are reported.  A count prior without positive mass has no
    # group at all.
    code = general_bcc(2, 2, 6)
    conf = identity_confusions(code.m, 3)
    seen = {"degenerate": 0, "below": 0, "reported": 0, "no group": 0}
    for prior, attack_prior in ((uniform_count_prior(0, 2), 0.5), ({0: 1.0, 2: 0.0}, 0.9)):
        cfg = DecoderConfig(code, conf, attack_prior, 1.0, prior, 3)
        rng = np.random.default_rng(5)
        planted = [idealized_outputs(code, support, 1, 0)
                   for support in combinations(range(code.n), 2)]
        block = np.vstack([planted, rng.integers(0, 3, size=(40, code.m)), np.zeros((3, code.m), int)])
        got = decode_block(block, cfg)
        assert got.decoded_attackers.shape == (len(block), max(k for k in prior if prior[k]))
        # Every group has a nonempty first support, so a reported row starts with a user.
        for b, row in enumerate(got.decoded_attackers.tolist()):
            if row and row[0] >= 0:
                assert row == cfg._group_first[got.scores[b].argmax()].tolist()
                seen["reported"] += 1
                continue
            assert row == [-1] * len(row)
            if not cfg._groups:
                seen["no group"] += 1
            elif got.degenerate[b]:
                seen["degenerate"] += 1
            else:
                assert got.attack_posterior[b] <= 0.5
                seen["below"] += 1
    assert min(seen.values()) > 0


# The benchmark's three simulate configs and its 40-user cold-decode config.
@pytest.mark.parametrize("k,r,n,q", [(2, 4, 8, 3), (3, 4, 24, 3), (4, 4, 24, 2), (4, 4, 40, 4)])
def test_block_rows_keep_the_kernel_arrays_within_block_entries(k, r, n, q):
    code, c = general_bcc(k, r, n), 10
    confusions = synth_confusion(code, dirichlet_profiles(0.1, n, c, seed=0))
    cfg = DecoderConfig(code, confusions, 0.5, 0.99, uniform_count_prior(0, q), c)
    rows, widths = cfg.block_rows, (code.m, len(cfg._mask_matrix))
    # The per-model factors, (c_t, T, c_l, m), and the log-likelihoods,
    # (c_t, T, c_l, B), at the most rows that keep both within the bound.
    assert all(c * rows * c * w <= decoder.BLOCK_ENTRIES for w in widths)
    assert c * (rows + 1) * c * max(widths) > decoder.BLOCK_ENTRIES
    # What the kernel holds at once: those two and the smaller arrays.
    y = np.random.default_rng(0).integers(0, c, size=(rows, code.m))
    decode_block(y, cfg)
    tracemalloc.start()
    try:
        decode_block(y, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * decoder.BLOCK_ENTRIES * 8


def test_decode_block_validation():
    cfg = three_model_cfg()
    assert decode_block(np.zeros((0, 3), dtype=int), cfg).degenerate.shape == (0,)
    for bad in ([0, 1, 1], [[0, 1]], [[0, 1, 2]], [[0.9, 1.2, 1.0]]):
        with pytest.raises(ValueError):
            decode_block(bad, cfg)


def test_outputs_that_are_not_integers_are_refused():
    cfg = three_model_cfg()
    for bad in ([0.9, 1.2, 1.0], [0, 1, math.nan], ["0", "1", "1"]):
        for fn in (decode, attack_posterior, label_posterior, attacker_posterior):
            with pytest.raises(ValueError, match="integer class indices"):
                fn(bad, cfg)
    # Integral values of any numeric type decode as the ints they equal.
    want = decode([0, 1, 1], cfg)
    for same in ([0.0, 1.0, 1.0], np.array([0, 1, 1], dtype=np.uint8), [False, True, True]):
        got = decode(same, cfg)
        assert got.attack_posterior == want.attack_posterior
        assert got.decoded_attackers == want.decoded_attackers


def test_integer_outputs_are_used_without_a_copy():
    block = np.array([[0, 1, 1], [1, 0, 1]])
    assert decoder._class_indices(block, 2) is block
    assert np.shares_memory(decoder._validate_outputs(block, three_model_cfg(), block=True), block)


# --- majority vote / confusion estimation -------------------------------------------------

def test_majority_vote_examples():
    assert majority_vote((1, 0, 1), 2) == 1
    assert majority_vote((2, 2, 3, 3), 4) == 2
    assert majority_vote((0, 0, 0), 3) == 0


def test_majority_vote_validation():
    with pytest.raises(ValueError):
        majority_vote((), 2)
    with pytest.raises(ValueError):
        majority_vote((0, 2), 2)
    with pytest.raises(ValueError):
        majority_vote([[0, 1]], 2)
    with pytest.raises(ValueError, match="integer class indices"):
        majority_vote((0.9, 1.2, 1.0), 2)
    with pytest.raises(ValueError, match="integer class indices"):
        majority_votes([[0.9, 1.2, 1.0]], 2)


def test_majority_votes_are_the_row_votes():
    block = np.random.default_rng(4).integers(0, 4, size=(50, 5))
    modes = [int(np.argmax(np.bincount(y, minlength=4))) for y in block]
    assert majority_votes(block, 4).tolist() == modes
    for bad in ([0, 1], np.zeros((2, 0), dtype=int), [[0, 4]]):
        with pytest.raises(ValueError):
            majority_votes(bad, 4)


def test_estimate_confusion_perfect_predictions():
    pairs = [(0, 0)] * 5 + [(1, 1)] * 5
    assert np.array_equal(estimate_confusion(pairs, 2, smoothing=0.0), np.eye(2))


def test_estimate_confusion_no_data_is_uniform():
    assert np.array_equal(estimate_confusion([], 3), np.full((3, 3), 1 / 3))


def test_estimate_confusion_frequencies():
    pairs = [(0, 0)] * 9 + [(0, 1)]
    out = estimate_confusion(pairs, 2, smoothing=0.0)
    assert out[0] == pytest.approx([0.9, 0.1])
    assert out[1] == pytest.approx([0.5, 0.5])  # empty row falls back to uniform


def test_estimate_confusion_smoothing():
    out = estimate_confusion([(0, 0)], 2, smoothing=1.0)
    assert out[0] == pytest.approx([2 / 3, 1 / 3])
    assert out.sum(axis=1) == pytest.approx([1.0, 1.0])
