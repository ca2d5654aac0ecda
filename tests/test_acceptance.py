"""Acceptance suite: one test per release criterion.

Each test prints a single ``ACCEPTANCE <id> ...: PASS|FAIL`` line (visible
under ``pytest -s`` or on failure) and then asserts.  Tolerances and budgets
are fixed here, not configurable.
"""

import math
import time
from itertools import combinations

import numpy as np
import pytest

from bcode import formats
from bcode.bitmatrix import BitMatrix
from bcode.cli import main as cli_main
from bcode.construct import (
    add_ones_row,
    btc,
    general_bcc,
    minimal_bdc,
    partition_code,
)
from bcode.decoder import (
    DecoderConfig,
    attack_posterior,
    attacker_posterior,
    decode,
    identity_confusions,
    label_posterior,
    majority_vote,
    uniform_count_prior,
)
from bcode.errors import DegenerateEvidenceError
from bcode.properties import CodeKind, verify
from bcode.search import exhaustive_min
from bcode.simulate import (
    Scenario,
    dirichlet_profiles,
    run_trials,
    sample_outputs,
    synth_confusion,
)

import oracles


def report(ident, ok, detail):
    print(f"ACCEPTANCE {ident}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def idealized_outputs(code, support, target, label):
    return [
        target if any(code.bit(i, j) for j in support) else label
        for i in range(code.m)
    ]


def test_01_minimal_detection_codes_have_binomial_rows():
    start = time.perf_counter()
    failures = []
    for k in range(1, 8):
        for r in range(1, 8):
            if k + r > 8:
                continue
            mat = minimal_bdc(k, r)
            if mat.m != math.comb(k + r, k) or not verify(mat, CodeKind.BDC, k, r):
                failures.append((k, r))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    assert report(
        "01 minimal-detection-construction", ok,
        f"all k+r<=8 pairs, {elapsed:.1f}s < 60s, failures={failures}"
    )


def test_02_correction_split_between_weight_one_and_higher():
    bad = []
    for k in range(1, 8):
        for r in range(2, 8):
            if k + r > 8:
                continue
            if not verify(minimal_bdc(k, r), CodeKind.BCC, k, r):
                bad.append(("bcc", k, r))
    for k in range(1, 7):
        eye = BitMatrix.identity(k + 1)
        if verify(eye, CodeKind.BCC, k, 1):
            bad.append(("identity-bcc", k))
        if not verify(add_ones_row(eye), CodeKind.BCC, k, 1):
            bad.append(("ones-row", k))
    ok = not bad
    assert report("02 correction-split", ok, f"exact boolean checks, failures={bad}")


def test_03_exhaustive_search_concordance():
    start = time.perf_counter()
    bdc = exhaustive_min(CodeKind.BDC, 2, 2, 4, 8)
    t_bdc = time.perf_counter() - start
    start = time.perf_counter()
    bcc = exhaustive_min(CodeKind.BCC, 2, 1, 3, 6)
    t_bcc = time.perf_counter() - start
    ok = (
        bdc.min_rows == 6
        and len(bdc.codes) == 1
        and bcc.min_rows == 4
        and t_bdc < 30.0
        and t_bcc < 30.0
    )
    assert report(
        "03 exhaustive-search", ok,
        f"BDC(2,2,4): m={bdc.min_rows} classes={len(bdc.codes)} {t_bdc:.2f}s; "
        f"BCC(2,1,3): m={bcc.min_rows} {t_bcc:.2f}s"
    )


def test_04_duplication_keeps_row_count_constant():
    rows = []
    ok = True
    for j in (0, 1, 2):
        mat = general_bcc(2, 2 * 2**j, 4 * 2**j)
        rows.append(mat.m)
        ok = ok and mat.m == 6 and verify(mat, CodeKind.BCC, 2, 2 * 2**j)
    assert report("04 scale-independence", ok, f"row counts {rows} (expect [6, 6, 6])")


def _random_decoder_config(rng):
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
    attack_prior = float(rng.choice([0.0, 1.0, rng.uniform(0.05, 0.95)]))
    success_rate = float(rng.choice([0.0, 1.0, rng.uniform(0.05, 0.95)]))
    raw = rng.uniform(0.05, 1.0, size=kmax + 1)
    q = {i: float(p / raw.sum()) for i, p in enumerate(raw)}
    cfg = DecoderConfig(code, conf, attack_prior, success_rate, q, c)
    y = tuple(int(v) for v in rng.integers(0, c, size=m))
    return cfg, y


def test_05_decoder_matches_naive_oracle_on_200_configs():
    rng = np.random.default_rng(2024)
    mismatches = 0
    degenerate = 0
    for _ in range(200):
        cfg, y = _random_decoder_config(rng)
        bits = [[cfg.code.bit(i, j) for j in range(cfg.code.n)] for i in range(cfg.code.m)]
        attack_o, labels_o, attackers_o = oracles.naive_posteriors(
            bits, cfg.confusions.tolist(), cfg.attack_prior, cfg.success_rate,
            cfg.count_prior, cfg.num_classes, list(y),
        )
        if attack_o is None:
            degenerate += 1
            try:
                attack_posterior(y, cfg)
                mismatches += 1
            except DegenerateEvidenceError:
                pass
            continue
        rel = lambda a, b: abs(a - b) <= 1e-12 * max(abs(a), abs(b)) + 1e-300
        if not rel(attack_posterior(y, cfg), attack_o):
            mismatches += 1
            continue
        mine_labels = label_posterior(y, cfg)
        if not all(rel(a, b) for a, b in zip(mine_labels, labels_o)):
            mismatches += 1
            continue
        if attackers_o is not None and cfg.kmax >= 1:
            mine = attacker_posterior(y, cfg)
            if set(mine) != set(attackers_o) or not all(
                rel(mine[k], v) for k, v in attackers_o.items()
            ):
                mismatches += 1
    ok = mismatches == 0
    assert report(
        "05 decoder-oracle-equivalence", ok,
        f"200 random configs, rel tol 1e-12, mismatches={mismatches}, "
        f"degenerate-agreements={degenerate}"
    )


@pytest.mark.parametrize("k,r,n", [(2, 2, 4), (2, 4, 8)])
def test_06_idealized_correction_sweep(k, r, n):
    start = time.perf_counter()
    code = general_bcc(k, r, n)
    c = 10
    cfg = DecoderConfig(
        code, identity_confusions(code.m, c), 0.5, 1.0, uniform_count_prior(0, k), c
    )
    total = 0
    wrong = 0
    for size in range(0, k + 1):
        for support in combinations(range(n), size):
            for label in range(c):
                for target in range(c):
                    if target == label:
                        continue
                    y = idealized_outputs(code, support, target, label)
                    total += 1
                    if decode(y, cfg).decoded_label != label:
                        wrong += 1
    elapsed = time.perf_counter() - start
    ok = wrong == 0 and elapsed < 300.0
    assert report(
        f"06 idealized-correction BCC({k},{r},{n})", ok,
        f"{total} configurations, wrong={wrong}, {elapsed:.1f}s < 300s"
    )


@pytest.mark.parametrize("k,r,n,seed", [(1, 11, 16, 0), (2, 4, 16, 0)])
def test_07_idealized_tracking_sweep(k, r, n, seed):
    start = time.perf_counter()
    code = btc(k, r, n, seed=seed, max_rows=32)
    c = 10
    cfg = DecoderConfig(
        code, identity_confusions(code.m, c), 0.5, 1.0, uniform_count_prior(0, k), c
    )
    bad = 0
    total = 0
    tp_by_count = {}
    for size in range(0, k + 1):
        for support in combinations(range(n), size):
            for label in range(c):
                for target in range(c):
                    if target == label:
                        continue
                    y = idealized_outputs(code, support, target, label)
                    result = decode(y, cfg)
                    found = set(result.decoded_attackers)
                    tp = len(found & set(support))
                    fp = len(found - set(support))
                    total += 1
                    tp_by_count.setdefault(size, []).append(tp)
                    if tp != size or fp != 0:
                        bad += 1
    elapsed = time.perf_counter() - start
    means = {size: float(np.mean(v)) for size, v in sorted(tp_by_count.items())}
    ok = bad == 0
    assert report(
        f"07 idealized-tracking BTC({k},{r},{n})", ok,
        f"{total} configurations, exact TP/FP failures={bad}, "
        f"TP means by count {means}, {elapsed:.1f}s"
    )


def test_08_majority_vote_bound():
    k = 2
    c = 10
    part = partition_code(2 * k + 1, 10)
    majority_always = True
    for size in range(0, k + 1):
        for support in combinations(range(part.n), size):
            for label in range(c):
                for target in range(c):
                    if target == label:
                        continue
                    y = idealized_outputs(part, support, target, label)
                    if majority_vote(y, c) != label:
                        majority_always = False

    rich = general_bcc(2, 4, 8)
    cfg = DecoderConfig(
        rich, identity_confusions(rich.m, c), 0.5, 1.0, uniform_count_prior(0, 2), c
    )
    majority_fails_somewhere = False
    decode_always = True
    for size in (1, 2):
        for support in combinations(range(rich.n), size):
            y = idealized_outputs(rich, support, 1, 0)
            if majority_vote(y, c) != 0:
                majority_fails_somewhere = True
            if decode(y, cfg).decoded_label != 0:
                decode_always = False
    ok = majority_always and majority_fails_somewhere and decode_always
    assert report(
        "08 majority-vote-bound", ok,
        f"partition(5,10) majority exact={majority_always}; "
        f"BCC(2,4,8): majority beaten somewhere={majority_fails_somewhere}, "
        f"decode exact={decode_always}"
    )


def _clean_accuracy(code, profile, classes, seed):
    conf = synth_confusion(code, profile)
    cfg = DecoderConfig(code, conf, 0.5, 0.99, uniform_count_prior(0, 3), classes)
    return run_trials(cfg, 0, trials=1000, seed=seed).decode_accuracy


def test_09i_clean_accuracy_ordering_across_row_weights():
    """Clean accuracy should order r=1 < r=4 < r=6 in >= 9/10 seeds.

    Known-red criterion: with independent synthetic confusion noise the
    posterior evidence is additive over (model, user) slots, so the 15-model
    r=4 code dominates the 6-model r=6 code for every calibration of the
    saturating accuracy curve; the expected ordering relies on correlated
    errors of real trained models, which the synthetic stand-in does not
    (and is not meant to) reproduce.
    """
    start = time.perf_counter()
    classes = 10
    codes = [
        ("r1", partition_code(12, 12)),
        ("r4", general_bcc(4, 4, 12)),
        ("r6", general_bcc(2, 6, 12)),
    ]
    ordered_seeds = 0
    rows = []
    for seed in range(10):
        profile = dirichlet_profiles(0.1, 12, classes, seed=seed)
        acc = {name: _clean_accuracy(code, profile, classes, seed) for name, code in codes}
        rows.append(acc)
        if acc["r1"] < acc["r4"] < acc["r6"]:
            ordered_seeds += 1
    elapsed = time.perf_counter() - start
    means = {k: round(float(np.mean([r[k] for r in rows])), 3) for k in ("r1", "r4", "r6")}
    ok = ordered_seeds >= 9 and elapsed < 600.0
    assert report(
        "09i clean-accuracy-ordering", ok,
        f"ordered in {ordered_seeds}/10 seeds (need >=9), mean accuracies {means}, "
        f"{elapsed:.0f}s"
    )


def test_09ii_one_attacker_defended_two_not():
    start = time.perf_counter()
    classes = 10
    code = general_bcc(2, 4, 8)
    hits = 0
    gaps = []
    for seed in range(10):
        profile = dirichlet_profiles(0.1, 8, classes, seed=seed)
        conf = synth_confusion(code, profile)
        cfg = DecoderConfig(code, conf, 0.5, 0.99, uniform_count_prior(0, 3), classes)
        one = run_trials(cfg, 1, trials=1000, seed=seed).decode_accuracy
        two = run_trials(cfg, 2, trials=1000, seed=seed).decode_accuracy
        gaps.append(one - two)
        if one - two >= 0.1:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits >= 9 and elapsed < 600.0
    assert report(
        "09ii reliability-cliff", ok,
        f"gap >= 0.1 in {hits}/10 seeds (need >=9), mean gap {np.mean(gaps):.3f}, "
        f"{elapsed:.0f}s < 600s"
    )


def test_10_sampled_outputs_match_analytic_likelihoods():
    code = BitMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
    confusions = np.array(
        [
            [[0.8, 0.2], [0.3, 0.7]],
            [[0.9, 0.1], [0.4, 0.6]],
            [[0.6, 0.4], [0.25, 0.75]],
        ]
    )
    success = 0.8
    scenario = Scenario.from_support(2, [0], 1, 0)
    samples = 100_000
    counts = {}
    for s in range(samples):
        y = tuple(sample_outputs(code, scenario, confusions, success, seed=s))
        counts[y] = counts.get(y, 0) + 1

    mask = code.column_masks[0]
    worst = 0.0
    ok = True
    for y in [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]:
        prob = 1.0
        for i in range(3):
            clean = confusions[i, scenario.true_label, y[i]]
            if (mask >> i) & 1:
                prob *= success * (1.0 if y[i] == scenario.target else 0.0) \
                    + (1 - success) * clean
            else:
                prob *= clean
        se = math.sqrt(prob * (1 - prob) / samples)
        dev = abs(counts.get(y, 0) / samples - prob)
        worst = max(worst, dev / se if se > 0 else (1.0 if dev else 0.0))
        if dev > 3 * se + 1e-12:
            ok = False
    assert report(
        "10 generative-consistency", ok,
        f"{samples} samples, worst deviation {worst:.2f} standard errors (limit 3)"
    )


def test_11_randomized_commands_are_byte_identical(tmp_path, capsys):
    specs = {
        "random": ["construct", "--kind", "random", "--m", "6", "--n", "12",
                    "--row-weight", "4", "--seed", "13"],
        "btc": ["construct", "--kind", "btc", "--k", "2", "--r", "2", "--n", "8",
                 "--seed", "13", "--max-rows", "24"],
    }
    ok = True
    for name, argv in specs.items():
        contents = []
        for attempt in ("x", "y"):
            path = tmp_path / f"{name}-{attempt}.bcode"
            assert cli_main(argv + ["-o", str(path)]) == 0
            contents.append(path.read_bytes())
        ok = ok and contents[0] == contents[1]

    code = tmp_path / "sim.bcode"
    cli_main(["construct", "--kind", "bcc", "--k", "2", "--r", "4", "--n", "8",
              "-o", str(code)])
    sim_outputs = []
    for attempt in ("x", "y"):
        out = tmp_path / f"sim-{attempt}"
        assert cli_main([
            "simulate", "--code", str(code), "--alpha", "0.1", "--classes", "6",
            "--trials", "50", "--runs", "2", "--attackers", "0,1", "--seed", "21",
            "--threads", "1", "--out", str(out),
        ]) == 0
        sim_outputs.append(
            (out.with_suffix(".json").read_bytes(), out.with_suffix(".csv").read_bytes())
        )
    ok = ok and sim_outputs[0] == sim_outputs[1]

    search_runs = []
    for attempt in range(2):
        path = tmp_path / f"search-{attempt}.json"
        assert cli_main(["search", "--kind", "bcc", "--k", "2", "--r", "1", "--n", "3",
                         "--max-m", "6", "--out", str(path)]) == 0
        search_runs.append(path.read_bytes())
    ok = ok and search_runs[0] == search_runs[1]
    capsys.readouterr()
    assert report(
        "11 determinism", ok,
        "construct random/btc, simulate, search all byte-identical across reruns"
    )
