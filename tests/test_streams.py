import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcode import _streams

import oracles

SRC = Path(__file__).resolve().parent.parent / "src" / "bcode"


# One-, two- and many-word seeds, and trial words at both ends and the
# middle of their 32 bits.
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64, 2**200, 2**600 + 7])
@pytest.mark.parametrize("length", [1, 17, 130])
def test_the_kernel_reads_the_streams_default_rng_seeds(seed, length):
    trials = np.array([0, 1, 2**31, 2**32 - 1], dtype=np.uint32)
    entropy = _streams.seed_entropy([seed])
    raw = _streams.pcg64_raw(_streams.seed_words(entropy, np.zeros(len(trials), int), trials), length)
    for t, row in zip(trials.tolist(), raw, strict=True):
        assert row.tolist() == np.random.PCG64([seed, t]).random_raw(length).tolist()


@pytest.mark.parametrize("seed", [1, 2**32 + 5, 2**200 + 3])
def test_the_generator_draws_the_stream_default_rng_seeds(seed):
    # Seeds of one, two and many words.
    trials = np.array([0, 7, 2**32 - 1], dtype=np.uint32)
    words = _streams.seed_words(_streams.seed_entropy([seed]), np.zeros(len(trials), int), trials)
    for t, row in zip(trials.tolist(), words, strict=True):
        got, want = _streams.generator(row), np.random.default_rng([seed, t])
        assert got.bit_generator.state == want.bit_generator.state
        assert got.random(5).tolist() == want.random(5).tolist()


def test_the_generator_seeds_from_the_words_not_their_memory_layout():
    words = _streams.seed_words(_streams.seed_entropy([3]), np.zeros(2, int),
                                np.arange(2, dtype=np.uint32))
    strided = np.asfortranarray(words)[1]
    assert not strided.flags.c_contiguous
    assert (_streams.generator(strided).bit_generator.state
            == np.random.default_rng([3, 1]).bit_generator.state)
    # A bit generator that asks for other words than four uint64 is refused.
    with pytest.raises(ValueError):
        np.random.MT19937(_streams._seed_words()(words[1]))


def test_importing_the_package_leaves_numpy_random_unloaded():
    # generator's seed sequence type is made on its first call, since
    # importing numpy.random takes about 10 ms and 6 MB.
    probe = "import sys, bcode, bcode.cli; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout == "False\n"


def pcg64_at(state, inc):
    bits = np.random.PCG64()
    bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                  "has_uint32": 0, "uinteger": 0}
    return bits


@settings(max_examples=200, deadline=None)
@given(state=st.integers(0, 2**128 - 1), inc=st.integers(0, 2**127 - 1),
       length=st.integers(1, 40))
def test_the_kernel_steps_any_pcg64_state(state, inc, length):
    bits = pcg64_at(state, 2 * inc + 1)
    assert (_streams.pcg64_raw(oracles.seed_words(bits), length)[0].tolist()
            == bits.random_raw(length).tolist())


@pytest.mark.parametrize("run", [1, 2])
@pytest.mark.parametrize("k", [0, 1, 5])
def test_the_kernel_reads_zero_outputs(k, run):
    want = oracles.zero_output_at(k, run).random_raw(k + 4).tolist()
    assert want[k : k + run] == [0] * run
    words = oracles.seed_words(oracles.zero_output_at(k, run))
    assert _streams.pcg64_raw(words, k + 4)[0].tolist() == want


def test_simulate_and_construct_import_no_private_name_of_each_other():
    # numpy's streams live in one private module that both read, so that
    # neither copy drifts from the other.
    found = []
    for user, owner in [("simulate", "construct"), ("construct", "simulate")]:
        for node in ast.walk(ast.parse((SRC / f"{user}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in (owner, f"bcode.{owner}"):
                found += [f"{user}: {owner}.{a.name}" for a in node.names if a.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == owner and node.attr.startswith("_")):
                found.append(f"{user}: {owner}.{node.attr}")
    assert found == []


def test_only_the_sample_builder_runs_floyd():
    # construct and simulate turn draws into columns through
    # _streams.choice_samples alone, so that the rule is written once.
    found = []
    for user in ("construct", "simulate"):
        for node in ast.walk(ast.parse((SRC / f"{user}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("_streams", "bcode._streams"):
                found += [f"{user}: {a.name}" for a in node.names if a.name == "floyd"]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "_streams" and node.attr == "floyd"):
                found.append(f"{user}: _streams.{node.attr}")
    assert found == []


def unrejected(ranges, start=0):
    """The first seed from ``start`` on whose tokens no draw on ``ranges``
    rejects, and the draws' values."""
    for seed in range(start, start + 100):
        tokens = np.random.PCG64(seed).random_raw(-(-len(ranges) // 2)).view("<u4")
        values, rejected = _streams.bounded(tokens[: len(ranges)], ranges)
        if not rejected.any():
            return seed, values
    raise AssertionError("every seed rejects a token")


# w = 0, 1, n - 1 and n, and either side of n // 50 at n = 10,000 and at
# n = 10,001, where choice starts to shuffle the tail.
CHOICES = sorted({(n, w) for n in (1, 2, 16, 10_001) for w in (0, 1, n - 1, n)}
                 | {(10_000, 200), (10_000, 201), (10_001, 200), (10_001, 201)})


@pytest.mark.parametrize("n, w", CHOICES, ids=str)
def test_the_layout_reads_the_tokens_choice_reads(n, w):
    # numpy's choice reads the oracle's draws; the layout lays them out
    # unless choice shuffles the tail, which numpy's Generator then draws.
    draws = oracles.choice_draws(n, w)
    ranges = [r for _, r in draws]
    assert _streams.shuffles_tail(n, w) == any(kind == "tail" for kind, _ in draws)
    if not _streams.shuffles_tail(n, w):
        row, layout_ranges, _ = _streams.choice_layout(n, np.array([w]))
        assert layout_ranges.tolist() == ranges
        assert _streams.choice_tokens(n, w) == len(ranges) == len(row)
    seed, _ = unrejected(ranges)
    bits = np.random.PCG64(seed)
    np.random.Generator(bits).choice(n, w, replace=False)
    stepped = np.random.PCG64(seed)
    stepped.advance(-(-len(ranges) // 2))
    assert bits.state["state"] == stepped.state["state"]
    assert bits.state["has_uint32"] == len(ranges) % 2


@pytest.mark.parametrize("head", [0, 7])
def test_one_builder_call_samples_floyd_and_every_column_rows(head):
    # Floyd's sampler at w = 0, 5, 200, 201 and 300, and every column at
    # w = n; each row read from a seed of its own, after a draw on [0, head].
    n, w = 10_000, np.array([5, 10_000, 300, 0, 200, 201, 5])
    values, seeds, start = [], [], 0
    for weight in w.tolist():
        start, row_values = unrejected(_streams.choice_layout(n, np.array([weight]))[1], start)
        seeds.append(start)
        values += [start % (head + 1)] * (head > 0) + row_values.tolist()
        start += 1
    layout = _streams.choice_layout(n, w, head)
    assert len(values) == len(layout[0])
    rows, cols = _streams.choice_samples(n, w, np.array(values), layout)
    assert rows.tolist() == np.repeat(np.arange(len(w)), w).tolist()
    for r, (seed, weight) in enumerate(zip(seeds, w.tolist(), strict=True)):
        want = np.random.default_rng(np.random.PCG64(seed)).choice(n, weight, replace=False)
        assert sorted(cols[rows == r].tolist()) == sorted(want.tolist())


def test_floyd_refuses_values_above_their_step():
    # Step 2 drew 3 and step 3 drew 2: neither value is redrawn or its own
    # step, and both are at least first = 2, so each step adds what the
    # other adds and pointer jumping never resolves them.
    with pytest.raises(ValueError, match="above its step"):
        _streams.floyd(4, np.zeros(2, int), np.array([2, 3]), np.array([3, 2]), 2)
