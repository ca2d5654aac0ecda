import ast
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
    raw = _streams.pcg64_raw(_streams.seed_words([seed], np.zeros(len(trials), int), trials), length)
    for t, row in zip(trials.tolist(), raw, strict=True):
        assert row.tolist() == np.random.PCG64([seed, t]).random_raw(length).tolist()


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
