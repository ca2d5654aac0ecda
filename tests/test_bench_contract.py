"""What the benchmark relies on, checked without running it.

``bench/tracing.py`` wraps package attributes by name, and a seeded
``simulate`` must keep its exact bytes: the benchmark compares digests of
seeded runs, and ROADMAP requires byte-identical reports across changes.
"""

import ast
import hashlib
import importlib.util
from pathlib import Path

import pytest

from bcode.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = Path(__file__).resolve().parent.parent / "src" / "bcode"

# sha256 of stdout, <out>.json and <out>.csv of the seeded simulate below,
# recorded before run_trials took a single attacker count.
SIMULATE_DIGESTS = (
    "2aab21a871e06c90c2c2cbb2175862f76aceac1b544cb018e25e3c91bd06bfbf",
    "2ae27ac76677218e39580e6feb686f5306396d336d100f2e89e021087daf58d5",
    "df6d4fb8127df70b3f60a7666294506a999acb8a6432260cafc7e4ef2f27dfad",
)


def _load_bench_module(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_attribute_the_tracer_patches_exists():
    tracing = _load_bench_module("tracing")
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in tracing.PATCHES
               if not hasattr(module, attr)]
    assert missing == []


def test_every_unused_import_in_src_is_one_the_tracer_patches():
    # An import marked ``# noqa: F401`` keeps a name only for the tracer to
    # wrap; one the tracer does not wrap on that module is dead.
    tracing = _load_bench_module("tracing")
    wrapped = {(module.__name__, attr) for module, attr, _, _ in tracing.PATCHES}
    unwrapped = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                if (f"bcode.{path.stem}", name) not in wrapped:
                    unwrapped.append(f"bcode.{path.stem}.{name}")
    assert unwrapped == []


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_seeded_simulate_keeps_its_recorded_bytes(tmp_path, monkeypatch, capsys, threads):
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "--kind", "bcc", "--k", "2", "--r", "4", "--n", "8",
                 "-o", "c.bcode"]) == 0
    capsys.readouterr()
    assert main(["simulate", "--code", "c.bcode", "--alpha", "0.1", "--classes", "10",
                 "--trials", "200", "--runs", "3", "--attackers", "0,1,2,3", "--seed", "0",
                 "--threads", threads, "--out", "report"]) == 0
    stdout = capsys.readouterr().out.encode()
    got = (_sha256(stdout), _sha256(Path("report.json").read_bytes()),
           _sha256(Path("report.csv").read_bytes()))
    assert got == SIMULATE_DIGESTS
