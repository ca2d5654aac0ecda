"""Correctness checks, run after each round (outside its timed steps) on
what each step returned.

Every failed check is charged to the operation that produced the output.
Codes and witnesses are re-checked with the naive oracles in
``tests/oracles.py``, which read the matrix from the printed text rather than
through the package.
"""

from __future__ import annotations

import csv
import functools
import importlib.util
import io
import json
from pathlib import Path

import numpy as np

from bcode import decoder, formats
from bcode.construct import general_bcc
from bcode.errors import DegenerateEvidenceError

from workloads import CLASSES, Session, synth_config

# Rounds whose decode command is re-decoded through the library; the rest
# only have their exit status checked (at n=40 one re-decode costs 0.3 s).
DECODE_CHECK_ROUNDS = 3


@functools.cache
def oracles():
    """The checkout's ``tests/oracles.py``, loaded once."""
    path = Path(__file__).resolve().parent.parent / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bits(text: str) -> list[list[int]]:
    """Matrix rows of a .bcode document, read straight from the text."""
    return [[int(ch) for ch in line] for line in text.splitlines()[3:] if line]


def _first_duplicate_columns(text: str) -> tuple[int, int]:
    """The separability witness the verifier must report for a code with
    repeated columns: the first column equal to an earlier one."""
    bits = _bits(text)
    seen: dict[tuple[int, ...], int] = {}
    for j in range(len(bits[0])):
        col = tuple(row[j] for row in bits)
        if col in seen:
            return seen[col], j
        seen[col] = j
    raise ValueError("code has no repeated column")


def _decode_stdout(result: decoder.DecodeResult, seed: int) -> str:
    """stdout the decode command prints for ``result`` (synth confusions)."""
    attackers = ",".join(map(str, result.decoded_attackers))
    return (
        f"seed: {seed}\n"
        f"attack posterior: {result.attack_posterior:.6f}\n"
        f"decoded label: {result.decoded_label}\n"
        "label posterior: " + ", ".join(f"{p:.6f}" for p in result.label_posterior) + "\n"
        "decoded attackers: {" + attackers + "}\n"
    )


def check_round(s: Session, r: int) -> None:
    """Check every CLI step of round ``r``."""
    rseed = s.seed * 1000 + r
    for step, check in _CHECKS.items():
        cap = s.captures[(r, step)]
        if cap.error:
            s.fail((step, r), cap.error)
            continue

        def expect(ok: bool, reason: str, step=step) -> None:
            if not ok:
                s.fail((step, r), reason)

        try:
            check(s, r, rseed, cap, expect)
        except (KeyError, ValueError, IndexError, TypeError) as exc:
            s.fail((step, r), f"unreadable output: {type(exc).__name__}: {exc}")


def _construct(s, r, rseed, cap, expect):
    kind, k, rw, n = s.wl.construct
    expect(cap.rc == 0, f"exit status {cap.rc}")
    text = cap.files["constructed.bcode"].decode("ascii")
    doc = formats.loads(text)
    report = json.loads(cap.files["construct.json"])
    expect(f"verifier {kind.upper()}(k={k}, r={rw}): PASS" in cap.stdout, "construct did not report PASS")
    expect(report["verified"] is True and report["n"] == n, "construct report disagrees")
    bits = _bits(text)
    if kind == "btc":
        expect(report["seed"] == rseed, "construct report has the wrong seed")
        expect(oracles().naive_is_btc(bits, k, rw), "constructed code fails the naive BTC oracle")
    else:
        expect(doc.matrix == general_bcc(k, rw, n), "constructed code differs from general_bcc")
        expect(oracles().naive_is_bdc(bits, k, rw), "constructed code fails the naive BDC oracle")


def _verify_bcc(s, r, rseed, cap, expect):
    k, rw, _ = s.wl.verify_code
    expect(cap.rc == 0, f"verify bcc exit status {cap.rc}, expected 0")
    expect(cap.stdout == f"PASS: verify.bcode is bcc(k={k}, r={rw})\n", "verify bcc did not PASS")
    expect(json.loads(cap.files["verify.json"])["result"] == "pass", "verify bcc report is not a pass")


def _verify_btc(s, r, rseed, cap, expect):
    text = formats.dumps(general_bcc(*s.wl.verify_code))
    i, j = _first_duplicate_columns(text)
    expect(cap.rc == 1, f"verify btc exit status {cap.rc}, expected 1")
    expect(
        cap.stdout == f"FAIL: two Boolean sums coincide: columns {{{i}}} and {{{j}}}\n",
        "verify btc reported the wrong witness",
    )
    witness = json.loads(cap.files["verify.json"])["witness"]
    expect(witness["columnSets"] == [[i], [j]], "verify btc report has the wrong witness")
    bits = _bits(text)
    expect(oracles().or_of_columns(bits, (i,)) == oracles().or_of_columns(bits, (j,)), "witness sums differ")


def _search(attr: str):
    def check(s, r, rseed, cap, expect):
        want = getattr(s.wl, attr)
        naive = {
            "separable": lambda bits: oracles().naive_is_separable(bits, want.k),
            "bdc": lambda bits: oracles().naive_is_bdc(bits, want.k, want.r),
            "bcc": lambda bits: oracles().naive_is_bcc(bits, want.k, want.r),
        }[want.kind]
        report = json.loads(cap.files["search.json"])
        expect(cap.rc == 0, f"search exit status {cap.rc}")
        expect(
            (report["minRows"], report["classes"], len(report["codes"])) == (want.min_rows, want.classes, want.classes),
            f"search found {report['minRows']} rows / {report['classes']} classes, "
            f"expected {want.min_rows} / {want.classes}",
        )
        expect(cap.stdout.startswith(
            f"minRows={report['minRows']}, classes={report['classes']}, explored={report['explored']}\n"
        ), "search stdout disagrees with its report")
        for block in report["codes"]:
            bits = _bits(block)
            expect(len(bits) == want.min_rows and len(bits[0]) == want.n, "witness has the wrong shape")
            expect(naive(bits), "witness fails the naive oracle")

    return check


def _decode_cold(s, r, rseed, cap, expect):
    if r >= DECODE_CHECK_ROUNDS:
        expect(cap.rc in (0, 1), f"decode exit status {cap.rc}")
        return
    matrix = general_bcc(*s.wl.decode_code)
    cfg = synth_config(matrix, s.wl.decode_q, rseed)
    outputs = [int(v) for v in s.decode_inputs[r].split(",")]
    try:
        result = decoder.decode(outputs, cfg)
    except DegenerateEvidenceError:
        # A degenerate decode is a result: exit 1 after the seed line.
        expect(cap.rc == 1 and cap.stdout == f"seed: {rseed}\n", "degenerate decode not reported")
        return
    expect(cap.rc == 0, f"decode exit status {cap.rc}")
    expect(cap.stdout == _decode_stdout(result, rseed), "decode stdout differs from the library decode")


def _simulate(s, r, rseed, cap, expect):
    wl = s.wl
    expect(cap.rc == 0, f"simulate exit status {cap.rc}")
    report = json.loads(cap.files["sim.json"])
    points = report["points"]
    expect([p["attackerCount"] for p in points] == list(wl.attackers), "simulate reported other counts")
    for p in points:
        expect(p["runs"] == 1 and p["trialsPerRun"] == wl.trials, "simulate ran another size")
        for key in ("decodeAccuracy", "majorityAccuracy"):
            expect(0.0 <= p[key]["mean"] <= 1.0, f"{key} outside [0, 1]")
        expect(0.0 <= p["tp"]["mean"] <= p["attackerCount"], "true positives exceed the planted set")
        expect(p["fp"]["mean"] >= 0.0 and p["degenerate"] >= 0, "negative false positives or degenerate count")
    rows = list(csv.reader(io.StringIO(cap.files["sim.csv"].decode())))
    expect(len(rows) == 1 + len(wl.attackers), "simulate CSV has the wrong row count")
    lines = cap.stdout.splitlines()
    expect(
        lines[0] == f"seed: {rseed}" and len(lines) == 3 + len(wl.attackers)
        and lines[-1] == "wrote sim.json and sim.csv",
        "simulate stdout has the wrong shape",
    )


_CHECKS = {
    "construct": _construct,
    "verify_bcc": _verify_bcc,
    "verify_btc": _verify_btc,
    "search_canon": _search("search_canon"),
    "search_walk": _search("search_walk"),
    "decode_cold": _decode_cold,
    "simulate": _simulate,
}


def check_oracle(s: Session) -> None:
    """Compare the kept online decodes with ``naive_posteriors`` to 1e-12."""
    cfg = s.cfg
    bits = [[(row >> j) & 1 for j in range(cfg.code.n)] for row in cfg.code.rows]
    confusions = cfg.confusions.tolist()
    for i, (y, result) in enumerate(s.oracle_cases):
        op = ("online", 0, i)
        attack, labels, attackers = oracles().naive_posteriors(
            bits, confusions, cfg.attack_prior, cfg.success_rate, cfg.count_prior, CLASSES, y.tolist()
        )
        if result is None or attack is None:
            if not (result is None and attack is None):
                s.fail(op, "decoder and oracle disagree on degeneracy")
            continue
        close = abs(result.attack_posterior - attack) <= 1e-12
        close &= bool(np.all(np.abs(np.asarray(labels) - result.label_posterior) <= 1e-12))
        close &= set(attackers) == set(result.attacker_posterior) and all(
            abs(result.attacker_posterior[x] - p) <= 1e-12 for x, p in attackers.items()
        )
        if not close:
            s.fail(op, "decode differs from the naive oracle by more than 1e-12")

