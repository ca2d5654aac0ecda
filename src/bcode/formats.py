"""Text serialization: the ``.bcode`` matrix format and confusion JSON.

A ``.bcode`` file is:

    bcode v1
    kind=<BDC|BCC|BTC|SEP|RAW> k=<int> r=<int> n=<int>
    <m> <n>
    <m lines of exactly n characters from {0,1}>

The kind line records what the matrix is claimed to be (RAW for plain
matrices); verification is always the reader's job.  The parser rejects
ragged rows, characters outside {0,1}, and any header/body dimension
mismatch.

Confusion matrices travel as JSON: ``{"c": <classes>, "models": [...]}``
where ``models`` is a list of c x c row-stochastic matrices, one per model.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .bitmatrix import BitMatrix

FILE_KINDS = ("BDC", "BCC", "BTC", "SEP", "RAW")

_MAGIC = "bcode v1"
# Numbers are ASCII digits only: ``\d`` and ``str.isdigit`` also accept
# other Unicode digits, which ``int`` may reject or read differently.
_KIND_RE = re.compile(r"kind=(BDC|BCC|BTC|SEP|RAW) k=([0-9]+) r=([0-9]+) n=([0-9]+)")
_NUMBER_RE = re.compile(r"[0-9]+")


class BcodeFormatError(ValueError):
    """Malformed .bcode text."""


def _number(digits: str) -> int:
    try:
        return int(digits)
    except ValueError as exc:  # beyond the interpreter's int-parsing digit limit
        raise BcodeFormatError(f"number of {len(digits)} digits is too long") from exc


@dataclass(frozen=True)
class CodeFile:
    """A parsed .bcode document: declared kind/parameters plus the matrix."""

    kind: str
    k: int
    r: int
    matrix: BitMatrix


def dumps(matrix: BitMatrix, kind: str = "RAW", k: int = 0, r: int = 0) -> str:
    if kind not in FILE_KINDS:
        raise ValueError(f"kind must be one of {FILE_KINDS}, got {kind!r}")
    if k < 0 or r < 0:
        raise ValueError("k and r must be nonnegative")
    lines = [
        _MAGIC,
        f"kind={kind} k={k} r={r} n={matrix.n}",
        f"{matrix.m} {matrix.n}",
        *matrix.to_strings(),
    ]
    return "\n".join(lines) + "\n"


def loads(text: str) -> CodeFile:
    lines = text.splitlines()
    if len(lines) < 3:
        raise BcodeFormatError("truncated file: need magic, kind line and dimensions")
    if lines[0] != _MAGIC:
        raise BcodeFormatError(f"bad magic line {lines[0]!r}, expected {_MAGIC!r}")
    kind_match = _KIND_RE.fullmatch(lines[1])
    if kind_match is None:
        raise BcodeFormatError(f"bad kind line {lines[1]!r}")
    kind = kind_match.group(1)
    k, r, header_n = (_number(kind_match.group(i)) for i in (2, 3, 4))
    dims = lines[2].split()
    if len(dims) != 2 or not all(_NUMBER_RE.fullmatch(d) for d in dims):
        raise BcodeFormatError(f"bad dimension line {lines[2]!r}")
    m, n = _number(dims[0]), _number(dims[1])
    if m < 1 or n < 1:
        raise BcodeFormatError("dimensions must be positive")
    if header_n != n:
        raise BcodeFormatError(f"kind line says n={header_n} but body says n={n}")
    body = lines[3:]
    while body and body[-1] == "":
        body.pop()
    if len(body) != m:
        raise BcodeFormatError(f"expected {m} rows, found {len(body)}")
    rows = []
    for i, line in enumerate(body):
        if len(line) != n:
            raise BcodeFormatError(f"row {i} has {len(line)} characters, expected {n}")
        if set(line) - {"0", "1"}:
            raise BcodeFormatError(f"row {i} contains characters outside {{0,1}}")
        rows.append(line)
    return CodeFile(kind, k, r, BitMatrix.from_strings(rows))


def save(path, matrix: BitMatrix, kind: str = "RAW", k: int = 0, r: int = 0) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps(matrix, kind, k, r))


def load(path) -> CodeFile:
    with open(path, "r", encoding="ascii") as fh:
        return loads(fh.read())


def dump_confusions(confusions: np.ndarray) -> str:
    arr = np.asarray(confusions, dtype=float)
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2]:
        raise ValueError("expected an (m, c, c) array of confusion matrices")
    doc = {"c": arr.shape[1], "models": arr.tolist()}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_confusions(path) -> np.ndarray:
    """The (m, c, c) confusion stack of a JSON file; any malformed document
    raises ``BcodeFormatError``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise BcodeFormatError(f"confusion file is not JSON: {exc}") from None
    if not isinstance(doc, dict) or "c" not in doc or "models" not in doc:
        raise BcodeFormatError("confusion JSON must contain 'c' and 'models'")
    try:
        c = int(doc["c"])
        arr = np.asarray(doc["models"], dtype=float)
    except (ValueError, TypeError, OverflowError, RecursionError) as exc:
        raise BcodeFormatError(f"'c' must be an int and 'models' numbers: {exc}") from None
    if arr.ndim != 3 or arr.shape[1:] != (c, c):
        raise BcodeFormatError(f"'models' must be a list of {c}x{c} matrices")
    return arr


def save_confusions(path, confusions: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_confusions(confusions))
