import json
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from bcode import formats
from bcode.bitmatrix import BitMatrix
from bcode.construct import (
    btc,
    general_bcc,
    minimal_bcc,
    minimal_bdc,
    partition_code,
    random_code,
)


def test_dump_and_parse_round_trip():
    mat = minimal_bdc(2, 2)
    text = formats.dumps(mat, "BDC", 2, 2)
    doc = formats.loads(text)
    assert doc.kind == "BDC" and doc.k == 2 and doc.r == 2
    assert doc.matrix == mat
    assert formats.dumps(doc.matrix, "BDC", 2, 2) == text


@pytest.mark.parametrize(
    "mat",
    [
        minimal_bdc(1, 1),
        minimal_bdc(3, 2),
        minimal_bcc(2, 1),
        general_bcc(2, 4, 8),
        general_bcc(2, 2, 8),
        partition_code(3, 7),
        random_code(5, 9, 3, seed=11),
        btc(1, 1, 2, seed=5, max_rows=8),
    ],
)
def test_every_construction_round_trips_bit_exactly(mat):
    assert formats.loads(formats.dumps(mat)).matrix == mat


def test_file_round_trip(tmp_path):
    mat = general_bcc(2, 4, 8)
    path = tmp_path / "code.bcode"
    formats.save(path, mat, "BCC", 2, 4)
    doc = formats.load(path)
    assert doc.matrix == mat and doc.kind == "BCC"


GOOD = "bcode v1\nkind=RAW k=0 r=1 n=2\n2 2\n10\n01\n"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "bcode v2\nkind=RAW k=0 r=1 n=2\n2 2\n10\n01\n",
        "bcode v1\nkind=XYZ k=0 r=1 n=2\n2 2\n10\n01\n",
        "bcode v1\nkind=RAW k=0 r=1\n2 2\n10\n01\n",
        "bcode v1\nkind=RAW k=0 r=1 n=2\n2 3\n10\n01\n",  # kind n != body n
        "bcode v1\nkind=RAW k=0 r=1 n=2\n3 2\n10\n01\n",  # missing row
        "bcode v1\nkind=RAW k=0 r=1 n=2\n2 2\n10\n011\n",  # ragged
        "bcode v1\nkind=RAW k=0 r=1 n=2\n2 2\n10\n0x\n",  # bad character
        "bcode v1\nkind=RAW k=0 r=1 n=2\n0 2\n",  # zero rows
        "bcode v1\nkind=RAW k=0 r=1 n=2\n\u00b2 2\n10\n01\n",  # superscript two
        "bcode v1\nkind=RAW k=\u0661 r=0 n=\u0662\n2 2\n10\n01\n",  # Arabic-Indic digits
        "bcode v1\nkind=RAW k=0 r=1 n=2\n\uff12 2\n10\n01\n",  # fullwidth two
        pytest.param(
            "bcode v1\nkind=RAW k=" + "9" * 5000 + " r=0 n=2\n2 2\n10\n01\n",
            id="number-too-long-for-int",
        ),
    ],
)
def test_parser_rejects_malformed_documents(text):
    with pytest.raises(formats.BcodeFormatError):
        formats.loads(text)


# Characters that sit next to ASCII digits in Unicode's eyes, or break lines.
_NOISE = st.sampled_from(
    ["0", "1", "2", "9", " ", "\t", "\n", "\r", "x", "=", "\u00b2", "\u0661", "\uff12",
     "\U0001d7d9", "\u00a0", "\u2028", "\x85"]
)


@st.composite
def bcode_like_texts(draw):
    """A valid document with a few characters inserted, deleted or replaced."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = ["".join(draw(st.sampled_from("01")) for _ in range(n)) for _ in range(m)]
    kind = draw(st.sampled_from(formats.FILE_KINDS))
    k, r = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    text = "\n".join(["bcode v1", f"kind={kind} k={k} r={r} n={n}", f"{m} {n}", *rows]) + "\n"
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 1))
        text = text[:pos] + draw(st.sampled_from(["", draw(_NOISE)])) + text[pos + cut:]
    return text


@given(st.one_of(bcode_like_texts(), st.text(max_size=40)))
@example("bcode v1\nkind=RAW k=0 r=0 n=3\n\u00b2 3\n111\n111\n")
@example("bcode v1\nkind=RAW k=\u0661 r=0 n=\u0663\n1 3\n111\n")
def test_loads_rejects_cleanly_or_round_trips(text):
    try:
        doc = formats.loads(text)
    except formats.BcodeFormatError:
        return
    assert formats.loads(formats.dumps(doc.matrix, doc.kind, doc.k, doc.r)) == doc


def test_parser_accepts_the_good_document():
    doc = formats.loads(GOOD)
    assert doc.matrix == BitMatrix.identity(2)


def test_dumps_rejects_bad_kind():
    with pytest.raises(ValueError):
        formats.dumps(BitMatrix.identity(2), "NOPE")


def test_confusion_json_round_trip(tmp_path):
    conf = np.array(
        [
            [[0.9, 0.1], [0.2, 0.8]],
            [[0.7, 0.3], [0.4, 0.6]],
        ]
    )
    path = tmp_path / "conf.json"
    formats.save_confusions(path, conf)
    loaded = formats.load_confusions(path)
    assert np.array_equal(loaded, conf)


def test_confusion_json_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"models": [[[1.0]]]}')
    with pytest.raises(ValueError):
        formats.load_confusions(path)
    path.write_text('{"c": 2, "models": [[[1.0]]]}')
    with pytest.raises(ValueError):
        formats.load_confusions(path)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["c", "models", "x"]), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def confusion_like_documents(draw):
    """Bytes of a valid confusion document with some values replaced and a
    few characters inserted, deleted or replaced."""
    m, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    doc = {"c": c, "models": [[[1.0 / c] * c for _ in range(c)] for _ in range(m)]}
    for key in ("c", "models"):
        if draw(st.integers(0, 3)) == 0:
            doc[key] = draw(_JSON_VALUES)
    text = json.dumps(doc)
    for _ in range(draw(st.integers(0, 2))):
        pos = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 1))
        noise = draw(st.sampled_from(["", "[", "]", ",", "1", '"', "x"]))
        text = text[:pos] + noise + text[pos + cut:]
    return text.encode()


@given(st.one_of(
    confusion_like_documents(),
    _JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    st.binary(max_size=20),
))
@example(b'{"c": [2], "models": []}')
@example(b'{"c": 2, "models": {"a": 1}}')
def test_load_confusions_rejects_cleanly_or_returns_a_stack(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz-confusions.json"
    path.write_bytes(raw)
    try:
        arr = formats.load_confusions(path)
    except formats.BcodeFormatError:
        return
    assert arr.dtype == float and arr.ndim == 3 and arr.shape[1] == arr.shape[2]
    assert arr.shape[1] == int(json.loads(raw)["c"])
