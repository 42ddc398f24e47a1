"""The writers against the standard library: ``json_text`` against
``json.dumps`` with indent 2, and the CSV writer against ``csv.writer``."""

import csv
import json
import math
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from rough_angles import cli, io as rio
from rough_angles.io import load_curve, load_point_cloud
from rough_angles.metric_core import Columns, MetricViolation

# The only asymmetry is the sign of a zero, which repr shows.
ZERO_SIGNS = np.array([[0.0, 0.0, 1.5], [-0.0, 0.0, 2.0], [1.5, 2.0, 0.0]])


def mirrored(a):
    """``a`` with its lower triangle copied from the upper one, bit for bit."""
    return np.where(np.triu(np.ones(a.shape, dtype=bool)), a, a.T)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
SQUARE = st.integers(1, 5).map(lambda n: (n, n))
MATRICES = st.one_of(
    hnp.arrays(np.float64, SQUARE, elements=FINITE).map(mirrored),
    hnp.arrays(np.float64, SQUARE, elements=FINITE),
    hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4)), elements=FINITE),
    hnp.arrays(np.float64, SQUARE, elements=st.floats()).map(mirrored),  # NaN, +-inf
    st.sampled_from([np.zeros((0, 0)), np.zeros((0, 3)), np.zeros((2, 0)), ZERO_SIGNS]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.floats().map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
)
LEAVES = SCALARS | MATRICES | hnp.arrays(np.float64, st.integers(0, 4), elements=st.floats())
PAYLOADS = st.recursive(LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4),
    st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.text(max_size=4), kids, max_size=4),
    st.dictionaries(st.integers() | st.booleans() | FINITE, kids, max_size=4),
), max_leaves=12)


def dumps_text(payload):
    return json.dumps(payload, indent=2, sort_keys=True, default=rio._jsonable) + "\n"


@settings(max_examples=400, deadline=None)
@given(PAYLOADS)
def test_json_text_matches_json_dumps(payload):
    assert rio.json_text(payload) == dumps_text(payload)


# Lists of dicts with the same str keys and scalar values, the rows reports
# wrote before they held Columns, and near misses of them: all are laid out
# row by row on the general path.
ROW_KEYS = ("%", "%s", '"q"', "a\nb", "é", "")
ROW_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.floats().map(np.float64), st.text(max_size=4),
)
ODD_VALUES = st.one_of(
    st.lists(st.integers(), max_size=2), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(width=32).map(np.float32),
)


@st.composite
def rows(draw):
    keys = draw(st.lists(st.sampled_from(ROW_KEYS), min_size=1, max_size=4, unique=True))
    out = draw(st.lists(st.fixed_dictionaries({k: ROW_VALUES for k in keys}),
                        min_size=1, max_size=5))
    miss = draw(st.sampled_from([None, None, "order", "rename", "value", "keys"]))
    if miss == "order":
        out[-1] = dict(reversed(out[-1].items()))
    elif miss == "rename":  # as many keys, not the same ones
        out[-1] = {k + "!": v for k, v in out[-1].items()}
    elif miss == "value":
        out[-1][draw(st.sampled_from(keys))] = draw(ODD_VALUES)
    elif miss == "keys":
        out = [dict(enumerate(r.values())) for r in out]
    return out


# Lists of records are written as the dicts of their fields, on the general
# path (the fields of a metric violation include a tuple).
INDEX = st.integers(0, 10**6)
METRIC_ROWS = st.builds(MetricViolation, st.sampled_from(["triangle", "diagonal"]),
                        st.lists(INDEX, max_size=3).map(tuple), ROW_VALUES)
RECORD_LISTS = st.lists(METRIC_ROWS, min_size=1, max_size=5)


@settings(max_examples=400, deadline=None)
@given(rows() | RECORD_LISTS)
def test_rows_match_json_dumps(rows):
    for payload in (rows, {"result": {"entries": rows}}):
        assert rio.json_text(payload) == dumps_text(payload)


# Report rows held as Columns: 0, 1 or many rows of scalar cells, in list or
# 1-D array columns, under keys that need escaping, nested at any depth.
COLUMN_NAMES = st.sampled_from(ROW_KEYS + ("self", "x", "slack")) | st.text(max_size=3)
CELLS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.floats().map(np.float64), st.text(max_size=4),
    st.text(st.sampled_from('%"\\\né s'), max_size=5),
)


@st.composite
def columns(draw):
    names = draw(st.lists(COLUMN_NAMES, min_size=1, max_size=4, unique=True))
    n = draw(st.sampled_from([0, 1]) | st.integers(2, 8))
    return Columns(**{k: draw(st.one_of(
        st.lists(CELLS, min_size=n, max_size=n),
        hnp.arrays(np.float64, n, elements=st.floats()),
        hnp.arrays(np.int64, n),
    )) for k in names})


COLUMN_PAYLOADS = st.recursive(columns() | CELLS, lambda kids: st.one_of(
    st.lists(kids, max_size=3),
    st.dictionaries(COLUMN_NAMES, kids, max_size=3),
), max_leaves=6)


def with_row_dicts(payload):
    """``payload`` with each Columns replaced by the list of its row dicts,
    built here from its names and listed columns."""
    if isinstance(payload, Columns):
        cols = [c.tolist() if isinstance(c, np.ndarray) else c for c in payload.columns.values()]
        return [dict(zip(payload.columns, row)) for row in zip(*cols)]
    if isinstance(payload, list):
        return [with_row_dicts(v) for v in payload]
    if isinstance(payload, dict):
        return {k: with_row_dicts(v) for k, v in payload.items()}
    return payload


@settings(max_examples=500, deadline=None)
@given(COLUMN_PAYLOADS)
def test_columns_match_json_dumps_of_row_dicts(payload):
    """Columns are written as json.dumps writes the list of their row dicts,
    and ``_jsonable`` gives json.dumps those same rows."""
    text = rio.json_text(payload)
    assert text == json.dumps(with_row_dicts(payload), indent=2, sort_keys=True) + "\n"
    assert text == dumps_text(payload)


# Cells the encoder cannot take send Columns down the general path; an array
# column of another dtype is listed first, as the float32 one is.
ODD_COLUMNS = [
    Columns(x=[np.int64(1), 2]),
    Columns(x=[[1, 2], 3], y=["a", None]),
    Columns(x=np.zeros((2, 2)), y=[0.5, 1.5]),
    Columns(x=np.array([0.1, 2.5], dtype=np.float32)),
]


@pytest.mark.parametrize("cols", ODD_COLUMNS, ids=["int64", "nested", "2d-array", "float32"])
def test_columns_of_odd_cells_match_json_dumps(cols):
    for payload in (cols, {"result": {"entries": cols}}):
        assert rio.json_text(payload) == dumps_text(payload)


DSE_VIOLATIONS = Columns(i=[0, 1], j=[2, 4], k=[3, 5], amount=[0.5, np.float64(1e-3)])
AUDIT_ENTRIES = Columns(x=[0, 2], z=[1, 0], y=[2, 1], angle=[3.0, math.pi])
METRIC_VIOLATIONS = [MetricViolation("triangle", (0, 1, 2), 0.25),
                     MetricViolation("symmetry", (1, 0), 1e-9)]


@pytest.mark.parametrize("payload", [
    {"n": 3, "dist": ZERO_SIGNS, "order": "identity"},
    {"report": [{"kind": "triangle", "indices": (0, 1, 2)}], "": {}, "x": [[], [[]]]},
    {"dist": mirrored(np.random.default_rng(1).random((40, 40)) * 1e-5)},
    {"violations": DSE_VIOLATIONS, "n": 6},
    {"entries": AUDIT_ENTRIES},
    {"violations": METRIC_VIOLATIONS},
    {"record": METRIC_VIOLATIONS[0]},
    {"entries": Columns(x=[0], z=[1], y=[2], angle=[3.0])},
], ids=["zero-signs", "nesting", "symmetric-40", "dse-violations", "audit-entries",
        "metric-violations", "one-record", "one-record-list"])
def test_json_text_matches_json_dumps_on_examples(payload):
    assert rio.json_text(payload) == dumps_text(payload)


def test_columns_of_scalar_cells_are_written_column_by_column():
    assert rio._rows(DSE_VIOLATIONS, "") is not None
    assert rio._rows(AUDIT_ENTRIES, "") is not None
    assert rio._layout(Columns(x=[]), "") == "[]"
    assert rio._rows(Columns(v=METRIC_VIOLATIONS), "") is None  # records take the general path
    assert all(rio._rows(cols, "") is None for cols in ODD_COLUMNS[:3])


def test_dicts_in_another_key_order_take_the_general_path():
    """Lists of dicts, in one key order or several, are laid out row by row
    on the general path; only Columns are written column by column."""
    rows = [{"x": 0, "y": 1.5}, {"y": 2.5, "x": 1}]
    for payload in ({"entries": rows}, {"entries": rows[:1] * 2}):
        assert rio.json_text(payload) == dumps_text(payload)
    assert rio._rows(Columns(x=[0, 1], y=[1.5, 2.5]), "") is not None


def csv_writer_bytes(d, header):
    buf = StringIO(newline="")
    w = csv.writer(buf)
    if header is not None:
        w.writerow(header)
    for row in d.tolist():
        w.writerow([repr(x) for x in row])
    return buf.getvalue().encode()


RNG = np.random.default_rng(7)


@pytest.mark.parametrize("d", [
    mirrored(RNG.random((30, 30))),
    RNG.random((30, 30)),
    RNG.random((30, 4)) * 1e20,
    ZERO_SIGNS,
    mirrored(np.array([[0.0, np.nan, -np.inf], [1.0, 0.0, np.inf], [0.0, 0.0, 5e-324]])),
    np.zeros((2, 0)),
], ids=["symmetric", "asymmetric", "non-square", "zero-signs", "non-finite", "empty-rows"])
@pytest.mark.parametrize("header", [None, ["d_to_net_0", "d_to_net_3"]], ids=["bare", "header"])
def test_csv_bytes_match_csv_writer(tmp_path, d, header):
    path = tmp_path / "x.csv"
    rio._write_csv(path, d, header=header)
    assert path.read_bytes() == csv_writer_bytes(d, header)


@pytest.mark.parametrize("dim", [2, 2.0, "2", " 2 "])
def test_whole_number_dims_load(tmp_path, dim):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"model": "euclidean-l2", "dim": dim, "coords": [[0, 1], [2, 3]],
                                "times": [0, 1], "points": [[0, 0], [1, 0]]}))
    assert load_point_cloud(path).model.dim == 2
    assert load_curve(path).model.dim == 2


def reference_load_distance_matrix(path):
    """The CSV branch of ``load_distance_matrix`` as it was when it read the
    file as text, frozen to test the byte reader against; a byte that does not
    decode is reported with the file's name, as the loader reports it, and a
    leading byte-order mark is dropped, as the loader drops it."""
    p = Path(path)
    try:
        with p.open(newline="") as fh:
            start = fh.tell() if fh.read(1) == "\ufeff" else 0
            fh.seek(start)
            if not any(line.strip() for line in fh):
                raise ValueError(f"{p}: no numeric rows")
            fh.seek(start)
            try:
                dist = np.loadtxt(fh, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
            except ValueError:
                fh.seek(start)
                dist = rio._parse_csv(p, fh)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{p}: {exc}") from None
    return rio._named(p, rio.FiniteMetricSpace, rio._checked_matrix(p, dist))


def load_outcome(load, path):
    """The loaded matrix's bytes, or the type and message of the error."""
    try:
        return load(path).dist.tobytes()
    except ValueError as exc:
        return type(exc), str(exc)


LOADER_RNG = np.random.default_rng(11)
BIG = "".join(",".join(map(repr, row)) + "\n" for row in mirrored(LOADER_RNG.random((60, 60))).tolist())
CSV_FILES = {
    "lf": b"0,1.5\n1.5,0\n",
    "crlf": b"0,1.5\r\n1.5,0\r\n",
    "cr": b"0,1.5\r1.5,0\r",
    "no-final-newline": b"0,1.5\n1.5,0",
    "header": b"a,b\n0,1.5\n1.5,0\n",
    "header-crlf": b"d_to_net_0,d_to_net_1\r\n0,1.5\r\n1.5,0\r\n",
    "blank": b"",
    "whitespace": b"  \n\t\r\n",
    "unicode-whitespace": "　\n\x1c\r\n".encode(),
    "header-only": b"a,b\n",
    "quoted": b'"0","1.5"\n"1.5","0"\n',
    "empty-cells": b"0,,1.5\n1.5,,0,\n",
    "padded": b" 0 , 1.5 \n\t1.5,0 \n",
    "blank-lines": b"\n0,1.5\n\n \n1.5,0\n\n",
    "bom": "﻿0,1.5\n1.5,0\n".encode(),
    "bom-header": "﻿a,b\n0,1.5\n1.5,0\n".encode(),
    "non-utf8": b"0,1.5\n1.5,\xff0\n",
    "non-utf8-space": b"0,1.5\xa0\n1.5,0\n",
    "non-utf8-header": b"\xff\n0,1.5\n1.5,0\n",
    "non-utf8-late": BIG.encode() + b"\xff\n",
    "ragged": b"0,1.5\n1.5\n",
    "word-after-data": b"0,1.5\n1.5,x\n",
    "asymmetric": b"0,1\n2,0\n",
    "non-square": b"0,1,2\n1,0,2\n",
    "nan": b"0,nan\nnan,0\n",
    "big-lf": BIG.encode(),
    "big-crlf": BIG.replace("\n", "\r\n").encode(),
}


@pytest.mark.parametrize("raw", CSV_FILES.values(), ids=CSV_FILES.keys())
def test_csv_loader_matches_text_loader(tmp_path, raw):
    path = tmp_path / "x.csv"
    path.write_bytes(raw)
    got = load_outcome(rio.load_distance_matrix, path)
    assert got == load_outcome(reference_load_distance_matrix, path)
    if raw in (CSV_FILES["lf"], CSV_FILES["crlf"], CSV_FILES["big-lf"], CSV_FILES["bom"]):
        assert isinstance(got, bytes)


BOM_CSV_3X3 = b"0,1.5,2.5\n1.5,0,1\n2.5,1,0\n"


@pytest.mark.parametrize("name, raw", [
    ("m.csv", BOM_CSV_3X3),
    ("m.csv", BOM_CSV_3X3.replace(b"\n", b"\r\n")),
    ("m.csv", b"a,b,c\n" + BOM_CSV_3X3),
    ("m.json", json.dumps({"n": 3, "dist": [[0, 1.5, 2.5], [1.5, 0, 1], [2.5, 1, 0]]}).encode()),
], ids=["csv", "csv-crlf", "csv-header", "json"])
def test_byte_order_mark_is_dropped(tmp_path, name, raw):
    """A file that starts with a UTF-8 byte-order mark loads bit for bit as
    the same file without it; a header after the mark is still skipped."""
    plain, marked = tmp_path / "plain" / name, tmp_path / "marked" / name
    for path, data in ((plain, raw), (marked, b"\xef\xbb\xbf" + raw)):
        path.parent.mkdir()
        path.write_bytes(data)
    got = rio.load_distance_matrix(marked).dist
    assert got.shape == (3, 3) and got.tobytes() == rio.load_distance_matrix(plain).dist.tobytes()


def test_byte_order_mark_is_dropped_from_every_json_loader(tmp_path):
    payload = {"model": "euclidean-l2", "dim": 2, "coords": [[0, 0.5], [1, 0]],
               "times": [0, 1], "points": [[0, 0], [1, 0.25]],
               "n": 2, "dist": [[0, 1.5], [1.5, 0]], "order": "identity"}
    path = tmp_path / "x.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps(payload).encode())
    assert load_point_cloud(path).coords.tolist() == payload["coords"]
    assert load_curve(path).points.tolist() == payload["points"]
    assert rio.load_dse(path).space.dist.tolist() == payload["dist"]


@pytest.mark.parametrize("argv, name, text, message", [
    (["validate"], "cut.json", '{"n": 2, "dist": [[0, 1], [1, 0]',
     "Expecting ',' delimiter: line 1 column 33 (char 32)"),
    (["extract", "--alpha", "0.8", "--k", "3"], "two.csv", "0,1\n1,0\n",
     "Extra data: line 1 column 2 (char 1)"),
    (["validate"], "nan.csv", "0,nan\nnan,0\n", "distance matrix contains non-finite values"),
    (["curve-check"], "curve.json",
     json.dumps({"model": "euclidean-l2", "dim": 2, "times": [0, 1, 2], "points": [[0, 0], [1, 0]]}),
     "points must be a (len(times), arity) array"),
    (["angles", "--alpha", "0.5"], "latin1.json", b'{"model": "\xe9"}',
     "'utf-8' codec can't decode byte 0xe9 in position 11: invalid continuation byte"),
    (["validate"], "bad.csv", b"0,1\n\xff,0\n",
     "'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"),
], ids=["truncated-json", "csv-as-json", "nan-cell", "curve-lengths", "not-utf8-json",
        "not-utf8-csv"])
def test_loader_errors_name_the_file(capsys, tmp_path, argv, name, text, message):
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    rc = cli.main([argv[0], "--in", str(path)] + argv[1:])
    out = capsys.readouterr()
    assert rc == 1 and out.out == ""
    assert out.err == f"error: {path}: {message}\n"
