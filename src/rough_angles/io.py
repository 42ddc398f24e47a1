"""File formats: distance matrices (CSV and JSON), point clouds, curves, DSE
spaces, net coordinates and report JSON.  Loaders are strict: every JSON cell
must be a JSON number, matrices must be symmetric, and DSE files are
re-verified against the monotonicity.  Writers give the bytes of
``csv.writer`` and of ``json.dumps`` with indent 2 and sorted keys: every
matrix entry is written with ``repr``, formatted once per unordered pair of a
symmetric matrix, and the indent-2 layout is built around the C encoder.
A dataclass record is written as the object of its fields.  Report rows
(audit entries, violations) arrive as ``metric_core.Columns`` and are
written as the list of their row dicts, column by column: one encoder call
per column, then one ``%`` template per row."""

from __future__ import annotations

import codecs
import csv
import dataclasses
import functools
import io
import itertools
import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .curves import SampledCurve
from .dse_spaces import DseSpace, as_dse
from .metric_core import Columns, FiniteMetricSpace, ModelSpaceSpec, PointCloud
from .net_embedding import NetEmbedding

PathLike = Union[str, Path]


def _read_object(p: Path) -> dict:
    try:
        # json.loads refuses a leading byte-order mark, which some editors write.
        payload = json.loads(p.read_text().removeprefix("\ufeff"))
    except ValueError as exc:  # not UTF-8 text, or not JSON
        raise ValueError(f"{p}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{p}: expected a JSON object, got {type(payload).__name__}")
    return payload


def _named(p: Path, make, *args):
    """``make(*args)``, a ValueError it raises (of the same class) naming the
    file ``p``: for the checks the constructors make on what was loaded."""
    try:
        return make(*args)
    except ValueError as exc:
        raise type(exc)(f"{p}: {exc}") from None


def _as_int(p: Path, value) -> int:
    """A JSON integer, a whole-number float or a numeric string; booleans and
    fractions are refused, not truncated."""
    if type(value) is int or isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{p}: expected an integer, got {value!r}")


def _checked_matrix(p: Path, dist: np.ndarray, declared_n=None) -> np.ndarray:
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError(f"{p}: matrix is not square, shape {dist.shape}")
    if declared_n is not None and _as_int(p, declared_n) != dist.shape[0]:
        raise ValueError(f"{p}: declared n={declared_n} but matrix has {dist.shape[0]} rows")
    with np.errstate(invalid="ignore"):  # inf - inf; non-finite is refused later
        asym = np.abs(dist - dist.T)
    if np.max(asym) > 0.0:
        i, j = np.unravel_index(int(np.argmax(asym)), dist.shape)
        raise ValueError(f"{p}: matrix is not symmetric at ({i},{j})")
    return dist


def _numbers(p: Path, where: str, cells) -> None:
    """Refuse ``cells`` unless it is a list of JSON numbers (not true or false)."""
    if not isinstance(cells, list):
        raise ValueError(f"{p}, {where}: expected a list of numbers, got {json.dumps(cells)}")
    if not set(map(type, cells)) <= {int, float}:  # the types json gives numbers
        cell = next(c for c in cells if type(c) not in (int, float))
        raise ValueError(f"{p}, {where}: {json.dumps(cell)} is not a number")


def _as_floats(p: Path, cells) -> np.ndarray:
    try:
        return np.array(cells, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"{p}: {exc}") from None


def _json_rows(p: Path, payload: dict, key: str) -> np.ndarray:
    """``payload[key]`` as a float64 array: rows of JSON numbers, each as long
    as the first; errors name the file and the row."""
    rows = payload.get(key)
    if not isinstance(rows, list):
        raise ValueError(f'{p}: expected "{key}" to be a list of rows, got {json.dumps(rows)}')
    for i, row in enumerate(rows):
        if isinstance(row, list) and len(row) != len(rows[0]):
            raise ValueError(f"{p}, row {i}: {len(row)} cells, "
                             f"but the first row has {len(rows[0])}")
        _numbers(p, f"row {i}", row)
    return _as_floats(p, rows)


def _json_matrix(p: Path, payload: dict) -> np.ndarray:
    """The checked "dist" of a JSON matrix file, with as many rows as "n" if given."""
    return _checked_matrix(p, _json_rows(p, payload, "dist"), payload.get("n"))


def _jsonable(x):
    """``x`` as what json encodes: a Columns as the list of its row dicts."""
    if isinstance(x, (np.floating, np.integer, np.ndarray)):
        return x.tolist()  # a Python number for a numpy scalar
    if dataclasses.is_dataclass(x):
        return vars(x)  # a record as the object of its fields
    if isinstance(x, Columns):
        return [dict(zip(x.columns, row)) for row in x]
    raise TypeError(f"not JSON-serializable: {type(x)}")


def _cells(d: np.ndarray) -> list[list[str]]:
    """The ``repr`` strings of a 2-D array's float64 entries, row by row.  A
    square matrix equal to its transpose bit for bit (so 0.0 against -0.0
    is no mirror) is formatted on its upper triangle and the strings mirrored."""
    d = np.asarray(d, dtype=np.float64)
    bits = d.view(np.int64)
    if d.shape[0] != d.shape[1] or not np.array_equal(bits, bits.T):
        return [list(map(repr, row)) for row in d.tolist()]
    upper = np.triu_indices(d.shape[0])
    cells = np.empty(d.shape, dtype=object)
    cells[upper] = cells.T[upper] = list(map(repr, d[upper].tolist()))
    return cells.tolist()


_SCALARS = (str, int, float, type(None))


@functools.lru_cache(maxsize=None)
def _flat(pad: str):
    """The C encoder's ``encode`` for a scalar or a container of scalars,
    its items split as the indent-2 layout splits them on lines indented by
    ``pad``."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + pad, ": ")).encode


def _key(k) -> str:
    """A dict key as json writes it: a number, bool or null becomes a string."""
    if not isinstance(k, str):
        if not isinstance(k, (int, float)) and k is not None:
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {k.__class__.__name__}")
        k = json.dumps(k)
    return json.dumps(k)


def _block(items: str, pad: str, brackets: str) -> str:
    return f"{brackets[0]}\n{pad}  {items}\n{pad}{brackets[1]}"


# The exact types a row value may have; np.float64 is a float the encoder
# writes with float's repr.
_ROW_VALUES = {str, int, float, bool, type(None), np.float64}


def _rows(o: Columns, pad: str) -> Optional[str]:
    """The text of the list of the row dicts of ``o``, one or more; None when a
    cell is not a scalar.  Each column (an array listed with one ``tolist``) is encoded in
    one call and split on the item separator, which no encoded value contains
    (the encoder escapes every newline in a string), and one ``%`` template
    per row lays the cells out, so no row is built as an object."""
    keys = sorted(o.columns)
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in map(o.columns.get, keys)]
    if not set(map(type, itertools.chain.from_iterable(columns))) <= _ROW_VALUES:
        return None
    inner = pad + "  "
    cells = (",\n" + inner + "  ").join(_key(k).replace("%", "%%") + ": %s" for k in keys)
    template = _block(cells, inner, "{}")
    encode = _flat("")
    rows = zip(*[encode(col)[1:-1].split(",\n") for col in columns])
    return _block((",\n" + inner).join([template % row for row in rows]), pad, "[]")


def _layout(o, pad: str) -> str:
    """The text of ``o`` as ``json.dumps`` writes it with indent 2, sorted keys and
    ``default=_jsonable`` (a Columns via ``_rows``), starting on a line indented by ``pad``."""
    if isinstance(o, _SCALARS):
        return _flat(pad)(o)
    inner = pad + "  "
    if isinstance(o, dict):
        if not o:
            return "{}"
        if all(isinstance(v, _SCALARS) for v in o.values()):
            return _block(_flat(inner)(o)[1:-1], pad, "{}")
        items = [f"{_key(k)}: {_layout(v, inner)}" for k, v in sorted(o.items())]
        return _block((",\n" + inner).join(items), pad, "{}")
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if all(isinstance(v, _SCALARS) for v in o):
            return _block(_flat(inner)(o)[1:-1], pad, "[]")
        return _block((",\n" + inner).join([_layout(v, inner) for v in o]), pad, "[]")
    if isinstance(o, Columns) and len(o) and (text := _rows(o, pad)) is not None:
        return text  # no rows is "[]", the text of an empty list
    if (isinstance(o, np.ndarray) and o.ndim == 2 and o.dtype == np.float64 and o.size
            and np.isfinite(o).all()):  # json spells nan and inf as NaN and Infinity
        sep = ",\n" + inner + "  "
        rows = [_block(sep.join(row), inner, "[]") for row in _cells(o)]
        return _block((",\n" + inner).join(rows), pad, "[]")
    return _layout(_jsonable(o), pad)


def json_text(payload: dict) -> str:
    """The JSON text of every file and report: indent 2, sorted keys, numpy
    scalars and arrays as Python numbers and lists, and a final newline; the
    bytes ``json.dumps`` gives with those settings and ``default=_jsonable``."""
    return _layout(payload, "") + "\n"


def _write_json(path: PathLike, payload: dict) -> None:
    Path(path).write_text(json_text(payload))


def _write_csv(path: PathLike, d: np.ndarray, header: Optional[list] = None) -> None:
    """An optional header line, then the ``repr`` cells of ``d`` (bit-exact)
    joined by commas; CRLF line ends: the bytes of csv.writer, as no cell
    needs quoting."""
    lines = [] if header is None else [",".join(header)]
    lines += map(",".join, _cells(d))
    Path(path).write_text("".join(line + "\r\n" for line in lines), newline="")


def _parse_csv(p: Path, fh) -> np.ndarray:
    """Cell by cell: padding and empty cells are dropped, and lines before the
    first all-numeric row are skipped as a header."""
    rows = []
    reader = csv.reader(fh)
    for rec in reader:
        rec = [c.strip() for c in rec if c.strip() != ""]
        if not rec:
            continue
        try:
            rows.append([float(c) for c in rec])
        except ValueError as exc:
            if not rows:  # header line
                continue
            raise ValueError(f"{p}, line {reader.line_num}: {exc}") from None
        if len(rec) != len(rows[0]):
            raise ValueError(f"{p}, line {reader.line_num}: {len(rec)} cells, "
                             f"but the first row has {len(rows[0])}")
    if not rows:
        raise ValueError(f"{p}: no numeric rows")
    return np.asarray(rows, dtype=np.float64)


def load_distance_matrix(path: PathLike) -> FiniteMetricSpace:
    """CSV (one row per point, optional header) or JSON {"n":..,"dist":[[..]]},
    chosen by extension.  Asymmetric matrices are rejected, and so is a JSON
    cell that is not a number; errors name the file and the line or row."""
    p = Path(path)
    if p.suffix.lower() == ".json":
        return _named(p, FiniteMetricSpace, _json_matrix(p, _read_object(p)))
    try:
        dist = _csv_matrix(p)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{p}: {exc}") from None
    return _named(p, FiniteMetricSpace, _checked_matrix(p, dist))


def _csv_matrix(p: Path) -> np.ndarray:
    """The cells of the CSV file ``p``, unchecked; a byte that does not decode
    raises UnicodeDecodeError."""
    # A UTF-8 byte-order mark is not part of the first cell.
    raw = p.read_bytes().removeprefix(codecs.BOM_UTF8)
    # The file's text as open() would decode it, for the checks and the fallback.
    fh = io.TextIOWrapper(io.BytesIO(raw), newline="")
    # loadtxt warns on a file with no data lines; such a file has no numeric rows.
    if not any(line.strip() for line in fh):
        raise ValueError(f"{p}: no numeric rows")
    try:
        # Plain numeric CSV in numpy's C parser, which rounds as float() does and
        # decodes the bytes as the text is decoded; anything it refuses (header,
        # quotes, empty cells, a byte that does not decode, ...) goes cell by cell.
        return np.loadtxt(io.BytesIO(raw), delimiter=",", comments=None, dtype=np.float64,
                          ndmin=2, encoding=fh.encoding)
    except ValueError:
        fh.seek(0)
        return _parse_csv(p, fh)


def save_distance_matrix(m: FiniteMetricSpace, path: PathLike) -> None:
    p = Path(path)
    if p.suffix.lower() == ".json":
        _write_json(p, {"n": m.n, "dist": m.dist})
    else:
        _write_csv(p, m.dist)


def save_net_coords(emb: NetEmbedding, path: PathLike) -> None:
    """CSV of distance-to-net coordinates: a ``d_to_net_<z>`` header per net
    point z, then one row per point."""
    _write_csv(path, emb.coords, header=[f"d_to_net_{z}" for z in emb.net])


def _model(p: Path, payload: dict) -> ModelSpaceSpec:
    """The "model" and "dim" fields of a cloud or curve file; "dim" defaults to 2."""
    kind = payload.get("model")
    if not isinstance(kind, str):
        raise ValueError(f'{p}: expected "model" to be a model name, got {json.dumps(kind)}')
    dim = _as_int(p, payload.get("dim", 2))
    try:
        return ModelSpaceSpec(kind, dim)
    except ValueError as exc:
        raise ValueError(f"{p}: {exc}") from None


def load_point_cloud(path: PathLike) -> PointCloud:
    p = Path(path)
    payload = _read_object(p)
    return _named(p, PointCloud, _model(p, payload), _json_rows(p, payload, "coords"))


def save_point_cloud(pc: PointCloud, path: PathLike) -> None:
    _write_json(path, {"model": pc.model.kind, "dim": pc.model.dim, "coords": pc.coords})


def load_curve(path: PathLike) -> SampledCurve:
    p = Path(path)
    payload = _read_object(p)
    model = _model(p, payload)
    times = payload.get("times")
    _numbers(p, '"times"', times)
    return _named(p, SampledCurve, model, _as_floats(p, times),
                  _json_rows(p, payload, "points"))


def save_curve(c: SampledCurve, path: PathLike) -> None:
    _write_json(path, {"model": c.model.kind, "dim": c.model.dim, "times": c.times,
                       "points": c.points})


def load_dse(path: PathLike) -> DseSpace:
    """DSE file = distance-matrix JSON plus {"order": "identity"}; the matrix
    is checked as in ``load_distance_matrix`` and the monotonicity re-verified."""
    p = Path(path)
    payload = _read_object(p)
    order = payload.get("order", "identity")
    if order != "identity":
        raise ValueError(f"{p}: unsupported order {order!r}")
    return _named(p, as_dse, _named(p, FiniteMetricSpace, _json_matrix(p, payload)))


def save_dse(d: DseSpace, path: PathLike) -> None:
    _write_json(path, {"n": d.n, "dist": d.dist, "order": "identity"})
