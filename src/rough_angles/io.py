"""File formats: distance matrices (CSV and JSON), point clouds, curves, DSE
spaces, net coordinates and report JSON.  Loaders are strict: matrices must be
symmetric, and DSE files are re-verified against the monotonicity."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .curves import SampledCurve
from .dse_spaces import DseSpace, as_dse
from .metric_core import FiniteMetricSpace, ModelSpaceSpec, PointCloud
from .net_embedding import NetEmbedding

PathLike = Union[str, Path]


def _read_object(p: Path) -> dict:
    payload = json.loads(p.read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"{p}: expected a JSON object, got {type(payload).__name__}")
    return payload


def _as_int(p: Path, value) -> int:
    if not isinstance(value, (int, float, str)):
        raise ValueError(f"{p}: expected an integer, got {value!r}")
    return int(value)


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


def _json_matrix(p: Path, payload: dict) -> np.ndarray:
    """The checked "dist" of a JSON matrix file: rows of JSON numbers (not true
    or false), each as long as the first, and as many as "n" if given."""
    rows = payload.get("dist")
    if not isinstance(rows, list):
        raise ValueError(f'{p}: expected "dist" to be a list of rows, got {json.dumps(rows)}')
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValueError(f"{p}, row {i}: expected a list of numbers, got {json.dumps(row)}")
        if len(row) != len(rows[0]):
            raise ValueError(f"{p}, row {i}: {len(row)} cells, "
                             f"but the first row has {len(rows[0])}")
        if not set(map(type, row)) <= {int, float}:  # the types json gives numbers
            cell = next(c for c in row if type(c) not in (int, float))
            raise ValueError(f"{p}, row {i}: {json.dumps(cell)} is not a number")
    try:
        dist = np.array(rows, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"{p}: {exc}") from None
    return _checked_matrix(p, dist, payload.get("n"))


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer, np.ndarray)):
        return x.tolist()  # a Python number for a numpy scalar
    raise TypeError(f"not JSON-serializable: {type(x)}")


def json_text(payload: dict) -> str:
    """The JSON text of every file and report: indent 2, sorted keys, numpy
    scalars and arrays as Python numbers and lists, and a final newline."""
    return json.dumps(payload, indent=2, sort_keys=True, default=_jsonable) + "\n"


def _write_json(path: PathLike, payload: dict) -> None:
    Path(path).write_text(json_text(payload))


def _write_csv(path: PathLike, rows: list[list[float]], header: Optional[list] = None) -> None:
    """An optional header line, then ``repr`` floats (bit-exact) joined by commas;
    CRLF line ends: the bytes of csv.writer, as no cell needs quoting."""
    lines = [] if header is None else [",".join(header)]
    lines += (",".join(map(repr, row)) for row in rows)
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
        return FiniteMetricSpace(_json_matrix(p, _read_object(p)))
    with p.open(newline="") as fh:
        # loadtxt warns on a file with no data lines; such a file has no numeric rows.
        if not any(line.strip() for line in fh):
            raise ValueError(f"{p}: no numeric rows")
        fh.seek(0)
        try:
            # Plain numeric CSV in numpy's C parser, which rounds as float() does;
            # anything it refuses (header, quotes, empty cells, ...) goes cell by cell.
            dist = np.loadtxt(fh, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
        except ValueError:
            fh.seek(0)
            dist = _parse_csv(p, fh)
    return FiniteMetricSpace(_checked_matrix(p, dist))


def save_distance_matrix(m: FiniteMetricSpace, path: PathLike) -> None:
    p = Path(path)
    if p.suffix.lower() == ".json":
        _write_json(p, {"n": m.n, "dist": m.dist.tolist()})
    else:
        _write_csv(p, m.dist.tolist())


def save_net_coords(emb: NetEmbedding, path: PathLike) -> None:
    """CSV of distance-to-net coordinates: a ``d_to_net_<z>`` header per net
    point z, then one row per point."""
    _write_csv(path, emb.coords.tolist(), header=[f"d_to_net_{z}" for z in emb.net])


def load_point_cloud(path: PathLike) -> PointCloud:
    p = Path(path)
    payload = _read_object(p)
    model = ModelSpaceSpec(payload["model"], _as_int(p, payload.get("dim", 2)))
    return PointCloud(model, np.asarray(payload["coords"], dtype=np.float64))


def save_point_cloud(pc: PointCloud, path: PathLike) -> None:
    _write_json(path, {"model": pc.model.kind, "dim": pc.model.dim, "coords": pc.coords.tolist()})


def load_curve(path: PathLike) -> SampledCurve:
    p = Path(path)
    payload = _read_object(p)
    model = ModelSpaceSpec(payload["model"], _as_int(p, payload.get("dim", 2)))
    return SampledCurve(model, np.asarray(payload["times"], dtype=np.float64),
                        np.asarray(payload["points"], dtype=np.float64))


def save_curve(c: SampledCurve, path: PathLike) -> None:
    _write_json(path, {"model": c.model.kind, "dim": c.model.dim, "times": c.times.tolist(),
                       "points": c.points.tolist()})


def load_dse(path: PathLike) -> DseSpace:
    """DSE file = distance-matrix JSON plus {"order": "identity"}; the matrix
    is checked as in ``load_distance_matrix`` and the monotonicity re-verified."""
    p = Path(path)
    payload = _read_object(p)
    order = payload.get("order", "identity")
    if order != "identity":
        raise ValueError(f"{p}: unsupported order {order!r}")
    return as_dse(FiniteMetricSpace(_json_matrix(p, payload)))


def save_dse(d: DseSpace, path: PathLike) -> None:
    _write_json(path, {"n": d.n, "dist": d.dist.tolist(), "order": "identity"})
