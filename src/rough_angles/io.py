"""File formats: distance matrices (CSV and JSON), point clouds, curves, and
DSE spaces.  Loaders are strict: symmetry is checked on matrix ingest and DSE
files are re-verified against the monotonicity before use."""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

import numpy as np

from .curves import SampledCurve
from .dse_spaces import DseSpace, as_dse
from .metric_core import FiniteMetricSpace, ModelSpaceSpec, PointCloud

PathLike = Union[str, Path]


def _checked_matrix(p: Path, dist: np.ndarray, declared_n=None) -> np.ndarray:
    if declared_n is not None and int(declared_n) != dist.shape[0]:
        raise ValueError(f"{p}: declared n={declared_n} but matrix has {dist.shape[0]} rows")
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError(f"{p}: matrix is not square, shape {dist.shape}")
    if np.max(np.abs(dist - dist.T)) > 0.0:
        i, j = np.unravel_index(int(np.argmax(np.abs(dist - dist.T))), dist.shape)
        raise ValueError(f"{p}: matrix is not symmetric at ({i},{j})")
    return dist


def load_distance_matrix(path: PathLike) -> FiniteMetricSpace:
    """CSV (one row per point, optional header) or JSON {"n":..,"dist":[[..]]},
    chosen by extension.  Asymmetric matrices are rejected."""
    p = Path(path)
    if p.suffix.lower() == ".json":
        payload = json.loads(p.read_text())
        return FiniteMetricSpace(_checked_matrix(p, np.asarray(payload["dist"], dtype=np.float64),
                                                 payload.get("n")))
    rows = []
    with p.open(newline="") as fh:
        for rec in csv.reader(fh):
            rec = [c.strip() for c in rec if c.strip() != ""]
            if not rec:
                continue
            try:
                rows.append([float(c) for c in rec])
            except ValueError:
                if not rows:  # header line
                    continue
                raise
    return FiniteMetricSpace(_checked_matrix(p, np.asarray(rows, dtype=np.float64)))


def save_distance_matrix(m: FiniteMetricSpace, path: PathLike) -> None:
    p = Path(path)
    if p.suffix.lower() == ".json":
        payload = {"n": m.n, "dist": [[float(x) for x in row] for row in m.dist]}
        p.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        with p.open("w", newline="") as fh:
            w = csv.writer(fh)
            for row in m.dist:
                w.writerow([repr(float(x)) for x in row])


def load_point_cloud(path: PathLike) -> PointCloud:
    payload = json.loads(Path(path).read_text())
    model = ModelSpaceSpec(payload["model"], int(payload.get("dim", 2)))
    return PointCloud(model, np.asarray(payload["coords"], dtype=np.float64))


def save_point_cloud(pc: PointCloud, path: PathLike) -> None:
    payload = {
        "model": pc.model.kind,
        "dim": pc.model.dim,
        "coords": [[float(x) for x in row] for row in pc.coords],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_curve(path: PathLike) -> SampledCurve:
    payload = json.loads(Path(path).read_text())
    model = ModelSpaceSpec(payload["model"], int(payload.get("dim", 2)))
    return SampledCurve(model, np.asarray(payload["times"], dtype=np.float64),
                        np.asarray(payload["points"], dtype=np.float64))


def save_curve(c: SampledCurve, path: PathLike) -> None:
    payload = {
        "model": c.model.kind,
        "dim": c.model.dim,
        "times": [float(t) for t in c.times],
        "points": [[float(x) for x in row] for row in c.points],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_dse(path: PathLike) -> DseSpace:
    """DSE file = distance-matrix JSON plus {"order": "identity"}; the matrix
    is checked as in ``load_distance_matrix`` and the monotonicity re-verified."""
    p = Path(path)
    payload = json.loads(p.read_text())
    order = payload.get("order", "identity")
    if order != "identity":
        raise ValueError(f"{p}: unsupported order {order!r}")
    dist = _checked_matrix(p, np.asarray(payload["dist"], dtype=np.float64), payload.get("n"))
    return as_dse(FiniteMetricSpace(dist))


def save_dse(d: DseSpace, path: PathLike) -> None:
    payload = {
        "n": d.n,
        "dist": [[float(x) for x in row] for row in d.dist],
        "order": "identity",
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
