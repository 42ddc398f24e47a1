"""Output checks for the benchmark's CLI reports.

Every check re-derives what it needs from the input files with plain numpy
and its own loops; none calls into ``rough_angles``, so a defect in the code
path being timed cannot also hide in its check.  A check returns ``None``
when the report is right and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Callable, Optional

import numpy as np

Check = Callable[[dict], Optional[str]]


def read_matrix(path: str | Path) -> np.ndarray:
    """Distance matrix of a CSV file or of a JSON file with a "dist" key."""
    p = Path(path)
    if p.suffix == ".json":
        return np.asarray(json.loads(p.read_text())["dist"], dtype=np.float64)
    with p.open(newline="") as fh:
        return np.asarray([[float(c) for c in row] for row in csv.reader(fh) if row],
                          dtype=np.float64)


def cli_tol(d: np.ndarray) -> float:
    """The additive tolerance the CLI's verdicts use: 1e-9 * (1 + diameter)."""
    return 1e-9 * (1.0 + float(np.max(d)))


def violates(d: np.ndarray, x: int, z: int, y: int, alpha: float, tol: float) -> bool:
    """Whether the triple with middle z breaks SRA(alpha) by more than tol."""
    a, b = d[x, z], d[z, y]
    return d[x, y] - max(a + alpha * b, alpha * a + b) > tol


def _slack(d: np.ndarray, xs: np.ndarray, z: int, ys: np.ndarray, alpha: float) -> np.ndarray:
    """slack[i, j] = d(x_i,y_j) - max{d(x_i,z) + a d(z,y_j), a d(x_i,z) + d(z,y_j)}."""
    a = d[xs, z][:, None]
    b = d[z, ys][None, :]
    return d[np.ix_(xs, ys)] - np.maximum(a + alpha * b, alpha * a + b)


def spans_violation(d: np.ndarray, subset: list[int], alpha: float, tol: float,
                    must_contain: Optional[int] = None) -> bool:
    """Whether some triple of ``subset`` (containing ``must_contain``, if
    given) breaks SRA(alpha) by more than tol for some choice of middle."""
    s = np.asarray(sorted(subset), dtype=np.intp)
    if must_contain is None:
        for z in s:
            rest = s[s != z]
            sl = _slack(d, rest, int(z), rest, alpha)
            np.fill_diagonal(sl, -np.inf)
            if np.any(sl > tol):
                return True
        return False
    v = must_contain
    rest = s[s != v]
    sl = _slack(d, rest, v, rest, alpha)  # v in the middle
    np.fill_diagonal(sl, -np.inf)
    if np.any(sl > tol):
        return True
    for z in rest:  # v at an end, z in the middle
        ys = rest[rest != z]
        if np.any(_slack(d, np.asarray([v]), int(z), ys, alpha) > tol):
            return True
    return False


def check_certificate(d: np.ndarray, subset: list[int], alpha: float, tol: float,
                      bound: Optional[int] = None, maximal: bool = True) -> Optional[str]:
    if len(set(subset)) != len(subset) or any(not 0 <= v < len(d) for v in subset):
        return f"certificate {subset} is not a set of point indices"
    if spans_violation(d, subset, alpha, tol):
        return f"certificate {subset} spans a violating triple"
    if bound is not None and len(subset) > bound:
        return f"certificate size {len(subset)} exceeds its bound {bound}"
    if maximal:
        chosen = set(subset)
        for v in range(len(d)):
            if v not in chosen and not spans_violation(d, sorted(chosen | {v}), alpha, tol,
                                                       must_contain=v):
                return f"certificate {subset} is not maximal: {v} can be added"
    return None


# -- per-command checks --------------------------------------------------------

def validate_passes(report: dict) -> Optional[str]:
    if report["result"]["passed"] is not True:
        return "generated metric failed validate"
    return None


def snowflaked_sra(beta: float) -> Check:
    """sra-check at alpha >= beta on a beta-snowflake must pass, and its
    critical alpha cannot exceed beta."""
    def check(report: dict) -> Optional[str]:
        res = report["result"]
        if res["alpha"] < beta:
            return f"check misuse: alpha {res['alpha']} below beta {beta}"
        if res["is_sra"] is not True:
            return f"{beta}-snowflake reported not SRA({res['alpha']})"
        if res["critical_alpha"] > beta + 1e-9:
            return f"{beta}-snowflake has critical alpha {res['critical_alpha']} > beta"
        return None
    return check


def critical_at_most(beta: float) -> Check:
    def check(report: dict) -> Optional[str]:
        got = report["result"]["critical_alpha"]
        if got > beta + 1e-9:
            return f"{beta}-snowflake has critical alpha {got} > beta"
        return None
    return check


def _ordered_triples(n: int):
    for z in range(n):
        for x in range(n):
            for y in range(x + 1, n):
                if z not in (x, y):
                    yield x, z, y


def dse_lemmas(report: dict) -> Optional[str]:
    res = report["result"]
    if res.get("is_dse") is not True:
        return "DSE input reported not DSE"
    if res.get("two_lemma_ok") is not True or res.get("diam_le_two_gap") is not True:
        return "dse-check did not report two_lemma_ok and diam_le_two_gap"
    return None


def max_sra_certificate(path: str, alpha: float) -> Check:
    def check(report: dict) -> Optional[str]:
        sub = report["result"]["max_subset"]
        if sub["optimal"] is not True:
            return "search ran out of budget"
        if sub["size"] != len(sub["indices"]):
            return "certificate size disagrees with its indices"
        d = read_matrix(path)
        return check_certificate(d, sub["indices"], alpha, cli_tol(d), bound=sub["bound"])
    return check


def extract_certificate(path: str, alpha: float, k: int) -> Check:
    """An extracted subspace has k points and spans no violating triple.  It
    is trimmed to k, so it is not maximal and carries no bound."""
    def check(report: dict) -> Optional[str]:
        cert = report["result"]["certificate"]
        if cert is None:
            return f"extract found no certificate (branch {report['result']['branch']})"
        if cert["size"] != k or len(cert["indices"]) != k:
            return f"extract certificate has {len(cert['indices'])} points, not {k}"
        d = read_matrix(path)
        return check_certificate(d, cert["indices"], alpha, cli_tol(d), maximal=False)
    return check


def freeness_holds(report: dict) -> Optional[str]:
    res = report["result"]
    if res["holds"] is not True:
        return f"freeness-cover pigeonhole did not hold (holds={res['holds']})"
    if res["global_max"] > res["bound"]:
        return "freeness-cover global maximum exceeds its bound"
    return None


def self_contracted(report: dict) -> Optional[str]:
    if report["result"]["self_contracted"] is not True:
        return "gradient-descent curve reported not self-contracted"
    return None


def net_upper(report: dict) -> Optional[str]:
    upper = report["result"]["upper"]
    if not upper <= 1.0 + 1e-9:
        return f"net embedding upper factor {upper} exceeds 1"
    return None


def angles_violate(cloud_path: str, alpha: float) -> Check:
    """Every reported wide angle is a strict SRA(alpha) violation of the
    cloud's Euclidean distances."""
    def check(report: dict) -> Optional[str]:
        coords = np.asarray(json.loads(Path(cloud_path).read_text())["coords"])
        for e in report["result"]["entries"]:
            x, z, y = e["x"], e["z"], e["y"]
            dxz = math.dist(coords[x], coords[z])
            dzy = math.dist(coords[z], coords[y])
            dxy = math.dist(coords[x], coords[y])
            if not dxy > max(dxz + alpha * dzy, alpha * dxz + dzy):
                return f"angle entry {(x, z, y)} does not violate SRA({alpha})"
        return None
    return check


def refute_none(report: dict) -> Optional[str]:
    if report["result"]["feasible_count"] != 0:
        return f"refute-weird found {report['result']['feasible_count']} feasible instances"
    return None


def guard_critical_alpha(path: str, alpha: float) -> Check:
    """On an input with a repeated point, critical-alpha must agree with the
    brute-force SRA verdict at ``alpha``: if it claims the space passes at
    ``alpha``, no triple may violate there.  A refusal (exit 1) is checked by
    the caller and also passes."""
    def check(report: dict) -> Optional[str]:
        d = read_matrix(path)
        crit = report["result"]["critical_alpha"]
        if crit <= alpha and any(violates(d, x, z, y, alpha, cli_tol(d))
                                 for x, z, y in _ordered_triples(len(d))):
            return (f"critical alpha {crit} <= {alpha} reported, "
                    f"yet a triple violates SRA({alpha})")
        return None
    return check
