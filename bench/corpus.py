"""Seeded corpora and the CLI invocations of each workload.

``build(workload, seed, size)`` writes the workload's input files into the
current directory and returns the invocations of one pass.  Inputs come from
the repository's own generators (``gen_snowflaked_path``, ``sample_model`` /
``from_point_cloud``, ``snowflake``, ``gen_gradient_trajectory`` /
``curve_to_dse`` and ``tests/_generators.py``) and are
written by the plain writers below, so the program only ever receives files.
The same seed gives byte-identical files.

Every workload runs every command group, so every end-to-end metric exists on
every workload; what differs is which group carries the weight:

* ``scan``: n-point metrics where the O(n^3) triple scans dominate, and the
  search commands run on SRA-passing inputs (an empty hypergraph);
* ``search``: small lattice, random and gradient-descent metrics where the
  exact hypergraph search and its certificate rebuild dominate;
* ``pipeline``: the write-heavy generator chains, the pure-Python angle
  audit with its large report, and the refutation search.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

import checks
from checks import Check

# Sizes per workload.  "tiny" keeps every invocation but shrinks every input,
# for the benchmark's own tests.  Curves stay at 150 steps: gradient descent
# on a well-conditioned quadratic shrinks by about 10x per step, and from
# about 200 steps on its squared distances underflow, so curve-to-dse
# collapses the tail and the chain's work would depend on the seed.
SIZES = {
    "full": {
        "scan": dict(n=220, cloud=(6, 5), curve_steps=150, dse_n=60, refute_trials=20_000),
        "search": dict(grids=3, grid=(5, 5), disks=6, disk_n=16, graphs=4, graph_n=18,
                       gd_steps=12, cover_grid=(5, 5), curve_steps=150, cloud=(6, 6), dse_n=80,
                       net_n=60, refute_trials=20_000),
        "pipeline": dict(curve_steps=150, curves=4, dse_ns=(60, 70, 80), net_n=200,
                         cloud=(7, 6), clouds=3, refute_trials=200_000),
    },
    "tiny": {
        "scan": dict(n=30, cloud=(3, 3), curve_steps=20, dse_n=12, refute_trials=2_000),
        "search": dict(grids=1, grid=(3, 3), disks=1, disk_n=10, graphs=1, graph_n=10,
                       gd_steps=8, cover_grid=(3, 3), curve_steps=10, cloud=(3, 3), dse_n=12,
                       net_n=10, refute_trials=2_000),
        "pipeline": dict(curve_steps=40, curves=2, dse_ns=(12, 16), net_n=30, cloud=(4, 3),
                         clouds=2, refute_trials=4_000),
    },
}

# Snowflake exponent of the snowflaked inputs, and the alpha the scan-side
# commands run at (above it, so those inputs pass and their hypergraph is
# empty).  The search commands run at SEARCH_ALPHA on non-snowflaked inputs.
BETA = 0.5
PASS_ALPHA = 0.6
SEARCH_ALPHA = 0.8
REFUTE = ["--theta", "0.2", "--alpha", "0.9", "--n", "4"]
# Lattices for the search move each coordinate by at most this much.  A
# larger jitter flips triples that sit near the SRA(0.8) boundary (a 5x5
# lattice has some with slack 0.02), and the search and cover time then
# varied by 10-20% between seeds; at 0.01 it varies by 3-5%, so the search
# does nearly the same work for every seed.
SEARCH_JITTER = 0.01


@dataclass(frozen=True)
class Invocation:
    group: Optional[str]  # end-to-end metric this command's time adds to
    argv: tuple[str, ...]
    check: Optional[Check] = None  # applied to the report when the exit code is 0
    exit_codes: tuple[int, ...] = (0,)  # accepted exit codes


# -- writers ----------------------------------------------------------------------

def write_matrix(path: str, d: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for row in d:
            w.writerow([repr(float(x)) for x in row])


def write_cloud(path: str, coords: np.ndarray) -> None:
    payload = {"model": "euclidean-l2", "dim": int(coords.shape[1]),
               "coords": [[float(x) for x in row] for row in coords]}
    with open(path, "w") as fh:
        json.dump(payload, fh)


# -- generators -------------------------------------------------------------------

def _ra():
    import rough_angles
    return rough_angles


def snowflaked_path(n: int) -> np.ndarray:
    return np.asarray(_ra().gen_snowflaked_path(n, BETA).dist)


def disk_cloud(n: int, dim: int, seed: int) -> np.ndarray:
    ra = _ra()
    return np.asarray(ra.sample_model(ra.ModelSpaceSpec("euclidean-l2", dim), n, 1.0, seed).coords)


def jittered_grid(kx: int, ky: int, seed: int, jitter: float = 0.1) -> np.ndarray:
    """A kx-by-ky unit lattice with each coordinate moved by at most
    ``jitter``."""
    rng = np.random.default_rng(seed)
    g = np.stack(np.meshgrid(np.arange(kx), np.arange(ky)), -1).reshape(-1, 2).astype(float)
    return g + rng.uniform(-jitter, jitter, g.shape)


def gradient_dse(steps: int, seed: int) -> np.ndarray:
    """Reversed gradient-descent polyline of a random 2-D quadratic, as the
    CLI's gen-curve and curve-to-dse build it: a dense DSE space."""
    ra = _ra()
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 2))
    q = a.T @ a + 0.5 * np.eye(2)
    step = 0.9 / float(np.max(np.linalg.eigvalsh(q)))
    curve = ra.gen_gradient_trajectory(q, rng.standard_normal(2), step, steps)
    return np.asarray(ra.curve_to_dse(curve).dist)


def cloud_metric(coords: np.ndarray) -> np.ndarray:
    ra = _ra()
    pc = ra.PointCloud(ra.ModelSpaceSpec("euclidean-l2", coords.shape[1]), coords)
    return np.asarray(ra.from_point_cloud(pc).dist)


def graph(n: int, rng: np.random.Generator) -> np.ndarray:
    from _generators import graph_metric
    return np.asarray(graph_metric(n, rng).dist)


def snowflaked(d: np.ndarray) -> np.ndarray:
    ra = _ra()
    return np.asarray(ra.snowflake(ra.FiniteMetricSpace(d), BETA).dist)


# -- command groups shared by the workloads ---------------------------------------------

def _scan_side(f: str, snowflaked_input: bool) -> list[Invocation]:
    """validate and critical-alpha on one metric file."""
    return [
        Invocation("validate_s", ("validate", "--in", f), checks.validate_passes),
        Invocation("critical_alpha_s", ("critical-alpha", "--in", f),
                   checks.critical_at_most(BETA) if snowflaked_input else None),
    ]


def _sra_check(f: str) -> Invocation:
    return Invocation("sra_check_s", ("sra-check", "--in", f, "--alpha", str(PASS_ALPHA)),
                      checks.snowflaked_sra(BETA))


def _max_sra(f: str, alpha: float) -> Invocation:
    return Invocation("max_sra_s", ("max-sra", "--in", f, "--alpha", str(alpha)),
                      checks.max_sra_certificate(f, alpha))


def _freeness(f: str, alpha: float, r: float, big_r: float) -> Invocation:
    return Invocation("freeness_cover_s",
                      ("freeness-cover", "--in", f, "--alpha", str(alpha), "--r", repr(r),
                       "--R", repr(big_r), "--k", "3"), checks.freeness_holds)


def _curve_chain(seed: int, steps: int, tag: str) -> list[Invocation]:
    c, g = f"curve_{tag}.json", f"gd_{tag}.json"
    return [
        Invocation("curve_chain_s", ("gen-curve", "--seed", str(seed), "--steps", str(steps),
                                     "--out", c)),
        Invocation("curve_chain_s", ("curve-check", "--in", c), checks.self_contracted),
        Invocation("curve_chain_s", ("curve-to-dse", "--in", c, "--out", g)),
        Invocation("curve_chain_s", ("dse-check", "--in", g), checks.dse_lemmas),
    ]


def _extract(seed: int, n: int) -> list[Invocation]:
    f = f"sp{n}.json"
    return [
        Invocation(None, ("gen-dse", "--beta", str(BETA), "--n", str(n), "--seed", str(seed),
                          "--out", f)),
        Invocation("extract_s", ("extract", "--in", f, "--alpha", str(SEARCH_ALPHA), "--k", "4"),
                   checks.extract_certificate(f, SEARCH_ALPHA, 4)),
    ]


def _net(f: str) -> list[Invocation]:
    sf = "net_" + f
    return [
        Invocation("net_s", ("snowflake", "--in", f, "--beta", str(BETA), "--out", sf)),
        Invocation("net_s", ("net-embed", "--in", sf), checks.net_upper),
        Invocation("net_s", ("doubling", "--in", sf)),
    ]


def _angles(f: str) -> Invocation:
    return Invocation("angles_s", ("angles", "--in", f, "--alpha", str(SEARCH_ALPHA)),
                      checks.angles_violate(f, SEARCH_ALPHA))


def _refute(seed: int, trials: int) -> Invocation:
    return Invocation("refute_weird_s", ("refute-weird", *REFUTE, "--trials", str(trials),
                                         "--seed", str(seed)), checks.refute_none)


# -- workloads --------------------------------------------------------------------

def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def build_scan(seed: int, p: dict) -> list[Invocation]:
    n = p["n"]
    s = _seeds(seed, 4)
    eucl = cloud_metric(disk_cloud(n, 3, s[0]))
    write_matrix("path.csv", snowflaked_path(n))
    write_matrix("eucl.csv", eucl)
    write_matrix("eucl_sf.csv", snowflaked(eucl))
    write_matrix("graph.csv", graph(n, np.random.default_rng(s[1])))
    write_cloud("cloud.json", jittered_grid(*p["cloud"], s[2]))
    diam = float(np.sqrt(n - 1.0))  # of the snowflaked path
    inv: list[Invocation] = []
    for f, sf in (("path.csv", True), ("eucl.csv", False), ("eucl_sf.csv", True),
                  ("graph.csv", False)):
        inv += _scan_side(f, sf)
    inv += [_sra_check("path.csv"), _sra_check("eucl_sf.csv"),
            Invocation(None, ("dse-check", "--in", "path.csv"), checks.dse_lemmas),
            _max_sra("eucl_sf.csv", PASS_ALPHA),
            _freeness("path.csv", PASS_ALPHA, diam / 2.0, diam)]
    inv += _curve_chain(s[3], p["curve_steps"], "scan")
    inv += _extract(seed, p["dse_n"])
    inv += _net("graph.csv")
    inv += [_angles("cloud.json"), _refute(seed, p["refute_trials"])]
    return inv


def build_search(seed: int, p: dict) -> list[Invocation]:
    grids, disks, graphs = p["grids"], p["disks"], p["graphs"]
    s = _seeds(seed, grids + disks + 5)
    graph_seed, gd_seed, cover_seed, curve_seed, cloud_seed = s[-5:]
    files: list[str] = []
    for i in range(grids):
        f = f"grid{i}.csv"
        write_matrix(f, cloud_metric(jittered_grid(*p["grid"], s[i], SEARCH_JITTER)))
        files.append(f)
    for i in range(disks):
        f = f"disk{i}.csv"
        write_matrix(f, cloud_metric(disk_cloud(p["disk_n"], 2, s[grids + i])))
        files.append(f)
    rng = np.random.default_rng(graph_seed)
    for i in range(graphs):
        d = graph(p["graph_n"], rng)
        write_matrix(f"graph{i}.csv", d)
        write_matrix(f"graph{i}_sf.csv", snowflaked(d))
        files.append(f"graph{i}.csv")
    write_matrix("gd.csv", gradient_dse(p["gd_steps"], gd_seed))
    files.append("gd.csv")
    # Point 0 is a grid corner; R reaches every grid point, so the R-ball
    # always holds the whole grid.
    kx, ky = p["cover_grid"]
    write_matrix("cover.csv", cloud_metric(jittered_grid(kx, ky, cover_seed, SEARCH_JITTER)))
    write_cloud("cloud.json", jittered_grid(*p["cloud"], cloud_seed))
    write_matrix("net.csv", cloud_metric(disk_cloud(p["net_n"], 2, cloud_seed)))
    inv: list[Invocation] = []
    for f in files:
        inv += _scan_side(f, False)
        inv.append(_max_sra(f, SEARCH_ALPHA))
    inv += [_sra_check(f"graph{i}_sf.csv") for i in range(graphs)]
    inv.append(_freeness("cover.csv", SEARCH_ALPHA, 2.5, float(kx + ky)))
    inv += _curve_chain(curve_seed, p["curve_steps"], "search")
    inv += _extract(seed, p["dse_n"])
    inv += _net("net.csv")
    inv += [_angles("cloud.json"), _refute(seed, p["refute_trials"])]
    return inv


def build_pipeline(seed: int, p: dict) -> list[Invocation]:
    # The curve chain, extract and angles each run on several inputs, so
    # that a pass sums several invocations of each and its figures are
    # steadier.
    clouds, curves = p["clouds"], p["curves"]
    s = _seeds(seed, 1 + clouds + curves)
    write_matrix("eucl.csv", cloud_metric(disk_cloud(p["net_n"], 2, s[0])))
    for i in range(clouds):
        write_cloud(f"cloud{i}.json", jittered_grid(*p["cloud"], s[1 + i]))
    n = p["dse_ns"][-1]
    sp, diam = f"sp{n}.json", float(np.sqrt(n - 1.0))
    inv: list[Invocation] = []
    for i in range(curves):
        inv += _curve_chain(s[1 + clouds + i], p["curve_steps"], f"pipe{i}")
    for m in p["dse_ns"]:
        inv += _extract(seed, m)
    inv += _scan_side(sp, True)
    inv += [_sra_check(sp), _max_sra(sp, PASS_ALPHA),
            _freeness(sp, PASS_ALPHA, diam / 2.0, diam)]
    inv += _net("eucl.csv")
    inv += [_angles(f"cloud{i}.json") for i in range(clouds)]
    inv.append(_refute(seed, p["refute_trials"]))
    return inv


BUILDERS = {"scan": build_scan, "search": build_search, "pipeline": build_pipeline}


def build_guards() -> list[Invocation]:
    """Inputs on the edge of being a metric, each with the answer it must not
    get wrong.  Collinear points 0, 1, 2 plus a second point at 1: a repeated
    point makes some per-triple ratios 0/0, and critical-alpha must then
    either refuse (exit 1) or agree with the brute-force verdict at 0.9."""
    pos = np.asarray([0.0, 1.0, 2.0, 1.0])
    write_matrix("duplicate_point.csv", np.abs(pos[:, None] - pos[None, :]))
    return [Invocation("guard", ("critical-alpha", "--in", "duplicate_point.csv"),
                       checks.guard_critical_alpha("duplicate_point.csv", 0.9),
                       exit_codes=(0, 1))]


def build(workload: str, seed: int, size: str = "full") -> list[Invocation]:
    """Write the workload's inputs into the current directory; return the
    invocations of one pass."""
    return BUILDERS[workload](seed, SIZES[size][workload])
