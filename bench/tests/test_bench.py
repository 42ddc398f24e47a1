"""Tests of the benchmark itself, on a tiny corpus.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import compare  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_named_metric_is_emitted(workload, trace, tmp_path):
    out = tmp_path / "record.json"
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", trace, "--size", "tiny", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    names = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in names} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        if trace == "0":
            assert m["value"] > 0, name
    record = json.loads(out.read_text())
    assert all(record["digests"]), "every report has a digest"


def test_same_seed_gives_same_digests_traced_or_not(tmp_path):
    digests = []
    for i, trace in enumerate(("0", "0", "1")):
        out = tmp_path / f"r{i}.json"
        proc = run_bench("--workload", "search", "--seed", "5", "--seconds", "0.2",
                         "--trace", trace, "--size", "tiny", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        digests.append(json.loads(out.read_text())["digests"])
    assert digests[0] == digests[1] == digests[2]


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_the_code():
    import harness
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracer.LAYER_METRICS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


def test_tracer_restores_every_binding():
    import rough_angles
    import rough_angles.cli as cli
    import rough_angles.net_embedding as ne
    before = (cli.sra_report, ne.max_sra_subset, rough_angles.is_sra, cli.main)
    t = tracer.Tracer()
    with t:
        assert cli.sra_report is not before[0]
        assert ne.max_sra_subset is not before[1]
        assert rough_angles.is_sra is not before[2]
        assert cli.main.__wrapped__ is before[3]
    assert (cli.sra_report, ne.max_sra_subset, rough_angles.is_sra, cli.main) == before


def test_self_time_subtracts_child_spans():
    spans = [tracer.Span("cli.main", 0.0, 10.0, None, 0),
             tracer.Span("sra_analysis.is_sra", 1.0, 4.0, 0, 0, {"n": 5, "triples": 30}),
             tracer.Span("metric_core.default_tol", 1.5, 2.0, 1, 0),
             tracer.Span("io.load_distance_matrix", 5.0, 6.0, 0, 0, {"bytes": 7})]
    assert tracer.self_times(spans) == [6.0, 2.5, 0.5, 1.0]
    layers = tracer.layer_metrics(spans)
    assert layers["cli.self_s"] == 6.0
    assert layers["sra_analysis.is_sra_s"] == 2.5
    assert layers["sra_analysis.full_scans"] == 1
    assert layers["sra_analysis.scan_triples_per_s"] == 30 / 2.5
    assert layers["io.load_bytes"] == 7


def collinear(n: int) -> np.ndarray:
    pos = np.arange(n, dtype=float)
    return np.abs(pos[:, None] - pos[None, :])


def test_certificate_check_catches_violations_and_non_maximal_sets():
    d = collinear(5)  # every three collinear points violate SRA(0.8)
    tol = checks.cli_tol(d)
    assert checks.check_certificate(d, [0, 1], 0.8, tol) is None
    assert "violating" in checks.check_certificate(d, [0, 1, 2], 0.8, tol)
    assert "bound" in checks.check_certificate(d, [0, 1], 0.8, tol, bound=1)
    square = np.asarray([[0, 1, 2 ** .5, 1], [1, 0, 1, 2 ** .5],
                         [2 ** .5, 1, 0, 1], [1, 2 ** .5, 1, 0]])
    assert "not maximal" in checks.check_certificate(square, [0, 1], 0.8,
                                                     checks.cli_tol(square))


def test_guard_check_rejects_a_confident_wrong_critical_alpha(tmp_path):
    path = tmp_path / "dup.csv"
    pos = np.asarray([0.0, 1.0, 2.0, 1.0])
    np.savetxt(path, np.abs(pos[:, None] - pos[None, :]), delimiter=",")
    check = checks.guard_critical_alpha(str(path), 0.9)
    assert check({"result": {"critical_alpha": 0.0}}) is not None
    assert check({"result": {"critical_alpha": 1.0}}) is None


def test_compare_flags_a_regression_beyond_the_bound():
    def rec(seed, wall):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
        metrics["wall_s"]["value"] = wall
        return {"workload": "scan", "seed": seed, "traced": False,
                "result": {"metrics": metrics}}
    base = [rec(s, 1.0 + 0.001 * s) for s in range(5)]
    slower = [rec(s, 2.0 + 0.001 * s) for s in range(5)]
    lines, worse = compare.compare(base, slower, SPEC)
    assert worse and any("wall_s" in ln and "WORSE" in ln for ln in lines)
    lines, worse = compare.compare(base, base, SPEC)
    assert not worse
