import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rough_angles import cli
from rough_angles.cli import main, report_schema_version
from rough_angles.dse_spaces import RejectionError
from rough_angles.io import save_distance_matrix, save_point_cloud
from rough_angles.metric_core import (
    EUCLIDEAN_L2,
    MODEL_KINDS,
    FiniteMetricSpace,
    ModelSpaceSpec,
    PointCloud,
)

from _generators import collinear, random_metric


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, (json.loads(out) if out.strip() else None)


@pytest.fixture()
def collinear6(tmp_path):
    path = tmp_path / "collinear6.json"
    save_distance_matrix(collinear(6), path)
    return str(path)


def test_schema_version():
    assert report_schema_version() == "1.0.0"


def test_report_top_level_keys_frozen(capsys, collinear6):
    rc, rep = run(capsys, "critical-alpha", "--in", collinear6)
    assert rc == 0
    # schema change must bump report_schema_version
    assert sorted(rep) == ["command", "generated_at", "params", "result",
                          "schema_version", "tolerances", "verdict"]
    assert rep["schema_version"] == report_schema_version()


def test_validate_pass_and_fail(tmp_path, capsys, collinear6):
    rc, rep = run(capsys, "validate", "--in", collinear6)
    assert rc == 0 and rep["result"]["passed"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}))
    rc, rep = run(capsys, "validate", "--in", str(bad))
    assert rc == 2 and rep["verdict"] == "violated"


def test_sra_check_exit_codes(capsys, tmp_path):
    snow = tmp_path / "snow.json"
    rc, _ = run(capsys, "gen-dse", "--n", "6", "--beta", "0.5", "--seed", "1",
                "--out", str(snow))
    assert rc == 0
    rc, rep = run(capsys, "sra-check", "--in", str(snow), "--alpha", "0.5")
    assert rc == 0 and rep["result"]["is_sra"]
    rc, rep = run(capsys, "sra-check", "--in", str(snow), "--alpha", "0.3")
    assert rc == 2 and rep["verdict"] == "violated"


def test_max_sra_collinear(capsys, collinear6):
    rc, rep = run(capsys, "max-sra", "--in", collinear6, "--alpha", "0.9")
    assert rc == 0
    assert rep["result"]["max_subset"]["size"] == 2
    assert rep["result"]["max_subset"]["optimal"]


def test_max_sra_small_budget_prints_brute_force_subset(capsys, tmp_path):
    # The budget-1 search completes here, so the report must carry the
    # lexicographically smallest maximum whatever the budget.
    path = tmp_path / "m.json"
    save_distance_matrix(random_metric(10, np.random.default_rng(348)), path)
    rc, rep = run(capsys, "max-sra", "--in", str(path), "--alpha", "0.5",
                  "--budget", "1", "--tol", "0")
    assert rc == 0
    best = rep["result"]["max_subset"]
    assert best["optimal"]
    assert best["indices"] == [0, 1, 2, 3, 4, 6, 9]  # brute force


def test_constants_report(capsys):
    rc, rep = run(capsys, "constants", "--alpha", "0.8", "--theta", "0.5",
                  "--m", "3", "--k", "4")
    assert rc == 0
    assert rep["result"]["c_of_m_theta"] == "78"


def test_constants_full_bundle(capsys):
    rc, rep = run(capsys, "constants", "--alpha", "0.9", "--theta", "0.2", "--k", "4")
    assert rc == 0
    assert rep["result"]["n_theta_alpha"] == 3


def test_error_exit_code(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    rc = main(["sra-check", "--in", str(missing), "--alpha", "0.5"])
    assert rc == 1
    rc = main(["snowflake", "--in", str(missing), "--beta", "0.5"])
    assert rc == 1


@pytest.mark.parametrize("argv", [
    ["extract", "--alpha", "0.8", "--k", "0"],
    ["freeness-cover", "--alpha", "0.8", "--r", "1.5", "--R", "5.0", "--k", "0"],
    ["constants", "--alpha", "0.8", "--k", "0"],
    ["gen-dse", "--n", "0", "--beta", "0.5", "--seed", "1"],
    ["refute-weird", "--theta", "0.2", "--alpha", "0.9", "--n", "0", "--trials", "10",
     "--seed", "1"],
], ids=lambda argv: argv[0])
def test_explicit_zero_is_not_replaced_by_default(capsys, tmp_path, argv):
    """--k 0 and --n 0 reach the library's range checks instead of turning
    into the default."""
    snow = tmp_path / "snow.json"
    assert main(["gen-dse", "--n", "6", "--beta", "0.5", "--seed", "1",
                 "--out", str(snow)]) == 0
    capsys.readouterr()
    out = tmp_path / "out.json"
    rc = main(argv + ["--in", str(snow), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    flag = argv[argv.index("--k") if "--k" in argv else argv.index("--n")]
    assert captured.err.startswith(f"error: need {flag[2:]} >=")
    assert not captured.out and not out.exists()


def test_gen_curve_refuses_other_models(capsys, tmp_path):
    out = tmp_path / "c.json"
    for kind in MODEL_KINDS:
        if kind == EUCLIDEAN_L2:
            continue
        rc = main(["gen-curve", "--model", kind, "--seed", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and kind in err
        assert not out.exists()
    rc, rep = run(capsys, "gen-curve", "--model", EUCLIDEAN_L2, "--seed", "1", "--out", str(out))
    assert rc == 0 and out.exists()


def test_generator_failures_exit_with_error(capsys, tmp_path, monkeypatch):
    rc = main(["gen-curve", "--seed", "1", "--step", "5",
               "--out", str(tmp_path / "c.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "objective increased" in err

    def exhausted(*args, **kwargs):
        raise RejectionError("no DSE ordering found within 3 attempts")

    monkeypatch.setattr(cli, "gen_random_dse", exhausted)
    rc = main(["gen-dse", "--n", "12", "--seed", "1", "--out", str(tmp_path / "d.json")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: no DSE ordering")


def test_module_entry_point_runs_without_runpy_warning():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "rough_angles.cli",
         "constants", "--alpha", "0.8"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "constants"


def test_snowflake_writes_matrix(capsys, tmp_path, collinear6):
    out = tmp_path / "snow.json"
    rc, rep = run(capsys, "snowflake", "--in", collinear6, "--beta", "0.5",
                  "--out", str(out))
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["dist"][0][4] == pytest.approx(2.0)


def test_determinism_modulo_timestamp(capsys, collinear6):
    rc1, rep1 = run(capsys, "sra-check", "--in", collinear6, "--alpha", "0.9")
    rc2, rep2 = run(capsys, "sra-check", "--in", collinear6, "--alpha", "0.9")
    assert rc1 == rc2 == 2
    rep1.pop("generated_at")
    rep2.pop("generated_at")
    assert rep1 == rep2


def test_refute_weird_cli(capsys):
    rc, rep = run(capsys, "refute-weird", "--theta", "0.2", "--alpha", "0.9",
                  "--n", "4", "--trials", "3000", "--seed", "3")
    assert rc == 0
    assert rep["result"]["feasible_count"] == 0
    # at the formula size the search surfaces hits and flags them
    rc, rep = run(capsys, "refute-weird", "--theta", "0.2", "--alpha", "0.9",
                  "--n", "3", "--trials", "1000", "--seed", "3")
    assert rc == 2 and rep["verdict"] == "violated"
    assert rep["result"]["first_feasible"] is not None


def test_refute_weird_cli_rejects_negative_trials(capsys):
    rc = main(["refute-weird", "--theta", "0.2", "--alpha", "0.9",
               "--n", "4", "--trials", "-5", "--seed", "1"])
    out = capsys.readouterr()
    assert rc == 1 and out.out == ""
    assert out.err.startswith("error: trials must be >= 0")
    # zero trials still runs the grid probes
    rc, rep = run(capsys, "refute-weird", "--theta", "0.2", "--alpha", "0.9",
                  "--n", "4", "--trials", "0", "--seed", "1")
    assert rc == 0 and rep["result"]["trials"] == 0


def test_extract_rejects_asymmetric_dse(capsys, tmp_path):
    d = collinear(4).dist.copy()
    d[0, 3] += 0.5
    src = tmp_path / "asym.json"
    src.write_text(json.dumps({"n": 4, "dist": d.tolist(), "order": "identity"}))
    rc = main(["extract", "--in", str(src), "--alpha", "0.8", "--k", "2"])
    out = capsys.readouterr()
    assert rc == 1 and out.out == ""
    assert out.err.startswith("error:") and "not symmetric at (0,3)" in out.err


def test_net_embed_and_csv(capsys, tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((30, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    m = FiniteMetricSpace(np.sqrt(np.sum(diff * diff, axis=2)))
    src = tmp_path / "m.json"
    save_distance_matrix(m, src)
    rc, rep = run(capsys, "net-embed", "--in", str(src))
    assert rc == 0
    assert rep["result"]["upper"] <= 1.0 + 1e-12
    csv_out = tmp_path / "emb.csv"
    rc, rep = run(capsys, "net-embed", "--in", str(src), "--format", "csv",
                  "--out", str(csv_out))
    assert rc == 0
    header = csv_out.read_text().splitlines()[0]
    assert header.startswith("d_to_net_")
    assert sorted(rep) == ["command", "generated_at", "params", "result",
                          "schema_version", "tolerances", "verdict"]
    assert rep["command"] == "net-embed" and rep["verdict"] is None
    assert rep["result"]["out"] == str(csv_out)
    assert rep["result"]["net_size"] == len(header.split(","))


def test_doubling_cli(capsys, collinear6):
    rc, rep = run(capsys, "doubling", "--in", collinear6, "--scales", "2.0")
    assert rc == 0
    assert rep["result"]["estimates"][0]["covering_number"] >= 1


def test_freeness_cover_cli(capsys, collinear6):
    rc, rep = run(capsys, "freeness-cover", "--in", collinear6, "--alpha", "0.8",
                  "--r", "1.5", "--R", "5.0", "--k", "3")
    assert rc == 0
    assert rep["result"]["holds"] is True


def test_angles_cli(capsys, tmp_path):
    pc = PointCloud(ModelSpaceSpec(EUCLIDEAN_L2, 2), [[0, 0], [1, 0], [2, 0]])
    src = tmp_path / "pc.json"
    save_point_cloud(pc, src)
    rc, rep = run(capsys, "angles", "--in", str(src), "--alpha", "0.9")
    assert rc == 0
    assert len(rep["result"]["entries"]) == 1


def test_pipeline_composes(capsys, tmp_path):
    """gen-curve -> curve-check -> curve-to-dse -> dse-check -> extract."""
    curve = tmp_path / "curve.json"
    dse = tmp_path / "dse.json"
    rc, _ = run(capsys, "gen-curve", "--seed", "9", "--dim", "3", "--steps", "25",
                "--out", str(curve))
    assert rc == 0
    rc, rep = run(capsys, "curve-check", "--in", str(curve))
    assert rc == 0 and rep["result"]["self_contracted"]
    rc, _ = run(capsys, "curve-to-dse", "--in", str(curve), "--out", str(dse))
    assert rc == 0
    rc, rep = run(capsys, "dse-check", "--in", str(dse))
    assert rc == 0 and rep["result"]["is_dse"]
    rc, rep = run(capsys, "extract", "--in", str(dse), "--alpha", "0.8", "--k", "2")
    assert rc == 0
    assert rep["result"]["certificate"] is not None


def test_reports_reparse(capsys, collinear6):
    for cmd, extra in [("validate", []), ("critical-alpha", []),
                       ("dse-check", []), ("max-sra", ["--alpha", "0.7"])]:
        rc = main([cmd, "--in", collinear6] + extra)
        out = json.loads(capsys.readouterr().out)
        assert out["schema_version"] == report_schema_version()
