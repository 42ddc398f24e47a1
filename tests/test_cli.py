import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

from rough_angles import cli
from rough_angles.cli import main, report_schema_version
from rough_angles.curves import SampledCurve, is_self_contracted
from rough_angles.dse_spaces import RejectionError
from rough_angles.io import json_text, save_curve, save_distance_matrix, save_point_cloud
from rough_angles.metric_core import (
    EUCLIDEAN_L2,
    MODEL_KINDS,
    FiniteMetricSpace,
    ModelSpaceSpec,
    PointCloud,
    default_tol,
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


@pytest.mark.parametrize("command,key", [("validate", "tri_tol"), ("sra-check", "tol"),
                                         ("max-sra", "tol"), ("dse-check", "tol")])
def test_tolerances_report_the_tolerance_applied(capsys, collinear6, command, key):
    """An omitted --tol is the default at the diameter; --tol 0 is reported as 0.0."""
    rc, rep = run(capsys, command, "--in", collinear6)
    assert rc != cli.EXIT_ERROR and rep["tolerances"] == {key: default_tol(collinear(6))}
    rc, rep = run(capsys, command, "--in", collinear6, "--tol", "0")
    assert rc != cli.EXIT_ERROR and rep["tolerances"] == {key: 0.0}


@pytest.mark.parametrize("command", ["sra-check", "max-sra", "freeness-cover"])
def test_negative_budget_is_an_error(capsys, collinear6, command):
    cover = ["--r", "1.5", "--R", "5"] if command == "freeness-cover" else []
    argv = [command, "--in", collinear6, "--alpha", "0.5"] + cover
    rc = main(argv + ["--budget", "-3"])
    out = capsys.readouterr()
    assert rc == 1 and out.out == ""
    assert out.err.startswith("error: budget must be >= 0, got -3")
    # Budget 0 still runs: the greedy cover, not a proven optimum.
    rc, rep = run(capsys, *argv, "--budget", "0")
    assert rc == 2 and rep["verdict"] in ("violated", "unknown")


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


def test_constants_default_k_is_the_bundles_k_for_globq(capsys):
    """Without --k, globq uses the bundle's k = 3, not a second default."""
    base = ["constants", "--alpha", "0.8", "--R", "4", "--r", "1", "--lam", "2"]
    rc, rep = run(capsys, *base)
    assert rc == 0 and rep["result"]["k"] == 3 and rep["result"]["globq"] == 12
    rc, rep3 = run(capsys, *base, "--k", "3")
    assert rc == 0 and rep3["result"] == rep["result"]


def test_constants_full_bundle(capsys):
    rc, rep = run(capsys, "constants", "--alpha", "0.9", "--theta", "0.2", "--k", "4")
    assert rc == 0
    assert rep["result"]["n_theta_alpha"] == 3


@pytest.mark.parametrize("argv", [
    ["--alpha", str(alpha), "--k", str(k)]
    for alpha in (0.52, 0.55, 0.6, 0.65, 0.7, 0.8, 0.9) for k in range(2, 8)
] + [["--m", "200", "--theta", "0.3"], ["--m", "2000", "--theta", "0.5"]],
    ids=lambda argv: " ".join(argv))
def test_constants_reports_or_refuses_in_one_line(capsys, argv):
    """Every size either gets a report or one error line, quickly; the
    recursion and float overflow of the earlier code escaped ``main`` as
    exceptions, which fail this test."""
    start = time.perf_counter()
    rc = main(["constants", *argv])
    assert time.perf_counter() - start < 5.0
    out = capsys.readouterr()
    if rc == 0:
        assert json.loads(out.out)["command"] == "constants" and out.err == ""
    else:
        assert rc == 1 and out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1
        assert "over the size limit" in out.err


def test_error_exit_code(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    rc = main(["sra-check", "--in", str(missing), "--alpha", "0.5"])
    assert rc == 1
    rc = main(["snowflake", "--in", str(missing), "--beta", "0.5"])
    assert rc == 1


BAD_MATRIX_FILES = [
    ("bad.csv", "a,b\n0,1\n1,x\n", "bad.csv, line 3: could not convert string to float: 'x'"),
    ("bad.csv", "a,b\n0,1\n1,0,2\n", "bad.csv, line 3: 3 cells, but the first row has 2"),
    ("bad.csv", "", "bad.csv: no numeric rows"),
    ("bad.csv", "\n \n", "bad.csv: no numeric rows"),
    ("bad.csv", "0,1.5e\n1.5e,0\n", "bad.csv: no numeric rows"),
    ("bad.csv", "p0,p1\n", "bad.csv: no numeric rows"),
    ("bad.csv", "0,inf\ninf,0\n", "non-finite"),
    ("bad.json", '{"dist": [[0, 1], [1]]}', "bad.json, row 1: 1 cells, but the first row has 2"),
    ("bad.json", '{"dist": [[0, "x"], ["x", 0]]}', 'bad.json, row 0: "x" is not a number'),
    ("bad.json", '{"dist": [[0, true], [true, 0]]}', "bad.json, row 0: true is not a number"),
    ("bad.json", '{"dist": [[0, 1], [1, null]]}', "bad.json, row 1: null is not a number"),
    ("bad.json", '{"dist": [[0, 1], 1]}', "bad.json, row 1: expected a list of numbers, got 1"),
    ("bad.json", '{"n": 2}', 'bad.json: expected "dist" to be a list of rows, got null'),
    ("bad.json", '{"n": 2.5, "dist": [[0, 1], [1, 0]]}', "bad.json: expected an integer, got 2.5"),
    ("bad.json", '{"dist": [[0, 1e400], [1e400, 0]]}', "non-finite"),
    ("bad.json", '{"dist": [[0, 1%s], [1%s, 0]]}' % ("0" * 400, "0" * 400),
     "bad.json: int too large to convert to float"),
]


# Ids leave out the file name, which the message shows.
@pytest.mark.parametrize("name, text, message", [pytest.param(*case, id=f"{case[1]}-{case[2]}")
                                                  for case in BAD_MATRIX_FILES])
def test_validate_bad_csv_says_where(capsys, tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["validate", "--in", str(path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and message in err
    assert not caught


@pytest.mark.parametrize("argv", [
    ["extract", "--in", "snow.json", "--alpha", "0.8", "--k", "0"],
    ["freeness-cover", "--in", "snow.json", "--alpha", "0.8", "--r", "1.5", "--R", "5.0",
     "--k", "0"],
    ["constants", "--alpha", "0.8", "--k", "0"],
    ["gen-dse", "--n", "0", "--beta", "0.5", "--seed", "1"],
    ["refute-weird", "--theta", "0.2", "--alpha", "0.9", "--n", "0", "--trials", "10",
     "--seed", "1"],
], ids=lambda argv: argv[0])
def test_explicit_zero_is_not_replaced_by_default(capsys, tmp_path, monkeypatch, argv):
    """--k 0 and --n 0 reach the library's range checks instead of turning
    into the default."""
    monkeypatch.chdir(tmp_path)
    snow = tmp_path / "snow.json"
    assert main(["gen-dse", "--n", "6", "--beta", "0.5", "--seed", "1",
                 "--out", str(snow)]) == 0
    capsys.readouterr()
    out = tmp_path / "out.json"
    rc = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    flag = argv[argv.index("--k") if "--k" in argv else argv.index("--n")]
    assert captured.err.startswith(f"error: need {flag[2:]} >=")
    assert not captured.out and not out.exists()


@pytest.mark.parametrize("flags", [["--model", "sphere-unit"], ["--dim", "3"],
                                   ["--dim", "2", "--model", "euclidean-l2"]],
                         ids=["model", "dim", "both"])
def test_gen_dse_beta_refuses_model_and_dim(capsys, tmp_path, flags):
    """A snowflaked path has no model space: --model or --dim beside --beta
    is an error, not a flag read and dropped."""
    out = tmp_path / "d.json"
    rc = main(["gen-dse", "--beta", "0.5", "--seed", "1", "--out", str(out)] + flags)
    captured = capsys.readouterr()
    named = " and ".join(f for f in ("--model", "--dim") if f in flags)
    assert rc == 1 and not captured.out and not out.exists()
    assert captured.err == (f"error: {named} cannot be used with --beta, "
                            "whose snowflaked path has no model space\n")


@pytest.mark.parametrize("flags, model, dim", [
    ([], EUCLIDEAN_L2, 2),
    (["--dim", "3"], EUCLIDEAN_L2, 3),
    (["--model", "normed-ℓ1"], "normed-l1", 2),
] + [(["--model", kind], kind, 2) for kind in MODEL_KINDS[1:]],
    ids=["default", "dim-3", "alias"] + list(MODEL_KINDS[1:]))
def test_gen_dse_random_reports_model_and_dim(capsys, tmp_path, flags, model, dim):
    out = tmp_path / "d.json"
    rc, rep = run(capsys, "gen-dse", "--n", "4", "--seed", "1", "--out", str(out), *flags)
    assert rc == 0 and out.exists()
    assert rep["params"] == {"beta": None, "dim": dim, "kind": "random", "model": model,
                             "n": 4, "seed": 1}


def test_gen_curve_refuses_other_models(capsys, tmp_path):
    """gen-curve builds Euclidean curves only and takes no --model flag."""
    out = tmp_path / "c.json"
    for kind in MODEL_KINDS:
        usage_error(capsys, ["gen-curve", "--model", kind, "--seed", "1", "--out", str(out)],
                    f"unrecognized arguments: --model {kind}")
        assert not out.exists()
    rc, rep = run(capsys, "gen-curve", "--seed", "1", "--out", str(out))
    assert rc == 0 and out.exists()


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_gen_curve_refuses_dim_below_one(capsys, tmp_path, dim):
    out = tmp_path / "c.json"
    rc = main(["gen-curve", "--seed", "1", "--dim", dim, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1 and not captured.out and not out.exists()
    assert captured.err == "error: dim must be >= 1\n"


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


@pytest.mark.parametrize("argv", [
    ["net-embed", "--r", "1"],
    ["freeness-cover", "--alpha", "0.8", "--r", "1", "--R", "2.5", "--k", "3"],
], ids=["net-embed", "freeness-cover"])
def test_greedy_net_on_a_positive_diagonal_exits_1(tmp_path, argv):
    """d(1, 1) = 3 > r: the greedy net picked point 1 forever; in a subprocess,
    so that a hang fails the test instead of stalling the suite."""
    src = tmp_path / "diag.csv"
    src.write_text("0,2\n2,3\n")
    env = dict(os.environ)
    root = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "rough_angles.cli", argv[0], "--in", str(src)]
                          + argv[1:], env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == ("error: r = 1.0: a greedy net does not end, as point 1 "
                           "has d(1, 1) = 3.0 > 1.0\n")


def test_freeness_cover_refuses_an_r_ball_without_its_center(capsys, tmp_path):
    """d(0, 0) = 5 > R: the R-ball d[0] <= R would leave point 0 out of its
    own ball, and the cover would report on the other points."""
    src = tmp_path / "diag.csv"
    src.write_text("5,1,2\n1,0,1\n2,1,0\n")
    rc = main(["freeness-cover", "--in", str(src), "--alpha", "0.5", "--r", "0.5", "--R", "1"])
    out = capsys.readouterr()
    assert rc == 1 and out.out == ""
    assert out.err == ("error: R = 1.0: the R-ball around point 0 does not contain it, "
                       "as d(0, 0) = 5.0 > 1.0\n")


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


CLOUD = {"model": "euclidean-l2", "dim": 2, "coords": [[0, 0], [1, 0]]}
CURVE = {"model": "euclidean-l2", "dim": 2, "times": [0, 1], "points": [[0, 0], [1, 0]]}


@pytest.mark.parametrize("argv, payload, message", [
    (["angles", "--alpha", "0.5"], dict(CLOUD, coords=[[0, True], ["1.5", 0]]),
     "bad.json, row 0: true is not a number"),
    (["angles", "--alpha", "0.5"], dict(CLOUD, coords=[[0, 0], [1]]),
     "bad.json, row 1: 1 cells, but the first row has 2"),
    (["angles", "--alpha", "0.5"], dict(CLOUD, dim=2.9), "bad.json: expected an integer, got 2.9"),
    (["angles", "--alpha", "0.5"], dict(CLOUD, dim=True), "bad.json: expected an integer, got True"),
    (["curve-check"], dict(CURVE, points=[[0, True], ["1.5", 0]]),
     "bad.json, row 0: true is not a number"),
    (["curve-check"], dict(CURVE, times=[0, True]), 'bad.json, "times": true is not a number'),
    (["curve-check"], dict(CURVE, dim=2.9), "bad.json: expected an integer, got 2.9"),
    (["curve-check"], dict(CURVE, points=[[0, 0], [1e200, 0]]),
     "the euclidean-l2 distance between points 0 and 1 overflows float64"),
    (["angles", "--alpha", "0.5"], dict(CLOUD, model=["euclidean-l2"]),
     'bad.json: expected "model" to be a model name, got ["euclidean-l2"]'),
    (["angles", "--alpha", "0.5"], {"coords": [[0, 0]]},
     'bad.json: expected "model" to be a model name, got null'),
    (["curve-check"], dict(CURVE, model=None), 'bad.json: expected "model" to be a model name'),
    (["curve-check"], dict(CURVE, model="flat"), "bad.json: unknown model kind 'flat'"),
    (["curve-check"], dict(CURVE, dim=0), "bad.json: dim must be >= 1"),
], ids=["cloud-cells", "cloud-ragged", "cloud-dim-fraction", "cloud-dim-bool", "curve-cells",
        "curve-times", "curve-dim-fraction", "curve-overflow", "cloud-model-list",
        "cloud-model-missing", "curve-model-null", "curve-model-unknown", "curve-dim-zero"])
def test_bad_point_files_say_where(capsys, tmp_path, argv, payload, message):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(payload))
    rc = main([argv[0], "--in", str(src)] + argv[1:])
    out = capsys.readouterr()
    assert rc == 1 and out.out == ""
    assert out.err.startswith("error: ") and message in out.err


@pytest.mark.parametrize("argv, payload", [
    (["validate"], {"n": 1, "dist": 5}),
    (["validate"], [[0, 1], [1, 0]]),
    (["angles", "--alpha", "0.5"], [[0, 1], [1, 0]]),
    (["curve-check"], [[0, 1], [1, 0]]),
    (["extract", "--alpha", "0.8", "--k", "2"], [[0, 1], [1, 0]]),
    (["curve-check", "--tol", "0"],
     {"model": "euclidean-l2", "dim": 1, "times": [0, math.nan, 2], "points": [[0], [1], [2]]}),
    (["validate"], {"n": [1], "dist": [[0]]}),
    (["angles", "--alpha", "0.5"], {"model": "euclidean-l2", "dim": None, "coords": [[0, 0]]}),
], ids=["scalar-dist", "list-validate", "list-angles", "list-curve-check", "list-extract",
        "nan-time", "list-n", "null-dim"])
def test_malformed_json_exits_with_error(capsys, tmp_path, argv, payload):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(payload))
    rc = main([argv[0], "--in", str(src)] + argv[1:])
    out = capsys.readouterr()
    assert rc == 1 and out.out == ""
    assert out.err.startswith("error:")


def test_json_text_converts_numpy():
    payload = {"b": np.float64(0.1), "a": [np.int64(3), np.arange(2)], "c": np.zeros((1, 2))}
    assert json_text(payload) == json.dumps(
        {"a": [3, [0, 1]], "b": 0.1, "c": [[0.0, 0.0]]}, indent=2) + "\n"
    with pytest.raises(TypeError):
        json_text({"x": object()})


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


def test_net_embed_refuses_zero_distance(capsys, tmp_path):
    src = tmp_path / "zero.json"
    src.write_text(json.dumps({"n": 3, "dist": [[0, 0, 1], [0, 0, 3], [1, 3, 0]]}))
    rc = main(["net-embed", "--in", str(src), "--r", "0.3"])
    out = capsys.readouterr()
    assert rc == 1 and out.out == ""
    assert out.err.startswith("error:") and "d(0,1) = 0.0" in out.err


def test_doubling_cli(capsys, collinear6):
    rc, rep = run(capsys, "doubling", "--in", collinear6, "--scales", "2.0")
    assert rc == 0
    assert rep["result"]["estimates"][0]["covering_number"] >= 1


def test_net_embed_csv_needs_out(capsys, tmp_path, monkeypatch):
    """--format csv writes its coordinates to --out; without --out it is an
    error, found before the input is read (here the input does not exist)."""
    monkeypatch.chdir(tmp_path)
    rc = main(["net-embed", "--in", "missing.json", "--format", "csv"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error:") and "--out" in captured.err
    assert captured.err.count("\n") == 1 and "missing.json" not in captured.err
    assert not any(tmp_path.iterdir())


def test_doubling_scales_default_and_empty(capsys, collinear6):
    """Without --scales the report echoes the default, a quarter of the
    diameter; --scales with no values is a usage error, not that default."""
    rc, rep = run(capsys, "doubling", "--in", collinear6)
    assert rc == 0 and rep["params"]["scales"] == [1.25]
    usage_error(capsys, ["doubling", "--in", collinear6, "--scales"],
                "argument --scales: expected at least one argument")


@pytest.mark.parametrize("argv, message", [
    (["doubling"], "error: the default scale, diameter/4, is 0.0 for this input; "
                   "give --scales with a positive value\n"),
    (["net-embed"], "error: the default r, 0.1*diameter, is 0.0 for this input; "
                    "give --r with a positive value\n"),
    (["doubling", "--scales", "0"], "error: scales must be positive, got 0.0\n"),
    (["net-embed", "--r", "0"], "error: need r > 0, got 0.0\n"),
], ids=["doubling-default", "net-embed-default", "doubling-given", "net-embed-given"])
@pytest.mark.parametrize("text", ["0.0\n", "0,0\n0,0\n"], ids=["one-point", "zero-distances"])
def test_zero_diameter_defaults_name_themselves(capsys, tmp_path, argv, message, text):
    """A default radius of 0 is the input's, not the user's: the error names
    the default and the flag to give; a 0 the user gave is reported as given."""
    src = tmp_path / "zero.csv"
    src.write_text(text)
    rc = main([argv[0], "--in", str(src), *argv[1:]])
    out = capsys.readouterr()
    assert rc == 1 and out.out == "" and out.err == message


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


def test_angles_refuses_overflowing_distances(capsys, tmp_path):
    """A cloud scaled by 1e200 has distances beyond float64 and exits 1 naming
    the overflow; scaled by 1e150 it is audited like the unscaled cloud."""
    coords = np.random.default_rng(3).standard_normal((14, 2))
    triples = {}
    for scale in (1.0, 1e150, 1e200):
        src = tmp_path / f"pc-{scale:g}.json"
        save_point_cloud(PointCloud(ModelSpaceSpec(EUCLIDEAN_L2, 2), coords * scale), src)
        rc = main(["angles", "--in", str(src), "--alpha", "0.5"])
        out = capsys.readouterr()
        if scale == 1e200:
            assert rc == 1 and out.out == "" and "overflows float64" in out.err
        else:
            assert rc == 0
            entries = json.loads(out.out)["result"]["entries"]
            triples[scale] = [(e["x"], e["z"], e["y"]) for e in entries]
    assert triples[1.0] and triples[1e150] == triples[1.0]


def test_curve_check_rows_match_one_dict_per_violation(capsys, tmp_path):
    """curve-check writes its violations as columns; the report is byte for
    byte the one built from one dict per violation."""
    t = np.linspace(0.0, 2 * math.pi - 1e-3, 9)
    curve = SampledCurve(ModelSpaceSpec(EUCLIDEAN_L2, 2), t, np.stack([np.cos(t), np.sin(t)], 1))
    src = tmp_path / "loop.json"
    save_curve(curve, src)
    rc = main(["curve-check", "--in", str(src), "--tol", "0"])
    text = capsys.readouterr().out
    violations = is_self_contracted(curve, tol=0.0).violations
    assert rc == 2 and len(violations) > 5
    rep = json.loads(text)
    rep["result"]["violations"] = [{"t1": v.t1, "t2": v.t2, "t3": v.t3, "amount": v.amount}
                                   for v in violations]
    assert text == json.dumps(rep, indent=2, sort_keys=True) + "\n"


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


# ----------------------------------------------------------------------------
# Golden reports: every command on small fixed inputs, with relative paths.
# Each case is (argv, exit code, SHA-256 of the report with its generated_at
# line removed, SHA-256 of the --out data artifact or None).  The cases run
# in order, so later ones read the files earlier ones write.  A changed
# digest means a report or data file changed byte for byte; record a new one
# only for an intended change of output.
# ----------------------------------------------------------------------------

GOLDEN = [
    (["gen-dse", "--n", "6", "--beta", "0.5", "--seed", "1", "--out", "path.json"],
     0, "f05b4eb39d305fe33043b9de080cd8cc9e102ef809c332230a753eb61e199ba9",
     "c947812a1419bde496466933f07189b340dc64f1892aa4e24337a072461b4224"),
    (["gen-dse", "--n", "5", "--seed", "2", "--dim", "3", "--out", "random_dse.json"],
     0, "d1b396dd7cc3f706a4a16915eb7489e5deae3fdae14c3b3744460a84b5366d94",
     "bc54c55494e60f8572d854414f1d506d45b688a89ee35301d1b62985636c7209"),
    (["gen-curve", "--seed", "9", "--dim", "3", "--steps", "12", "--out", "curve.json"],
     0, "b16d8a10dcd982d37971569a4f900997eec0070c183cb22f4e6534e22aef7c8f",
     "c2ab60acb82ba72b8f6ffd4e756743b0160ab29be7893742969d0e63f1f961ff"),
    (["gen-curve", "--seed", "4", "--step", "0.05", "--steps", "8", "--out", "slow.json"],
     0, "ee93e765b679b30f4881c6eb807ee62c73bb45d5503ac171f71a8cf1d891d593",
     "635cbae058a5778103b6fa243f9449ed95ed63829cbdb4c759214123af3572c9"),
    (["curve-check", "--in", "curve.json"],
     0, "5b2ca2911dc7e346bd3a700f2fcc32dd27281ece6689b943dcb3051c92c5c929",
     None),
    (["curve-check", "--in", "slow.json", "--tol", "0"],
     0, "e0dd5f7bbae9b48cabc412e9a6e1a8ac652bf34e3ee2fb0727d4f1fbe67b65bb",
     None),
    (["curve-to-dse", "--in", "curve.json", "--out", "curve_dse.json"],
     0, "1e2adf744a6d554499f02f87bd590a88e50c6cb003b85018c925d47eef669faf",
     "65200f00f8c3f2e2b414d3b55d500d604c3c0b95476fa5aa1fd094e3cc98661c"),
    (["dse-check", "--in", "path.json"],
     0, "e0e5dcc05b5065f4eb30cde5483d622e4f080cf58494a8503bf4e4d1a9d617e8",
     None),
    (["dse-check", "--in", "m.json", "--tol", "0"],
     0, "c313300ea80b247c6a74d01f8fb9f9b95e2dd2d4ac86e5fb06bedb48c6bd70d5",
     None),
    (["validate", "--in", "m.json"],
     0, "3c914cfb6ddb57589dce031219cfdcc39a7c35d1f3f624489f9db8a996b44660",
     None),
    (["validate", "--in", "bad.json", "--tol", "0"],
     2, "1a29fb9ada348d1b83fa544e9936fb6963118773449f06263d83d19579b08714",
     None),
    (["sra-check", "--in", "path.json", "--alpha", "0.5"],
     0, "bf1fef24bfb826f7a9be7c54fa494033d3ca41d0b106ce4970f9a247f9eb5508",
     None),
    (["sra-check", "--in", "m.json", "--alpha", "0.9", "--budget", "50"],
     2, "8bf29fcc018f30e1303e01b055b0da84812f60a4ead0462568e8c180bfd6776b",
     None),
    (["critical-alpha", "--in", "m.json", "--out", "critical.json"],
     0, "2d6a5f1c19614db47f5808631e803e2c7e659496fd816baeffc703ff97483d4f",
     None),
    (["max-sra", "--in", "random.csv", "--alpha", "0.5", "--tol", "0"],
     0, "d503050397d5aae6ad49c68bd562a762fc0fd1367628aa106c38d11153b78531",
     None),
    (["max-sra", "--in", "m.json", "--alpha", "0.9", "--budget", "1"],
     2, "6e65bac87ce0108911a52dba7242794717fe453d2e3984965a6441478cb1930a",
     None),
    (["snowflake", "--in", "m.json", "--beta", "0.5", "--out", "snow.json"],
     0, "d1237741a2c93e8a43362f0efb1d0886b921f2b20d9e57020fa76aaac90d1bcd",
     "309407c197f3106d834fec1be848c8138a9b2bb79fc19c8330c0cebbe22f9e65"),
    (["constants", "--alpha", "0.8", "--theta", "0.5", "--m", "3", "--k", "4"],
     0, "33c97968b32544c78015020d3899e89bf6409928052d818c71b1afac13739b1d",
     None),
    (["constants", "--alpha", "0.9", "--theta", "0.2", "--k", "4", "--r", "1", "--R", "4",
      "--lam", "3"],
     0, "b30e2e1bf0b8c688343b56f93c8d4fe8ba69d645c644c65f812c126492585687",
     None),
    (["extract", "--in", "curve_dse.json", "--alpha", "0.8", "--k", "2"],
     0, "3bb3699fa339670a04928eb802cdabcd7df3c532b6e9e06984f954c3acaa1097",
     None),
    (["extract", "--in", "path.json", "--alpha", "0.8", "--k", "3"],
     0, "41d1b4570f6bdbbbc7d468b937b11d5ee6c9401b0bebb0664032086a137fb868",
     None),
    (["extract", "--in", "random_dse.json", "--alpha", "0.8", "--k", "3"],
     0, "8d51addeab07db9149b0977a76ab8b17f4714fb28d0fc616065e6fc5a7658d19",
     None),
    (["refute-weird", "--theta", "0.2", "--alpha", "0.9", "--n", "4", "--trials", "200",
      "--seed", "3"],
     0, "ff610a5cc1b267ec531ac4d1b9fad1c638206a50700732ac0f56dc6f22b2c0d6",
     None),
    (["refute-weird", "--theta", "0.3", "--alpha", "0.95", "--trials", "50", "--seed", "1"],
     0, "b44062030e4acdcfc16d699f49537227f35d1b7245c646368fe711791b5394e7",
     None),
    (["net-embed", "--in", "m.json"],
     0, "fe95637f3b84f535aa7783396a48fdf02ca2335c39557a25d1a6adff6d68e09a",
     None),
    (["net-embed", "--in", "random.csv", "--r", "0.8", "--format", "csv", "--out", "emb.csv"],
     0, "ad7478457e5f59b3203fa587f9acca8f54c772173909a3167e030788e42b1210",
     "a843d9e86f1cbb62f34f4ba0f8f3599b23df5221ac82cc717ebacacb3d6cf196"),
    (["doubling", "--in", "m.json"],
     0, "e6b828ca1b8df7c6bcd2030a7d146f8269b8a6f81338a034ccd5ccfdc2d6220a",
     None),
    (["doubling", "--in", "snow.json", "--scales", "1.0", "2.0"],
     0, "888cc1e955c843f81e6db34910a7628e2ce67cf60faa06f3763984f4a8e31524",
     None),
    (["freeness-cover", "--in", "m.json", "--alpha", "0.8", "--r", "1.5", "--R", "5", "--k",
      "3"],
     0, "cfec66db1c41152d5df273565708e6dec9ce0d5e0e370e3613ab8bff8aa0f93a",
     None),
    # The in-order search needs 69 nodes on the 9 R-ball points that lie in a
    # hyperedge, so budget 20 leaves the verdict unknown.
    (["freeness-cover", "--in", "random.csv", "--alpha", "0.6", "--r", "0.8", "--R", "2",
      "--budget", "20"],
     2, "5e25671ddc2593106649fd05d99b0b83facd1baf4f745ef22cec6b64ddcbad75",
     None),
    (["angles", "--in", "cloud.json", "--alpha", "0.9"],
     0, "11aaac9e39526716566f8a6301ab4409857553308a80650264e9e55ef29548ac",
     None),
    (["snowflake", "--in", "random.csv", "--beta", "0.5", "--out", "net.csv"],
     0, "71eb1fe72b983418b3a6bfaea3f2b352d06b59b3168612002a5efaf5fd133a1c",
     "525952d60a3b55cce9d1232dd4864586cc14d09450bad6278731d3aab23c1c90"),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report(argv):
    """``main(argv)`` in the current directory: its exit code, its report
    text without the ``generated_at`` line, and the path of its ``--out``.
    The report is stdout, or the ``--out`` file when stdout is empty."""
    buf = StringIO()
    with redirect_stdout(buf):
        rc = main(list(argv))
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    text = buf.getvalue() or Path(out).read_text()
    return rc, re.sub(r'^  "generated_at": ".*",\n', "", text, flags=re.M), out


@pytest.fixture(scope="module")
def golden_dir(tmp_path_factory):
    """A directory holding the golden inputs and every file the golden
    invocations write, and those invocations' exit codes and digests."""
    work = tmp_path_factory.mktemp("golden")
    home = os.getcwd()
    os.chdir(work)
    try:
        save_distance_matrix(collinear(6), "m.json")
        Path("bad.json").write_text(json.dumps({"dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}))
        save_distance_matrix(random_metric(10, np.random.default_rng(348)), "random.csv")
        save_point_cloud(PointCloud(ModelSpaceSpec(EUCLIDEAN_L2, 2),
                                    [[0, 0], [1, 0], [2, 0], [1, 0.2], [3, 1]]), "cloud.json")
        runs = []
        for argv, _, _, artifact in GOLDEN:
            rc, text, out = report(argv)
            art = None if artifact is None else _sha(Path(out).read_bytes())
            runs.append((rc, _sha(text.encode()), art))
        return work, runs
    finally:
        os.chdir(home)


@pytest.fixture(scope="module")
def golden_runs(golden_dir):
    return golden_dir[1]


@pytest.mark.parametrize("case", range(len(GOLDEN)),
                         ids=[f"{i:02d}-{GOLDEN[i][0][0]}" for i in range(len(GOLDEN))])
def test_golden_report(golden_runs, case):
    argv, rc, report, artifact = GOLDEN[case]
    assert golden_runs[case] == (rc, report, artifact), argv


# ----------------------------------------------------------------------------
# Parser: each command takes exactly the flags it reads.
# ----------------------------------------------------------------------------

# command: (required flags, optional flags)
FLAGS = {
    "validate": ("in", "tol out"),
    "sra-check": ("in", "tol alpha budget out"),
    "critical-alpha": ("in", "out"),
    "max-sra": ("in", "tol alpha budget out"),
    "snowflake": ("in beta out", ""),
    "dse-check": ("in", "tol out"),
    "gen-dse": ("seed out", "n beta model dim"),
    "gen-curve": ("seed out", "dim step steps"),
    "curve-check": ("in", "tol out"),
    "curve-to-dse": ("in out", "tol"),
    "constants": ("", "alpha theta k m r R lam out"),
    "extract": ("in", "alpha k out"),
    "refute-weird": ("seed theta alpha", "n trials out"),
    "net-embed": ("in", "r format out"),
    "doubling": ("in", "scales out"),
    "freeness-cover": ("in r R", "alpha k budget out"),
    "angles": ("in", "alpha out"),
}
ALL_FLAGS = {f for flags in FLAGS.values() for f in " ".join(flags).split()}
# The first golden invocation of each command, which passes all its required flags.
VALID = {}
for _argv, *_ in GOLDEN:
    VALID.setdefault(_argv[0], _argv)


def usage_error(capsys, argv, message):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert f"usage: rough-angles {argv[0]}" in captured.err


def test_flag_table_has_73_pairs():
    assert set(FLAGS) == set(VALID) == set(cli._COMMANDS)
    assert sum(len(" ".join(flags).split()) for flags in FLAGS.values()) == 73


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_unread_flag_is_a_usage_error(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    own = " ".join(FLAGS[command]).split()
    for flag in sorted(ALL_FLAGS - set(own)):
        usage_error(capsys, VALID[command] + [f"--{flag}", "1"],
                    f"unrecognized arguments: --{flag} 1")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command,flag", [(c, f) for c in sorted(FLAGS)
                                          for f in FLAGS[c][0].split()])
def test_missing_required_flag_is_a_usage_error(capsys, tmp_path, monkeypatch, command, flag):
    monkeypatch.chdir(tmp_path)
    argv = list(VALID[command])
    i = argv.index(f"--{flag}")
    del argv[i:i + 2]
    usage_error(capsys, argv, f"the following arguments are required: --{flag}")
    assert not any(tmp_path.iterdir())


def test_malformed_value_is_a_usage_error(capsys, collinear6):
    usage_error(capsys, ["sra-check", "--in", collinear6, "--alpha", "abc"],
                "argument --alpha: invalid float value: 'abc'")


@pytest.mark.parametrize("command", ["gen-curve", "gen-dse", "refute-weird"])
def test_negative_seed_is_a_usage_error(capsys, tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    argv = list(VALID[command])
    i = argv.index("--seed")
    argv[i + 1] = "-1"
    usage_error(capsys, argv, "argument --seed: must be >= 0, got -1")
    argv[i + 1] = "x"
    usage_error(capsys, argv, "argument --seed: invalid int value: 'x'")
    assert not any(tmp_path.iterdir())


FLOAT_FLAGS = {"tol", "alpha", "theta", "beta", "r", "R", "step", "scales"}
TOL_COMMANDS = [c for c in sorted(FLAGS) if "tol" in FLAGS[c][1].split()]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_is_a_usage_error(capsys, tmp_path, monkeypatch, value):
    """NaN passes no comparison, so without this check ``--tol nan`` would
    pass every triangle and ``--r nan`` would never finish its net."""
    assert FLOAT_FLAGS == {f for f, spec in cli._FLAGS.items()
                           if spec.get("type") in (cli._finite, cli._tol)}
    monkeypatch.chdir(tmp_path)
    for command in sorted(FLAGS):
        for flag in sorted(FLOAT_FLAGS & set(" ".join(FLAGS[command]).split())):
            usage_error(capsys, VALID[command] + [f"--{flag}={value}"],
                        f"argument --{flag}: must be finite, got {value}")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", TOL_COMMANDS)
def test_negative_tol_is_a_usage_error(capsys, tmp_path, monkeypatch, command):
    """A negative tolerance would call exact equalities violations."""
    assert len(TOL_COMMANDS) == 6
    monkeypatch.chdir(tmp_path)
    for value in ("-1", "-1e-300", "-1e-3"):
        for spelling in ([f"--tol={value}"], ["--tol", value]):
            usage_error(capsys, VALID[command] + spelling,
                        f"argument --tol: must be >= 0, got {value}")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["-1e-3", "-2.5E+0", "-.5e1"])
def test_negative_value_in_scientific_notation_reaches_range_check(capsys, collinear6, value):
    """A negative number in scientific notation is the flag's value, not a
    missing one, in both spellings."""
    for spelling in ([f"--alpha={value}"], ["--alpha", value]):
        rc = main(["sra-check", "--in", collinear6] + spelling)
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == ""
        assert captured.err == f"error: alpha must lie in (0,1), got {float(value)}\n"


@pytest.mark.parametrize("argv", [[], ["bogus"], ["--in", "m.json", "validate"]],
                         ids=["none", "unknown", "not-first"])
def test_command_must_come_first(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "usage: rough-angles [-h]" in captured.err
    if argv[:1] == ["--in"]:
        assert captured.err.startswith("error: the command must come first, found '--in'\n")


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_help_lists_exactly_the_command_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: rough-angles {command} ")
    listed = re.findall(r"^  (-h, --help|--\w+)", out, flags=re.M)
    assert listed == ["-h, --help"] + [f"--{f}" for f in " ".join(FLAGS[command]).split()]


# ----------------------------------------------------------------------------
# Parser reuse: main builds each command's parser once per process, so every
# check below runs its calls one after another in this process.
# ----------------------------------------------------------------------------

# A value other than the default for each flag whose default a later call
# must read again.
RESET_FLAGS = {"tol": "0.25", "scales": "0.5", "budget": "0", "k": "2"}
# curve-to-dse does not report its tolerance, and its DSE file is the same
# at both values here.
UNSEEN = {("curve-to-dse", "tol")}


def without(argv, flag):
    """``argv`` without ``--flag`` and its one value."""
    if f"--{flag}" not in argv:
        return list(argv)
    i = argv.index(f"--{flag}")
    return argv[:i] + argv[i + 2:]


@pytest.fixture()
def golden_copy(golden_dir, tmp_path, monkeypatch):
    """A private copy of the golden directory as the current directory, so
    that a call writing its --out there changes no other test's files."""
    shutil.copytree(golden_dir[0], tmp_path, dirs_exist_ok=True)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_reused_parser_reads_defaults_errors_and_help_again(capsys, golden_copy, command):
    first = report(VALID[command])
    own = set(" ".join(FLAGS[command]).split())
    for flag in sorted(own & set(RESET_FLAGS)):
        # Given in one call and left out of the next, the flag reads its default.
        base = without(VALID[command], flag)
        plain = report(base)
        flagged = report(base + [f"--{flag}", RESET_FLAGS[flag]])
        assert report(base) == plain and (flagged != plain or (command, flag) in UNSEEN)
        given = cli._parser(command).parse_args(base[1:] + [f"--{flag}", RESET_FLAGS[flag]])
        fresh = cli.build_parser(command).parse_args(base[1:])
        assert vars(cli._parser(command).parse_args(base[1:])) == vars(fresh) != vars(given)
    usage_error(capsys, VALID[command] + ["--bogus"], "unrecognized arguments: --bogus")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: rough-angles {command} ")
    assert report(VALID[command]) == first


def test_every_report_repeats_on_a_second_call(golden_copy):
    first = [report(argv)[:2] for argv, *_ in GOLDEN]
    assert [report(argv)[:2] for argv, *_ in GOLDEN] == first


@pytest.mark.parametrize("command", [None] + sorted(cli._COMMANDS))
def test_build_parser_returns_a_new_parser_on_every_call(command):
    built = cli.build_parser(command)
    assert built is not cli.build_parser(command)
    assert built is not cli._parser(command) and cli._parser(command) is cli._parser(command)
