"""Command-line surface.

Every subcommand writes a JSON report (stdout by default, ``--out`` to a
file) and exits 0 on success, 2 on a negative analysis verdict (violated /
absent / unknown), 1 on errors such as malformed files or out-of-range
parameters.  Reports are deterministic for a fixed configuration apart from
the ``generated_at`` timestamp.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import io as rio
from .constants_extraction import (
    c_of_m_theta,
    extract_sra_subspace,
    format_constant,
    make_bundle,
    n_of_theta_alpha,
    refute_weird_angles,
    weird_angle_limit,
)
from .curves import (DivergenceError, curve_length, curve_diameter, curve_to_dse,
                     gen_gradient_trajectory, is_self_contracted)
from .dse_spaces import (RejectionError, as_dse, check_two_lemma, gap_D, gen_random_dse,
                         gen_snowflaked_path, is_dse, length_L)
from .metric_core import (
    EUCLIDEAN_L2,
    FiniteMetricSpace,
    ModelSpaceSpec,
    default_tol,
    diameter,
    snowflake,
    validate_metric,
)
from .net_embedding import doubling_estimate, freeness_via_cover, greedy_net, net_embed
from .sra_analysis import critical_alpha, euclidean_angle_audit, sra_report

SCHEMA_VERSION = "1.0.0"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERDICT = 2


def report_schema_version() -> str:
    """Semantic version of the JSON report schema."""
    return SCHEMA_VERSION


def _emit(args: argparse.Namespace, command: str, params: dict, result: dict,
          tolerances: dict, verdict: Optional[str], data_out: bool = False) -> int:
    """Write the JSON report.  ``data_out=True`` marks commands whose --out
    already received a data artifact; their report goes to stdout instead."""
    report = {
        "schema_version": report_schema_version(),
        "command": command,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "params": params,
        "tolerances": tolerances,
        "result": result,
        "verdict": verdict,
    }
    text = json.dumps(report, indent=2, sort_keys=True, default=_jsonable) + "\n"
    if args.out and not data_out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_VERDICT if verdict in ("violated", "absent", "unknown") else EXIT_OK


def _jsonable(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    raise TypeError(f"not JSON-serializable: {type(x)}")


def _load_space(args: argparse.Namespace) -> FiniteMetricSpace:
    if not args.in_path:
        raise ValueError("--in is required for this command")
    return rio.load_distance_matrix(args.in_path)


def _tol_of(args: argparse.Namespace, m: FiniteMetricSpace) -> float:
    return args.tol if args.tol is not None else default_tol(m)


# ----------------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    m = _load_space(args)
    tol = _tol_of(args, m)
    rep = validate_metric(m, tri_tol=tol)
    result = {
        "n": m.n,
        "passed": rep.passed,
        "violations": [
            {"kind": v.kind, "indices": list(v.indices), "magnitude": v.magnitude}
            for v in rep.violations
        ],
        "truncated": rep.truncated,
    }
    return _emit(args, "validate", {"in": args.in_path}, result,
                 {"tri_tol": tol}, None if rep.passed else "violated")


def _cmd_sra_check(args) -> int:
    m = _load_space(args)
    tol = _tol_of(args, m)
    rep = sra_report(m, args.alpha, budget=args.budget, tol=tol)
    return _emit(args, "sra-check", {"in": args.in_path, "alpha": args.alpha},
                 rep, {"tol": tol}, None if rep["is_sra"] else "violated")


def _cmd_critical_alpha(args) -> int:
    m = _load_space(args)
    return _emit(args, "critical-alpha", {"in": args.in_path},
                 {"critical_alpha": critical_alpha(m), "n": m.n}, {}, None)


def _cmd_max_sra(args) -> int:
    m = _load_space(args)
    tol = _tol_of(args, m)
    rep = sra_report(m, args.alpha, budget=args.budget, tol=tol)
    verdict = None if rep["max_subset"]["optimal"] else "unknown"
    return _emit(args, "max-sra", {"in": args.in_path, "alpha": args.alpha,
                                   "budget": args.budget},
                 rep, {"tol": tol}, verdict)


def _cmd_snowflake(args) -> int:
    m = _load_space(args)
    if args.beta is None:
        raise ValueError("--beta is required")
    out_space = snowflake(m, args.beta)
    if not args.out:
        raise ValueError("--out is required for snowflake")
    rio.save_distance_matrix(out_space, args.out)
    return _emit(args, "snowflake", {"in": args.in_path, "beta": args.beta},
                 {"n": out_space.n, "diameter": diameter(out_space), "out": args.out},
                 {}, None, data_out=True)


def _cmd_dse_check(args) -> int:
    m = _load_space(args)
    tol = _tol_of(args, m)
    verdict = is_dse(m, tol=tol)
    result = {
        "n": m.n,
        "is_dse": verdict.ok,
        "violations": [
            {"i": v.i, "j": v.j, "k": v.k, "amount": v.amount}
            for v in verdict.violations
        ],
    }
    if verdict.ok:
        d = as_dse(m, tol=tol)
        two = check_two_lemma(d, tol=tol)
        result.update({
            "length_L": length_L(d),
            "gap_D": gap_D(d),
            "diameter": diameter(m),
            "two_lemma_ok": two.ok,
            "diam_le_two_gap": two.diam_le_two_gap,
        })
    return _emit(args, "dse-check", {"in": args.in_path}, result,
                 {"tol": tol}, None if verdict.ok else "violated")


def _cmd_gen_dse(args) -> int:
    if args.seed is None:
        raise ValueError("--seed is required for gen-dse")
    if args.beta is not None:
        d = gen_snowflaked_path(args.n or 8, args.beta)
        kind = "snowflaked-path"
    else:
        model = ModelSpaceSpec(args.model, args.dim)
        d = gen_random_dse(args.n or 8, args.seed, model=model)
        kind = "random"
    if not args.out:
        raise ValueError("--out is required for gen-dse")
    rio.save_dse(d, args.out)
    return _emit(args, "gen-dse", {"n": d.n, "seed": args.seed, "beta": args.beta,
                                   "kind": kind},
                 {"length_L": length_L(d), "gap_D": gap_D(d), "out": args.out},
                 {}, None, data_out=True)


def _cmd_gen_curve(args) -> int:
    if args.seed is None:
        raise ValueError("--seed is required for gen-curve")
    rng = np.random.default_rng(args.seed)
    dim = args.dim
    a = rng.standard_normal((dim, dim))
    q = a.T @ a + 0.5 * np.eye(dim)
    lam_max = float(np.max(np.linalg.eigvalsh(q)))
    step = args.step if args.step is not None else 0.9 / lam_max
    start = rng.standard_normal(dim)
    curve = gen_gradient_trajectory(q, start, step, args.steps)
    if not args.out:
        raise ValueError("--out is required for gen-curve")
    rio.save_curve(curve, args.out)
    return _emit(args, "gen-curve",
                 {"seed": args.seed, "dim": dim, "steps": args.steps, "step": step},
                 {"samples": curve.n, "length": curve_length(curve),
                  "diameter": curve_diameter(curve), "out": args.out},
                 {}, None, data_out=True)


def _cmd_curve_check(args) -> int:
    c = rio.load_curve(args.in_path)
    verdict = is_self_contracted(c, tol=args.tol)
    result = {
        "samples": c.n,
        "self_contracted": verdict.ok,
        "length": curve_length(c),
        "diameter": curve_diameter(c),
        "violations": [
            {"t1": v.t1, "t2": v.t2, "t3": v.t3, "amount": v.amount}
            for v in verdict.violations
        ],
    }
    return _emit(args, "curve-check", {"in": args.in_path}, result,
                 {"tol": verdict.tol}, None if verdict.ok else "violated")


def _cmd_curve_to_dse(args) -> int:
    c = rio.load_curve(args.in_path)
    d = curve_to_dse(c, tol=args.tol)
    if not args.out:
        raise ValueError("--out is required for curve-to-dse")
    rio.save_dse(d, args.out)
    return _emit(args, "curve-to-dse", {"in": args.in_path},
                 {"n": d.n, "length_L": length_L(d), "gap_D": gap_D(d),
                  "out": args.out}, {}, None, data_out=True)


def _cmd_constants(args) -> int:
    result: dict = {}
    if args.m is not None and args.theta is not None:
        c_exact = c_of_m_theta(args.m, args.theta)
        result["c_of_m_theta"] = format_constant(c_exact)
        result["c_of_m_theta_exact"] = f"{c_exact.numerator}/{c_exact.denominator}"
    gq = None
    if args.big_r is not None and args.r is not None and args.lam is not None:
        gq = (args.k or 1, args.lam, args.big_r, args.r)
    # The full bundle needs alpha above the limit of the supplied theta;
    # report what is computable otherwise instead of failing.
    try:
        bundle = make_bundle(args.alpha, args.k or 3, theta=args.theta, globq_args=gq)
        merged = bundle.as_dict()
        merged.update(result)
        result = merged
    except ValueError as exc:
        if not result:
            raise
        result["bundle"] = None
        result["bundle_note"] = str(exc)
        if args.theta is not None:
            result["limit"] = float(weird_angle_limit(args.theta))
    return _emit(args, "constants",
                 {"alpha": args.alpha, "theta": args.theta, "k": args.k, "m": args.m},
                 result, {}, None)


def _cmd_extract(args) -> int:
    d = rio.load_dse(args.in_path)
    res = extract_sra_subspace(d, args.alpha, args.k or 3, budget=args.budget)
    result = {
        "branch": res.branch,
        "theta": res.theta,
        "n_blue": res.n_blue,
        "straight_subset": list(res.straight_subset),
        "blue_subset": None if res.blue_subset is None else list(res.blue_subset),
        "notes": res.notes,
        "certificate": None if res.certificate is None else {
            "indices": list(res.certificate.subset),
            "size": res.certificate.size,
            "optimal": res.certificate.optimal,
        },
    }
    verdict = None if res.certificate is not None else "absent"
    return _emit(args, "extract", {"in": args.in_path, "alpha": args.alpha, "k": args.k},
                 result, {}, verdict)


def _cmd_refute_weird(args) -> int:
    if args.seed is None:
        raise ValueError("--seed is required for refute-weird")
    if args.theta is None or args.alpha is None:
        raise ValueError("--theta and --alpha are required")
    n = args.n or n_of_theta_alpha(args.theta, args.alpha)
    rep = refute_weird_angles(args.theta, args.alpha, n, args.trials, args.seed)
    result = {
        "n": rep.n,
        "trials": rep.trials,
        "feasible_count": rep.feasible_count,
        "first_feasible": rep.first_feasible,
        "min_total_violation": rep.min_total_violation,
        "in_lemma_range": rep.in_lemma_range,
        "n_required": rep.n_required,
        "n_required_corrected": rep.n_required_corrected,
    }
    verdict = "violated" if (rep.feasible_count > 0 and rep.in_lemma_range) else None
    return _emit(args, "refute-weird",
                 {"theta": args.theta, "alpha": args.alpha, "n": n,
                  "trials": args.trials, "seed": args.seed},
                 result, {}, verdict)


def _cmd_net_embed(args) -> int:
    m = _load_space(args)
    r = args.r if args.r is not None else 0.1 * diameter(m)
    net = greedy_net(m, r)
    emb = net_embed(m, net)
    if args.out and args.format == "csv":
        with Path(args.out).open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"d_to_net_{z}" for z in emb.net])
            for row in emb.coords:
                w.writerow([repr(float(x)) for x in row])
        sys.stdout.write(json.dumps({
            "schema_version": report_schema_version(),
            "command": "net-embed", "gamma": emb.gamma, "upper": emb.upper,
            "net_size": len(emb.net), "out": args.out,
        }, indent=2, sort_keys=True) + "\n")
        return EXIT_OK
    result = {"gamma": emb.gamma, "upper": emb.upper, "net_size": len(emb.net),
              "net": list(emb.net), "r": r}
    return _emit(args, "net-embed", {"in": args.in_path, "r": r}, result, {}, None)


def _cmd_doubling(args) -> int:
    m = _load_space(args)
    scales = args.scales or [diameter(m) / 4.0]
    est = doubling_estimate(m, scales)
    result = {"estimates": [{"scale": e.scale, "covering_number": e.covering_number}
                            for e in est]}
    return _emit(args, "doubling", {"in": args.in_path, "scales": scales},
                 result, {}, None)


def _cmd_freeness_cover(args) -> int:
    m = _load_space(args)
    if args.r is None or args.big_r is None:
        raise ValueError("--r and --R are required")
    rep = freeness_via_cover(m, args.alpha, args.r, args.big_r, args.k or 3,
                             budget=args.budget)
    result = {
        "cover_size": len(rep.cover_centers),
        "cover_centers": list(rep.cover_centers),
        "per_ball_max": [e.max_sra_size for e in rep.per_ball],
        "global_max": rep.global_max,
        "bound": rep.bound,
        "holds": rep.holds,
        "all_balls_free_of_k": rep.all_balls_free_of_k,
    }
    verdict = None if rep.holds else ("unknown" if rep.holds is None else "violated")
    return _emit(args, "freeness-cover",
                 {"in": args.in_path, "alpha": args.alpha, "r": args.r,
                  "R": args.big_r, "k": args.k},
                 result, {}, verdict)


def _cmd_angles(args) -> int:
    pc = rio.load_point_cloud(args.in_path)
    audit = euclidean_angle_audit(pc, args.alpha)
    result = {
        "threshold": audit.threshold,
        "entries": [{"x": e.x, "z": e.z, "y": e.y, "angle": e.angle}
                    for e in audit.entries],
        "skipped_degenerate": [list(p) for p in audit.skipped_degenerate],
        "boundary_dropped": audit.boundary_dropped,
    }
    return _emit(args, "angles", {"in": args.in_path, "alpha": args.alpha},
                 result, {}, None)


# ----------------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------------

_COMMANDS = {
    "validate": _cmd_validate,
    "sra-check": _cmd_sra_check,
    "critical-alpha": _cmd_critical_alpha,
    "max-sra": _cmd_max_sra,
    "snowflake": _cmd_snowflake,
    "dse-check": _cmd_dse_check,
    "gen-dse": _cmd_gen_dse,
    "gen-curve": _cmd_gen_curve,
    "curve-check": _cmd_curve_check,
    "curve-to-dse": _cmd_curve_to_dse,
    "constants": _cmd_constants,
    "extract": _cmd_extract,
    "refute-weird": _cmd_refute_weird,
    "net-embed": _cmd_net_embed,
    "doubling": _cmd_doubling,
    "freeness-cover": _cmd_freeness_cover,
    "angles": _cmd_angles,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rough-angles",
                                description="Rough-angle analysis of finite metric spaces")
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--alpha", type=float, default=0.8)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--R", dest="big_r", type=float, default=None)
    p.add_argument("--lam", type=int, default=None, help="doubling constant for the pigeonhole bound")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=500_000)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--step", type=float, default=None)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--model", type=str, default=EUCLIDEAN_L2)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--scales", type=float, nargs="*", default=None)
    p.add_argument("--in", dest="in_path", type=str, default=None)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError,
            DivergenceError, RejectionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
