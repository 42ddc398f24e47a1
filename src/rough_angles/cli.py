"""Command-line surface: ``rough-angles <command> [flags]``.

The command comes first.  Each command takes only the flags it reads, and
``rough-angles <command> --help`` lists them.  Every command writes a JSON
report (stdout by default, ``--out`` to a file) and exits 0 on success, 2 on
a negative analysis verdict (violated / absent / unknown), 1 on errors: usage
errors, malformed files, out-of-range parameters.  Reports are deterministic
for a fixed configuration apart from the ``generated_at`` timestamp.
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional

import numpy as np

from . import io as rio
from ._hypergraph import DEFAULT_BUDGET
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
from .dse_spaces import (DseSpace, RejectionError, check_two_lemma, gap_D, gen_random_dse,
                         gen_snowflaked_path, is_dse, length_L)
from .metric_core import (EUCLIDEAN_L2, Columns, ModelSpaceSpec, diameter, snowflake,
                          validate_metric)
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
    text = rio.json_text(report)
    if args.out and not data_out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_VERDICT if verdict in ("violated", "absent", "unknown") else EXIT_OK


# ----------------------------------------------------------------------------
# Subcommand implementations
# ----------------------------------------------------------------------------

def _cmd_validate(args) -> int:
    m = rio.load_distance_matrix(args.in_path)
    rep = validate_metric(m, tri_tol=args.tol)
    result = {"n": m.n, "passed": rep.passed, "violations": rep.violations,
              "truncated": rep.truncated}
    return _emit(args, "validate", {"in": args.in_path}, result,
                 {"tri_tol": rep.tri_tol}, None if rep.passed else "violated")


def _cmd_sra_check(args) -> int:
    m = rio.load_distance_matrix(args.in_path)
    rep = sra_report(m, args.alpha, budget=args.budget, tol=args.tol)
    return _emit(args, "sra-check", {"in": args.in_path, "alpha": args.alpha},
                 rep, {"tol": rep["tol"]}, None if rep["is_sra"] else "violated")


def _cmd_critical_alpha(args) -> int:
    m = rio.load_distance_matrix(args.in_path)
    return _emit(args, "critical-alpha", {"in": args.in_path},
                 {"critical_alpha": critical_alpha(m), "n": m.n}, {}, None)


def _cmd_max_sra(args) -> int:
    m = rio.load_distance_matrix(args.in_path)
    rep = sra_report(m, args.alpha, budget=args.budget, tol=args.tol)
    verdict = None if rep["max_subset"]["optimal"] else "unknown"
    return _emit(args, "max-sra", {"in": args.in_path, "alpha": args.alpha,
                                   "budget": args.budget},
                 rep, {"tol": rep["tol"]}, verdict)


def _cmd_snowflake(args) -> int:
    m = rio.load_distance_matrix(args.in_path)
    out_space = snowflake(m, args.beta)
    rio.save_distance_matrix(out_space, args.out)
    return _emit(args, "snowflake", {"in": args.in_path, "beta": args.beta},
                 {"n": out_space.n, "diameter": diameter(out_space), "out": args.out},
                 {}, None, data_out=True)


def _cmd_dse_check(args) -> int:
    m = rio.load_distance_matrix(args.in_path)
    verdict = is_dse(m, tol=args.tol)
    result = {"n": m.n, "is_dse": verdict.ok, "violations": verdict.violations}
    if verdict.ok:
        d = DseSpace(m)
        two = check_two_lemma(d, tol=verdict.tol)
        result.update({
            "length_L": length_L(d),
            "gap_D": gap_D(d),
            "diameter": diameter(m),
            "two_lemma_ok": two.ok,
            "diam_le_two_gap": two.diam_le_two_gap,
        })
    return _emit(args, "dse-check", {"in": args.in_path}, result,
                 {"tol": verdict.tol}, None if verdict.ok else "violated")


def _cmd_gen_dse(args) -> int:
    n = 8 if args.n is None else args.n
    if args.beta is not None:
        given = [f"--{flag}" for flag in ("model", "dim") if getattr(args, flag) is not None]
        if given:
            raise ValueError(f"{' and '.join(given)} cannot be used with --beta, "
                             "whose snowflaked path has no model space")
        d = gen_snowflaked_path(n, args.beta)
        params = {"kind": "snowflaked-path"}
    else:
        model = ModelSpaceSpec(args.model or EUCLIDEAN_L2, 2 if args.dim is None else args.dim)
        d = gen_random_dse(n, args.seed, model=model)
        params = {"kind": "random", "model": model.kind, "dim": model.dim}
    rio.save_dse(d, args.out)
    return _emit(args, "gen-dse", {"n": d.n, "seed": args.seed, "beta": args.beta, **params},
                 {"length_L": length_L(d), "gap_D": gap_D(d), "out": args.out},
                 {}, None, data_out=True)


def _cmd_gen_curve(args) -> int:
    # Refuses dim < 1 before the draw.
    dim = ModelSpaceSpec(EUCLIDEAN_L2, 2 if args.dim is None else args.dim).dim
    rng = np.random.default_rng(args.seed)
    a = rng.standard_normal((dim, dim))
    q = a.T @ a + 0.5 * np.eye(dim)
    lam_max = float(np.max(np.linalg.eigvalsh(q)))
    step = args.step if args.step is not None else 0.9 / lam_max
    start = rng.standard_normal(dim)
    curve = gen_gradient_trajectory(q, start, step, args.steps)
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
        "violations": Columns.from_rows(("t1", "t2", "t3", "amount"), [
            (v.t1, v.t2, v.t3, v.amount) for v in verdict.violations]),
    }
    return _emit(args, "curve-check", {"in": args.in_path}, result,
                 {"tol": verdict.tol}, None if verdict.ok else "violated")


def _cmd_curve_to_dse(args) -> int:
    c = rio.load_curve(args.in_path)
    d = curve_to_dse(c, tol=args.tol)
    rio.save_dse(d, args.out)
    return _emit(args, "curve-to-dse", {"in": args.in_path},
                 {"n": d.n, "length_L": length_L(d), "gap_D": gap_D(d),
                  "out": args.out}, {}, None, data_out=True)


def _k(args) -> int:
    """The ``--k`` value, 3 when omitted; ``params`` echo ``args.k`` as given."""
    return 3 if args.k is None else args.k


def _cmd_constants(args) -> int:
    result: dict = {}
    if args.m is not None and args.theta is not None:
        c_exact = c_of_m_theta(args.m, args.theta)
        result["c_of_m_theta"] = format_constant(c_exact)
        result["c_of_m_theta_exact"] = f"{c_exact.numerator}/{c_exact.denominator}"
    k = _k(args)
    gq = None
    if args.big_r is not None and args.r is not None and args.lam is not None:
        gq = (k, args.lam, args.big_r, args.r)
    # The full bundle needs alpha above the limit of the supplied theta;
    # report what is computable otherwise instead of failing.
    try:
        bundle = make_bundle(args.alpha, k, theta=args.theta, globq_args=gq)
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
    res = extract_sra_subspace(d, args.alpha, _k(args))
    result = {
        "branch": res.branch,
        "theta": res.theta,
        "n_blue": res.n_blue,
        "straight_subset": res.straight_subset,
        "blue_subset": res.blue_subset,
        "notes": res.notes,
        "certificate": None if res.certificate is None else {
            "indices": res.certificate.subset,
            "size": res.certificate.size,
            "optimal": res.certificate.optimal,
        },
    }
    verdict = None if res.certificate is not None else "absent"
    return _emit(args, "extract", {"in": args.in_path, "alpha": args.alpha, "k": args.k},
                 result, {}, verdict)


def _cmd_refute_weird(args) -> int:
    n = n_of_theta_alpha(args.theta, args.alpha) if args.n is None else args.n
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


def _default(value: float, what: str, flag: str) -> float:
    """A radius computed from the input, refused when it is not positive
    (one point, or all distances 0): the error names the default and the
    flag that sets the value, which the user did not give."""
    if not value > 0.0:
        raise ValueError(f"the default {what}, is {value} for this input; "
                         f"give {flag} with a positive value")
    return value


def _cmd_net_embed(args) -> int:
    if args.format == "csv" and not args.out:
        raise ValueError("--format csv writes its coordinates to --out, which is missing")
    m = rio.load_distance_matrix(args.in_path)
    r = args.r if args.r is not None else _default(0.1 * diameter(m), "r, 0.1*diameter", "--r")
    net = greedy_net(m, r)
    emb = net_embed(m, net)
    result = {"gamma": emb.gamma, "upper": emb.upper, "net_size": len(emb.net),
              "net": emb.net, "r": r}
    csv_out = args.format == "csv"
    if csv_out:
        rio.save_net_coords(emb, args.out)
        result["out"] = args.out
    return _emit(args, "net-embed", {"in": args.in_path, "r": r}, result, {}, None,
                 data_out=csv_out)


def _cmd_doubling(args) -> int:
    m = rio.load_distance_matrix(args.in_path)
    scales = args.scales or [_default(diameter(m) / 4.0, "scale, diameter/4", "--scales")]
    est = doubling_estimate(m, scales)
    return _emit(args, "doubling", {"in": args.in_path, "scales": scales},
                 {"estimates": est}, {}, None)


def _cmd_freeness_cover(args) -> int:
    m = rio.load_distance_matrix(args.in_path)
    rep = freeness_via_cover(m, args.alpha, args.r, args.big_r, _k(args), budget=args.budget)
    result = {
        "cover_size": len(rep.cover_centers),
        "cover_centers": rep.cover_centers,
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
        "entries": audit.entries,
        "skipped_degenerate": audit.skipped_degenerate,
        "boundary_dropped": audit.boundary_dropped,
    }
    return _emit(args, "angles", {"in": args.in_path, "alpha": args.alpha},
                 result, {}, None)


# ----------------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------------

def _seed(text: str) -> int:
    """A ``--seed`` value: numpy seeds only non-negative integers."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _finite(text: str) -> float:
    """A float flag's value, which must be finite: NaN fails every
    comparison, so it slips past range checks, and JSON has no NaN or
    infinity for the report to echo."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _tol(text: str) -> float:
    """A ``--tol`` value: finite, and >= 0 so that equalities pass."""
    if (value := _finite(text)) < 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


# Each flag's argparse spec, defined once; "--" + key is its option string.
_FLAGS = {
    "in": dict(dest="in_path"),
    "out": dict(),
    "tol": dict(type=_tol),
    "alpha": dict(type=_finite, default=0.8),
    "theta": dict(type=_finite),
    "beta": dict(type=_finite),
    "k": dict(type=int),
    "n": dict(type=int),
    "m": dict(type=int),
    "r": dict(type=_finite),
    "R": dict(dest="big_r", type=_finite),
    "lam": dict(type=int, help="doubling constant for the pigeonhole bound"),
    "seed": dict(type=_seed),
    "budget": dict(type=int, default=DEFAULT_BUDGET),
    "trials": dict(type=int, default=10_000),
    "steps": dict(type=int, default=40),
    "step": dict(type=_finite),
    # No defaults here: gen-dse refuses either flag beside --beta, and each
    # handler that reads them applies dim 2 and euclidean-l2 itself.
    "dim": dict(type=int),
    "model": dict(),
    "scales": dict(type=_finite, nargs="+"),
    "format": dict(choices=["json", "csv"], default="json"),
}

# command: (handler, required flags, optional flags); a command's parser
# takes exactly these flags, which are the ones its handler reads.
_COMMANDS = {
    "validate": (_cmd_validate, "in", "tol out"),
    "sra-check": (_cmd_sra_check, "in", "tol alpha budget out"),
    "critical-alpha": (_cmd_critical_alpha, "in", "out"),
    "max-sra": (_cmd_max_sra, "in", "tol alpha budget out"),
    "snowflake": (_cmd_snowflake, "in beta out", ""),
    "dse-check": (_cmd_dse_check, "in", "tol out"),
    "gen-dse": (_cmd_gen_dse, "seed out", "n beta model dim"),
    "gen-curve": (_cmd_gen_curve, "seed out", "dim step steps"),
    "curve-check": (_cmd_curve_check, "in", "tol out"),
    "curve-to-dse": (_cmd_curve_to_dse, "in out", "tol"),
    "constants": (_cmd_constants, "", "alpha theta k m r R lam out"),
    "extract": (_cmd_extract, "in", "alpha k out"),
    "refute-weird": (_cmd_refute_weird, "seed theta alpha", "n trials out"),
    "net-embed": (_cmd_net_embed, "in", "r format out"),
    "doubling": (_cmd_doubling, "in", "scales out"),
    "freeness-cover": (_cmd_freeness_cover, "in r R", "alpha k budget out"),
    "angles": (_cmd_angles, "in", "alpha out"),
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # Flags are spelled in full: a prefix such as --m never stands for --model.
        super().__init__(allow_abbrev=False, **kwargs)
        # A value such as -1e-3 is a negative number, not a flag; argparse
        # in Python 3.10 and 3.11 reads only plain ones such as -1 and -0.5.
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        # A usage error exits 1 through main like any other error; argparse
        # would exit 2, the code of a negative verdict.
        raise ValueError(f"{message}\n{self.format_usage().rstrip()}")


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of one command's flags; for ``None``, the top-level parser,
    which only names the commands."""
    if command is None:
        p = _Parser(prog="rough-angles",
                    description="Rough-angle analysis of finite metric spaces",
                    epilog="'rough-angles <command> --help' lists the flags of a command.")
        p.add_argument("command", choices=sorted(_COMMANDS))
        return p
    p = _Parser(prog=f"rough-angles {command}")
    required = _COMMANDS[command][1].split()
    for name in required + _COMMANDS[command][2].split():
        p.add_argument(f"--{name}", required=name in required, **_FLAGS[name])
    return p


@functools.lru_cache(maxsize=None)
def _parser(command: Optional[str]) -> argparse.ArgumentParser:
    """``build_parser(command)``, built once per process and shared by every
    call of ``main``: building one costs several times what parsing does,
    and parsing leaves a parser as it was, with a fresh Namespace per call."""
    return build_parser(command)


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    first = argv[0] if argv else ""
    command = first if first in _COMMANDS else None
    try:
        # Without a known command first, the top-level parser reports the error.
        parser = _parser(command)
        if command is None and first.startswith("-") and first not in ("-h", "--help"):
            parser.error(f"the command must come first, found {first!r}")
        args = parser.parse_args(argv[1:] if command else argv)
        return _COMMANDS[command][0](args)
    except (ValueError, OSError, DivergenceError, RejectionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
