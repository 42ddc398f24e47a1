"""End-to-end benchmark of the rough-angles CLI.

    python3 bench/run.py --workload scan --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from its
``src/``.  One process is one closed-loop client: it calls
``rough_angles.cli.main`` in-process, one subcommand after another, in passes
over a seeded corpus, until ``--seconds`` have been measured.  Each pass's
outputs are checked (first pass) or compared with the first pass by digest.
The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end figures (medians over the
passes); with ``--trace 1`` untraced and traced passes alternate and the
metrics are the per-layer figures of the traced passes.  ``--out FILE``
also writes the full record (per-pass values, report digests, machine).
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("scan", "search", "pipeline"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every input (for the benchmark's own tests)")
    p.add_argument("--out", default=None, help="also write the full record here")
    return p.parse_args(argv)


def prepare_environment() -> None:
    """Run the program at its own thread defaults, with BLAS/OpenMP pools
    capped at the core count.  Must run before numpy is imported."""
    os.environ.pop("ROUGH_ANGLE_THREADS", None)
    cores = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cores
    sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]


def have_sources() -> bool:
    """Whether the checkout holds the program; says so on stderr if not."""
    if (ROOT / "src" / "rough_angles" / "__init__.py").is_file():
        return True
    sys.stderr.write(f"error: no rough_angles sources under {ROOT / 'src'}\n")
    return False


def main(argv=None) -> int:
    args = parse_args(argv)
    if not have_sources():
        return 2
    if args.seconds <= 0:
        sys.stderr.write("error: --seconds must be positive\n")
        return 2
    prepare_environment()
    from harness import run_workload

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
