"""Capacity sweep: the largest snowflaked path each scan command handles in time.

    python3 bench/capacity.py --limit 10

For each n of the size grid SIZES it writes ``gen_snowflaked_path(n, 0.5)`` once,
then runs ``sra-check --alpha 0.6``, ``validate``, ``critical-alpha`` and
``dse-check`` on it, each in a fresh interpreter (so peak RSS is per command
and per n).  A command stops climbing the grid at the first n where it
exceeds ``--limit`` seconds (the run is killed there).  Prints, per command,
the largest n within the limit with its wall time and peak RSS, and one JSON
object as the last line.  Not part of the gated workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from run import ROOT, have_sources

COMMANDS = {
    "sra-check": ["sra-check", "--alpha", "0.6"],
    "validate": ["validate"],
    "critical-alpha": ["critical-alpha"],
    "dse-check": ["dse-check"],
}
# Runs one CLI command and reports its own peak RSS as the last stderr line.
SIZES = (256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096)
RUNNER = ("import resource, sys; from rough_angles.cli import main; rc = main(sys.argv[1:]); "
          "sys.stderr.write('\\npeak_kb %d\\n' % "
          "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(rc)")


def run_once(argv: list[str], limit: float, env: dict) -> tuple[float, float, bool]:
    """(wall seconds, peak RSS in MB, finished in time with exit 0) of one
    command in a fresh interpreter; killed at the limit."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", RUNNER, *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return time.perf_counter() - t0, float("nan"), False
    wall = time.perf_counter() - t0
    lines = err.strip().splitlines()
    peak = float(lines[-1].split()[1]) / 1024.0 if lines and lines[-1].startswith("peak_kb") \
        else float("nan")
    return wall, peak, proc.returncode == 0 and wall <= limit


def sweep(sizes: tuple[int, ...], limit: float) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from corpus import snowflaked_path, write_matrix

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("ROUGH_ANGLE_THREADS", None)
    best: dict[str, dict] = {}
    climbing = set(COMMANDS)
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="capacity-", dir=base))
    try:
        for n in sizes:
            if not climbing:
                break
            path = work / f"path{n}.csv"
            write_matrix(str(path), snowflaked_path(n))
            for name in sorted(climbing):
                wall, peak, ok = run_once([*COMMANDS[name][:1], "--in", str(path),
                                           *COMMANDS[name][1:]], limit, env)
                print(f"{name:15s} n={n:5d} {wall:8.2f} s  {'ok' if ok else 'over limit'}",
                      file=sys.stderr, flush=True)
                if ok:
                    best[name] = {"n": n, "wall_s": wall, "peak_rss_mb": peak}
                else:
                    climbing.discard(name)
            path.unlink()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"limit_s": limit, "sizes": list(sizes), "largest": best}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--limit", type=float, default=10.0, help="seconds per command")
    args = p.parse_args(argv)
    if not have_sources():
        return 2
    result = sweep(SIZES, args.limit)
    for name in COMMANDS:
        b = result["largest"].get(name)
        line = (f"n={b['n']} in {b['wall_s']:.2f} s, peak RSS {b['peak_rss_mb']:.0f} MB"
                if b else "none within limit")
        print(f"{name:15s} {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
