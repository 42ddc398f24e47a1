"""Guard inputs for known defects, outside the gated workloads.

    python3 bench/guards.py

Runs each guard invocation of ``corpus.build_guards`` once through
``rough_angles.cli.main`` and checks its answer.  Prints every failure and,
as the last line, ``{"correct": ..., "attempted": ..., "failed": ...}``.
Exits 1 when a guard fails.  At the time of writing the duplicate-point
guard fails: ``critical-alpha`` reports 0.0 for a space that violates
SRA(0.9).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import ROOT, have_sources, prepare_environment


def main() -> int:
    if not have_sources():
        return 2
    prepare_environment()
    import corpus
    from harness import WORK_ROOT, Verifier, run_pass

    home = Path.cwd()
    base = ROOT / WORK_ROOT
    base.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="guards-", dir=base)
    try:
        os.chdir(work)
        invocations = corpus.build_guards()
        verifier = Verifier(invocations)
        verifier.add(run_pass(invocations))
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
    for msg in verifier.messages:
        print(f"failed: {msg}")
    print(json.dumps({"correct": verifier.failed == 0, "attempted": verifier.attempted,
                      "failed": verifier.failed}))
    return 1 if verifier.failed else 0


if __name__ == "__main__":
    sys.exit(main())
