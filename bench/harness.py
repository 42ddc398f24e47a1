"""Pass runner, output checking and metric assembly for bench/run.py."""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import corpus
import tracer as tracing

WORK_ROOT = ".bench_work"
SETUP_REPEATS = 3
COLD_STARTS = 10

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("validate_s", "s"), ("critical_alpha_s", "s"),
    ("sra_check_s", "s"), ("max_sra_s", "s"), ("freeness_cover_s", "s"),
    ("curve_chain_s", "s"), ("extract_s", "s"), ("net_s", "s"), ("angles_s", "s"),
    ("refute_weird_s", "s"), ("peak_rss_mb", "MB"),
)


def report_digest(text: str) -> str:
    """SHA-256 of a JSON report with ``generated_at`` removed."""
    report = json.loads(text)
    report.pop("generated_at", None)
    canon = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# Machine-speed reference.  This host's speed flips between a fast and a
# slow mode (about 1.6x apart) on a scale of 0.1-1 s, which no median over
# passes removes.  A fixed reference kernel therefore runs before every
# invocation and after the last, and each invocation's time is reported at
# reference speed: raw time * REF_NOMINAL_S / (mean of the reference times
# just before and just after it).  REF_NOMINAL_S is the kernel's fast-mode
# time on the 2-core VM this was written on, so figures read close to raw
# fast-mode seconds there.  Raw times stay in the --out record.
REF_NOMINAL_S = 0.3e-3
_REF = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)
_REF_ROWS = [[(i * j) % 7 for j in range(40)] for i in range(40)]


def reference_time() -> float:
    """Lesser of two timings of the reference kernel (one spike is ignored)."""
    return min(_reference_kernel(), _reference_kernel())


def _reference_kernel() -> float:
    """Seconds taken by a fixed mix of small numpy operations (like one
    middle of the triple scan) and list-indexing Python loops (like the
    hypergraph search), about half of each."""
    t0 = time.perf_counter()
    acc = 0.0
    for z in range(12):
        col = _REF[:, z]
        m = col[:, None] + 0.6 * col[None, :]
        acc += float(np.max(_REF - np.maximum(m, m.T)))
    rows = _REF_ROWS
    for a in range(40):
        ra = rows[a]
        for b in range(a + 1, 40, 3):
            rb = rows[b]
            for v in range(b + 1, 40, 4):
                if ra[v] > rb[v] + ra[b]:
                    acc += 1.0
    return time.perf_counter() - t0


@dataclass
class PassResult:
    wall: float
    groups: dict[str, float]
    rcs: list[int]
    outputs: list[str]
    errors: list[str]
    report_bytes: int
    layers: Optional[dict[str, float]] = None
    digests: list[Optional[str]] = field(default_factory=list)
    raw: list[float] = field(default_factory=list)  # per invocation, seconds
    speed: list[float] = field(default_factory=list)  # per invocation, reference / nominal
    elapsed: float = 0.0  # real seconds the pass took, references included


def run_pass(invocations: list[corpus.Invocation],
             tracer: Optional[tracing.Tracer] = None) -> PassResult:
    """One closed-loop pass: each invocation starts when the previous ends."""
    import rough_angles.cli as cli

    gc.collect()
    rcs, outputs, errors, raw, refs = [], [], [], [], []
    clock = time.perf_counter
    start = clock()
    for k, inv in enumerate(invocations):
        refs.append(reference_time())
        if tracer is not None:
            tracer.cmd = k
        out, err = io.StringIO(), io.StringIO()
        t0 = clock()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(inv.argv))
        raw.append(clock() - t0)
        rcs.append(rc)
        outputs.append(out.getvalue())
        errors.append(err.getvalue())
    refs.append(reference_time())
    speed = [(a + b) / (2.0 * REF_NOMINAL_S) for a, b in zip(refs, refs[1:])]
    groups: dict[str, float] = {}
    for inv, t, sp in zip(invocations, raw, speed):
        if inv.group is not None:
            groups[inv.group] = groups.get(inv.group, 0.0) + t / sp
    wall = sum(t / sp for t, sp in zip(raw, speed))
    return PassResult(wall, groups, rcs, outputs, errors,
                      report_bytes=sum(len(o.encode()) for o in outputs),
                      digests=[_digest_or_none(o) for o in outputs], raw=raw, speed=speed,
                      elapsed=clock() - start)


def _digest_or_none(text: str) -> Optional[str]:
    try:
        return report_digest(text)
    except (json.JSONDecodeError, AttributeError):
        return None


class Verifier:
    """Counts failed invocations.  A report is checked the first time its
    digest is seen; every later pass must reproduce the first pass's digests
    exactly (traced and untraced alike)."""

    def __init__(self, invocations: list[corpus.Invocation]):
        self.invocations = invocations
        self.first: Optional[list[Optional[str]]] = None
        self.verdicts: dict[tuple[int, Optional[str]], Optional[str]] = {}
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def _check(self, k: int, p: PassResult) -> Optional[str]:
        inv = self.invocations[k]
        key = (k, p.digests[k])
        if key not in self.verdicts:
            if p.rcs[k] not in inv.exit_codes:
                why = f"exit {p.rcs[k]}, expected {inv.exit_codes}: {p.errors[k].strip()[:200]}"
            elif p.rcs[k] != 0:
                why = None  # an accepted refusal
            elif p.digests[k] is None:
                why = "report is not JSON"
            elif inv.check is not None:
                try:
                    why = inv.check(json.loads(p.outputs[k]))
                except (KeyError, TypeError, ValueError, OSError) as exc:
                    why = f"check could not read the report: {exc!r}"
            else:
                why = None
            self.verdicts[key] = why
        return self.verdicts[key]

    def add(self, p: PassResult) -> None:
        if self.first is None:
            self.first = list(p.digests)
        for k in range(len(self.invocations)):
            self.attempted += 1
            why = self._check(k, p)
            if why is None and p.digests[k] != self.first[k]:
                why = "report differs from the first pass"
            if why is not None:
                self.failed += 1
                msg = f"{' '.join(self.invocations[k].argv)}: {why}"
                if msg not in self.messages:
                    self.messages.append(msg)


def build_corpus(workload: str, seed: int, size: str, base: Path
                 ) -> tuple[Path, list[corpus.Invocation], list[float]]:
    """Build the corpus SETUP_REPEATS times in fresh directories (the timed
    set-up, at reference speed like the passes); keep the last one."""
    times = []
    workdir = None
    for _ in range(SETUP_REPEATS):
        if workdir is not None:
            shutil.rmtree(workdir)
        workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=base))
        os.chdir(workdir)
        before = reference_time()
        t0 = time.perf_counter()
        invocations = corpus.build(workload, seed, size)
        elapsed = time.perf_counter() - t0
        speed = (before + reference_time()) / (2.0 * REF_NOMINAL_S)
        times.append(elapsed / speed)
    return workdir, invocations, times


def cold_start_s(count: int) -> float:
    """Median wall time of fresh interpreter launches of ``constants``."""
    env = dict(os.environ)
    src = str(Path(sys.modules["rough_angles"].__file__).parent.parent)
    env["PYTHONPATH"] = src
    code = "import sys; from rough_angles.cli import main; sys.exit(main(sys.argv[1:]))"
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, "constants", "--alpha", "0.8"],
                       env=env, check=True, stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _median_of(passes: list[PassResult], key) -> float:
    return statistics.median(key(p) for p in passes)


def machine() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "cpus": os.cpu_count()}


def run_workload(workload: str, seed: int, seconds: float, traced: bool, size: str) -> dict:
    home = Path.cwd()
    base = home / WORK_ROOT
    base.mkdir(exist_ok=True)
    import rough_angles  # noqa: F401  (import cost stays out of set-up)

    workdir = None
    try:
        workdir, invocations, setup_times = build_corpus(workload, seed, size, base)
        verifier = Verifier(invocations)
        plain: list[PassResult] = []
        traced_passes: list[PassResult] = []
        tracer = tracing.Tracer() if traced else None
        deadline = time.perf_counter() + seconds
        cold = cold_start_s(COLD_STARTS) if traced else None
        # A warm-up pass fills caches and finishes lazy imports; it is checked
        # like every pass but left out of the figures.
        warm = run_pass(invocations)
        verifier.add(warm)
        last = warm.elapsed
        while True:
            use_trace = traced and len(plain) > len(traced_passes)
            if use_trace:
                tracer.reset()
                with tracer:
                    p = run_pass(invocations, tracer)
                p.layers = tracing.layer_metrics(tracer.spans)
                traced_passes.append(p)
            else:
                p = run_pass(invocations)
                plain.append(p)
            verifier.add(p)
            last = max(last, p.elapsed)
            done = plain and (traced_passes or not traced)
            if done and time.perf_counter() + last > deadline:
                break
    finally:
        os.chdir(home)
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    if traced:
        metrics = {}
        for name, unit in tracing.LAYER_METRICS:
            if name == "cli.report_bytes":
                value = _median_of(traced_passes, lambda p: p.report_bytes)
            elif name == "cli.cold_start_s":
                value = cold
            elif name == "trace.overhead_s":
                value = (_median_of(traced_passes, lambda p: p.wall)
                         - _median_of(plain, lambda p: p.wall))
            else:
                value = _median_of(traced_passes, lambda p, n=name: p.layers[n])
            metrics[name] = {"value": value, "unit": unit}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": statistics.median(setup_times),
                  "wall_s": _median_of(plain, lambda p: p.wall),
                  "peak_rss_mb": peak_mb}
        metrics = {}
        for name, unit in END_TO_END:
            value = values[name] if name in values else \
                _median_of(plain, lambda p, n=name: p.groups.get(n, 0.0))
            metrics[name] = {"value": value, "unit": unit}

    result = {"correct": verifier.failed == 0, "attempted": verifier.attempted,
              "failed": verifier.failed, "metrics": metrics}
    for msg in verifier.messages:
        sys.stderr.write(f"failed: {msg}\n")
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
        "size": size, "machine": machine(), "result": result,
        "setup_times": setup_times,
        "passes": [{"wall": p.wall, "groups": p.groups, "raw": p.raw, "speed": p.speed}
                   for p in plain],
        "traced_passes": [{"wall": p.wall, "layers": p.layers} for p in traced_passes],
        "invocations": [" ".join(inv.argv) for inv in invocations],
        "digests": verifier.first,
        "failures": verifier.messages,
    }
