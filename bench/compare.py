"""Compare the benchmark records of two commits.

    python3 bench/compare.py BASE_DIR CHANGE_DIR

Each directory holds records written by ``bench/run.py --out`` (one file per
run, any names ending in ``.json``).  For every workload and end-to-end metric
it prints each side's median and quartiles, ``WORSE`` when the change's
median is worse than the base's by more than the metric's bound in
BENCHMARK.json, and ``unresolved`` when either side's run-to-run spread
(interquartile range over median) exceeds that bound.  It then lists seeds
whose report digests or exact counts differ between the two sides.  Exits 1
when any metric is WORSE, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_COUNTS = ("hypergraph.search_nodes", "hypergraph.certificate_searches",
                "sra_analysis.hyperedges", "sra_analysis.scan_triples",
                "sra_analysis.full_scans")


def load(directory: str) -> list[dict]:
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if "result" in rec and "workload" in rec:
            records.append(rec)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def metric_values(records: list[dict], workload: str, name: str) -> list[float]:
    return [r["result"]["metrics"][name]["value"] for r in records
            if r["workload"] == workload and not r["traced"]
            and name in r["result"]["metrics"]]


def compare(base: list[dict], change: list[dict], spec: dict) -> tuple[list[str], bool]:
    lines: list[str] = []
    worse_any = False
    workloads = [w["name"] for w in spec["workloads"]]
    lines.append(f"{'workload':10s} {'metric':18s} {'base q1/med/q3':>30s} "
                 f"{'change q1/med/q3':>30s}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            b = metric_values(base, w, m["name"])
            c = metric_values(change, w, m["name"])
            if not b or not c:
                continue
            bq, cq = quartiles(b), quartiles(c)
            sign = 1.0 if m["better"] == "lower" else -1.0
            rel = sign * (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            verdict = f"{rel:+.1%}"
            if rel > m["bound"]:
                verdict += " WORSE"
                worse_any = True
            if max(spread(b), spread(c)) > m["bound"]:
                verdict += " unresolved"
            fmt = "{:.4g}/{:.4g}/{:.4g}"
            lines.append(f"{w:10s} {m['name']:18s} {fmt.format(*bq):>30s} "
                         f"{fmt.format(*cq):>30s}  {verdict}  (n={len(b)},{len(c)})")

    def by_key(records):
        return {(r["workload"], r["seed"], r["traced"]): r for r in records}
    bk, ck = by_key(base), by_key(change)
    for key in sorted(set(bk) & set(ck), key=str):
        rb, rc = bk[key], ck[key]
        same_inputs = rb.get("invocations") == rc.get("invocations")
        if same_inputs and rb.get("digests") != rc.get("digests"):
            diff = [inv for inv, x, y in zip(rb["invocations"], rb["digests"], rc["digests"])
                    if x != y]
            lines.append(f"{key[0]} seed {key[1]}: {len(diff)} report digests differ, "
                         f"first: {diff[0]}")
        if key[2]:
            for name in EXACT_COUNTS:
                x = rb["result"]["metrics"].get(name, {}).get("value")
                y = rc["result"]["metrics"].get(name, {}).get("value")
                if x != y:
                    lines.append(f"{key[0]} seed {key[1]}: {name} {x} -> {y}")
    return lines, worse_any


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, worse = compare(load(argv[0]), load(argv[1]), spec)
    print("\n".join(lines))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
