"""Write a benchmark record: parent and change medians of every end-to-end metric.

    python3 tools/bench_record.py PARENT CHANGE --seconds 55 --out BENCH_<n>.json

PARENT and CHANGE are two checkouts in which ``perfbench/run.py`` ran
untraced (``--trace 0``) on the same workloads and seeds, every run
``--seconds`` long.  This reads their ``.perfbench_out/results/*-t0.json``
and writes, per workload, the seeds, each end-to-end metric's median over
the runs on each side and its value in every run, and the failed-operation
shares, with both sides' commit and source digests.  The run length is
not in a result file, so it is given here and copied into the record.

Each metric also carries both sides' quartiles [Q1, median, Q3] (linear
between order statistics, numpy's default percentile), the parent's
interquartile range, and the seed-paired counts of change runs lower,
higher and tied against the parent's run of the same seed, so that a
gain claim's pair rule and its parent-IQR test read off the record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load(checkout: Path) -> dict:
    """{workload: {seed: result record}} of a checkout's untraced runs."""
    runs: dict = {}
    for path in sorted((checkout / ".perfbench_out" / "results").glob("*-t0.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault(rec["meta"]["workload"], {})[rec["meta"]["seed"]] = rec
    return runs


def side(recs: list) -> dict:
    """The commit and source digest all of one side's runs share."""
    ids = {(rec["meta"]["git_sha"], rec["meta"]["src_sha256"]) for rec in recs}
    if len(ids) != 1:
        sys.exit(f"bench_record: runs of one side come from {len(ids)} trees: {sorted(ids, key=str)}")
    git_sha, src_sha256 = ids.pop()
    return {"git_sha": git_sha, "src_sha256": src_sha256}


def quartiles(runs: list) -> list:
    """[Q1, median, Q3] of ``runs``, interpolated linearly between order statistics."""
    return statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--seconds", type=float, required=True, help="the runs' --seconds")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    parent, change = load(args.parent), load(args.change)
    if not parent or sorted(parent) != sorted(change):
        sys.exit(f"bench_record: workloads differ or are missing: {sorted(parent)} vs {sorted(change)}")
    workloads = {}
    for name in sorted(parent):
        seeds = sorted(parent[name])
        if seeds != sorted(change[name]):
            sys.exit(f"bench_record: {name} ran seeds {seeds} vs {sorted(change[name])}")
        pairs = [(parent[name][s], change[name][s]) for s in seeds]
        metrics = {}
        for metric, detail in pairs[0][0]["end_to_end"].items():
            p, c = ([rec["end_to_end"][metric]["value"] for rec in recs] for recs in zip(*pairs))
            pq = quartiles(p)
            metrics[metric] = {
                "unit": detail["unit"],
                "parent_median": statistics.median(p),
                "change_median": statistics.median(c),
                "parent_quartiles": pq,
                "change_quartiles": quartiles(c),
                "parent_iqr": pq[2] - pq[0],
                "paired": {"lower": sum(b < a for a, b in zip(p, c)),
                           "higher": sum(b > a for a, b in zip(p, c)),
                           "tied": sum(b == a for a, b in zip(p, c))},
                "parent_runs": p,
                "change_runs": c,
            }
        workloads[name] = {
            "seeds": seeds,
            "failed_frac": {"parent": [a["failed_frac"] for a, _ in pairs],
                            "change": [b["failed_frac"] for _, b in pairs]},
            "end_to_end": metrics,
        }
    every = [rec for runs in (parent, change) for by_seed in runs.values() for rec in by_seed.values()]
    record = {
        "seconds": args.seconds,
        "parent": side([rec for by_seed in parent.values() for rec in by_seed.values()]),
        "change": side([rec for by_seed in change.values() for rec in by_seed.values()]),
        "machine": {key: every[0]["meta"][key] for key in ("cpu_model", "nproc", "python", "numpy",
                                                            "blas", "blas_threads")},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
