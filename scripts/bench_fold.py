#!/usr/bin/env python3
"""Fold paired benchmark records of a parent and a change into one BENCH file.

    python3 scripts/bench_fold.py --parent PARENT/perfbench/out \\
        --change CHANGE/perfbench/out --tag pr6

Each directory holds the ``<workload>-seed<n>-trace0.json`` records that
``perfbench/run.py`` wrote in one checkout.  A record of the parent and one
of the change with the same workload and seed form a pair.  For every
workload and every end-to-end metric of ``BENCHMARK.json`` the output gives
each side's median and quartiles over the seeds, the pairs the change won
(by the metric's ``better`` direction; a tie wins nothing), and the change of
the median against the parent's median and quartile distance.  Digests and
failed runs are listed per side, so a reader sees at once whether the
outputs stayed byte-identical.  Each ``--traced NAME`` adds a per-layer
metric from the ``<workload>-seed<n>-trace1.json`` records of both sides,
for every workload and seed traced on both.  Writes ``BENCH_<tag>.json``
(or ``--out``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def load_records(directory: Path, trace: int = 0) -> dict[tuple[str, int], dict]:
    """Records of one ``--trace`` setting by (workload, seed)."""
    records = {}
    for path in sorted(directory.glob(f"*-trace{trace}.json")):
        record = json.loads(path.read_text())
        meta = record["meta"]
        records[(meta["workload"], int(meta["seed"]))] = record
    return records


def spread(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "values": values}


def failed_runs(record: dict) -> int:
    failed = record["specific"].get("failed_frac", {}).get("value", 0.0) > 0
    return int(failed or record["repeat_mismatches"] > 0 or bool(record["errors"]))


def fold(parent: dict, change: dict, metrics: list[dict]) -> dict:
    """The BENCH document's ``workloads`` part for the paired records."""
    pairs = sorted(set(parent) & set(change))
    out = {}
    for workload in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == workload]
        p = [parent[(workload, s)] for s in seeds]
        c = [change[(workload, s)] for s in seeds]
        table = {}
        for m in metrics:
            name, sign = m["name"], (1.0 if m["better"] == "higher" else -1.0)
            pv = [r["metrics"][name]["value"] for r in p]
            cv = [r["metrics"][name]["value"] for r in c]
            ps, cs = spread(pv), spread(cv)
            table[name] = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                "parent": ps,
                "change": cs,
                "median_change_frac": cs["median"] / ps["median"] - 1.0 if ps["median"] else None,
                "parent_iqr_frac": (ps["q3"] - ps["q1"]) / ps["median"] if ps["median"] else None,
                "pairs_won": sum(sign * (b - a) > 0 for a, b in zip(pv, cv)),
            }
        out[workload] = {
            "seeds": seeds,
            "pairs": len(seeds),
            "metrics": table,
            "digests": {
                "parent": [r["digest"] for r in p],
                "change": [r["digest"] for r in c],
                "equal": all(a["digest"] == b["digest"] for a, b in zip(p, c)),
            },
            "failed_runs": {"parent": sum(map(failed_runs, p)), "change": sum(map(failed_runs, c))},
        }
    return out


def fold_traced(parent: dict, change: dict, names: list[str]) -> dict:
    """``{workload: {seed: {name: {"parent": value, "change": value}}}}``
    for the traced pairs."""
    out: dict = {}
    for workload, seed in sorted(set(parent) & set(change)):
        out.setdefault(workload, {})[str(seed)] = {
            name: {side: records[(workload, seed)]["metrics"][name]["value"]
                   for side, records in (("parent", parent), ("change", change))}
            for name in names
        }
    return out


def side_meta(records: dict) -> dict:
    """Versions and settings the records share (or each distinct value)."""
    keys = ("git_commit", "python", "numpy", "scipy", "blas", "blas_threads", "nproc", "seconds", "tiny")
    meta = {}
    for key in keys:
        distinct = sorted({r["meta"].get(key) for r in records.values()}, key=str)
        meta[key] = distinct[0] if len(distinct) == 1 else distinct
    return meta


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="directory of the parent's records")
    ap.add_argument("--change", type=Path, required=True, help="directory of the change's records")
    ap.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    ap.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    ap.add_argument("--out", type=Path, help="output path (default: BENCH_<tag>.json in the repo root)")
    ap.add_argument("--traced", action="append", default=[], metavar="NAME",
                    help="a per-layer metric to add from the traced records (repeatable)")
    args = ap.parse_args(argv)

    metrics = json.loads(args.benchmark.read_text())["end_to_end"]
    parent, change = load_records(args.parent), load_records(args.change)
    workloads = fold(parent, change, metrics)
    if not workloads:
        print("error: no workload and seed has a record on both sides", file=sys.stderr)
        return 2
    doc = {
        "tag": args.tag,
        "parent": side_meta(parent),
        "change": side_meta(change),
        "workloads": workloads,
    }
    if args.traced:
        doc["traced"] = fold_traced(load_records(args.parent, 1), load_records(args.change, 1), args.traced)
    out = args.out or ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    def pct(x):
        return "n/a" if x is None else f"{x:+.1%}"

    for workload, w in workloads.items():
        for name, m in w["metrics"].items():
            print(f"{workload:>12} {name:>12}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g} "
                  f"{m['unit']} ({pct(m['median_change_frac'])}), change better in {m['pairs_won']}/{w['pairs']}, "
                  f"parent IQR {pct(m['parent_iqr_frac']).lstrip('+')}")
        print(f"{workload:>12} digests {'equal' if w['digests']['equal'] else 'DIFFER'}; "
              f"failed runs {w['failed_runs']['parent']} -> {w['failed_runs']['change']}")
    for workload, seeds in doc.get("traced", {}).items():
        for seed, values in seeds.items():
            for name, v in values.items():
                print(f"{workload:>12} seed {seed} traced {name}: {v['parent']:.6g} -> {v['change']:.6g}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
