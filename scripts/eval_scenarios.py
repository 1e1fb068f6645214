#!/usr/bin/env python3
"""Benchmark a policy across the four scenario families.

Runs the full hierarchical stack on blind-alley / double-branch / rooms /
square and prints one line per family: the success, crash and timeout rates
and the mean arriving time (successful episodes only), ARSPS and ANSPS.
Writes one CSV row per episode.  Works with the scripted fallback
("--bundle scripted") or any trained fusion bundle.
"""

import argparse
from pathlib import Path

import numpy as np

from navstack.fileio import write_csv
from navstack.policy import load_bundle
from navstack.rewards import METRICS_CSV_HEADER
from navstack.scenarios import BUILTIN_NAMES, make_scenario
from navstack.scripted import scripted_bundle
from navstack.stack import StackConfig, run_suite


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bundle", default="scripted")
    ap.add_argument("--episodes", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--timeout", type=float, default=90.0)
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--out", type=Path, default=Path("runs/benchmark"))
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    policy = scripted_bundle() if args.bundle == "scripted" else load_bundle(args.bundle)
    cfg = StackConfig(timeout=args.timeout, gamma=args.gamma)

    all_rows = []
    print(f"{'scenario':>14} {'success':>8} {'crash':>6} {'timeout':>8} {'time[s]':>8} {'ARSPS':>7} {'ANSPS':>8}")
    for name in BUILTIN_NAMES:
        specs = [make_scenario(name, args.seed)]
        rows, results = run_suite(specs, policy, args.episodes, args.seed, cfg)
        all_rows.extend(rows)
        succ = np.mean([r.outcome == "success" for r in results])
        crash = np.mean([r.outcome == "crash" for r in results])
        tout = np.mean([r.outcome == "timeout" for r in results])
        times = [r.metrics["arriving_time"] for r in results if r.metrics["arriving_time"]]
        arsps = np.mean([r.metrics["arsps"] for r in results])
        ansps = np.mean([r.metrics["ansps"] for r in results])
        t = f"{np.mean(times):8.1f}" if times else "       -"
        print(f"{name:>14} {succ:8.2f} {crash:6.2f} {tout:8.2f} {t} {arsps:7.3f} {ansps:8.4f}")

    csv_path = args.out / "benchmark.csv"
    write_csv(csv_path, METRICS_CSV_HEADER, all_rows)
    print(f"\n{len(all_rows)} episode rows -> {csv_path}")


if __name__ == "__main__":
    main()
