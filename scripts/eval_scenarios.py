#!/usr/bin/env python3
"""Benchmark a policy across the four scenario families.

Runs the full hierarchical stack on blind-alley / double-branch / rooms /
square and prints one line per family from ``stack.summarize``: the
success, crash, timeout and failed rates (failed: the episode raised; the
four sum to 1) and the mean arriving time (successful episodes only), ARSPS
and ANSPS.  Writes one CSV row per episode.  Works with the scripted
fallback ("--bundle scripted") or any trained fusion bundle.
"""

import argparse
from pathlib import Path

from navstack.cli import UsageError, _load_policy_arg
from navstack.fileio import write_csv
from navstack.rewards import METRICS_CSV_HEADER
from navstack.scenarios import BUILTIN_NAMES, make_scenario
from navstack.stack import StackConfig, run_suite, summarize


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bundle", default="scripted")
    ap.add_argument("--episodes", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--timeout", type=float, default=StackConfig.timeout)
    ap.add_argument("--gamma", type=float, default=StackConfig.gamma)
    ap.add_argument("--out", type=Path, default=Path("runs/benchmark"))
    args = ap.parse_args()
    if args.episodes < 1:
        ap.error("--episodes must be at least 1")
    try:
        policy = _load_policy_arg(args.bundle)
    except UsageError as exc:
        ap.error(str(exc))
    try:
        cfg = StackConfig(timeout=args.timeout, gamma=args.gamma)
    except ValueError as exc:  # its message starts with the field, which is the option's name
        ap.error(f"--{exc}")
    args.out.mkdir(parents=True, exist_ok=True)

    all_rows = []
    print(f"{'scenario':>14} {'success':>8} {'crash':>6} {'timeout':>8} {'failed':>7} {'time[s]':>8} "
          f"{'ARSPS':>7} {'ANSPS':>8}")
    for name in BUILTIN_NAMES:
        rows, results = run_suite([make_scenario(name, args.seed)], policy, args.episodes, args.seed, cfg)
        all_rows.extend(rows)
        s = summarize(results)
        t = "       -" if s["arriving_time_mean"] is None else f"{s['arriving_time_mean']:8.1f}"
        print(f"{name:>14} {s['success_rate']:8.2f} {s['crash_rate']:6.2f} {s['timeout_rate']:8.2f} "
              f"{s['failed_rate']:7.2f} {t} {s['arsps_mean']:7.3f} {s['ansps_mean']:8.4f}")

    csv_path = args.out / "benchmark.csv"
    write_csv(csv_path, METRICS_CSV_HEADER, all_rows)
    print(f"\n{len(all_rows)} episode rows -> {csv_path}")


if __name__ == "__main__":
    main()
