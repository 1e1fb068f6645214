"""navstack benchmark: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload explore --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; navstack is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, measured without spans.
``--trace 1`` prints the per-layer metrics from a traced repeat of unit 0,
next to an untraced stretch that gives the tracing overhead.  See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
BLAS_THREADS = 1          # one caller, small matrices: more threads only add noise
SETUP_REPS = 5
SETUP_SEED_STEP = 10_000
WORKLOADS = ("explore", "train-expert", "train-fusion")
NPROC = len(os.sched_getaffinity(0))
PINNED_CPU = max(os.sched_getaffinity(0))

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ticks_per_s": "1/s",
    "tick_ms_p50": "ms",
    "tick_ms_p99": "ms",
}


def _percentile(values, q: float) -> float:
    import numpy as np

    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else 0.0


def setup(workloads, name: str, seed: int, tiny: bool):
    """Set the workload up SETUP_REPS times; return the last one and the
    per-rep seconds (fresh-interpreter import plus in-process build), scaled
    and raw.

    The last set-up is at ``seed``, the others at ``seed + SETUP_SEED_STEP * k``:
    generating one seed's scenarios took from 12 to 332 ms on fusion, so a
    median over one seed's set-ups would follow the seed more than the code."""
    from speed import Speedometer

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    speed = Speedometer()
    speed.sample()
    spans = []
    for k in range(SETUP_REPS - 1, -1, -1):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import navstack.stack, navstack.training, navstack.scenarios"],
            cwd=ROOT, env=env, check=True, timeout=120,
        )
        wl = workloads.make(name, seed + SETUP_SEED_STEP * k, tiny)
        wl.build()
        spans.append((t0, perf_counter()))
        speed.sample()
    return wl, [speed.scaled(*s) for s in spans], [speed.raw(*s) for s in spans]


def run_units(wl, count: int, deadline_s: float) -> list:
    """Distinct units 0 .. count-1, each run twice back to back; on a
    machine much slower than nominal, stop early once ``deadline_s`` has
    passed.  Returns the pairs."""
    pairs = []
    t_start = perf_counter()
    for i in range(count):
        pairs.append((wl.run_unit(i), wl.run_unit(i)))
        if perf_counter() - t_start >= deadline_s:
            break
    return pairs


def fold(a, b):
    """One unit from two runs of it that did identical work: the lesser
    wall time and, tick by tick, the lesser gap.  A gap that a burst on the
    shared host stretched in one run is then taken from the other.  None if
    the runs differ in digest or tick count."""
    import numpy as np

    if a.digest != b.digest or a.tick_ms.size != b.tick_ms.size:
        return None
    return replace(
        a,
        wall_s=min(a.wall_s, b.wall_s),
        raw_wall_s=min(a.raw_wall_s, b.raw_wall_s),
        tick_ms=np.minimum(a.tick_ms, b.tick_ms),
        raw_tick_ms=np.minimum(a.raw_tick_ms, b.raw_tick_ms),
        plan_tick_ms=np.minimum(a.plan_tick_ms, b.plan_tick_ms),
    )


def summarize(units) -> dict:
    import numpy as np

    ticks = sum(u.ticks for u in units)
    wall = sum(u.wall_s for u in units)
    gaps = np.concatenate([u.tick_ms for u in units])
    raw_gaps = np.concatenate([u.raw_tick_ms for u in units])
    plan = np.concatenate([u.plan_tick_ms for u in units])
    episodes = sum(u.episodes for u in units)
    return {
        "ticks_per_s": ticks / wall,
        "tick_ms_p50": _percentile(gaps, 50),
        "tick_ms_p99": _percentile(gaps, 99),
        "tick_samples": int(gaps.size),
        "raw_ticks_per_s": ticks / sum(u.raw_wall_s for u in units),
        "raw_tick_ms_p50": _percentile(raw_gaps, 50),
        "raw_tick_ms_p99": _percentile(raw_gaps, 99),
        "plan_tick_ms_p50": _percentile(plan, 50),
        "plan_tick_ms_p90": _percentile(plan, 90),
        "plan_tick_samples": int(plan.size),
        "success_frac": sum(u.successes for u in units) / episodes,
        "gen_s": statistics.median(u.wall_s for u in units),
        "gen_samples": len(units),
        "episodes": episodes,
    }


def per_layer(tracer, unit, untraced_first, untraced: dict) -> dict:
    """Per-layer metrics of the traced unit; see README.md for the table."""
    from tracer import LAYERS

    s = tracer.summary()
    ticks = max(unit.ticks, 1)
    out = {}

    def put(name, value, unit_name):
        out[name] = (float(value), unit_name)

    detailed = {"planning.distance_field", "planning.plan_path", "mapping.integrate_scan",
                "exploration.score_candidates", "training.rollout_lower"}
    names = [f"{m}.{f}" for m, fs in LAYERS.items() for f in fs] + ["policy.action", "policy.value"]
    for name in names:
        st = s.get(name, {"calls": 0, "durations": [], "total": 0.0, "self": 0.0, "root": 0.0})
        put(f"{name}.calls", st["calls"], "count")
        put(f"{name}.ms_p50", _percentile(st["durations"], 50) * 1e3, "ms")
        if name in detailed:
            put(f"{name}.ms_p95", _percentile(st["durations"], 95) * 1e3, "ms")
        put(f"{name}.ms_per_tick", st["total"] * 1e3 / ticks, "ms")
        put(f"{name}.self_ms_per_tick", st["self"] * 1e3 / ticks, "ms")

    def ratio(num, den):
        return num / den if den else 0.0

    plan_ticks = unit.counters.get("plan_ticks", 0)
    plans = s.get("planning.plan_path", {}).get("calls", 0)
    inflates = s.get("planning.inflate_occupied", {}).get("calls", 0)
    scores = s.get("exploration.score_candidates", {}).get("calls", 0)
    rollouts = s.get("training.rollout_lower", {}).get("calls", 0)
    put("planning.plan_path.calls_per_plan_tick", ratio(plans, plan_ticks), "ratio")
    put("planning.plan_path.none_frac", ratio(tracer.observed.get("planning.plan_path", 0), plans), "ratio")
    put("planning.inflate_occupied.calls_per_plan_tick", ratio(inflates, plan_ticks), "ratio")
    put("exploration.score_candidates.candidates_per_call",
        ratio(tracer.observed.get("exploration.score_candidates", 0), scores), "count")
    put("training.rollout_lower.ticks_per_call", ratio(unit.ticks if rollouts else 0, rollouts), "ticks")
    put("stack.cadence.explore_triggered_per_scheduled",
        ratio(unit.counters.get("explore_triggered", 0), unit.counters.get("explore_scheduled", 0)), "ratio")

    # Time of the traced unit that no root span covers: CEM bookkeeping
    # (noise, sorting, the critic refit) on train-*; about 0 on explore.
    roots = sum(st["root"] for st in s.values())
    put("training.generation.self_ms_per_tick", (unit.raw_wall_s - roots) * 1e3 / ticks if rollouts else 0.0, "ms")
    put("training.generation.ms_p50", untraced["gen_s"] * 1e3 if rollouts else 0.0, "ms")
    episodes = s.get("stack.run_episode", {}).get("calls", 0)
    put("stack.plan_tick.ms_p50", untraced["plan_tick_ms_p50"] if episodes else 0.0, "ms")
    put("stack.plan_tick.ms_p90", untraced["plan_tick_ms_p90"] if episodes else 0.0, "ms")
    put("stack.episode.success_frac", untraced["success_frac"] if episodes else 0.0, "ratio")

    traced_tps = unit.ticks / unit.raw_wall_s
    put("trace.ticks_per_s", traced_tps, "1/s")
    # Overhead from scaled walls: the raw ones differ by the host's speed.
    put("trace.ticks_per_s_ratio", (unit.ticks / unit.wall_s) / (untraced_first.ticks / untraced_first.wall_s), "ratio")
    put("trace.accounted_frac", ratio(sum(st["self"] for st in s.values()), roots), "ratio")
    put("trace.spans", len(tracer.start), "count")
    return out


def metadata(args, setup_samples, raw_setup_samples, units, extra) -> dict:
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": NPROC,
        "pinned_cpu": PINNED_CPU,
        "git_commit": commit,
        "setup_reps": len(setup_samples),
        "setup_s_samples": setup_samples,
        "raw_setup_s_samples": raw_setup_samples,
        "units": len(units),
        "closed_loop": "one caller; the next unit starts when the previous returns",
        **extra,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "navstack" / "__init__.py").is_file():
        print(f"error: no navstack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # One core for the whole run, set-up subprocesses included: the vCPUs of
    # a shared host change speed independently, so the speed samples (see
    # speed.py) only describe work done on the core they ran on.
    os.sched_setaffinity(0, {PINNED_CPU})
    # The thread cap must be set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracer import Tracer

    wl, setup_samples, raw_setup_samples = setup(workloads, args.workload, args.seed, args.tiny)
    # The work is fixed by the seed and --seconds, not by the clock, so two
    # runs of one seed do identical work: pairs of runs of units of nominal
    # length wl.unit_s fill --seconds (half of it when traced).
    budget = args.seconds / 2 if args.trace else args.seconds
    count = min(workloads.MAX_UNITS, max(1, round(budget / (2 * wl.unit_s))))
    pairs = run_units(wl, count, 1.25 * budget)
    runs = [u for pair in pairs for u in pair]
    folded = [fold(a, b) for a, b in pairs]
    mismatched = sum(f is None for f in folded)
    measured = [f or a for f, (a, _) in zip(folded, pairs)]
    first = pairs[0][0]
    tracer = Tracer() if args.trace else None
    if tracer:
        with tracer:
            traced = wl.run_unit(0, tracer)
        runs.append(traced)
        mismatched += traced.digest != first.digest
    stats = summarize(measured)
    attempted = sum(u.episodes for u in runs)
    failed = sum(u.failed for u in runs) + mismatched
    errors = [e for u in runs for e in u.errors]

    if tracer:
        layer = per_layer(tracer, traced, first, stats)
        accounted = layer["trace.accounted_frac"][0]
        if abs(accounted - 1.0) > 1e-6:
            errors.append(f"self times account for {accounted:.6f} of the root spans")
            failed += 1
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ticks_per_s": stats["ticks_per_s"],
            "tick_ms_p50": stats["tick_ms_p50"],
            "tick_ms_p99": stats["tick_ms_p99"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    meta = metadata(args, setup_samples, raw_setup_samples, measured, {
        "tick_samples": stats["tick_samples"],
        "plan_tick_samples": stats["plan_tick_samples"],
        "gen_samples": stats["gen_samples"],
        "episodes": stats["episodes"],
        "runs_per_unit": 2,
        "tick_percentiles_of": "the lesser gap of each tick over the two runs of its unit",
    })
    # Workload-specific end-to-end figures.  They are printed, not gated:
    # BENCHMARK.json gates only metrics that every workload has.
    specific = {
        "failed_frac": (failed / attempted, f"ratio of {attempted} episodes"),
        "raw_setup_s": (statistics.median(raw_setup_samples), "s"),
        "raw_ticks_per_s": (stats["raw_ticks_per_s"], "1/s"),
        "raw_tick_ms_p50": (stats["raw_tick_ms_p50"], "ms"),
        "raw_tick_ms_p99": (stats["raw_tick_ms_p99"], "ms"),
    }
    if args.workload == "explore":
        specific.update({
            "plan_tick_ms_p50": (stats["plan_tick_ms_p50"], "ms"),
            "plan_tick_ms_p90": (stats["plan_tick_ms_p90"], "ms"),
            "success_frac": (stats["success_frac"], f"ratio of {stats['episodes']} episodes"),
        })
    else:
        specific["gen_s"] = (stats["gen_s"], "s")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in specific.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"digest sha256 {first.digest}; repeats " + ("match" if not mismatched else f"DIFFER in {mismatched}"))
    for e in errors:
        print(f"error: {e}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "meta": meta,
        "metrics": metrics,
        "specific": {k: {"value": v, "unit": u} for k, (v, u) in specific.items()},
        "digest": first.digest,
        "repeat_mismatches": mismatched,
        "errors": errors,
        "units": [{"wall_s": u.wall_s, "raw_wall_s": u.raw_wall_s, "ticks": u.ticks, "episodes": u.episodes,
                   "tick_ms_p50": _percentile(u.tick_ms, 50), "raw_tick_ms_p50": _percentile(u.raw_tick_ms, 50),
                   "tick_ms_p99": _percentile(u.tick_ms, 99)}
                  for u in measured],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer:
        tracer.save(OUT / f"{stem}.spans.npz")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
