#!/usr/bin/env python3
"""Run the whole two-stage training pipeline and save every artifact.

``training.train_pipeline`` trains the go-straight expert on static clutter
and the obstacle-avoidance expert on walker boxes, then replicates them into
the four-expert bank and co-trains bank + gating + critic on the
scenario-family mix.  Artifacts land in --out: the two expert checkpoints,
the fusion bundle, per-stage JSONL training logs and pipeline.json.
"""

import argparse
import json
import time
from pathlib import Path

from navstack.fileio import write_jsonl
from navstack.policy import save_bundle, save_expert
from navstack.training import (
    PIPELINE_STAGE1,
    PIPELINE_STAGE2,
    PIPELINE_TASKS,
    STAGES,
    pipeline_configs,
    train_pipeline,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("runs/pipeline"))
    ap.add_argument("--generations", type=int, default=PIPELINE_STAGE1.generations)
    ap.add_argument("--fusion-generations", type=int, default=PIPELINE_STAGE2.generations)
    ap.add_argument("--tasks", type=int, default=PIPELINE_TASKS)
    args = ap.parse_args()
    if args.tasks < 1:
        ap.error("--tasks must be at least 1")
    if args.generations < 0:
        ap.error("--generations must be at least 0")
    if args.fusion_generations < 0:
        ap.error("--fusion-generations must be at least 0")
    args.out.mkdir(parents=True, exist_ok=True)

    t0 = time.time()
    logs = {stage: [] for stage in STAGES}

    def on_generation(stage, row):
        logs[stage].append(row)
        print(f"  {stage} gen {row['generation']:3d} best {row['best_return']:8.2f}")

    gs, oa, bundle = train_pipeline(args.tasks, args.generations, args.fusion_generations, on_generation)
    save_expert(gs, STAGES["expert-gs"][0], bundle.obs_config, args.out / "expert-gs.json")
    save_expert(oa, STAGES["expert-oa"][0], bundle.obs_config, args.out / "expert-oa.json")
    save_bundle(bundle, args.out / "fusion-bundle.json")
    for stage, rows in logs.items():
        write_jsonl(args.out / f"{stage}-log.jsonl", rows)
    print(f"[{time.time()-t0:6.1f}s] artifacts saved to {args.out}")

    cfg1, cfg2 = pipeline_configs(args.generations, args.fusion_generations)
    (args.out / "pipeline.json").write_text(json.dumps({
        "seed": cfg1.seed,
        "stage1": {"population": cfg1.population, "generations": cfg1.generations},
        "stage2": {"population": cfg2.population, "generations": cfg2.generations},
        "wall_seconds": round(time.time() - t0, 1),
    }, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
