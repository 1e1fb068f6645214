#!/usr/bin/env python3
"""Run the whole two-stage training pipeline and save every artifact.

Stage 1 trains the go-straight expert on static clutter and the
obstacle-avoidance expert on walker boxes; stage 2 replicates them into the
four-expert bank and co-trains bank + gating + critic on the scenario-family
mix.  Artifacts land in --out: the two expert checkpoints, the fusion
bundle, and per-stage JSONL training logs.

The default budget finishes in roughly ten minutes on a laptop CPU; scale
--generations / --population for better policies.
"""

import argparse
import json
import time
from dataclasses import replace
from pathlib import Path

from navstack.fileio import write_jsonl
from navstack.policy import ObservationConfig, PolicyBundle, save_bundle, save_expert
from navstack.scenarios import training_scenarios
from navstack.training import (
    PIPELINE_STAGE1,
    PIPELINE_STAGE2,
    PIPELINE_TASK_SEEDS,
    PIPELINE_TASKS,
    STAGES,
    cotrain_fusion,
    train_expert,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("runs/pipeline"))
    ap.add_argument("--seed", type=int, default=PIPELINE_STAGE1.seed)
    ap.add_argument("--population", type=int, default=PIPELINE_STAGE1.population)
    ap.add_argument("--generations", type=int, default=PIPELINE_STAGE1.generations)
    ap.add_argument("--fusion-generations", type=int, default=PIPELINE_STAGE2.generations)
    ap.add_argument("--episodes-per-eval", type=int, default=PIPELINE_STAGE1.episodes_per_eval)
    ap.add_argument("--tasks", type=int, default=PIPELINE_TASKS)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    obs_cfg = ObservationConfig()
    t0 = time.time()

    cfg1 = replace(
        PIPELINE_STAGE1,
        population=args.population,
        generations=args.generations,
        episodes_per_eval=args.episodes_per_eval,
        seed=args.seed,
    )
    experts = {}
    for stage in ("expert-gs", "expert-oa"):
        profile, kind = STAGES[stage]
        log_rows = []
        experts[stage] = train_expert(
            profile, training_scenarios(kind, args.tasks, PIPELINE_TASK_SEEDS[kind]), cfg1, obs_cfg,
            on_generation=lambda row: (log_rows.append(row), print(f"  {stage} gen {row['generation']:3d} best {row['best_return']:8.2f}"))[0],
        )
        save_expert(experts[stage], profile, obs_cfg, args.out / f"{stage}.json")
        write_jsonl(args.out / f"{stage}-log.jsonl", log_rows)
        print(f"[{time.time()-t0:6.1f}s] {stage} saved")

    # stage 2 keeps its population and seed offsets from stage 1
    cfg2 = replace(
        PIPELINE_STAGE2,
        population=max(4, args.population + PIPELINE_STAGE2.population - PIPELINE_STAGE1.population),
        generations=args.fusion_generations,
        seed=args.seed + PIPELINE_STAGE2.seed - PIPELINE_STAGE1.seed,
    )
    log_rows = []
    _, kind = STAGES["fusion"]
    bank, gating, critic = cotrain_fusion(
        experts["expert-gs"], experts["expert-oa"],
        training_scenarios(kind, args.tasks, PIPELINE_TASK_SEEDS[kind]), cfg2, obs_cfg,
        on_generation=lambda row: (log_rows.append(row), print(f"  fusion gen {row['generation']:3d} best {row['best_return']:8.2f}"))[0],
    )
    save_bundle(PolicyBundle(obs_cfg, bank, gating, critic), args.out / "fusion-bundle.json")
    write_jsonl(args.out / "fusion-log.jsonl", log_rows)
    print(f"[{time.time()-t0:6.1f}s] fusion bundle saved to {args.out / 'fusion-bundle.json'}")

    (args.out / "pipeline.json").write_text(json.dumps({
        "seed": args.seed,
        "stage1": {"population": cfg1.population, "generations": cfg1.generations},
        "stage2": {"population": cfg2.population, "generations": cfg2.generations},
        "wall_seconds": round(time.time() - t0, 1),
    }, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
