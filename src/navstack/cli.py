"""Command-line entry point.

Subcommands: ``simulate`` (episodes -> trace + metrics CSV), ``train``
(stage checkpoints + JSONL log), ``heatmap`` (critic safety PGM), and
``frontier-debug`` (scored candidate tables per exploration cycle).  Every
command is deterministic under --seed and writes a manifest describing its
inputs and artifact hashes.  Exit codes: 0 ok, 1 episode-level failure,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import re
import sys
import time
from dataclasses import replace
from pathlib import Path

log = logging.getLogger("navstack")

EXIT_OK = 0
EXIT_EPISODE_FAILURE = 1
EXIT_USAGE = 2


class UsageError(RuntimeError):
    pass


def seed_arg(text: str) -> int:
    """The argparse type of a ``--seed``: an integer >= 0, in decimal digits."""
    if not re.fullmatch("[0-9]+", text):
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return int(text)


def _load(option: str, value: str, loader, missing: str = "is not a file"):
    """``loader(path)`` on the file an option names.  A path that is not a
    file, or a file that does not hold what ``loader`` reads, is a usage
    error naming the option."""
    path = Path(value)
    if not path.is_file():
        raise UsageError(f"{option} {value!r} {missing}")
    try:
        return loader(path)
    except ValueError as exc:
        raise UsageError(f"{option} {value!r}: {exc}") from exc


def _load_scenario_arg(value: str, seed: int | None):
    from .scenarios import BUILTIN_NAMES, load_scenario, make_scenario

    if value in BUILTIN_NAMES:
        return make_scenario(value, seed if seed is not None else 0)
    spec = _load("--scenario", value, load_scenario, "is neither a built-in name nor a file")
    if seed is not None:
        spec = replace(spec, seed=seed)
    return spec


def _load_policy_arg(value: str):
    from .policy import load_bundle
    from .scripted import scripted_bundle

    if value == "scripted":
        return scripted_bundle()
    return _load("--bundle", value, load_bundle)


def _load_expert_arg(stage: str, value: str):
    """The (params, obs_config) of the checkpoint that ``--{stage}`` names,
    which must hold an expert trained under that stage's reward preset."""
    from .policy import load_expert
    from .training import STAGES

    option, preset = f"--{stage}", STAGES[stage][0]
    params, profile, obs_config = _load(option, value, load_expert)
    if profile != preset:
        raise UsageError(f"{option} {value!r} holds an expert trained under {profile!r}, not {preset!r}")
    return params, obs_config


def _write_manifest(out_dir: Path, args: argparse.Namespace, files: list[Path]) -> None:
    from .fileio import json_text, sha256_file

    doc = {
        "schema": 1,
        "command": args.command,
        "arguments": {k: v for k, v in vars(args).items() if k != "func"},
        "artifacts": {f.name: sha256_file(f) for f in sorted(files)},
    }
    (out_dir / "manifest.json").write_text(json_text(doc) + "\n")


def _ensure_out(path_str: str) -> Path:
    out = Path(path_str)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    from .fileio import json_text, write_csv
    from .rewards import METRICS_CSV_HEADER
    from .stack import TRACE_FILE, StackConfig, run_suite

    if args.episodes < 1:
        raise UsageError("--episodes must be at least 1")
    if args.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    spec = _load_scenario_arg(args.scenario, args.seed)
    policy = _load_policy_arg(args.bundle)
    cfg = StackConfig(mode=args.mode, gamma=args.gamma, timeout=args.timeout)
    out = _ensure_out(args.out)
    # --seed, when given, is already the spec's seed
    start = time.perf_counter()
    rows, results = run_suite([spec], policy, args.episodes, spec.seed, cfg, trace_dir=out, jobs=args.jobs)
    wall_s = time.perf_counter() - start
    ticks = sum(r.steps for r in results)
    # Wall time is not deterministic, so timing.json stays out of the manifest.
    timing = {"wall_s": wall_s, "ticks": ticks, "ticks_per_s": ticks / wall_s}
    (out / "timing.json").write_text(json_text(timing) + "\n")

    failures = 0
    for (_, sd, *_), result in zip(rows, results):
        if result.outcome != "success":
            failures += 1
        if result.outcome == "failed":
            print(f"seed {sd}: failed: {result.error}", file=sys.stderr)
        log.info("seed %d: %s in %.1fs", sd, result.outcome, result.sim_time)
    csv_path = out / "metrics.csv"
    write_csv(csv_path, METRICS_CSV_HEADER, rows)
    files = [out / TRACE_FILE.format(k) for k in range(len(results))] + [csv_path]
    _write_manifest(out, args, files)
    print(f"{args.episodes} episode(s), {args.episodes - failures} succeeded -> {csv_path}")
    return EXIT_OK if failures == 0 else EXIT_EPISODE_FAILURE


# ---------------------------------------------------------------------------
# train


def _train_config(args: argparse.Namespace):
    from .training import TrainConfig

    overrides = {}
    if args.config:
        overrides = _load("--config", args.config, lambda path: json.loads(path.read_text()))
        if not isinstance(overrides, dict):
            raise UsageError(f"--config {args.config!r} must hold a JSON object of TrainConfig fields")
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        return TrainConfig(**overrides)
    except TypeError as exc:
        raise UsageError(f"bad training config: {exc}") from exc


def cmd_train(args: argparse.Namespace) -> int:
    from .fileio import write_jsonl
    from .policy import ObservationConfig, PolicyBundle, save_bundle, save_expert
    from .scenarios import training_scenarios
    from .training import STAGES, cotrain_fusion, train_expert

    if args.tasks < 1:
        raise UsageError("--tasks must be at least 1")
    cfg = _train_config(args)
    obs_cfg = ObservationConfig()
    if args.stage == "fusion":
        if not args.expert_gs or not args.expert_oa:
            raise UsageError("fusion stage requires --expert-gs and --expert-oa checkpoints")
        gs, obs_cfg = _load_expert_arg("expert-gs", args.expert_gs)
        oa, obs_b = _load_expert_arg("expert-oa", args.expert_oa)
        if obs_b != obs_cfg:
            raise UsageError("expert checkpoints disagree on the observation layout")
    profile, kind = STAGES[args.stage]
    tasks = training_scenarios(kind, args.tasks, cfg.seed)
    out = _ensure_out(args.out)  # only once every input has been checked
    log_rows: list[dict] = []

    def on_gen(row: dict) -> None:
        log_rows.append(row)
        log.info("gen %d best %.3f mean %.3f", row["generation"], row["best_return"], row["mean_return"])

    if args.stage == "fusion":
        bank, gating, critic = cotrain_fusion(gs, oa, tasks, cfg, obs_cfg, on_generation=on_gen)
        ckpt = out / "fusion-bundle.json"
        save_bundle(PolicyBundle(obs_cfg, bank, gating, critic), ckpt)
    else:
        params = train_expert(profile, tasks, cfg, obs_cfg, on_generation=on_gen)
        ckpt = out / f"{args.stage}.json"
        save_expert(params, profile, obs_cfg, ckpt)

    log_path = out / "train_log.jsonl"
    write_jsonl(log_path, log_rows)
    _write_manifest(out, args, [ckpt, log_path])
    print(f"stage {args.stage} done -> {ckpt}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# heatmap


def cmd_heatmap(args: argparse.Namespace) -> int:
    from . import world as sim
    from .fileio import write_pgm
    from .policy import build_observation, safety_heatmap

    try:
        region = tuple(float(v) for v in args.region.split(","))
    except ValueError:
        region = ()
    if len(region) != 4 or not all(map(math.isfinite, region)):
        raise UsageError("--region must be four finite numbers x0,y0,x1,y1")
    if not (math.isfinite(args.stride) and args.stride > 0):
        raise UsageError(f"--stride must be a finite number > 0, got {args.stride!r}")
    bundle = _load_policy_arg(args.bundle)
    if not hasattr(bundle, "critic"):
        raise UsageError("heatmap needs a trained bundle with a critic")
    spec = _load_scenario_arg(args.scenario, args.seed)
    try:
        x, y, th = (float(v) for v in args.pose.split(","))
    except ValueError as exc:
        raise UsageError("--pose must be x,y,theta") from exc
    spec = replace(spec, robot_start=(x, y, th))
    world = sim.spawn(spec)
    obs_cfg = bundle.obs_config
    scan = sim.raycast(world, obs_cfg.beams, obs_cfg.max_range)
    obs = build_observation([scan], world.robot.pose, spec.goal, world.robot.velocity, obs_cfg.history)
    values = safety_heatmap(bundle.critic, obs, region, args.stride)

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_pgm(out_path, values)
    print(f"heatmap {values.shape[1]}x{values.shape[0]} -> {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# frontier-debug


def cmd_frontier_debug(args: argparse.Namespace) -> int:
    from .exploration import CANDIDATE_CSV_HEADER, candidate_csv_rows
    from .fileio import write_csv
    from .stack import StackConfig, run_episode

    if args.steps < 1:
        raise UsageError("--steps must be at least 1")
    spec = _load_scenario_arg(args.scenario, args.seed)
    policy = _load_policy_arg(args.bundle)
    cfg = StackConfig(
        mode="upper-with-scripted-lower",
        gamma=args.gamma,
        timeout=args.steps / StackConfig.control_hz,
    )
    out = _ensure_out(args.out)
    result = run_episode(spec, policy, cfg)
    rows = [(tick, *row) for tick, scored in result.candidates for row in candidate_csv_rows(scored, cfg.gamma)]
    csv_path = out / "candidates.csv"
    write_csv(csv_path, ("tick", *CANDIDATE_CSV_HEADER), rows)
    _write_manifest(out, args, [csv_path])
    print(f"{len(rows)} candidate rows over {len(result.candidates)} exploration cycles -> {csv_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    from .stack import MODES, StackConfig
    from .training import STAGES

    parser = argparse.ArgumentParser(prog="navstack", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim_p = sub.add_parser("simulate", help="run episodes and write traces + metrics")
    sim_p.add_argument("--scenario", required=True, help="built-in name or scenario JSON path")
    sim_p.add_argument("--bundle", default="scripted", help="bundle JSON path or 'scripted'")
    sim_p.add_argument("--seed", type=seed_arg, default=None)
    sim_p.add_argument("--episodes", type=int, default=1)
    sim_p.add_argument("--mode", default=StackConfig.mode, choices=MODES)
    sim_p.add_argument("--gamma", type=float, default=StackConfig.gamma)
    sim_p.add_argument("--timeout", type=float, default=StackConfig.timeout)
    sim_p.add_argument("--jobs", type=int, default=1, help="parallel episode workers")
    sim_p.add_argument("--out", required=True)
    sim_p.set_defaults(func=cmd_simulate)

    train_p = sub.add_parser("train", help="train experts or the fusion stage")
    train_p.add_argument("stage", choices=tuple(STAGES))
    train_p.add_argument("--config", default=None, help="JSON with TrainConfig overrides")
    train_p.add_argument("--seed", type=seed_arg, default=None)
    train_p.add_argument("--tasks", type=int, default=8, help="scenario count in the training set")
    train_p.add_argument("--expert-gs", default=None)
    train_p.add_argument("--expert-oa", default=None)
    train_p.add_argument("--out", required=True)
    train_p.set_defaults(func=cmd_train)

    heat_p = sub.add_parser("heatmap", help="critic safety heatmap around a pose")
    heat_p.add_argument("--bundle", required=True)
    heat_p.add_argument("--scenario", required=True)
    heat_p.add_argument("--pose", required=True, help="x,y,theta placing the robot")
    heat_p.add_argument("--region", default="-3,-3,3,3", help="robot-frame rectangle x0,y0,x1,y1")
    heat_p.add_argument("--stride", type=float, default=0.25)
    heat_p.add_argument("--seed", type=seed_arg, default=None)
    heat_p.add_argument("--out", required=True, help="output PGM path")
    heat_p.set_defaults(func=cmd_heatmap)

    dbg_p = sub.add_parser("frontier-debug", help="dump scored frontier candidates per cycle")
    dbg_p.add_argument("--scenario", required=True)
    dbg_p.add_argument("--bundle", default="scripted")
    dbg_p.add_argument("--steps", type=int, default=300, help="control ticks to run")
    dbg_p.add_argument("--gamma", type=float, default=StackConfig.gamma)
    dbg_p.add_argument("--seed", type=seed_arg, default=None)
    dbg_p.add_argument("--out", required=True)
    dbg_p.set_defaults(func=cmd_frontier_debug)
    return parser


def _attach_region(argv: list[str]) -> list[str]:
    """``--region -3,-3,3,3`` as ``--region=-3,-3,3,3``: argparse reads a
    value that starts with '-' and is not a plain number as an option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--region" and re.match(r"-\.?\d", arg):
            out[-1] = f"--region={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("NAVSTACK_LOG", "WARNING").upper())
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_region(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # training gates, episode failures
        from .training import TrainingError

        if isinstance(exc, TrainingError):
            print(f"training failed: {exc}", file=sys.stderr)
            return EXIT_EPISODE_FAILURE
        raise


if __name__ == "__main__":
    sys.exit(main())
