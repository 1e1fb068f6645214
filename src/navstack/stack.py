"""The episode harness binding both layers on one logical clock.

Per control tick: sense, fold the scan into the map, and act.  At the
planning rate the path and waypoint refresh; at the exploration rate (or
when a trigger fires, honored at the next planning tick) the frontier
candidates are re-scored.  Once the goal cell is known and reachable the
stack plans straight at it.  All cadences run on simulated time.

"lower-only" mode skips the map and the upper layer and feeds the goal
straight to the policy; training rollouts run in it.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import world as sim
from .exploration import ExplorationState, score_candidates, should_reselect, update_exploration_point
from .fileio import json_text
from .mapping import (
    CellClass,
    OccupancyGrid,
    classify,
    frontier_mask,
    integrate_scan,
    map_entropy,
)
from .planning import distance_field, extract_waypoint, plan_grid, plan_path
from .policy import ObservationConfig, build_observation, goal_in_robot_frame
from .rewards import episode_metrics, metrics_csv_row
from .scripted import scripted_bundle

MODES = ("full", "lower-only", "upper-with-scripted-lower")
OUTCOMES = ("success", "crash", "timeout", "failed")


@dataclass(frozen=True)
class StackConfig:
    """What a caller chooses for an episode: its length in simulated
    seconds, the stack mode, and the weight of the safety factor in
    exploration scoring.  The cadences are fixed rates, readable here."""

    control_hz: ClassVar[float] = sim.CONTROL_HZ
    plan_hz: ClassVar[float] = 1.0
    explore_hz: ClassVar[float] = 0.2

    timeout: float = 90.0
    mode: str = "full"
    gamma: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be a finite number >= 0, got {self.gamma!r}")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError(f"timeout must be a finite number > 0, got {self.timeout!r}")


@dataclass
class EpisodeResult:
    """The one record of a finished episode.  Step k holds ``poses[k]``,
    ``actions[k]`` and ``min_ranges[k]``; ``steps`` and ``metrics`` are
    derived from the stored fields on read."""

    outcome: str            # one of OUTCOMES
    sim_time: float
    min_ranges: np.ndarray  # per-step smallest lidar range
    d_start: float          # robot-goal distance at the start and at the end
    d_end: float
    poses: np.ndarray
    actions: np.ndarray
    exploration_selections: list  # (sim_time, cell, world_xy)
    goal_known_time: float | None
    cadence: dict
    candidates: list = field(default_factory=list)  # (tick, scored candidates) per scoring cycle
    error: str | None = None

    @property
    def steps(self) -> int:
        return len(self.min_ranges)

    @property
    def metrics(self) -> dict:
        return episode_metrics(self)


def run_episode(
    spec,
    policy,
    config: StackConfig = StackConfig(),
    obs_config: ObservationConfig | None = None,
    trace_path=None,
) -> EpisodeResult:
    """Run one episode and return its record.

    ``policy`` provides action(obs); value(obs) feeds the exploration
    heuristic and alpha(obs) the trace, when present, and its
    ``obs_config`` is the observation layout unless ``obs_config`` is given.
    In "upper-with-scripted-lower" mode the scripted blend acts while
    value() stays with ``policy`` (the blend's own when ``policy`` has
    none); in "lower-only" mode nothing is mapped and the policy is steered
    at the goal itself.  Simulator or planner errors and malformed actions
    mark the episode failed (distinct from a crash) instead of propagating.
    """
    actor = scripted_bundle() if config.mode == "upper-with-scripted-lower" else policy
    value = getattr(policy, "value", None) or getattr(actor, "value", None)
    if obs_config is None:
        obs_config = getattr(policy, "obs_config", None) or ObservationConfig()

    world = sim.spawn(spec)
    upper = config.mode != "lower-only"
    max_ticks = int(round(config.timeout * config.control_hz))
    plan_period = round(config.control_hz / config.plan_hz)
    explore_period = round(config.control_hz / config.explore_hz)

    grid = OccupancyGrid.for_bounds(spec.bounds)
    exp_state = ExplorationState()
    scans: deque = deque(maxlen=obs_config.history + 1)

    goal = spec.goal
    d_start = math.hypot(spec.robot_start[0] - goal[0], spec.robot_start[1] - goal[1])
    waypoint: tuple[float, float] | None = None
    goal_mode = False
    goal_known_time: float | None = None

    poses, actions, min_ranges = [], [], []
    selections: list = []
    candidates: list = []
    cadence = {"map": 0, "plan": 0, "explore_scheduled": 0, "explore_triggered": 0}
    trace_file = open(trace_path, "w") if trace_path else None

    outcome = "timeout"
    error: str | None = None
    try:
        for tick in range(max_ticks):
            scan = sim.raycast(world, obs_config.beams, obs_config.max_range)
            if upper:
                integrate_scan(grid, world.robot.pose, scan, obs_config.max_range)
                cadence["map"] += 1
            scans.append(scan)
            pose = world.robot.pose

            if upper and tick % plan_period == 0:
                plan = plan_grid(grid, spec.robot_radius)  # this tick's flood, A* and waypoint read it
                frontier = frontier_mask(grid)
                entropy = map_entropy(grid)
                robot_cell = grid.world_to_cell(pose[0], pose[1])
                goal_cell = grid.world_to_cell(*goal)
                path = None

                decision = should_reselect(exp_state, grid, goal, pose, frontier, entropy)
                if decision == "goal_now_known":
                    exp_state.goal_known = True
                    goal_known_time = world.sim_time
                if not goal_mode and exp_state.goal_known:
                    if classify(grid, goal_cell) == CellClass.FREE:
                        # A found path is the real plan for this tick too.
                        path = plan_path(plan, robot_cell, goal_cell)
                        goal_mode = path is not None

                if not goal_mode:
                    scheduled = tick % explore_period == 0
                    if scheduled:
                        cadence["explore_scheduled"] += 1
                    if scheduled or decision == "reselect" or exp_state.current_point is None:
                        if decision == "reselect" and not scheduled:
                            cadence["explore_triggered"] += 1
                        dist = distance_field(plan, robot_cell)
                        obs_now = build_observation(scans, pose, goal, world.robot.velocity, obs_config.history)
                        critic = _candidate_critic(value, obs_now, pose)
                        scored = score_candidates(frontier, grid, goal, critic, dist)
                        candidates.append((tick, scored))
                        cell = update_exploration_point(exp_state, scored, frontier, grid, pose, config.gamma, entropy)
                        if cell is not None:
                            selections.append((world.sim_time, cell, grid.cell_center(cell)))

                target = goal_cell if goal_mode else exp_state.current_point
                if target is not None:
                    if path is None:
                        path = plan_path(plan, robot_cell, target)
                    cadence["plan"] += 1
                    if path is not None:
                        waypoint = extract_waypoint(path, plan, pose)
                    elif not goal_mode:
                        exp_state.current_point = None  # force re-selection next cycle

            target_world = (waypoint or (pose[0], pose[1])) if upper else goal
            obs = build_observation(scans, pose, target_world, world.robot.velocity, obs_config.history)
            action = np.asarray(actor.action(obs), dtype=float)
            if action.shape != (3,):
                raise ValueError(f"the policy's action has shape {action.shape}, not (3,)")
            poses.append(pose.copy())
            actions.append(action.copy())
            min_ranges.append(float(np.minimum.reduce(scan)))

            if trace_file:
                alpha = getattr(actor, "alpha", lambda _o: None)(obs)
                row = {
                    "tick": tick,
                    "t": world.sim_time,
                    "pose": pose,
                    "action": action,
                    "alpha": alpha,
                    "waypoint": waypoint,
                    "exploration_point": exp_state.current_point,
                }
                trace_file.write(json_text(row) + "\n")

            _, event = sim.step(world, action)
            if event == "collision":
                outcome = "crash"
                break
            if event == "goal_reached":
                outcome = "success"
                break
    except Exception as exc:  # noqa: BLE001 - episode must report, not crash the suite
        outcome = "failed"
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if trace_file:
            trace_file.close()

    return EpisodeResult(
        outcome=outcome,
        sim_time=world.sim_time,
        min_ranges=np.array(min_ranges),
        d_start=d_start,
        d_end=world.goal_distance(),
        poses=np.array(poses).reshape(-1, 3),
        actions=np.array(actions).reshape(-1, 3),
        exploration_selections=selections,
        goal_known_time=goal_known_time,
        cadence=cadence,
        candidates=candidates,
        error=error,
    )


def _candidate_critic(value, obs_now, pose):
    """Bind the live observation to the critic ``value`` (None: every
    candidate scores 0.0); candidates arrive as world points and are
    rotated into the robot frame before the critic sees them."""
    if value is None:
        return lambda _pt: 0.0

    def critic(point_world):
        return value(obs_now.with_goal(goal_in_robot_frame(pose, point_world)))

    return critic


def episode_seed(base_seed: int, scenario_index: int, episode_index: int) -> int:
    ss = np.random.SeedSequence([base_seed, scenario_index, episode_index])
    return int(ss.generate_state(2, dtype=np.uint64)[0] % (2**63))


TRACE_FILE = "trace-{:04d}.jsonl"  # episode k of a suite, scenario-major


def run_suite(
    specs,
    policy,
    episodes: int,
    seed: int,
    config: StackConfig = StackConfig(),
    trace_dir=None,
    jobs: int = 1,
) -> tuple[list[tuple], list[EpisodeResult]]:
    """Scenarios x seeds, one metrics row per episode (plus full results).
    Each episode reads its observation layout from ``policy``.

    With ``trace_dir``, episode k writes ``TRACE_FILE.format(k)`` there.
    ``jobs > 1`` runs the episodes in a process pool of at most one worker
    per episode; its map keeps submission order, so the results equal the
    serial run's.
    """
    ep_specs = [replace(spec, seed=episode_seed(seed, si, ei))
                for si, spec in enumerate(specs) for ei in range(episodes)]
    n = len(ep_specs)
    traces = [None] * n if trace_dir is None else [Path(trace_dir) / TRACE_FILE.format(k) for k in range(n)]
    args = (ep_specs, [policy] * n, [config] * n, [None] * n, traces)  # None: the policy's obs_config
    workers = min(jobs, n)  # the fork start method forks every worker when the pool starts
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported only by a parallel run

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_episode, *args))
    else:
        results = list(map(run_episode, *args))
    rows = [metrics_csv_row(s.name, s.seed, r.metrics) for s, r in zip(ep_specs, results)]
    return rows, results


def summarize(results) -> dict:
    """Outcome rates (summing to 1), mean ARSPS and ANSPS, and the mean
    arriving time over successes (None without one)."""
    if not results:
        raise ValueError("summarize needs at least one episode")
    out = {f"{k}_rate": sum(r.outcome == k for r in results) / len(results) for k in OUTCOMES}
    metrics = [r.metrics for r in results]
    for key in ("arsps", "ansps"):
        out[f"{key}_mean"] = float(np.mean([m[key] for m in metrics]))
    times = [m["arriving_time"] for m in metrics if m["arriving_time"] is not None]
    out["arriving_time_mean"] = float(np.mean(times)) if times else None
    return out
