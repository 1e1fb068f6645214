"""Built-in scenario generators and the versioned scenario JSON format.

The four fixed names: ``blind-alley`` (a dead-end pocket between the robot
and the goal), ``double-branch`` (two symmetric corridors, the left one
crowded with walkers), ``rooms`` (static walls and roadblocks), and
``square`` (an open box of fast random walkers, twice the robot's top
speed).  Each generator is a pure function of its seed.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import replace
from pathlib import Path

import numpy as np

from .geometry import rect_edges, supercover_cells
from .mapping import OccupancyGrid, P_MAX, P_MIN
from .planning import plan_grid, plan_path
from .world import DEFAULT_RESAMPLE_PROB, MAX_FORWARD_SPEED, ObstacleSpec, ROBOT_RADIUS, ScenarioSpec, point_static_clearance

SCENARIO_SCHEMA = 1


def blind_alley(seed: int = 0) -> ScenarioSpec:
    """Dead-end pocket: the robot starts inside a U of walls opening away
    from the goal, which sits behind the closed end."""
    rng = np.random.default_rng(seed)
    bounds = (0.0, 0.0, 10.0, 8.0)
    # Wall coordinates sit on cell centers (x.x5 at 0.1 m resolution) so that
    # lidar hits from either side rasterize into the same occupied row.
    walls = tuple(rect_edges(bounds)) + (
        (3.05, 4.95, 6.95, 4.95),   # alley top
        (3.05, 3.05, 6.95, 3.05),   # alley bottom
        (6.95, 3.05, 6.95, 4.95),   # closed end
    )
    sx = 5.5 + rng.uniform(-0.15, 0.15)
    sy = 4.0 + rng.uniform(-0.15, 0.15)
    sth = rng.uniform(-0.3, 0.3)  # facing the closed end
    walkers = tuple(
        ObstacleSpec(radius=0.25, max_speed=0.4, region=(0.6, 0.6, 2.4, 2.4))
        for _ in range(2)
    )
    return ScenarioSpec(
        name="blind-alley",
        bounds=bounds,
        static_segments=walls,
        obstacles=walkers,
        robot_start=(sx, sy, sth),
        goal=(8.5, 4.0),
        seed=seed,
    )


def double_branch(seed: int = 0) -> ScenarioSpec:
    """Two corridors of equal length to the goal chamber; the left corridor
    holds five walkers, the right one.  The start is jittered laterally so
    purely distance-based exploration has no systematic side preference."""
    rng = np.random.default_rng(seed)
    bounds = (0.0, 0.0, 12.0, 10.0)
    # Geometry is mirror-symmetric about x = 6 and wall coordinates sit on
    # cell centers; only the obstacle populations differ between branches.
    walls = tuple(rect_edges(bounds)) + (
        (4.85, 0.0, 4.85, 3.05),     # entry corridor
        (7.15, 0.0, 7.15, 3.05),
        (2.25, 3.05, 4.85, 3.05),    # junction shelf, left
        (7.15, 3.05, 9.75, 3.05),    # junction shelf, right
        (2.25, 3.05, 2.25, 8.35),    # outer branch walls
        (9.75, 3.05, 9.75, 8.35),
    )
    block = ((4.45, 4.45, 7.55, 8.35),)  # central block separating the branches
    dx = rng.uniform(-0.2, 0.2)
    left = tuple(
        ObstacleSpec(radius=0.28, max_speed=0.5, region=(2.5, 3.5, 4.15, 8.1))
        for _ in range(5)
    )
    right = (ObstacleSpec(radius=0.28, max_speed=0.5, region=(7.85, 3.5, 9.5, 8.1)),)
    return ScenarioSpec(
        name="double-branch",
        bounds=bounds,
        static_rects=block,
        static_segments=walls,
        obstacles=left + right,
        robot_start=(6.0 + dx, 1.2, math.pi / 2),
        goal=(6.0, 9.2),
        seed=seed,
    )


def rooms(seed: int = 0) -> ScenarioSpec:
    """Static clutter: interior walls with door gaps plus box roadblocks;
    start and goal are sampled mutually reachable."""
    bounds = (0.0, 0.0, 10.0, 10.0)

    def draw(rng: np.random.Generator) -> ScenarioSpec:
        wx = rng.uniform(3.0, 7.0)
        gap_y = rng.uniform(1.5, 7.0)
        wy = rng.uniform(3.0, 7.0)
        gap_x = rng.uniform(1.5, 7.0)
        walls = tuple(rect_edges(bounds)) + (
            (wx, 0.0, wx, gap_y),
            (wx, gap_y + 1.6, wx, 10.0),
            (0.0, wy, gap_x, wy),
            (gap_x + 1.6, wy, 10.0, wy),
        )
        blocks = _draw_blocks(rng, 3, (0.8, 8.4), (0.4, 0.9))
        return ScenarioSpec(name="rooms", bounds=bounds, static_rects=blocks, static_segments=walls, seed=seed)

    return _sampled_layout(seed, draw, 5.0, lambda rng, start, goal: rng.uniform(-math.pi, math.pi))


def square(seed: int = 0) -> ScenarioSpec:
    """Open walled box full of walkers moving at twice the robot's top
    forward speed; pure dynamic-avoidance pressure."""
    rng = np.random.default_rng(seed)
    bounds = (0.0, 0.0, 10.0, 10.0)
    spec = ScenarioSpec(
        name="square",
        bounds=bounds,
        static_segments=tuple(rect_edges(bounds)),
        obstacles=tuple(
            ObstacleSpec(radius=0.3, max_speed=2.0 * MAX_FORWARD_SPEED)
            for _ in range(8)
        ),
        robot_start=(rng.uniform(0.8, 2.2), rng.uniform(0.8, 2.2), rng.uniform(-math.pi, math.pi)),
        goal=(rng.uniform(7.8, 9.2), rng.uniform(7.8, 9.2)),
        seed=seed,
    )
    return spec


_BUILTINS = {
    "blind-alley": blind_alley,
    "double-branch": double_branch,
    "rooms": rooms,
    "square": square,
}
BUILTIN_NAMES = tuple(_BUILTINS)


def make_scenario(name: str, seed: int = 0) -> ScenarioSpec:
    if name not in _BUILTINS:
        raise KeyError(f"unknown scenario {name!r}; built-ins: {', '.join(BUILTIN_NAMES)}")
    return _BUILTINS[name](seed)


def ground_truth_grid(spec: ScenarioSpec) -> OccupancyGrid:
    """Rasterize the static geometry into a fully known grid at
    ``DEFAULT_RESOLUTION`` (occupied cells at P_MAX, the rest at P_MIN).
    Used for reachability checks and tests."""
    grid = OccupancyGrid.for_bounds(spec.bounds)
    resolution = grid.resolution
    grid.p[:] = P_MIN
    x0, y0 = grid.origin
    for rx0, ry0, rx1, ry1 in spec.static_rects:
        c0 = int(math.floor((rx0 - x0) / resolution))
        c1 = int(math.floor((rx1 - x0) / resolution))
        r0 = int(math.floor((ry0 - y0) / resolution))
        r1 = int(math.floor((ry1 - y0) / resolution))
        grid.p[max(r0, 0):min(r1 + 1, grid.rows), max(c0, 0):min(c1 + 1, grid.cols)] = P_MAX
    for ax, ay, bx, by in spec.static_segments:
        for r, c in supercover_cells((ax, ay), (bx, by), grid.origin, resolution):
            if 0 <= r < grid.rows and 0 <= c < grid.cols:
                grid.p[r, c] = P_MAX
    return grid


def _sample_start_goal(spec: ScenarioSpec, rng: np.random.Generator, min_separation: float):
    """Sample a start/goal pair with static clearance and a connecting path
    on the ground-truth raster at the spec's robot radius, or None after
    bounded retries."""
    grid = ground_truth_grid(spec)
    plan = plan_grid(grid, spec.robot_radius)
    x0, y0, x1, y1 = spec.bounds
    for _ in range(40):
        s = rng.uniform([x0 + 0.6, y0 + 0.6], [x1 - 0.6, y1 - 0.6])
        g = rng.uniform([x0 + 0.6, y0 + 0.6], [x1 - 0.6, y1 - 0.6])
        if math.hypot(s[0] - g[0], s[1] - g[1]) < min_separation:
            continue
        if point_static_clearance(spec, s[0], s[1]) < spec.robot_radius + 0.15:
            continue
        if point_static_clearance(spec, g[0], g[1]) < spec.robot_radius + 0.15:
            continue
        if plan_path(plan, grid.world_to_cell(*s), grid.world_to_cell(*g)) is None:
            continue
        return (float(s[0]), float(s[1])), (float(g[0]), float(g[1]))
    return None


def _draw_blocks(rng: np.random.Generator, count: int, corner, side) -> tuple:
    """``count`` boxes (x0, y0, x1, y1), each drawn as x0, y0 in ``corner``, then width, height in ``side``."""
    draws = ((rng.uniform(*corner), rng.uniform(*corner), rng.uniform(*side), rng.uniform(*side))
             for _ in range(count))
    return tuple((bx, by, bx + w, by + h) for bx, by, w, h in draws)


def _sampled_layout(seed: int, draw, min_separation: float, heading) -> ScenarioSpec:
    """The first of up to 60 layouts ``draw(rng)`` in which
    ``_sample_start_goal`` finds a start and a goal, with the robot facing
    ``heading(rng, start, goal)``.  One generator seeded with ``seed``
    makes every draw, in that order."""
    rng = np.random.default_rng(seed)
    for _ in range(60):
        spec = draw(rng)
        picked = _sample_start_goal(spec, rng, min_separation)
        if picked is not None:
            start, goal = picked
            return replace(spec, robot_start=(*start, heading(rng, start, goal)), goal=goal)
    raise RuntimeError(f"{spec.name} generator failed to find a connected layout for seed {seed}")


# ---------------------------------------------------------------------------
# Training task sets


def _task_box(seed: int, obstacles: tuple[ObstacleSpec, ...], blocks: int, name: str) -> ScenarioSpec:
    bounds = (0.0, 0.0, 7.0, 7.0)

    def draw(rng: np.random.Generator) -> ScenarioSpec:
        rects = _draw_blocks(rng, blocks, (1.0, 5.2), (0.4, 0.8))
        return ScenarioSpec(name=name, bounds=bounds, static_rects=rects,
                            static_segments=tuple(rect_edges(bounds)), obstacles=obstacles, seed=seed)

    return _sampled_layout(seed, draw, 3.5, lambda rng, start, goal: (
        math.atan2(goal[1] - start[1], goal[0] - start[0]) + rng.uniform(-0.6, 0.6)))


def _static_task(seed: int) -> ScenarioSpec:
    return _task_box(seed, obstacles=(), blocks=2, name="train-static")


def _dynamic_task(seed: int) -> ScenarioSpec:
    walkers = tuple(ObstacleSpec(radius=0.3, max_speed=0.8) for _ in range(3))
    return _task_box(seed, obstacles=walkers, blocks=0, name="train-dynamic")


_TASK_MAKERS = {  # each kind's makers: task i is makers[i % len(makers)](base_seed * 1000 + i)
    "static": (_static_task,),
    "dynamic": (_dynamic_task,),
    "static+dynamic": (_static_task, _dynamic_task),
    "families": tuple(_BUILTINS.values()),
}


def training_scenarios(kind: str, count: int, base_seed: int = 0) -> list[ScenarioSpec]:
    """Task sets for the trainer, made by ``_TASK_MAKERS``.

    "static": small rooms with roadblocks and no walkers (the go-straight
    diet).  "dynamic": a small box of walkers (the obstacle-avoidance diet).
    "static+dynamic": alternating mix of the two, used to measure whether a
    blended policy keeps both skills.  "families": round-robin over the four
    built-in scenario generators, in ``BUILTIN_NAMES`` order, for the
    co-training stage.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count!r}")
    if kind not in _TASK_MAKERS:
        raise KeyError(f"unknown training set kind {kind!r}")
    makers = _TASK_MAKERS[kind]
    return [makers[i % len(makers)](base_seed * 1000 + i) for i in range(count)]


# ---------------------------------------------------------------------------
# Serialization (schema 1)


def scenario_to_dict(spec: ScenarioSpec) -> dict:
    return {
        "schema": SCENARIO_SCHEMA,
        "name": spec.name,
        "bounds": list(spec.bounds),
        "static_shapes": (
            [{"type": "rect", "rect": list(r)} for r in spec.static_rects]
            + [{"type": "segment", "a": [s[0], s[1]], "b": [s[2], s[3]]} for s in spec.static_segments]
        ),
        "obstacles": [
            {
                "radius": o.radius,
                "max_speed": o.max_speed,
                "resample_prob": o.resample_prob,
                "region": list(o.region) if o.region is not None else None,
            }
            for o in spec.obstacles
        ],
        "robot_start": list(spec.robot_start),
        "goal": list(spec.goal),
        "robot_radius": spec.robot_radius,
        "seed": spec.seed,
    }


def _require(doc: dict, owner: str, *fields: str) -> None:
    for field in fields:
        if field not in doc:
            raise ValueError(f"{owner} is missing required field {field!r}")


def _finite(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def _number(doc: dict, owner: str, field: str, default=None):
    """``doc[field]`` (``default`` when absent) if it is one finite number;
    a ValueError naming the field and its owner otherwise.  JSON's NaN and
    Infinity load as floats, so they are caught here."""
    value = doc.get(field, default)
    if not _finite(value):
        raise ValueError(f"{owner} field {field!r} must be a finite number, got {value!r}")
    return value


def _radius(doc: dict, owner: str, field: str, default=None) -> float:
    """``_number`` that must also be > 0: a disc of radius <= 0 never
    collides with the robot, yet the lidar sees it."""
    value = _number(doc, owner, field, default)
    if not value > 0:
        raise ValueError(f"{owner} field {field!r} must be a finite number > 0, got {value!r}")
    return float(value)


def _numbers(doc: dict, owner: str, field: str, count: int) -> tuple[float, ...]:
    """``doc[field]`` as ``count`` finite floats; a ValueError naming the
    field and its owner otherwise."""
    value = doc[field]
    if not (isinstance(value, (list, tuple)) and len(value) == count and all(map(_finite, value))):
        raise ValueError(f"{owner} field {field!r} must hold {count} numbers, all finite, got {value!r}")
    return tuple(float(v) for v in value)


def _objects(doc: dict, field: str) -> list:
    """``doc[field]`` (empty when absent) if it is a list of JSON objects."""
    value = doc.get(field, [])
    if not (isinstance(value, list) and all(isinstance(v, dict) for v in value)):
        raise ValueError(f"scenario field {field!r} must be a list of objects")
    return value


def scenario_from_dict(doc: dict) -> ScenarioSpec:
    if not isinstance(doc, dict):
        raise ValueError("a scenario must be a JSON object")
    if doc.get("schema") != SCENARIO_SCHEMA:
        raise ValueError(f"unsupported scenario schema {doc.get('schema')!r}")
    _require(doc, "scenario", "bounds", "robot_start", "goal")
    rects = []
    segments = []
    for i, shape in enumerate(_objects(doc, "static_shapes")):
        owner = f"static shape {i}"
        _require(shape, owner, "type")
        if shape["type"] == "rect":
            _require(shape, owner, "rect")
            rects.append(_numbers(shape, owner, "rect", 4))
        elif shape["type"] == "segment":
            _require(shape, owner, "a", "b")
            segments.append(_numbers(shape, owner, "a", 2) + _numbers(shape, owner, "b", 2))
        else:
            raise ValueError(f"unknown static shape type {shape['type']!r}")
    obstacles = []
    for i, o in enumerate(_objects(doc, "obstacles")):
        owner = f"obstacle {i}"
        _require(o, owner, "radius", "max_speed")
        obstacles.append(ObstacleSpec(
            radius=_radius(o, owner, "radius"),
            max_speed=float(_number(o, owner, "max_speed")),
            resample_prob=float(_number(o, owner, "resample_prob", DEFAULT_RESAMPLE_PROB)),
            region=_numbers(o, owner, "region", 4) if o.get("region") is not None else None,
        ))
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"scenario field 'seed' must be an integer >= 0, got {seed!r}")
    return ScenarioSpec(
        name=doc.get("name", "custom"),
        bounds=_numbers(doc, "scenario", "bounds", 4),
        static_rects=tuple(rects),
        static_segments=tuple(segments),
        obstacles=tuple(obstacles),
        robot_start=_numbers(doc, "scenario", "robot_start", 3),
        goal=_numbers(doc, "scenario", "goal", 2),
        robot_radius=_radius(doc, "scenario", "robot_radius", ROBOT_RADIUS),
        seed=seed,
    )


def save_scenario(spec: ScenarioSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(spec), indent=2, sort_keys=True) + "\n")


def load_scenario(path: str | Path) -> ScenarioSpec:
    return scenario_from_dict(json.loads(Path(path).read_text()))
