"""Deterministic 2D world: static geometry, random-walk obstacles, a holonomic
robot disc, simulated lidar, and collision detection.

Everything downstream (mapping, training, the episode harness) treats this
module as ground truth.  A world advanced from the same state and seed must
reproduce bitwise-identical successor states.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    point_rect_distance,
    point_segment_distance,
    ray_disc_hits,
    ray_segment_hits,
    rect_edges,
    segment_terms,
)

# Robot disc and holonomic command limits (v_x, v_y, omega_z).
ROBOT_RADIUS = 0.3
ARRIVAL_RADIUS = 0.3
CONTROL_DT = 1.0 / 30.0
ACTION_LOW = np.array([-0.5, -0.5, -1.5])
ACTION_HIGH = np.array([1.0, 0.5, 1.5])
MAX_FORWARD_SPEED = float(ACTION_HIGH[0])

DEFAULT_RESAMPLE_PROB = 0.05


@dataclass(frozen=True)
class ObstacleSpec:
    """A random-walking disc: constant speed, heading resampled stochastically,
    reflected at the edges of its confinement region."""

    radius: float
    max_speed: float
    resample_prob: float = DEFAULT_RESAMPLE_PROB
    region: tuple[float, float, float, float] | None = None  # defaults to world bounds


@dataclass(frozen=True)
class ScenarioSpec:
    """Static description of an episode: geometry, obstacle population,
    start/goal, and the seed that fixes every random draw."""

    name: str
    bounds: tuple[float, float, float, float]
    static_rects: tuple[tuple[float, float, float, float], ...] = ()
    static_segments: tuple[tuple[float, float, float, float], ...] = ()
    obstacles: tuple[ObstacleSpec, ...] = ()
    robot_start: tuple[float, float, float] = (0.0, 0.0, 0.0)
    goal: tuple[float, float] = (0.0, 0.0)
    robot_radius: float = ROBOT_RADIUS
    seed: int = 0


@dataclass
class RobotState:
    pose: np.ndarray      # (x, y, theta)
    velocity: np.ndarray  # commanded (v_x, v_y, omega_z), already clamped

    def copy(self) -> "RobotState":
        return RobotState(self.pose.copy(), self.velocity.copy())


@dataclass
class WorldState:
    """Mutable simulation state.  ``step`` advances it in place; use ``copy``
    to snapshot (the RNG state is cloned, so replays are bitwise stable).

    ``segments``, ``radii`` and ``segment_terms`` are built from ``spec``
    once and shared by every copy, so they are read-only.

    ``clearance`` is (x, y, d): the static clearance d of the last point
    (x, y) that ``check_collision`` measured in full, or None.  It depends
    only on ``spec``, so copies share it."""

    spec: ScenarioSpec
    robot: RobotState
    obstacle_pos: np.ndarray      # (k, 2)
    obstacle_heading: np.ndarray  # (k,)
    sim_time: float
    rng: np.random.Generator
    segments: np.ndarray = field(repr=False, default=None)  # (m, 4) cached statics
    radii: np.ndarray = field(repr=False, default=None)     # (k,) cached obstacle radii
    segment_terms: tuple = field(repr=False, default=None)  # ray_segment_hits constants
    clearance: tuple | None = field(repr=False, default=None)  # (x, y, d), see check_collision

    def __post_init__(self) -> None:
        if self.segments is None:
            self.segments = static_segment_array(self.spec)
        if self.radii is None:
            self.radii = np.array([o.radius for o in self.spec.obstacles])
        if self.segment_terms is None:
            self.segment_terms = segment_terms(self.segments)
        for a in (self.segments, self.radii, *self.segment_terms):
            a.flags.writeable = False

    def copy(self) -> "WorldState":
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = self.rng.bit_generator.state
        return WorldState(
            spec=self.spec,
            robot=self.robot.copy(),
            obstacle_pos=self.obstacle_pos.copy(),
            obstacle_heading=self.obstacle_heading.copy(),
            sim_time=self.sim_time,
            rng=rng,
            segments=self.segments,
            radii=self.radii,
            segment_terms=self.segment_terms,
            clearance=self.clearance,
        )

    def goal_distance(self) -> float:
        gx, gy = self.spec.goal
        return math.hypot(self.robot.pose[0] - gx, self.robot.pose[1] - gy)


def static_segment_array(spec: ScenarioSpec) -> np.ndarray:
    segs = [e for r in spec.static_rects for e in rect_edges(r)]
    segs.extend(spec.static_segments)
    return np.array(segs, dtype=float).reshape(-1, 4)


def point_static_clearance(spec: ScenarioSpec, x: float, y: float) -> float:
    """Distance from a point to the nearest static shape (inf if none)."""
    d = math.inf
    for r in spec.static_rects:
        d = min(d, point_rect_distance(x, y, r))
    for ax, ay, bx, by in spec.static_segments:
        d = min(d, point_segment_distance(x, y, ax, ay, bx, by))
    return d


def _inside_bounds(bounds, x: float, y: float) -> bool:
    x0, y0, x1, y1 = bounds
    return x0 <= x <= x1 and y0 <= y <= y1


def spawn(spec: ScenarioSpec) -> WorldState:
    """Build the initial world for a scenario.

    Raises ValueError when the start or goal is invalid (outside bounds, or
    inside a static shape inflated by the robot radius),
    or when an obstacle cannot be placed collision-free.
    """
    sx, sy, sth = spec.robot_start
    gx, gy = spec.goal
    if not _inside_bounds(spec.bounds, sx, sy):
        raise ValueError(f"robot_start {spec.robot_start[:2]} outside bounds {spec.bounds}")
    if not _inside_bounds(spec.bounds, gx, gy):
        raise ValueError(f"goal {spec.goal} outside bounds {spec.bounds}")
    if point_static_clearance(spec, sx, sy) < spec.robot_radius:
        raise ValueError("robot_start intersects an inflated static shape")
    if point_static_clearance(spec, gx, gy) < spec.robot_radius:
        raise ValueError("goal intersects an inflated static shape")
    for ob in spec.obstacles:
        if ob.max_speed < 0:
            raise ValueError("obstacle max_speed must be >= 0")

    rng = np.random.Generator(np.random.PCG64(spec.seed))
    positions = np.zeros((len(spec.obstacles), 2))
    headings = np.zeros(len(spec.obstacles))
    placed: list[tuple[float, float, float]] = []
    for i, ob in enumerate(spec.obstacles):
        region = ob.region if ob.region is not None else spec.bounds
        x0, y0, x1, y1 = region
        lo = np.array([x0 + ob.radius, y0 + ob.radius])
        hi = np.array([x1 - ob.radius, y1 - ob.radius])
        if np.any(hi < lo):
            raise ValueError(f"obstacle {i} does not fit its region {region}")
        for _ in range(500):
            p = rng.uniform(lo, hi)
            if point_static_clearance(spec, p[0], p[1]) < ob.radius:
                continue
            if math.hypot(p[0] - sx, p[1] - sy) < ob.radius + spec.robot_radius + 0.1:
                continue
            if math.hypot(p[0] - gx, p[1] - gy) < ob.radius + spec.robot_radius + 0.1:
                continue
            if any(math.hypot(p[0] - qx, p[1] - qy) < ob.radius + qr for qx, qy, qr in placed):
                continue
            break
        else:
            raise ValueError(f"could not place obstacle {i} collision-free")
        positions[i] = p
        headings[i] = rng.uniform(0.0, 2.0 * math.pi)
        placed.append((p[0], p[1], ob.radius))

    robot = RobotState(
        pose=np.array([sx, sy, sth], dtype=float),
        velocity=np.zeros(3),
    )
    return WorldState(
        spec=spec,
        robot=robot,
        obstacle_pos=positions,
        obstacle_heading=headings,
        sim_time=0.0,
        rng=rng,
    )


def clamp_action(a: np.ndarray) -> np.ndarray:
    """``a`` clamped to [ACTION_LOW, ACTION_HIGH]: the bits of ``np.clip``,
    NaN included, without its Python-level wrapper."""
    return np.minimum(np.maximum(a, ACTION_LOW), ACTION_HIGH)


def _wrap_angle(a: float) -> float:
    return math.atan2(math.sin(a), math.cos(a))


def step(world: WorldState, action, dt: float = CONTROL_DT) -> tuple[WorldState, str]:
    """Advance the world one tick (in place) and report the resulting event.

    The action is clamped to the command limits, integrated in the robot
    frame, then rotated into the world frame (explicit Euler).  Obstacles
    take one random-walk step.  Returns (world, event) with event one of
    "collision", "goal_reached" (within ``ARRIVAL_RADIUS``), "none";
    collision wins if both hold.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    a = clamp_action(np.asarray(action, dtype=float))
    vx, vy, omega = a.tolist()
    x, y, th = world.robot.pose.tolist()
    c, s = math.cos(th), math.sin(th)
    x += (vx * c - vy * s) * dt
    y += (vx * s + vy * c) * dt
    th = _wrap_angle(th + omega * dt)
    if x != x or y != y or th != th:
        # Given two NaN operands, CPython's float ops return one or the
        # other depending on whether the interpreter has specialised the
        # op yet, so a NaN result is redone in numpy scalars, which always
        # pick the same one.
        x, y, th = world.robot.pose
        c, s = math.cos(th), math.sin(th)
        x += (a[0] * c - a[1] * s) * dt
        y += (a[0] * s + a[1] * c) * dt
        th = _wrap_angle(th + a[2] * dt)
    world.robot.pose[:] = (x, y, th)
    world.robot.velocity[:] = a

    _advance_obstacles(world, dt)
    world.sim_time += dt

    if check_collision(world):
        return world, "collision"
    if world.goal_distance() < ARRIVAL_RADIUS:
        return world, "goal_reached"
    return world, "none"


def _advance_obstacles(world: WorldState, dt: float) -> None:
    n = world.obstacle_pos.shape[0]
    if n == 0:
        return
    rng = world.rng
    resample = rng.random(n).tolist()
    positions = world.obstacle_pos.tolist()
    headings = world.obstacle_heading.tolist()
    bounds = world.spec.bounds
    for i, ob in enumerate(world.spec.obstacles):
        if resample[i] < ob.resample_prob:
            headings[i] = rng.uniform(0.0, 2.0 * math.pi)
        h = headings[i]
        hx, hy = math.cos(h), math.sin(h)
        px, py = positions[i]
        px += ob.max_speed * hx * dt
        py += ob.max_speed * hy * dt
        x0, y0, x1, y1 = ob.region if ob.region is not None else bounds
        r = ob.radius
        if px < x0 + r or px > x1 - r:
            hx = -hx
            px = min(max(px, x0 + r), x1 - r)
        if py < y0 + r or py > y1 - r:
            hy = -hy
            py = min(max(py, y0 + r), y1 - r)
        positions[i] = (px, py)
        headings[i] = math.atan2(hy, hx)
    world.obstacle_pos[:] = positions
    world.obstacle_heading[:] = headings


@functools.lru_cache(maxsize=8)
def beam_offsets(beams: int) -> np.ndarray:
    """Beam angles relative to the robot heading, beam i at 2*pi*i/beams;
    read-only, since every scan with this beam count shares the array."""
    offsets = 2.0 * math.pi * np.arange(beams) / beams
    offsets.flags.writeable = False
    return offsets


def raycast(world: WorldState, beams: int, max_range: float) -> np.ndarray:
    """Lidar ranges, beam i pointing at robot heading + 2*pi*i/beams.

    Ranges are the nearest hit among static shapes and obstacle discs,
    clamped to [1e-6, max_range].  The world RNG is not touched.
    """
    if beams < 1:
        raise ValueError("beams must be >= 1")
    x, y, th = world.robot.pose.tolist()
    angles = th + beam_offsets(beams)
    cos, sin = np.cos(angles), np.sin(angles)

    if world.segments.size:
        t_seg, valid = ray_segment_hits(x, y, cos, sin, world.segment_terms)
        t = t_seg.min(axis=0, initial=max_range, where=valid)
    else:
        t = np.full(beams, max_range)
    # t only falls from max_range, so no upper clamp is needed
    if world.obstacle_pos.size:
        dirs = np.empty((beams, 2))
        dirs[:, 0] = cos
        dirs[:, 1] = sin
        t_disc = ray_disc_hits(np.array([x, y]), dirs, world.obstacle_pos, world.radii)
        np.minimum(t, t_disc.min(axis=0), out=t)
    return np.maximum(t, 1e-6, out=t)


def check_collision(world: WorldState) -> bool:
    """True iff the robot disc intersects any static shape or obstacle disc.

    Static shapes never move, and the distance to them changes by at most
    the distance the robot moves, so the static walk is skipped while the
    stored ``world.clearance`` bound, less that distance, still exceeds the
    robot radius by 1e-9, far above the rounding of the distances at
    coordinates up to about 1e5 m.  A NaN anywhere in that test fails it
    and walks in full.  A bound is stored
    only for a pose that does not collide: a colliding pose's bound could
    never skip, and the older one still may."""
    x, y, _ = world.robot.pose.tolist()
    rr = world.spec.robot_radius
    bound = world.clearance
    d = None
    if bound is None or not bound[2] - math.hypot(x - bound[0], y - bound[1]) > rr + 1e-9:
        d = point_static_clearance(world.spec, x, y)
        if d < rr:
            return True
    for (px, py), r in zip(world.obstacle_pos.tolist(), world.radii.tolist()):
        if math.hypot(x - px, y - py) < rr + r:
            return True
    if d is not None:
        world.clearance = (x, y, d)
    return False
