import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navstack import world as world_module
from navstack.geometry import point_rect_distance, point_segment_distance, ray_disc_hits
from navstack.world import (
    ACTION_HIGH,
    ACTION_LOW,
    ARRIVAL_RADIUS,
    CONTROL_DT,
    ROBOT_RADIUS,
    ObstacleSpec,
    RobotState,
    ScenarioSpec,
    WorldState,
    _advance_obstacles,
    _wrap_angle,
    check_collision,
    raycast,
    spawn,
    step,
)


def empty_room(seed=7, goal=(9.0, 9.0)):
    return ScenarioSpec(
        name="empty",
        bounds=(0.0, 0.0, 10.0, 10.0),
        robot_start=(5.0, 5.0, 0.0),
        goal=goal,
        seed=seed,
    )


def walled_room(seed=7):
    return ScenarioSpec(
        name="walled",
        bounds=(0.0, 0.0, 10.0, 10.0),
        static_rects=((6.0, 0.0, 6.4, 10.0),),
        robot_start=(2.0, 5.0, 0.0),
        goal=(1.0, 1.0),
        seed=seed,
    )


def manual_world(obstacle_xy, obstacle_radius=0.5):
    spec = ScenarioSpec(
        name="manual",
        bounds=(0.0, 0.0, 10.0, 10.0),
        obstacles=(ObstacleSpec(radius=obstacle_radius, max_speed=0.0),),
        robot_start=(5.0, 5.0, 0.0),
        goal=(9.0, 9.0),
    )
    return WorldState(
        spec=spec,
        robot=RobotState(np.array([5.0, 5.0, 0.0]), np.zeros(3)),
        obstacle_pos=np.array([obstacle_xy], dtype=float),
        obstacle_heading=np.zeros(1),
        sim_time=0.0,
        rng=np.random.default_rng(0),
    )


class TestSpawn:
    def test_initial_state(self):
        w = spawn(empty_room(seed=7))
        assert np.array_equal(w.robot.pose, np.array([5.0, 5.0, 0.0]))
        assert w.sim_time == 0.0
        assert np.array_equal(w.robot.velocity, np.zeros(3))

    def test_deterministic(self):
        spec = ScenarioSpec(
            name="obs",
            bounds=(0.0, 0.0, 10.0, 10.0),
            obstacles=tuple(ObstacleSpec(radius=0.3, max_speed=1.0) for _ in range(5)),
            robot_start=(5.0, 5.0, 0.0),
            goal=(9.0, 9.0),
            seed=42,
        )
        a, b = spawn(spec), spawn(spec)
        assert np.array_equal(a.obstacle_pos, b.obstacle_pos)
        assert np.array_equal(a.obstacle_heading, b.obstacle_heading)
        assert a.rng.bit_generator.state == b.rng.bit_generator.state

    def test_goal_inside_wall_rejected(self):
        spec = ScenarioSpec(
            name="bad",
            bounds=(0.0, 0.0, 10.0, 10.0),
            static_rects=((4.0, 4.0, 6.0, 6.0),),
            robot_start=(1.0, 1.0, 0.0),
            goal=(5.0, 5.0),
        )
        with pytest.raises(ValueError):
            spawn(spec)

    def test_start_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            spawn(ScenarioSpec(name="bad", bounds=(0, 0, 4, 4), robot_start=(5, 1, 0), goal=(1, 1)))

    @pytest.mark.parametrize("field", ["radius", "max_speed", "resample_prob", "region", "robot_radius"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_rejected(self, field, bad):
        # a NaN fails every comparison: such a walker would leave the scan
        # and the collision check after one step, such a robot never collide
        ob = {"radius": 0.3, "max_speed": 0.5, "region": (0.0, 0.0, 10.0, 10.0)}
        if field == "region":
            ob["region"] = (0.0, 0.0, bad, 10.0)
        elif field != "robot_radius":
            ob[field] = bad
        spec = ScenarioSpec(name="bad", bounds=(0.0, 0.0, 10.0, 10.0), obstacles=(ObstacleSpec(**ob),),
                            robot_start=(5.0, 5.0, 0.0), goal=(9.0, 9.0),
                            robot_radius=bad if field == "robot_radius" else ROBOT_RADIUS)
        with pytest.raises(ValueError, match=field):
            spawn(spec)

    @pytest.mark.parametrize("field", ["radius", "robot_radius"])
    @pytest.mark.parametrize("bad", [0.0, -0.0, -0.3])
    def test_radius_not_positive_rejected(self, field, bad):
        # a robot of radius <= 0 never collides (d < r never holds), while
        # the lidar still sees a walker of radius -r as a disc of radius r
        ob = ObstacleSpec(radius=bad if field == "radius" else 0.3, max_speed=0.5)
        spec = ScenarioSpec(name="bad", bounds=(0.0, 0.0, 10.0, 10.0), obstacles=(ob,),
                            robot_start=(5.0, 5.0, 0.0), goal=(9.0, 9.0),
                            robot_radius=bad if field == "robot_radius" else ROBOT_RADIUS)
        with pytest.raises(ValueError, match=f"{field} must be a finite number > 0"):
            spawn(spec)

    def test_obstacles_placed_clear(self):
        spec = ScenarioSpec(
            name="obs",
            bounds=(0.0, 0.0, 10.0, 10.0),
            obstacles=tuple(ObstacleSpec(radius=0.4, max_speed=0.5) for _ in range(6)),
            robot_start=(5.0, 5.0, 0.0),
            goal=(9.0, 9.0),
            seed=3,
        )
        w = spawn(spec)
        assert not check_collision(w)
        for i in range(6):
            for j in range(i + 1, 6):
                d = np.linalg.norm(w.obstacle_pos[i] - w.obstacle_pos[j])
                assert d >= 0.8 - 1e-9


class TestStep:
    def test_zero_action_identity(self):
        w = spawn(empty_room())
        pose0 = w.robot.pose.copy()
        _, event = step(w, (0.0, 0.0, 0.0))
        assert np.array_equal(w.robot.pose, pose0)
        assert w.sim_time == CONTROL_DT
        assert event == "none"

    def test_straight_line_integration(self):
        w = spawn(empty_room())
        for _ in range(30):
            step(w, (1.0, 0.0, 0.0))
        assert w.robot.pose[0] == pytest.approx(6.0, abs=1e-9)
        assert w.robot.pose[1] == pytest.approx(5.0, abs=1e-9)

    def test_action_clamped(self):
        w = spawn(empty_room())
        step(w, (5.0, -5.0, 9.0))
        assert np.all(w.robot.velocity <= ACTION_HIGH + 1e-12)
        assert np.all(w.robot.velocity >= ACTION_LOW - 1e-12)

    def test_wall_collision_on_first_penetrating_step(self):
        spec = walled_room()
        dt = CONTROL_DT
        # analytic first-penetration step for constant +x drive at top speed
        rr = spec.robot_radius
        wall_x = spec.static_rects[0][0]
        k_expected = math.floor((wall_x - rr - 2.0) / (1.0 * dt)) + 1
        w = spawn(spec)
        hit_at = None
        for k in range(1, 300):
            _, event = step(w, (1.0, 0.0, 0.0))
            if event == "collision":
                hit_at = k
                break
        assert hit_at == k_expected

    def test_goal_reached_event(self):
        w = spawn(empty_room(goal=(5.5, 5.0)))
        event = "none"
        for _ in range(60):
            _, event = step(w, (1.0, 0.0, 0.0))
            if event != "none":
                break
        assert event == "goal_reached"


class TestRaycast:
    def test_empty_region_all_max(self):
        w = spawn(empty_room())
        r = raycast(w, 36, 3.0)
        assert r.shape == (36,)
        assert np.all(r == 3.0)

    def test_perpendicular_wall(self):
        spec = ScenarioSpec(
            name="seg",
            bounds=(0.0, 0.0, 10.0, 10.0),
            static_segments=((7.0, 0.0, 7.0, 10.0),),
            robot_start=(5.0, 5.0, 0.0),
            goal=(1.0, 1.0),
        )
        r = raycast(spawn(spec), 72, 6.0)
        assert r[0] == pytest.approx(2.0, abs=1e-6)

    def test_disc_on_beam(self):
        w = manual_world((8.0, 5.0), obstacle_radius=0.5)
        r = raycast(w, 72, 6.0)
        assert r[0] == pytest.approx(2.5, abs=1e-6)

    def test_ranges_positive_and_counted(self):
        spec = ScenarioSpec(
            name="clutter",
            bounds=(0.0, 0.0, 10.0, 10.0),
            static_rects=((1.0, 1.0, 2.0, 2.0), (7.0, 6.5, 8.0, 9.0)),
            static_segments=((0.0, 0.0, 10.0, 0.0),),
            obstacles=tuple(ObstacleSpec(radius=0.3, max_speed=1.0) for _ in range(4)),
            robot_start=(5.0, 5.0, 0.3),
            goal=(9.0, 9.0),
            seed=8,
        )
        w = spawn(spec)
        for beams in (1, 7, 72):
            r = raycast(w, beams, 5.0)
            assert r.shape == (beams,)
            assert np.all(r > 0)
            assert np.all(r <= 5.0)

    def test_rejects_zero_beams(self):
        with pytest.raises(ValueError):
            raycast(spawn(empty_room()), 0, 5.0)


def _ray_segment_hits_oracle(origin: np.ndarray, dirs: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """The segment kernel that took the segments themselves and returned
    (rays, segments), kept verbatim."""
    n = dirs.shape[0]
    if segments.size == 0:
        return np.full((n, 0), np.inf)
    a = segments[:, :2]
    e = segments[:, 2:4] - a
    ao = a - origin  # (m, 2)
    d = dirs[:, None, :]  # (n, 1, 2)
    denom = d[..., 0] * e[None, :, 1] - d[..., 1] * e[None, :, 0]  # cross(d, e)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (ao[None, :, 0] * e[None, :, 1] - ao[None, :, 1] * e[None, :, 0]) / denom
        u = (ao[None, :, 0] * d[..., 1] - ao[None, :, 1] * d[..., 0]) / denom
    valid = (np.abs(denom) > 1e-12) & (t > 1e-9) & (u >= 0.0) & (u <= 1.0)
    return np.where(valid, t, np.inf)


def _ray_disc_hits_oracle(origin: np.ndarray, dirs: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """The disc kernel that returned (rays, discs), kept verbatim."""
    n = dirs.shape[0]
    if centers.size == 0:
        return np.full((n, 0), np.inf)
    oc = centers - origin  # (k, 2)
    b = dirs @ oc.T  # (n, k) projection of center offset onto each ray
    c = np.sum(oc * oc, axis=1) - radii * radii  # (k,)
    disc = b * b - c[None, :]
    sq = np.sqrt(np.maximum(disc, 0.0))
    t1 = b - sq
    t2 = b + sq
    t = np.where(t1 > 1e-9, t1, np.where(t2 > 1e-9, t2, np.inf))
    return np.where(disc >= 0.0, t, np.inf)


_disc_coord = st.one_of(st.floats(-20.0, 20.0), st.sampled_from([0.0, -0.0, 1e-10, 1e300, -1e300]))


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(_disc_coord, _disc_coord),
    st.floats(-10.0, 10.0),
    st.integers(1, 80),
    st.lists(st.tuples(_disc_coord, _disc_coord, st.one_of(st.floats(0.0, 5.0), st.just(1e300))), max_size=8),
    st.booleans(),
)
def test_ray_disc_hits_matches_oracle_bit_for_bit(origin, heading, beams, discs, inside):
    """Transposed, the kernel gives the old (rays, discs) bits, and the
    per-ray minimum over axis 0 equals the old one over axis 1; origins
    inside a disc, huge and zero radii included."""
    origin = np.array(origin)
    if discs and inside:
        discs[0] = (origin[0] + 0.25 * discs[0][2], origin[1], discs[0][2])
    angles = heading + 2.0 * np.pi * np.arange(beams) / beams
    dirs = np.empty((beams, 2))
    dirs[:, 0] = np.cos(angles)
    dirs[:, 1] = np.sin(angles)
    centers = np.array([d[:2] for d in discs], dtype=float).reshape(-1, 2)
    radii = np.array([d[2] for d in discs], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        got = ray_disc_hits(origin, dirs, centers, radii)
        want = _ray_disc_hits_oracle(origin, dirs, centers, radii)
    assert got.shape == (len(discs), beams)
    assert got.T.tobytes() == want.tobytes()
    if discs:
        assert got.min(axis=0).tobytes() == want.min(axis=1).tobytes()


def _raycast_oracle(world: WorldState, beams: int, max_range: float) -> np.ndarray:
    """The raycast that rebuilt its constants on every call, kept verbatim
    (less its range-noise branch, which was off by default); its segment
    and disc kernels are the old ones above."""
    x, y, th = world.robot.pose
    origin = np.array([x, y])
    angles = th + 2.0 * math.pi * np.arange(beams) / beams
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)

    t_seg = _ray_segment_hits_oracle(origin, dirs, world.segments)
    radii = np.array([o.radius for o in world.spec.obstacles])
    t_disc = _ray_disc_hits_oracle(origin, dirs, world.obstacle_pos, radii)
    t = np.full(beams, max_range)
    if t_seg.size:
        t = np.minimum(t, t_seg.min(axis=1))
    if t_disc.size:
        t = np.minimum(t, t_disc.min(axis=1))
    ranges = np.minimum(t, max_range)
    return np.clip(ranges, 1e-6, max_range)


_coord = st.floats(0.0, 10.0, allow_nan=False)


@st.composite
def raycast_worlds(draw):
    """A world with 0-3 rects, 0-4 segments and 0-4 discs placed anywhere,
    the robot included: it may sit inside a disc or a rect."""
    rects = tuple(
        (min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
        for x0, y0, x1, y1 in draw(st.lists(st.tuples(_coord, _coord, _coord, _coord), max_size=3))
    )
    segments = tuple(draw(st.lists(st.tuples(_coord, _coord, _coord, _coord), max_size=4)))
    discs = draw(st.lists(st.tuples(_coord, _coord, st.floats(0.05, 2.0)), max_size=4))
    pose = draw(st.tuples(_coord, _coord, st.floats(-10.0, 10.0)))
    if discs and draw(st.booleans()):
        cx, cy, r = discs[0]
        pose = (cx + 0.5 * r, cy, pose[2])  # inside the first disc
    spec = ScenarioSpec(
        name="drawn",
        bounds=(0.0, 0.0, 10.0, 10.0),
        static_rects=rects,
        static_segments=segments,
        obstacles=tuple(ObstacleSpec(radius=r, max_speed=0.0) for _, _, r in discs),
        robot_start=pose,
        goal=(5.0, 5.0),
    )
    world = WorldState(
        spec=spec,
        robot=RobotState(np.array(pose, dtype=float), np.zeros(3)),
        obstacle_pos=np.array([(cx, cy) for cx, cy, _ in discs], dtype=float).reshape(-1, 2),
        obstacle_heading=np.zeros(len(discs)),
        sim_time=0.0,
        rng=np.random.default_rng(0),
    )
    return world, draw(st.integers(1, 90)), draw(st.floats(0.5, 12.0))


@settings(max_examples=300, deadline=None)
@given(raycast_worlds())
def test_raycast_matches_oracle_bit_for_bit(case):
    world, beams, max_range = case
    want = _raycast_oracle(world, beams, max_range)
    for w in (world, world.copy()):
        got = raycast(w, beams, max_range)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_raycast_matches_oracle_on_builtin_scenarios():
    from navstack.scenarios import make_scenario

    for name in ("double-branch", "blind-alley", "rooms", "square"):
        world = spawn(make_scenario(name, 3))
        rng = np.random.default_rng(4)
        for _ in range(60):
            world.robot.pose[:] = (*rng.uniform(world.spec.bounds[:2], world.spec.bounds[2:]), rng.uniform(-4, 4))
            assert raycast(world, 72, 6.0).tobytes() == _raycast_oracle(world, 72, 6.0).tobytes()
            step(world, (0.0, 0.0, 0.0))


class TestCollision:
    def test_far_from_everything(self):
        assert not check_collision(spawn(empty_room()))

    def test_disc_disc_boundary(self):
        eps = 1e-6
        rsum = 0.3 + 0.5
        inside = manual_world((5.0 + rsum - eps, 5.0))
        outside = manual_world((5.0 + rsum + eps, 5.0))
        assert check_collision(inside)
        assert not check_collision(outside)

    def test_agrees_with_independent_oracle(self):
        # Circle-vs-shapes verdicts checked against dense boundary sampling;
        # configurations within 2 mm of tangency are skipped as ambiguous.
        rng = np.random.default_rng(123)
        rect = (4.0, 4.0, 6.0, 5.5)
        seg = (1.0, 8.0, 9.0, 8.0)
        checked = 0
        for _ in range(1000):
            x, y = rng.uniform(0.5, 9.5, 2)
            spec = ScenarioSpec(
                name="oracle",
                bounds=(0.0, 0.0, 10.0, 10.0),
                static_rects=(rect,),
                static_segments=(seg,),
                robot_start=(x, y, 0.0),
                goal=(0.5, 0.5),
            )
            w = WorldState(
                spec=spec,
                robot=RobotState(np.array([x, y, 0.0]), np.zeros(3)),
                obstacle_pos=np.zeros((0, 2)),
                obstacle_heading=np.zeros(0),
                sim_time=0.0,
                rng=np.random.default_rng(0),
            )
            verdict = check_collision(w)
            oracle, margin = _collision_oracle(x, y, 0.3, rect, seg)
            if margin < 2e-3:
                continue
            checked += 1
            assert verdict == oracle, (x, y)
        assert checked > 800


def _collision_oracle(x, y, rr, rect, seg):
    """Sampling-based circle-vs-shapes test, independent of the package
    geometry helpers.  Returns (colliding, distance-to-boundary margin)."""
    x0, y0, x1, y1 = rect
    inside_rect = x0 <= x <= x1 and y0 <= y <= y1
    best = math.inf
    for i in range(2000):
        t = i / 1999
        for px, py in (
            (x0 + t * (x1 - x0), y0),
            (x0 + t * (x1 - x0), y1),
            (x0, y0 + t * (y1 - y0)),
            (x1, y0 + t * (y1 - y0)),
            (seg[0] + t * (seg[2] - seg[0]), seg[1] + t * (seg[3] - seg[1])),
        ):
            best = min(best, math.hypot(px - x, py - y))
    colliding = inside_rect or best < rr
    return colliding, abs(best - rr)


class TestDeterminism:
    def test_bitwise_replay_1000_steps(self):
        spec = ScenarioSpec(
            name="replay",
            bounds=(0.0, 0.0, 10.0, 10.0),
            obstacles=tuple(ObstacleSpec(radius=0.3, max_speed=1.5) for _ in range(4)),
            robot_start=(5.0, 5.0, 0.0),
            goal=(9.5, 9.5),
            seed=99,
        )
        a = spawn(spec)
        b = a.copy()
        actions = np.random.default_rng(1).uniform(-1, 1, (1000, 3))
        for act in actions:
            step(a, act)
            step(b, act)
            assert np.array_equal(a.robot.pose, b.robot.pose)
            assert np.array_equal(a.obstacle_pos, b.obstacle_pos)
            assert np.array_equal(a.obstacle_heading, b.obstacle_heading)
        assert a.sim_time == b.sim_time

    def test_obstacle_speed_bounded(self):
        spec = ScenarioSpec(
            name="speed",
            bounds=(0.0, 0.0, 10.0, 10.0),
            obstacles=(ObstacleSpec(radius=0.3, max_speed=1.2),),
            robot_start=(5.0, 5.0, 0.0),
            goal=(9.0, 9.0),
            seed=5,
        )
        w = spawn(spec)
        prev = w.obstacle_pos.copy()
        dt = CONTROL_DT
        for _ in range(1000):
            step(w, (0.0, 0.0, 0.0))
            moved = np.linalg.norm(w.obstacle_pos - prev, axis=1)
            assert np.all(moved <= 1.2 * dt + 1e-9)
            prev = w.obstacle_pos.copy()


def _step_oracle(world: WorldState, action, dt: float = CONTROL_DT) -> tuple[WorldState, str]:
    """The step with the np.clip clamp and numpy-scalar arithmetic, kept
    verbatim."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    a = np.clip(np.asarray(action, dtype=float), ACTION_LOW, ACTION_HIGH)
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


def _assert_same_world(a: WorldState, b: WorldState) -> None:
    for name in ("pose", "velocity"):
        assert getattr(a.robot, name).tobytes() == getattr(b.robot, name).tobytes(), name
    assert a.obstacle_pos.tobytes() == b.obstacle_pos.tobytes()
    assert a.obstacle_heading.tobytes() == b.obstacle_heading.tobytes()
    assert a.sim_time == b.sim_time
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


def _replay_spec(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name="replay",
        bounds=(0.0, 0.0, 10.0, 10.0),
        static_rects=((1.0, 1.0, 2.0, 2.5),),
        static_segments=((7.0, 1.0, 9.0, 1.5),),
        obstacles=(ObstacleSpec(radius=0.3, max_speed=1.5), ObstacleSpec(radius=0.6, max_speed=0.8, resample_prob=0.5)),
        robot_start=(5.0, 5.0, 0.0),
        goal=(9.0, 9.0),
        seed=seed,
    )


# Actions with NaN, +-inf, -0.0 and values past the limits, so the clamp's
# every branch is taken.
_actions = st.lists(
    st.one_of(st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.5, -1.5])),
    min_size=3, max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(_actions, min_size=1, max_size=12))
def test_step_matches_oracle_bit_for_bit(seed, actions):
    a = spawn(_replay_spec(seed))
    b = a.copy()
    for action in actions:
        assert step(a, action)[1] == _step_oracle(b, action)[1]
        _assert_same_world(a, b)


def test_step_nan_pose_bits_do_not_drift():
    """A NaN pose meeting a NaN action of the other sign: the pose takes
    the same NaN on every call, also after the interpreter has specialised
    step's float ops (after 8 calls), and the same NaN as the oracle."""
    negative_nan = -math.nan
    payload_nan = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes(), dtype=float)[0]
    for _ in range(20):
        a = spawn(_replay_spec(1))
        b = a.copy()
        for action in ([1.0, negative_nan, 0.0], [1.5, 0.5, payload_nan], [1.5, 0.5, -1.5]):
            step(a, action)
            _step_oracle(b, action)
            _assert_same_world(a, b)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["double-branch", "blind-alley", "rooms", "square"]), st.integers(0, 10_000),
       st.integers(0, 20), st.lists(st.tuples(st.floats(-1.0, 1.5), st.floats(-1.0, 1.0), st.floats(-2.0, 2.0)),
                                    min_size=1, max_size=40))
def test_bitwise_world_replay(name, seed, warmup, actions):
    """A copy taken after any prefix replays the original bit for bit:
    poses, obstacle states, RNG state and raycasts."""
    from navstack.scenarios import make_scenario

    world = spawn(make_scenario(name, seed))
    for action in actions[:warmup]:
        step(world, action)
    replica = world.copy()
    for action in actions:
        event_a, event_b = step(world, action)[1], step(replica, action)[1]
        assert event_a == event_b
        _assert_same_world(world, replica)
        assert raycast(world, 72, 6.0).tobytes() == raycast(replica, 72, 6.0).tobytes()


def test_shared_world_arrays_are_read_only():
    world = spawn(_replay_spec(3))
    replica = world.copy()
    shared = (world.segments, world.radii, *world.segment_terms)
    assert replica.segments is world.segments and replica.radii is world.radii
    assert all(x is y for x, y in zip(replica.segment_terms, world.segment_terms))
    for arr in shared:
        assert arr.size > 0
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    before = raycast(replica, 72, 6.0)
    step(world, (1.0, 0.0, 0.5))
    assert raycast(replica, 72, 6.0).tobytes() == before.tobytes()


def _check_collision_oracle(world: WorldState) -> bool:
    """The check that walked every static shape on every call, kept
    verbatim."""
    x, y, _ = world.robot.pose
    rr = world.spec.robot_radius
    for r in world.spec.static_rects:
        if point_rect_distance(x, y, r) < rr:
            return True
    for ax, ay, bx, by in world.spec.static_segments:
        if point_segment_distance(x, y, ax, ay, bx, by) < rr:
            return True
    for i, ob in enumerate(world.spec.obstacles):
        px, py = world.obstacle_pos[i]
        if math.hypot(x - px, y - py) < rr + ob.radius:
            return True
    return False


_pose_coord = st.one_of(
    st.floats(-1.0, 11.0), st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 1e300])
)
_moves = st.lists(
    st.one_of(
        st.tuples(st.just("jump"), _pose_coord, _pose_coord),
        st.tuples(st.just("nudge"), st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
        st.tuples(st.just("toward"), st.integers(0, 7), st.floats(0.0, 1.2)),
        st.tuples(st.just("walkers"), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
        st.tuples(st.just("copy"), st.booleans(), st.just(0)),
    ),
    min_size=1, max_size=30,
)


def _nearest_static_point(spec: ScenarioSpec, k: int, x: float, y: float):
    """The point of static shape k (mod the shape count) nearest to (x, y),
    or None without shapes: moving towards it makes the clearance bound tight."""
    shapes = [("rect", r) for r in spec.static_rects] + [("seg", s) for s in spec.static_segments]
    if not shapes:
        return None
    kind, (x0, y0, x1, y1) = shapes[k % len(shapes)]
    if kind == "rect":
        return min(max(x, x0), x1), min(max(y, y0), y1)
    ex, ey = x1 - x0, y1 - y0
    ll = ex * ex + ey * ey
    u = 0.0 if ll <= 0.0 else min(1.0, max(0.0, ((x - x0) * ex + (y - y0) * ey) / ll))
    return x0 + u * ex, y0 + u * ey


@settings(max_examples=300, deadline=None)
@given(raycast_worlds(), _moves)
def test_check_collision_matches_oracle(case, moves):
    """Poses set directly between calls (jumps anywhere, NaN and inf
    included; small nudges; moves towards a static shape, where the
    clearance bound is tight), walkers moved under a stored bound, and
    copies that share it: every verdict equals the full walk's."""
    world = case[0]
    for kind, a, b in moves:
        x, y, th = world.robot.pose.tolist()
        if kind == "jump":
            world.robot.pose[:] = (a, b, th)
        elif kind == "nudge":
            world.robot.pose[:] = (x + a, y + b, th)
        elif kind == "toward":
            target = _nearest_static_point(world.spec, a, x, y)
            if target is not None and x == x and y == y:
                world.robot.pose[:] = (x + b * (target[0] - x), y + b * (target[1] - y), th)
        elif kind == "walkers":
            world.obstacle_pos += (a, b)
        else:
            replica = world.copy()
            assert replica.clearance is world.clearance
            if a:
                world = replica
        with np.errstate(invalid="ignore", over="ignore"):  # the oracle's numpy scalars meet inf and NaN
            want = _check_collision_oracle(world)
        assert check_collision(world) == want
        assert check_collision(world) == want  # may skip on the bound just stored


def _wall_world(pose=(2.0, 5.0), rects=((6.0, 0.0, 6.4, 10.0),), segments=((1.0, 1.0, 7.0, 4.0),)) -> WorldState:
    spec = ScenarioSpec(
        name="wall",
        bounds=(0.0, 0.0, 10.0, 10.0),
        static_rects=rects,
        static_segments=segments,
        obstacles=(ObstacleSpec(radius=0.5, max_speed=0.0),),
        robot_start=(*pose, 0.0),
        goal=(1.0, 9.0),
    )
    return WorldState(
        spec=spec,
        robot=RobotState(np.array([*pose, 0.0]), np.zeros(3)),
        obstacle_pos=np.array([[2.0, 8.0]]),
        obstacle_heading=np.zeros(1),
        sim_time=0.0,
        rng=np.random.default_rng(0),
    )


def _count_static_walks(monkeypatch) -> list:
    calls = []
    full_walk = world_module.point_static_clearance

    def counted(spec, x, y):
        calls.append((x, y))
        return full_walk(spec, x, y)

    monkeypatch.setattr(world_module, "point_static_clearance", counted)
    return calls


def test_clearance_bound_skips_the_static_walk(monkeypatch):
    calls = _count_static_walks(monkeypatch)
    world = _wall_world()
    assert world.clearance is None
    assert not check_collision(world)
    assert len(calls) == 1
    d = world_module.point_static_clearance(world.spec, 2.0, 5.0)
    assert world.clearance == (2.0, 5.0, d)
    world.robot.pose[:2] = (2.1, 5.05)
    assert not check_collision(world)
    assert len(calls) == 2  # the explicit call above; the check skipped
    assert world.clearance == (2.0, 5.0, d)


@pytest.mark.parametrize("bound", [None, (math.nan, 5.0, 3.0), (2.0, 5.0, math.nan), (math.inf, 5.0, math.inf)])
def test_nan_or_missing_bound_walks_in_full(monkeypatch, bound):
    """A missing bound, or one whose test reads NaN, never skips: the robot
    sits inside the rect and the full walk reports it."""
    calls = _count_static_walks(monkeypatch)
    world = _wall_world(pose=(6.2, 5.0))
    world.clearance = bound
    assert check_collision(world)
    assert calls == [(6.2, 5.0)]


def test_nan_pose_then_pose_inside_a_rect_collides():
    """A NaN pose measures an infinite clearance (every distance is NaN and
    ignored); the next, finite pose must not skip on that bound."""
    world = _wall_world()
    world.robot.pose[:2] = (math.nan, math.nan)
    assert not check_collision(world) and not _check_collision_oracle(world)
    assert world.clearance[2] == math.inf
    world.robot.pose[:2] = (6.2, 5.0)
    assert _check_collision_oracle(world)
    assert check_collision(world)
    assert check_collision(world.copy())


def test_bound_margin_covers_rounding():
    """A step straight towards a slanted segment: the bound less the step,
    d0 - h, rounds to just above the robot radius, while the full walk at
    the new pose rounds to just below it.  Only the margin keeps the check
    from skipping into a missed collision."""
    x0, y0 = 4.866700956202363, 5.199488797179862
    x1, y1 = 5.638992205183848, 3.654906299216892
    seg = (1.0, 1.0, 7.0, 4.0)
    rr = ROBOT_RADIUS
    d0 = point_segment_distance(x0, y0, *seg)
    assert d0 - math.hypot(x1 - x0, y1 - y0) > rr
    assert point_segment_distance(x1, y1, *seg) < rr
    world = _wall_world(pose=(x0, y0), rects=(), segments=(seg,))
    assert not check_collision(world)
    assert world.clearance == (x0, y0, d0)
    world.robot.pose[:2] = (x1, y1)
    assert _check_collision_oracle(world)
    assert check_collision(world)


def test_colliding_pose_keeps_the_older_bound():
    """A colliding pose's bound could never skip, so neither a static nor a
    walker collision replaces the stored one."""
    world = _wall_world()
    assert not check_collision(world)
    bound = world.clearance
    for pose in ((6.2, 5.0), (2.0, 7.6)):  # inside the rect; touching the walker
        world.robot.pose[:2] = pose
        assert check_collision(world)
        assert world.clearance is bound
    world.robot.pose[:2] = (2.2, 5.0)
    assert not check_collision(world)
    assert world.clearance is bound  # skipped on the kept bound


def _advance_obstacles_oracle(world: WorldState, dt: float) -> None:
    """The walker step that read and wrote the arrays element by element,
    kept verbatim."""
    n = world.obstacle_pos.shape[0]
    if n == 0:
        return
    specs = world.spec.obstacles
    rng = world.rng
    resample = rng.random(n)
    for i, ob in enumerate(specs):
        if resample[i] < ob.resample_prob:
            world.obstacle_heading[i] = rng.uniform(0.0, 2.0 * math.pi)
        h = world.obstacle_heading[i]
        px = world.obstacle_pos[i, 0] + ob.max_speed * math.cos(h) * dt
        py = world.obstacle_pos[i, 1] + ob.max_speed * math.sin(h) * dt
        region = ob.region if ob.region is not None else world.spec.bounds
        x0, y0, x1, y1 = region
        hx, hy = math.cos(h), math.sin(h)
        if px < x0 + ob.radius or px > x1 - ob.radius:
            hx = -hx
            px = min(max(px, x0 + ob.radius), x1 - ob.radius)
        if py < y0 + ob.radius or py > y1 - ob.radius:
            hy = -hy
            py = min(max(py, y0 + ob.radius), y1 - ob.radius)
        world.obstacle_pos[i] = (px, py)
        world.obstacle_heading[i] = math.atan2(hy, hx)


@st.composite
def walker_worlds(draw):
    """0-5 walkers with their own speeds (NaN included: a scenario file may
    hold one), resample odds and regions (some narrower than a step, so
    both walls reflect), placed anywhere."""
    obstacles, positions = [], []
    for _ in range(draw(st.integers(0, 5))):
        radius = draw(st.floats(0.05, 1.0))
        region = None
        if draw(st.booleans()):
            x0, y0 = draw(st.floats(0.0, 8.0)), draw(st.floats(0.0, 8.0))
            region = (x0, y0, x0 + draw(st.floats(0.0, 3.0)), y0 + draw(st.floats(0.0, 3.0)))
        obstacles.append(ObstacleSpec(
            radius=radius, max_speed=draw(st.one_of(st.floats(0.0, 20.0), st.just(math.nan))),
            resample_prob=draw(st.sampled_from([0.0, 0.05, 0.5, 1.0])), region=region,
        ))
        positions.append((draw(_coord), draw(_coord)))
    spec = ScenarioSpec(name="walkers", bounds=(0.0, 0.0, 10.0, 10.0), obstacles=tuple(obstacles))
    return WorldState(
        spec=spec,
        robot=RobotState(np.array([5.0, 5.0, 0.0]), np.zeros(3)),
        obstacle_pos=np.array(positions, dtype=float).reshape(-1, 2),
        obstacle_heading=np.array([draw(st.floats(-10.0, 10.0)) for _ in obstacles]),
        sim_time=0.0,
        rng=np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
    )


@settings(max_examples=200, deadline=None)
@given(walker_worlds(), st.integers(1, 40), st.sampled_from([CONTROL_DT, 0.1, 1.0]))
def test_advance_obstacles_matches_oracle_bit_for_bit(world, steps, dt):
    """Positions, headings and the RNG state, after every step."""
    replica = world.copy()
    for _ in range(steps):
        _advance_obstacles(world, dt)
        _advance_obstacles_oracle(replica, dt)
        assert world.obstacle_pos.tobytes() == replica.obstacle_pos.tobytes()
        assert world.obstacle_heading.tobytes() == replica.obstacle_heading.tobytes()
        assert world.rng.bit_generator.state == replica.rng.bit_generator.state
