import heapq
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import binary_dilation

from navstack import world as sim
from navstack.geometry import supercover_cells
from navstack.mapping import OccupancyGrid, P_MAX, P_MIN, integrate_scan
from navstack.planning import (
    _NEIGHBORS,
    GridPath,
    PlanGrid,
    SQRT2,
    _disk_structure,
    _segment_blocked,
    _snap_start,
    blocked_mask,
    distance_field,
    extract_waypoint,
    inflate_occupied,
    plan_grid,
    plan_path,
)
from navstack.scenarios import make_scenario
from navstack.world import ROBOT_RADIUS

RES = 0.1


def grid_from_mask(occupied=None, unknown=None, rows=20, cols=20):
    p = np.full((rows, cols), P_MIN)
    if occupied is not None:
        p[occupied] = P_MAX
    if unknown is not None:
        p[unknown] = 0.5
    return OccupancyGrid(RES, (0.0, 0.0), p)


def random_grid(seed, rows=50, cols=50, p_occ=0.18, p_unk=0.08):
    rng = np.random.default_rng(seed)
    draw = rng.uniform(0, 1, (rows, cols))
    p = np.full((rows, cols), P_MIN)
    p[draw < p_occ] = P_MAX
    p[(draw >= p_occ) & (draw < p_occ + p_unk)] = 0.5
    return OccupancyGrid(RES, (0.0, 0.0), p)


def _inflate_occupied_oracle(grid, robot_radius):
    """The scipy dilation that ``inflate_occupied`` made before ``dilate``."""
    occ = grid.p > 0.52
    structure = _disk_structure(robot_radius / grid.resolution)
    if structure.shape == (1, 1):
        return occ
    return binary_dilation(occ, structure=structure)


@settings(max_examples=300, deadline=None)
@given(
    st.tuples(st.integers(1, 24), st.integers(1, 24)),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random", "empty", "full"]),
    st.one_of(st.floats(0.0, 0.099), st.floats(0.0, 0.8), st.sampled_from([0.1, 0.12, 0.2, 0.3, 0.5])),
)
@example((17, 3), 0, "random", 0.3)  # fewer columns than the disk
@example((3, 17), 0, "random", 0.5)  # fewer rows than the disk
@example((1, 1), 0, "full", 0.3)
@example((1, 1), 0, "empty", 0.05)   # a radius under one cell: a (1, 1) structure
def test_inflate_occupied_matches_scipy(shape, seed, fill, robot_radius):
    rng = np.random.default_rng(seed)
    occupied = rng.random(shape) < rng.random() if fill == "random" else np.full(shape, fill == "full")
    g = grid_from_mask(occupied, rows=shape[0], cols=shape[1])
    got = inflate_occupied(g, robot_radius)
    want = _inflate_occupied_oracle(g, robot_radius)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def oracle_blocked(grid, robot_radius=0.3):
    """Independent inflation: occupied or unknown or within the radius of an
    occupied cell (center distance, all-pairs loop)."""
    occ = grid.p > 0.52
    unk = (grid.p >= 0.48) & (grid.p <= 0.52)
    rows, cols = occ.shape
    rad = robot_radius / grid.resolution
    n = int(math.floor(rad))
    out = occ | unk
    for r, c in np.argwhere(occ):
        for dr in range(-n, n + 1):
            for dc in range(-n, n + 1):
                if dr * dr + dc * dc <= rad * rad + 1e-9:
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < rows and 0 <= cc < cols:
                        out[rr, cc] = True
    return out


def dijkstra_oracle(blocked, start, target):
    """Reference shortest path; returns (straight, diagonal) step counts or
    None when unreachable."""
    rows, cols = blocked.shape
    if blocked[start] or blocked[target]:
        return None
    dist = {start: 0.0}
    parent = {}
    heap = [(0.0, 0, start)]
    tie = 0
    seen = set()
    while heap:
        d, _, cell = heapq.heappop(heap)
        if cell in seen:
            continue
        seen.add(cell)
        if cell == target:
            break
        r, c = cell
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                nr, nc = r + dr, c + dc
                if not (0 <= nr < rows and 0 <= nc < cols) or blocked[nr, nc]:
                    continue
                nd = d + (SQRT2 if dr and dc else 1.0)
                if (nr, nc) not in dist or nd < dist[(nr, nc)]:
                    dist[(nr, nc)] = nd
                    parent[(nr, nc)] = cell
                    tie += 1
                    heapq.heappush(heap, (nd, tie, (nr, nc)))
    if target not in dist:
        return None
    straight = diag = 0
    cell = target
    while cell != start:
        prev = parent[cell]
        if prev[0] != cell[0] and prev[1] != cell[1]:
            diag += 1
        else:
            straight += 1
        cell = prev
    return straight, diag


def _octile(a, b):
    dr = abs(a[0] - b[0])
    dc = abs(a[1] - b[1])
    lo, hi = (dr, dc) if dr < dc else (dc, dr)
    return (hi - lo) + lo * SQRT2


def plan_path_oracle(grid, start, target, blocked, closed=None):
    """Reference planner: A* over (row, col) tuples with g_score, parent and
    closed containers and its own bounds test; plan_path must match its
    cells and length exactly.  ``closed``, when given, is the set it fills
    with the cells it expands."""
    if not (grid.in_grid(start) and grid.in_grid(target)):
        return None
    snapped = _snap_start(blocked, start)
    if snapped is None or blocked[target[0], target[1]]:
        return None
    start = snapped
    if start == target:
        return GridPath([start], 0.0)

    rows, cols = blocked.shape
    tr, tc = target
    g_score = {start: 0.0}
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    counter = 0
    h0 = _octile(start, target)
    frontier: list[tuple[float, int, tuple[int, int]]] = [(h0, counter, start)]
    closed = set() if closed is None else closed
    while frontier:
        f, _, cell = heapq.heappop(frontier)
        if cell == target:
            break
        if cell in closed:
            continue
        closed.add(cell)
        g = g_score[cell]
        r, c = cell
        for dr, dc, cost in _NEIGHBORS:
            nr, nc = r + dr, c + dc
            if not (0 <= nr < rows and 0 <= nc < cols) or blocked[nr, nc]:
                continue
            ncell = (nr, nc)
            ng = g + cost
            if ncell not in g_score or ng < g_score[ncell]:
                g_score[ncell] = ng
                parent[ncell] = cell
                counter += 1
                heapq.heappush(frontier, (ng + _octile(ncell, target), counter, ncell))
    if target not in g_score:
        return None
    cells = [target]
    while cells[-1] != start:
        cells.append(parent[cells[-1]])
    cells.reverse()
    path = GridPath(cells, 0.0)
    straight, diagonal = path.step_counts()
    path.length = (straight + diagonal * SQRT2) * grid.resolution
    return path


def snap_start_oracle(blocked, start, window=3):
    """Reference start snapping: scan the window, keep the smallest
    (squared distance, row, col) key."""
    r0, c0 = start
    if not blocked[r0, c0]:
        return start
    best = None
    best_key = None
    rows, cols = blocked.shape
    for dr in range(-window, window + 1):
        for dc in range(-window, window + 1):
            r, c = r0 + dr, c0 + dc
            if 0 <= r < rows and 0 <= c < cols and not blocked[r, c]:
                key = (dr * dr + dc * dc, r, c)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (r, c)
    return best


def random_blocked(seed, rows, cols, p_blocked):
    return np.random.default_rng(seed).uniform(0, 1, (rows, cols)) < p_blocked


def snapshot(grid, blocked):
    """A snapshot of ``grid`` whose blocked cells are the given mask; the
    searches never read ``occ``."""
    return PlanGrid(grid, blocked, blocked)


def assert_plan_matches_oracle(grid, start, target, blocked):
    """plan_path against the oracle on a snapshot blocked by ``blocked``."""
    path = plan_path(snapshot(grid, blocked), start, target)
    expected = plan_path_oracle(grid, start, target, blocked)
    if expected is None:
        assert path is None
    else:
        assert path.cells == expected.cells
        assert path.length == expected.length
    return path


class TestPlanPath:
    def test_single_cell(self):
        g = grid_from_mask()
        p = plan_path(plan_grid(g, ROBOT_RADIUS), (5, 5), (5, 5))
        assert p.cells == [(5, 5)]
        assert p.length == 0.0

    def test_empty_grid_corner_to_corner_matches_oracle(self):
        g = grid_from_mask()
        plan = plan_grid(g, ROBOT_RADIUS)
        p = plan_path(plan, (0, 0), (19, 19))
        counts = dijkstra_oracle(plan.blocked, (0, 0), (19, 19))
        assert p.step_counts() == counts
        assert p.length == (counts[0] + counts[1] * SQRT2) * RES
        assert p.length == pytest.approx(19 * SQRT2 * RES)

    def test_sealed_target_unreachable(self):
        g = grid_from_mask()
        g.p[9:12, 9:12] = P_MAX
        g.p[10, 10] = P_MIN
        assert plan_path(plan_grid(g, ROBOT_RADIUS), (0, 0), (10, 10)) is None

    def test_unknown_blocks_planning(self):
        g = grid_from_mask()
        g.p[:, 10] = 0.5
        assert plan_path(plan_grid(g, ROBOT_RADIUS), (5, 2), (5, 18)) is None

    def test_matches_dijkstra_oracle_on_random_grids(self):
        solved = 0
        for seed in range(30):
            g = random_grid(seed, rows=30, cols=30, p_occ=0.12)
            plan = plan_grid(g, 0.12)
            blocked = plan.blocked
            free = np.argwhere(~blocked)
            if len(free) < 2:
                continue
            start = tuple(free[0])
            reach = distance_field(plan, start)
            reachable = [tuple(rc) for rc in free if np.isfinite(reach[tuple(rc)])]
            target = max(reachable, key=lambda rc: reach[rc])
            p = plan_path(plan, start, target)
            counts = dijkstra_oracle(blocked, start, target)
            assert p is not None and counts is not None
            assert p.step_counts() == counts
            assert p.length == (counts[0] + counts[1] * SQRT2) * RES
            solved += 1
            unreachable = [tuple(rc) for rc in free if np.isinf(reach[tuple(rc)])]
            if unreachable:
                assert plan_path(plan, start, unreachable[0]) is None
                assert dijkstra_oracle(blocked, start, unreachable[0]) is None
        assert solved >= 20

    def test_inflation_matches_independent_oracle(self):
        for seed in (1, 2, 3):
            g = random_grid(seed, rows=25, cols=25)
            for radius in (ROBOT_RADIUS, 0.12):
                plan = plan_grid(g, radius)
                assert np.array_equal(plan.occ, _inflate_occupied_oracle(g, radius))
                assert np.array_equal(plan.blocked, oracle_blocked(g, radius))
                assert np.array_equal(blocked_mask(g, inflate_occupied(g, radius)), oracle_blocked(g, radius))

    def test_path_cells_free_and_uninflated(self):
        g = random_grid(7, p_occ=0.1)
        plan = plan_grid(g, 0.12)
        blocked = plan.blocked
        free = np.argwhere(~blocked)
        p = plan_path(plan, tuple(free[0]), tuple(free[-1]))
        if p is not None:
            for cell in p.cells:
                assert not blocked[cell]
            for a, b in zip(p.cells, p.cells[1:]):
                assert max(abs(a[0] - b[0]), abs(a[1] - b[1])) == 1

    def test_degenerate_start_snaps_within_three_cells(self):
        g = grid_from_mask()
        g.p[5, 5] = P_MAX  # the robot's own cell went occupied
        p = plan_path(plan_grid(g, ROBOT_RADIUS), (5, 5), (15, 15))
        assert p is not None
        r, c = p.cells[0]
        assert max(abs(r - 5), abs(c - 5)) <= 3


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 30),
    st.integers(1, 30),
    st.floats(0.0, 0.6),
    st.tuples(st.integers(0, 31), st.integers(0, 31)),
    st.tuples(st.integers(0, 31), st.integers(0, 31)),
)
@example(0, 1, 1, 0.0, (1, 1), (1, 1))              # 1x1 grid, start == target
@example(0, 1, 1, 1.0, (1, 1), (1, 1))              # 1x1 grid, blocked
@example(1, 20, 20, 0.0, (1, 1), (20, 20))          # border corners, open grid
@example(2, 20, 20, 0.0, (20, 1), (1, 20))
@example(3, 15, 25, 0.3, (8, 13), (8, 13))          # start == target on a cluttered grid
@example(4, 15, 25, 0.55, (1, 25), (15, 1))         # dense clutter: often unreachable
@example(5, 10, 10, 0.2, (0, 4), (11, 4))           # start and target just outside the grid
def test_plan_path_matches_oracle_on_random_grids(seed, rows, cols, p_blocked, start, target):
    # coordinates map to -1..rows and -1..cols: mostly on the grid, sometimes just off it
    start = (start[0] % (rows + 2) - 1, start[1] % (cols + 2) - 1)
    target = (target[0] % (rows + 2) - 1, target[1] % (cols + 2) - 1)
    g = grid_from_mask(rows=rows, cols=cols)
    blocked = random_blocked(seed, rows, cols, p_blocked)
    assert_plan_matches_oracle(g, start, target, blocked)


class CountingOpen(list):
    """A search's open flags that count how often each one is read."""

    def __init__(self, flags):
        super().__init__(flags)
        self.reads = [0] * len(flags)

    def __getitem__(self, j):
        self.reads[j] += 1
        return super().__getitem__(j)


def counting_snapshot(grid, blocked):
    plan = snapshot(grid, blocked)
    object.__setattr__(plan, "is_open", CountingOpen(plan.is_open))
    return plan


def neighbour_counts(flags, width):
    """For each flat index of a padded grid, how many of its 8 neighbours
    have their flag set."""
    counts = [0] * len(flags)
    for j in range(len(flags)):
        for dr, dc, _ in _NEIGHBORS:
            i = j + dr * width + dc
            if 0 <= i < len(flags) and flags[i]:
                counts[j] += 1
    return counts


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 30),
    st.integers(1, 30),
    st.floats(0.0, 0.6),
    st.tuples(st.integers(0, 29), st.integers(0, 29)),
    st.tuples(st.integers(0, 29), st.integers(0, 29)),
)
@example(0, 3, 9, 0.5, (0, 5), (0, 0))  # a stale heap entry of a closed cell is popped before the target
def test_plan_path_expands_each_cell_once(seed, rows, cols, p_blocked, start, target):
    """A* expands the cells the oracle closes, each once, so a cell's open
    flag is read at most once per closed neighbour."""
    start, target = (start[0] % rows, start[1] % cols), (target[0] % rows, target[1] % cols)
    g = grid_from_mask(rows=rows, cols=cols)
    blocked = random_blocked(seed, rows, cols, p_blocked)
    plan = counting_snapshot(g, blocked)
    closed = set()
    expected = plan_path_oracle(g, start, target, blocked, closed)
    path = plan_path(plan, start, target)
    assert (path is None) == (expected is None)
    width = cols + 2
    flags = [False] * len(plan.is_open)
    for r, c in closed:
        flags[(r + 1) * width + c + 1] = True
    for j, (reads, bound) in enumerate(zip(plan.is_open.reads, neighbour_counts(flags, width))):
        assert reads <= bound, divmod(j, width)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 12),
    st.integers(1, 12),
    st.floats(0.0, 1.0),
    st.tuples(st.integers(0, 11), st.integers(0, 11)),
)
def test_snap_start_matches_oracle(seed, rows, cols, p_blocked, start):
    blocked = random_blocked(seed, rows, cols, p_blocked)
    start = (start[0] % rows, start[1] % cols)
    assert _snap_start(blocked, start) == snap_start_oracle(blocked, start)


class TestPlanPathOracleCases:
    def test_blocked_target(self):
        g = grid_from_mask()
        blocked = np.zeros((20, 20), dtype=bool)
        blocked[12, 15] = True
        assert assert_plan_matches_oracle(g, (2, 3), (12, 15), blocked) is None

    def test_snapped_start(self):
        g = grid_from_mask()
        blocked = np.zeros((20, 20), dtype=bool)
        blocked[6:12, 6:12] = True  # nearest open cell is 3 away
        path = assert_plan_matches_oracle(g, (8, 8), (17, 2), blocked)
        assert path.cells[0] == (5, 8)

    def test_unreachable_target(self):
        g = grid_from_mask()
        blocked = np.zeros((20, 20), dtype=bool)
        blocked[:, 10] = True
        assert assert_plan_matches_oracle(g, (5, 2), (5, 18), blocked) is None

    def test_border_cells(self):
        g = random_grid(4, rows=17, cols=23)
        blocked = random_blocked(4, 17, 23, 0.2)
        blocked[0, :] = blocked[-1, :] = blocked[:, 0] = blocked[:, -1] = False
        corners = [(0, 0), (0, 22), (16, 22), (16, 0), (0, 11), (8, 0)]
        for start in corners:
            for target in corners:
                assert assert_plan_matches_oracle(g, start, target, blocked) is not None

    def test_random_grids_reach_far_targets(self):
        for seed in range(20):
            g = random_grid(seed, rows=40, cols=40, p_occ=0.1)
            blocked = plan_grid(g, 0.12).blocked
            free = [tuple(rc) for rc in np.argwhere(~blocked)]
            assert_plan_matches_oracle(g, free[0], free[-1], blocked)
            assert_plan_matches_oracle(g, free[-1], free[len(free) // 2], blocked)


def distance_field_oracle(grid, start, blocked):
    """Reference flood: heap Dijkstra over (row, col) cells with bounds
    tests and numpy indexing; distance_field must match it bit for bit."""
    rows, cols = blocked.shape
    dist = np.full((rows, cols), np.inf)
    snapped = _snap_start(blocked, start) if grid.in_grid(start) else None
    if snapped is None:
        return dist
    start = snapped
    dist[start] = 0.0
    counter = 0
    heap = [(0.0, counter, start)]
    while heap:
        d, _, (r, c) = heapq.heappop(heap)
        if d > dist[r, c]:
            continue
        for dr, dc, cost in _NEIGHBORS:
            nr, nc = r + dr, c + dc
            if not (0 <= nr < rows and 0 <= nc < cols) or blocked[nr, nc]:
                continue
            nd = d + cost
            if nd < dist[nr, nc]:
                dist[nr, nc] = nd
                counter += 1
                heapq.heappush(heap, (nd, counter, (nr, nc)))
    return dist * grid.resolution


def assert_field_matches_oracle(grid, start, blocked):
    """The flood's ``array()`` against the oracle and every ``flood[r, c]``
    against its array cell, both bit for bit, on a snapshot blocked by
    ``blocked``; returns the array."""
    flood = distance_field(snapshot(grid, blocked), start)
    field = flood.array()
    assert field.tobytes() == distance_field_oracle(grid, start, blocked).tobytes()
    rows, cols = field.shape
    reads = np.array([[flood[r, c] for c in range(cols)] for r in range(rows)]).reshape(rows, cols)
    assert reads.tobytes() == field.tobytes()
    return field


class TestDistanceField:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 30),
        st.integers(1, 30),
        st.floats(0.0, 0.6),
        st.tuples(st.integers(0, 29), st.integers(0, 29)),
        st.tuples(st.integers(0, 29), st.integers(0, 29)),
    )
    def test_matches_plan_lengths(self, seed, rows, cols, p_blocked, start, target):
        g = grid_from_mask(rows=rows, cols=cols)
        blocked = random_blocked(seed, rows, cols, p_blocked)
        start = (start[0] % rows, start[1] % cols)
        target = (target[0] % rows, target[1] % cols)
        plan = snapshot(g, blocked)
        field = distance_field(plan, start)
        p = plan_path(plan, start, target)
        if p is None:
            assert np.isinf(field[target])
        else:
            assert field[target] == pytest.approx(p.length, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 30),
        st.integers(1, 30),
        st.floats(0.0, 0.6),
        st.tuples(st.integers(0, 29), st.integers(0, 29)),
    )
    @example(0, 4, 5, 0.5, (0, 0))  # popping the straight queue first would settle a cell twice
    def test_each_reached_cell_expands_once(self, seed, rows, cols, p_blocked, start):
        """The merge rule settles each reached cell once, so a cell's open
        flag is read at most once per reached neighbour."""
        g = grid_from_mask(rows=rows, cols=cols)
        blocked = random_blocked(seed, rows, cols, p_blocked)
        plan = counting_snapshot(g, blocked)
        flood = distance_field(plan, (start[0] % rows, start[1] % cols))
        reached = [math.isfinite(d) for d in flood.flat]
        for j, (reads, bound) in enumerate(zip(plan.is_open.reads, neighbour_counts(reached, cols + 2))):
            assert reads <= bound, divmod(j, cols + 2)

    def test_unreachable_is_inf(self):
        g = grid_from_mask()
        g.p[:, 10] = P_MAX
        field = distance_field(plan_grid(g, ROBOT_RADIUS), (5, 2))
        assert np.isinf(field[5, 18])

    def test_border_starts_match_oracle(self):
        g = random_grid(4, rows=17, cols=23, p_occ=0.1)
        blocked = blocked_mask(g, inflate_occupied(g, 0.05))
        blocked[0, :] = blocked[-1, :] = blocked[:, 0] = blocked[:, -1] = False  # open border row and column
        for start in [(0, 0), (0, 11), (16, 22), (8, 0), (16, 5), (3, 22)]:
            field = assert_field_matches_oracle(g, start, blocked)
            assert field[start] == 0.0

    def test_snapped_start_matches_oracle(self):
        g = grid_from_mask()
        blocked = np.zeros((20, 20), dtype=bool)
        blocked[6:12, 6:12] = True
        field = assert_field_matches_oracle(g, (8, 8), blocked)  # nearest open cell is 3 away
        assert field[5, 8] == 0.0
        assert np.isfinite(field).sum() == (~blocked).sum()
        blocked[5:12, 5:12] = True
        assert np.isinf(assert_field_matches_oracle(g, (8, 8), blocked)).all()  # 4 away: sealed

    def test_start_outside_grid_is_all_inf(self):
        g = grid_from_mask()
        blocked = np.zeros((20, 20), dtype=bool)
        for start in [(-1, 3), (3, 20), (20, 20)]:
            assert np.isinf(assert_field_matches_oracle(g, start, blocked)).all()

    def test_sealed_start_reaches_only_itself(self):
        g = grid_from_mask()
        blocked = np.zeros((20, 20), dtype=bool)
        blocked[9:12, 9:12] = True
        blocked[10, 10] = False
        field = assert_field_matches_oracle(g, (10, 10), blocked)
        assert field[10, 10] == 0.0
        assert np.isfinite(field).sum() == 1

    @pytest.mark.parametrize("is_blocked", [False, True])
    def test_one_cell_grid(self, is_blocked):
        g = grid_from_mask(rows=1, cols=1)
        field = assert_field_matches_oracle(g, (0, 0), np.array([[is_blocked]]))
        assert field.shape == (1, 1)
        assert np.isinf(field[0, 0]) == is_blocked


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 30),
    st.integers(1, 30),
    st.floats(0.0, 0.6),
    st.integers(-2, 31),
    st.integers(-2, 31),
)
def test_distance_field_matches_oracle_on_random_grids(seed, rows, cols, p_blocked, r, c):
    g = grid_from_mask(rows=rows, cols=cols)
    blocked = np.random.default_rng(seed).uniform(0, 1, (rows, cols)) < p_blocked
    assert_field_matches_oracle(g, (r, c), blocked)


def test_distance_field_matches_oracle_on_a_mapped_scenario():
    """Explore size: the 100 x 120 double-branch grid mapped by 300 scans
    from free poses in its lower half, so the branches stay partly unknown."""
    spec = make_scenario("double-branch", 0)
    world = sim.spawn(spec)
    g = OccupancyGrid.for_bounds(spec.bounds)
    rng = np.random.default_rng(0)
    scans = 0
    while scans < 300:
        x, y = rng.uniform(0.3, 11.7), rng.uniform(0.3, 5.0)
        if sim.point_static_clearance(spec, x, y) <= spec.robot_radius:
            continue
        world.robot.pose[:] = (x, y, rng.uniform(-math.pi, math.pi))
        integrate_scan(g, world.robot.pose, sim.raycast(world, 72, 6.0), 6.0)
        scans += 1
    assert g.p.shape == (100, 120)
    blocked = plan_grid(g, spec.robot_radius).blocked
    open_cell = g.world_to_cell(*spec.robot_start[:2])
    assert not blocked[open_cell]
    padded = np.pad(blocked, 1, constant_values=True)
    next_to_wall = [tuple(rc) for rc in np.argwhere(~blocked & padded[:-2, 1:-1])]
    snapping = [tuple(rc) for rc in np.argwhere(blocked & ~padded[2:, 1:-1])]
    for start in (open_cell, next_to_wall[len(next_to_wall) // 2], snapping[len(snapping) // 3]):
        field = assert_field_matches_oracle(g, start, blocked)
        assert np.isfinite(field).sum() > 2000
    assert blocked[start] and field[start] == np.inf  # the last start snapped to an open neighbour


def blocked_between(grid, a, b, occ):
    """extract_waypoint's sight test between two cell centers."""
    return _segment_blocked(grid, grid.cell_center(a), grid.cell_center(b), occ)


class TestLineOfSight:
    def test_same_cell(self):
        g = grid_from_mask()
        assert not blocked_between(g, (3, 3), (3, 3), inflate_occupied(g, ROBOT_RADIUS))
        g.p[3, 3] = P_MAX
        assert blocked_between(g, (3, 3), (3, 3), inflate_occupied(g, ROBOT_RADIUS))

    def test_occupied_cell_blocks(self):
        g = grid_from_mask()
        g.p[5, 10] = P_MAX
        plan = plan_grid(g, ROBOT_RADIUS)
        occ = plan.occ
        # inflation widens the wall, so look far enough around it
        assert blocked_between(g, (5, 2), (5, 18), occ)
        assert not blocked_between(g, (15, 2), (15, 18), occ)
        # along the row, the waypoint is the last cell before the inflated wall
        first_blocked = int(np.argmax(occ[5]))
        path = GridPath([(5, c) for c in range(2, 19)], 0.0)
        wp = extract_waypoint(path, plan, (*g.cell_center((5, 2)), 0.0))
        assert wp == g.cell_center((5, first_blocked - 1))

    def test_unknown_does_not_block(self):
        g = grid_from_mask()
        g.p[:, 8:12] = 0.5
        plan = plan_grid(g, ROBOT_RADIUS)
        assert not blocked_between(g, (5, 2), (5, 18), plan.occ)
        path = GridPath([(5, c) for c in range(2, 19)], 0.0)
        assert extract_waypoint(path, plan, (*g.cell_center((5, 2)), 0.0)) == g.cell_center((5, 18))

    def test_oracle_agreement_on_random_pairs(self):
        # dense sampling can only under-report the supercover; assert that a
        # clear verdict from the walk implies a clear verdict from sampling
        for seed in range(20):
            g = random_grid(seed, rows=25, cols=25, p_occ=0.1, p_unk=0.0)
            occ = inflate_occupied(g, ROBOT_RADIUS)
            rng = np.random.default_rng(seed + 100)
            for _ in range(20):
                a = (int(rng.integers(0, 25)), int(rng.integers(0, 25)))
                b = (int(rng.integers(0, 25)), int(rng.integers(0, 25)))
                if occ[a] or occ[b]:
                    continue
                if not blocked_between(g, a, b, occ):
                    assert not _sampled_los_blocked(g, occ, a, b)


def _sampled_los_blocked(grid, occ, a, b, n=3000):
    ax, ay = grid.cell_center(a)
    bx, by = grid.cell_center(b)
    for i in range(n + 1):
        t = i / n
        x = ax + t * (bx - ax)
        y = ay + t * (by - ay)
        cell = grid.world_to_cell(x, y)
        if grid.in_grid(cell) and occ[cell]:
            return True
    return False


class TestExtractWaypoint:
    def test_straight_corridor_takes_last_cell(self):
        g = grid_from_mask()
        path = GridPath([(5, c) for c in range(3, 15)], 0.0)
        wp = extract_waypoint(path, plan_grid(g, ROBOT_RADIUS), (0.35, 0.55, 0.0))
        assert wp == g.cell_center((5, 14))

    def test_single_cell_path(self):
        g = grid_from_mask()
        path = GridPath([(7, 7)], 0.0)
        assert extract_waypoint(path, plan_grid(g, ROBOT_RADIUS), (0.0, 0.0, 0.0)) == g.cell_center((7, 7))

    def test_l_shape_stops_before_corner(self):
        # wall spans rows 0..10 at column 10, gap below; path hooks around it
        g = grid_from_mask()
        g.p[0:11, 10] = P_MAX
        start_cell = (2, 2)
        target = (2, 18)
        plan = plan_grid(g, ROBOT_RADIUS)
        p = plan_path(plan, start_cell, target)
        assert p is not None
        pose = (*g.cell_center(start_cell), 0.0)
        wp = extract_waypoint(p, plan, pose)
        occ = inflate_occupied(g, ROBOT_RADIUS)
        # oracle: farthest path cell whose sampled segment stays clear
        best = None
        for cell in p.cells:
            if not _sampled_los_blocked(g, occ, start_cell, cell):
                best = cell
        assert wp == g.cell_center(best)

    def test_monotone_no_later_cell_is_visible(self):
        # the waypoint is the farthest visible path cell: every later cell
        # must fail the same line-of-sight predicate
        for seed in range(10):
            g = random_grid(seed, rows=25, cols=25, p_occ=0.08, p_unk=0.05)
            plan = plan_grid(g, 0.12)
            blocked, occ = plan.blocked, plan.occ
            free = np.argwhere(~blocked)
            if len(free) < 2:
                continue
            start, target = tuple(free[0]), tuple(free[-1])
            p = plan_path(plan, start, target)
            if p is None:
                continue
            pose = (*g.cell_center(start), 0.0)
            wp = extract_waypoint(p, plan, pose)
            chosen_idx = [i for i, c in enumerate(p.cells) if g.cell_center(c) == wp]
            assert chosen_idx
            for later in p.cells[chosen_idx[0] + 1:]:
                assert blocked_between(g, start, later, occ)


def _segment_blocked_oracle(grid, p0, p1, occ):
    """Reference sight test, with bounds from ``grid.rows`` and
    ``grid.cols`` at every cell; ``_segment_blocked`` must give its
    verdicts."""
    for r, c in supercover_cells(p0, p1, grid.origin, grid.resolution):
        if 0 <= r < grid.rows and 0 <= c < grid.cols and occ[r, c]:
            return True
    return False


def extract_waypoint_oracle(path, plan, current_pose):
    """The waypoint over ``_segment_blocked_oracle``; ``extract_waypoint``
    must return its center."""
    if not path.cells:
        raise ValueError("cannot extract a waypoint from an empty path")
    grid, occ = plan.grid, plan.occ
    p0 = (float(current_pose[0]), float(current_pose[1]))
    for cell in reversed(path.cells):
        center = grid.cell_center(cell)
        if not _segment_blocked_oracle(grid, p0, center, occ):
            return center
    return grid.cell_center(path.cells[0])


# a pose coordinate as a fraction of the grid's extent: inside, exactly on the border, or outside
_POSE_FRACTION = st.one_of(st.floats(-0.4, 1.4), st.sampled_from([0.0, 1.0]))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 20),
    st.integers(1, 20),
    st.floats(0.0, 0.5),
    st.tuples(_POSE_FRACTION, _POSE_FRACTION),
    st.lists(st.tuples(st.integers(0, 23), st.integers(0, 23)), min_size=1, max_size=8),
)
@example(1, 6, 6, 0.3, (-0.3, 0.5), [(5, 5), (0, 0)])  # the pose left of the grid
@example(2, 6, 6, 0.3, (1.0, 1.0), [(2, 2), (6, 7)])   # the pose on the far corner, a cell past it
def test_extract_waypoint_matches_oracle(seed, rows, cols, p_occ, pose, cells):
    """Sight lines from poses inside, on and outside the border, to path
    cells of which some lie outside the grid, so that lines leave it."""
    g = OccupancyGrid(RES, (-0.7, 1.3), np.full((rows, cols), P_MIN))
    occ = random_blocked(seed, rows, cols, p_occ)
    plan = snapshot(g, occ)
    x = g.origin[0] + pose[0] * cols * RES
    y = g.origin[1] + pose[1] * rows * RES
    path = GridPath([(r % (rows + 4) - 2, c % (cols + 4) - 2) for r, c in cells], 0.0)
    for cell in path.cells:
        center = g.cell_center(cell)
        assert _segment_blocked(g, (x, y), center, occ) == _segment_blocked_oracle(g, (x, y), center, occ)
    assert extract_waypoint(path, plan, (x, y, 0.0)) == extract_waypoint_oracle(path, plan, (x, y, 0.0))
