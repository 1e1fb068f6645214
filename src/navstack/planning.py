"""Grid path planning over occupancy snapshots and sparse waypoint extraction.

Planning runs 8-connected over free cells after inflating occupied cells by
the robot radius; unknown cells block planning but not line of sight (a
frontier target is by definition bordered by unknown space).  Both searches
are exact: A* under the octile heuristic (admissible and consistent for
unit/sqrt(2) steps) plans one path, and a heap-free Dijkstra flood with one
FIFO queue per step cost prices every cell from the start.
"""

from __future__ import annotations

import functools
import heapq
import math
from array import array
from collections import deque
from dataclasses import dataclass

import numpy as np

from .geometry import supercover_cells
from .mapping import OccupancyGrid, dilate, occupied_mask, unknown_mask
from .world import ROBOT_RADIUS

SQRT2 = math.sqrt(2.0)

_NEIGHBORS = (
    (-1, -1, SQRT2), (-1, 0, 1.0), (-1, 1, SQRT2),
    (0, -1, 1.0), (0, 1, 1.0),
    (1, -1, SQRT2), (1, 0, 1.0), (1, 1, SQRT2),
)


@dataclass
class GridPath:
    cells: list[tuple[int, int]]  # consecutive cells are 8-adjacent, start first
    length: float                 # meters, straight + sqrt(2) * diagonal steps

    def step_counts(self) -> tuple[int, int]:
        steps = list(zip(self.cells, self.cells[1:]))
        diagonal = sum(r0 != r1 and c0 != c1 for (r0, c0), (r1, c1) in steps)
        return len(steps) - diagonal, diagonal


def _disk_structure(radius_cells: float) -> np.ndarray:
    n = int(math.floor(radius_cells))
    if n <= 0:
        return np.ones((1, 1), dtype=bool)
    d = np.arange(-n, n + 1)
    return (d[:, None] ** 2 + d[None, :] ** 2) <= radius_cells ** 2 + 1e-9


@functools.lru_cache(maxsize=8)
def _disk_half_widths(radius_cells: float) -> tuple[int, ...]:
    """Each row of the disk is a centred column interval; its half-widths."""
    return tuple(int(k) // 2 for k in _disk_structure(radius_cells).sum(axis=1))


def inflate_occupied(grid: OccupancyGrid, robot_radius: float = ROBOT_RADIUS) -> np.ndarray:
    """Occupied cells grown by a circular kernel of the robot radius."""
    return dilate(occupied_mask(grid), _disk_half_widths(robot_radius / grid.resolution))


def blocked_mask(
    grid: OccupancyGrid,
    robot_radius: float = ROBOT_RADIUS,
    occ: np.ndarray | None = None,
) -> np.ndarray:
    """Cells that block planning: inflated occupied plus unknown.

    ``occ`` may carry this grid's ``inflate_occupied`` result, so a caller
    that also needs it inflates once."""
    if occ is None:
        occ = inflate_occupied(grid, robot_radius)
    return occ | unknown_mask(grid)


def _snap_start(blocked: np.ndarray, start: tuple[int, int], window: int = 3) -> tuple[int, int] | None:
    """The start if open, else the nearest open cell within ``window`` (ties: lowest row, col)."""
    r0, c0 = start
    if not blocked[r0, c0]:
        return start
    rows, cols = blocked.shape
    span = range(-window, window + 1)
    near = [(dr * dr + dc * dc, r0 + dr, c0 + dc) for dr in span for dc in span
            if 0 <= r0 + dr < rows and 0 <= c0 + dc < cols and not blocked[r0 + dr, c0 + dc]]
    return min(near)[1:] if near else None


def _open_cells(blocked: np.ndarray) -> list[bool]:
    """Flat open flags of the grid padded by one blocked cell, so a neighbor
    is one fixed offset away with no bounds test."""
    return (~np.pad(blocked, 1, constant_values=True)).ravel().tolist()


def _search(blocked: np.ndarray, start: tuple[int, int], target: tuple[int, int]) -> list[int]:
    """A* from start to target: the flat ``parent`` list over the padded
    grid (see ``_open_cells``).  It stops when the target is popped.  Closed
    cells still relax: a rounding-level gain can move their parent."""
    rows, cols = blocked.shape
    width = cols + 2
    is_open = _open_cells(blocked)
    size = len(is_open)
    tr, tc = target[0] + 1, target[1] + 1
    goal = tr * width + tc
    rgap = np.abs(np.arange(rows + 2) - tr)[:, None]
    cgap = np.abs(np.arange(width) - tc)
    lo = np.minimum(rgap, cgap)
    # octile (hi - lo) + lo * sqrt(2), in an array: A* reads too few cells for a list
    h = array("d", (np.maximum(rgap, cgap) - lo + lo * SQRT2).tobytes())
    steps = [(dr * width + dc, cost) for dr, dc, cost in _NEIGHBORS]
    dist = [math.inf] * size
    parent = [-1] * size
    closed = [False] * size  # a list: CPython specialises list indexing, not bytearray
    source = (start[0] + 1) * width + start[1] + 1
    dist[source] = 0.0
    counter = 0
    heap = [(h[source], counter, source)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        _, _, i = pop(heap)
        if i == goal:
            break
        if closed[i]:
            continue
        closed[i] = True
        d = dist[i]
        for offset, cost in steps:
            j = i + offset
            if is_open[j]:
                nd = d + cost
                if nd < dist[j]:
                    dist[j] = nd
                    parent[j] = i
                    counter += 1
                    push(heap, (nd + h[j], counter, j))
    return parent


def plan_path(
    grid: OccupancyGrid,
    start: tuple[int, int],
    target: tuple[int, int],
    robot_radius: float = ROBOT_RADIUS,
    blocked: np.ndarray | None = None,
) -> GridPath | None:
    """Shortest 8-connected path over free cells, or None when unreachable.

    A degenerate start (its cell turned non-free under map noise) snaps to
    the nearest free cell within 3 cells.  A blocked target is unreachable.
    """
    if blocked is None:
        blocked = blocked_mask(grid, robot_radius)
    if not (grid.in_grid(start) and grid.in_grid(target)):
        return None
    snapped = _snap_start(blocked, start)
    if snapped is None or blocked[target[0], target[1]]:
        return None
    start = snapped
    if start == target:
        return GridPath([start], 0.0)

    parent = _search(blocked, start, target)
    width = blocked.shape[1] + 2
    i = parent[(target[0] + 1) * width + target[1] + 1]
    if i < 0:
        return None
    cells = [target]
    while parent[i] >= 0:  # the start is the one reached cell without a parent
        r, c = divmod(i, width)
        cells.append((r - 1, c - 1))
        i = parent[i]
    path = GridPath([start, *reversed(cells)], 0.0)
    straight, diagonal = path.step_counts()
    path.length = (straight + diagonal * SQRT2) * grid.resolution
    return path


def distance_field(
    grid: OccupancyGrid,
    start: tuple[int, int],
    robot_radius: float = ROBOT_RADIUS,
    blocked: np.ndarray | None = None,
) -> np.ndarray:
    """Dijkstra flood from start: meters to every cell, inf where unreachable.

    The same costs and blocking rules as plan_path, so values match planned
    path lengths; one flood prices every frontier candidate at once.

    Straight steps (+1) and diagonal steps (+sqrt 2) each feed their own
    FIFO queue.  Each queue is filled in nondecreasing key order, so the
    smallest key is at the front of one of the two (Orlin et al. 2010), and
    every step pops the smaller front.  A popped entry whose key is no
    longer its cell's distance is stale and skipped.
    Each distance is the least solution of d[j] = min_i fl(d[i] + c_ij), so
    a heap gives the same bits; the merge rule only makes each cell expand
    once.
    """
    if blocked is None:
        blocked = blocked_mask(grid, robot_radius)
    rows, cols = blocked.shape
    snapped = _snap_start(blocked, start) if grid.in_grid(start) else None
    if snapped is None:
        return np.full((rows, cols), np.inf)
    width = cols + 2
    is_open = _open_cells(blocked)
    dist = [math.inf] * len(is_open)
    source = (snapped[0] + 1) * width + snapped[1] + 1
    dist[source] = 0.0
    straight_steps = (-width, -1, 1, width)
    diagonal_steps = (-width - 1, -width + 1, width - 1, width + 1)
    straight, diagonal = deque([(0.0, source)]), deque()
    pop_straight, pop_diagonal = straight.popleft, diagonal.popleft
    push_straight, push_diagonal = straight.append, diagonal.append
    while straight or diagonal:
        if not straight or (diagonal and diagonal[0][0] < straight[0][0]):
            d, i = pop_diagonal()
        else:
            d, i = pop_straight()
        if d != dist[i]:
            continue
        nd = d + 1.0
        for offset in straight_steps:
            j = i + offset
            if is_open[j] and nd < dist[j]:
                dist[j] = nd
                push_straight((nd, j))
        nd = d + SQRT2
        for offset in diagonal_steps:
            j = i + offset
            if is_open[j] and nd < dist[j]:
                dist[j] = nd
                push_diagonal((nd, j))
    field = np.fromiter(dist, float, len(dist)).reshape(rows + 2, cols + 2)[1:-1, 1:-1]
    return field * grid.resolution


def _segment_blocked(
    grid: OccupancyGrid,
    p0: tuple[float, float],
    p1: tuple[float, float],
    occ: np.ndarray,
) -> bool:
    for r, c in supercover_cells(p0, p1, grid.origin, grid.resolution):
        if 0 <= r < grid.rows and 0 <= c < grid.cols and occ[r, c]:
            return True
    return False


def line_of_sight(
    grid: OccupancyGrid,
    a: tuple[int, int],
    b: tuple[int, int],
    robot_radius: float = ROBOT_RADIUS,
    occ: np.ndarray | None = None,
) -> bool:
    """True iff the supercover walk between the two cell centers crosses no
    occupied (inflated) cell.  Unknown cells never block sight."""
    if occ is None:
        occ = inflate_occupied(grid, robot_radius)
    if a == b:
        return not (grid.in_grid(a) and occ[a[0], a[1]])
    return not _segment_blocked(grid, grid.cell_center(a), grid.cell_center(b), occ)


def extract_waypoint(
    path: GridPath,
    grid: OccupancyGrid,
    current_pose,
    robot_radius: float = ROBOT_RADIUS,
    occ: np.ndarray | None = None,
) -> tuple[float, float]:
    """World coordinates of the farthest path cell visible from the pose.

    Visibility means the straight segment from the pose to the cell center
    crosses no occupied (inflated) cell; the first path cell always
    qualifies, so the scan from the far end cannot come back empty.
    """
    if not path.cells:
        raise ValueError("cannot extract a waypoint from an empty path")
    if occ is None:
        occ = inflate_occupied(grid, robot_radius)
    p0 = (float(current_pose[0]), float(current_pose[1]))
    for cell in reversed(path.cells):
        center = grid.cell_center(cell)
        if not _segment_blocked(grid, p0, center, occ):
            return center
    return grid.cell_center(path.cells[0])
