"""Grid path planning over occupancy snapshots and sparse waypoint extraction.

Planning runs 8-connected over free cells after inflating occupied cells by
the robot radius; unknown cells block planning but not line of sight (a
frontier target is by definition bordered by unknown space).  Path lengths
are exact Dijkstra optima: the A* heuristic is the octile distance, which is
admissible and consistent for unit/sqrt(2) step costs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import binary_dilation

from .geometry import supercover_cells
from .mapping import OccupancyGrid, occupied_mask, unknown_mask
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
        straight = diagonal = 0
        for (r0, c0), (r1, c1) in zip(self.cells, self.cells[1:]):
            if r0 != r1 and c0 != c1:
                diagonal += 1
            else:
                straight += 1
        return straight, diagonal


def _disk_structure(radius_cells: float) -> np.ndarray:
    n = int(math.floor(radius_cells))
    if n <= 0:
        return np.ones((1, 1), dtype=bool)
    d = np.arange(-n, n + 1)
    return (d[:, None] ** 2 + d[None, :] ** 2) <= radius_cells ** 2 + 1e-9


def inflate_occupied(grid: OccupancyGrid, robot_radius: float = ROBOT_RADIUS) -> np.ndarray:
    """Occupied cells grown by a circular kernel of the robot radius."""
    occ = occupied_mask(grid)
    structure = _disk_structure(robot_radius / grid.resolution)
    if structure.shape == (1, 1):
        return occ
    return binary_dilation(occ, structure=structure)


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

    rows, cols = blocked.shape
    tr, tc = target
    g_score = {start: 0.0}
    parent: dict[tuple[int, int], tuple[int, int]] = {}
    counter = 0
    h0 = _octile(start, target)
    frontier: list[tuple[float, int, tuple[int, int]]] = [(h0, counter, start)]
    closed = set()
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


def _octile(a: tuple[int, int], b: tuple[int, int]) -> float:
    dr = abs(a[0] - b[0])
    dc = abs(a[1] - b[1])
    lo, hi = (dr, dc) if dr < dc else (dc, dr)
    return (hi - lo) + lo * SQRT2


def distance_field(
    grid: OccupancyGrid,
    start: tuple[int, int],
    robot_radius: float = ROBOT_RADIUS,
    blocked: np.ndarray | None = None,
) -> np.ndarray:
    """Dijkstra flood from start: meters to every cell, inf where unreachable.

    Same costs and blocking rules as plan_path, so values match planned path
    lengths; one flood prices every frontier candidate at once.  The flood
    runs on flat Python lists over the grid padded by one blocked cell, so a
    neighbor is one fixed offset away and needs no bounds test.  Pushes,
    pops and the tie-breaking push counter follow a heap flood over
    (row, col) cells, so the values are bit-identical to that flood.
    """
    if blocked is None:
        blocked = blocked_mask(grid, robot_radius)
    rows, cols = blocked.shape
    snapped = _snap_start(blocked, start) if grid.in_grid(start) else None
    if snapped is None:
        return np.full((rows, cols), np.inf)
    width = cols + 2
    is_open = (~np.pad(blocked, 1, constant_values=True)).ravel().tolist()
    steps = [(dr * width + dc, cost) for dr, dc, cost in _NEIGHBORS]
    dist = [math.inf] * len(is_open)
    source = (snapped[0] + 1) * width + snapped[1] + 1
    dist[source] = 0.0
    counter = 0
    heap: list[tuple[float, int, int]] = [(0.0, counter, source)]
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        d, _, i = pop(heap)
        if d > dist[i]:
            continue
        for offset, cost in steps:
            j = i + offset
            if is_open[j]:
                nd = d + cost
                if nd < dist[j]:
                    dist[j] = nd
                    counter += 1
                    push(heap, (nd, counter, j))
    field = np.array(dist).reshape(rows + 2, width)[1:-1, 1:-1]
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
