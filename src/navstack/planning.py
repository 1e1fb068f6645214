"""Grid path planning over occupancy snapshots and sparse waypoint extraction.

Planning runs 8-connected over free cells after inflating occupied cells by
the robot radius; unknown cells block planning but not line of sight (a
frontier target is by definition bordered by unknown space).  Both searches
are exact: A* under the octile heuristic (admissible and consistent for
unit/sqrt(2) steps) plans one path, and a heap-free Dijkstra flood with one
FIFO queue per step cost, each a pair of growing lists read from a head
index, prices every cell from the start.  Both, and the waypoint's sight
test, read one ``PlanGrid`` snapshot of the map.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import supercover_cells
from .mapping import OccupancyGrid, dilate, occupied_mask, unknown_mask

SQRT2 = math.sqrt(2.0)
SNAP_WINDOW = 3  # a blocked start snaps to the nearest open cell this many cells away or fewer

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


def inflate_occupied(grid: OccupancyGrid, robot_radius: float) -> np.ndarray:
    """Occupied cells grown by a circular kernel of the robot radius."""
    return dilate(occupied_mask(grid), _disk_half_widths(robot_radius / grid.resolution))


def blocked_mask(grid: OccupancyGrid, occ: np.ndarray) -> np.ndarray:
    """Cells that block planning: ``occ``, the grid's ``inflate_occupied``
    cells, plus unknown."""
    return occ | unknown_mask(grid)


def _snap_start(blocked: np.ndarray, start: tuple[int, int]) -> tuple[int, int] | None:
    """The start if open, else the nearest open cell within ``SNAP_WINDOW``
    (ties: lowest row, col)."""
    r0, c0 = start
    if not blocked[r0, c0]:
        return start
    rows, cols = blocked.shape
    span = range(-SNAP_WINDOW, SNAP_WINDOW + 1)
    near = [(dr * dr + dc * dc, r0 + dr, c0 + dc) for dr in span for dc in span
            if 0 <= r0 + dr < rows and 0 <= c0 + dc < cols and not blocked[r0 + dr, c0 + dc]]
    return min(near)[1:] if near else None


def _open_cells(blocked: np.ndarray) -> list[bool]:
    """Flat open flags of the grid padded by one blocked cell, so a neighbor
    is one fixed offset away with no bounds test."""
    rows, cols = blocked.shape
    is_open = np.zeros((rows + 2, cols + 2), dtype=bool)
    np.logical_not(blocked, out=is_open[1:-1, 1:-1])
    return is_open.ravel().tolist()


@dataclass(frozen=True, eq=False)
class PlanGrid:
    """One planning snapshot of ``grid``: ``occ``, its occupied cells
    inflated by the robot radius, blocks the waypoint's line of sight, and
    ``blocked`` (``occ`` plus unknown) blocks the flood and A*.  The flags
    the searches read are built here from ``blocked``, so they always agree
    with it."""

    grid: OccupancyGrid
    occ: np.ndarray
    blocked: np.ndarray
    is_open: list[bool] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "is_open", _open_cells(self.blocked))


def plan_grid(grid: OccupancyGrid, robot_radius: float) -> PlanGrid:
    """The snapshot of ``grid`` for a robot of ``robot_radius``; a plan tick
    builds one for its flood, its A* searches and its waypoint."""
    occ = inflate_occupied(grid, robot_radius)
    return PlanGrid(grid, occ, blocked_mask(grid, occ))


def _search(is_open: list[bool], width: int, start: tuple[int, int], target: tuple[int, int]) -> dict[int, int]:
    """A* over the padded grid of ``_open_cells``: each reached cell's parent,
    by flat index.  It stops when the target is popped.  Closed cells still
    relax: a rounding-level gain can move their parent."""
    tr, tc = target[0] + 1, target[1] + 1
    goal = tr * width + tc
    steps = [(dr * width + dc, cost) for dr, dc, cost in _NEIGHBORS]
    source = (start[0] + 1) * width + start[1] + 1
    dist = [math.inf] * len(is_open)
    dist[source] = 0.0
    parent: dict[int, int] = {}
    closed = bytearray(len(is_open))
    counter = 0
    heap = [(0.0, counter, source)]  # the lone first entry's key is never compared
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        _, _, i = pop(heap)
        if i == goal:
            break
        if closed[i]:
            continue
        closed[i] = 1
        d = dist[i]
        for offset, cost in steps:
            j = i + offset
            if is_open[j]:
                nd = d + cost
                if nd < dist[j]:
                    dist[j] = nd
                    parent[j] = i
                    counter += 1
                    r, c = divmod(j, width)
                    r, c = abs(r - tr), abs(c - tc)
                    lo, hi = (r, c) if r < c else (c, r)
                    # octile heuristic; ties between paths hang on its bits, so keep this operation order
                    push(heap, (nd + ((hi - lo) + lo * SQRT2), counter, j))
    return parent


def plan_path(plan: PlanGrid, start: tuple[int, int], target: tuple[int, int]) -> GridPath | None:
    """Shortest 8-connected path over the snapshot's open cells, or None
    when unreachable.

    A degenerate start (its cell turned non-free under map noise) snaps to
    the nearest free cell within 3 cells.  A blocked target is unreachable.
    """
    grid, blocked = plan.grid, plan.blocked
    if not (grid.in_grid(start) and grid.in_grid(target)):
        return None
    snapped = _snap_start(blocked, start)
    if snapped is None or blocked[target[0], target[1]]:
        return None
    start = snapped
    if start == target:
        return GridPath([start], 0.0)

    width = blocked.shape[1] + 2
    parent = _search(plan.is_open, width, start, target)
    i = parent.get((target[0] + 1) * width + target[1] + 1)
    if i is None:
        return None
    cells = [target]
    while i in parent:  # the start is the one reached cell without a parent
        r, c = divmod(i, width)
        cells.append((r - 1, c - 1))
        i = parent[i]
    path = GridPath([start, *reversed(cells)], 0.0)
    straight, diagonal = path.step_counts()
    path.length = (straight + diagonal * SQRT2) * grid.resolution
    return path


@dataclass
class Flood:
    """A flood in its own form: ``flat`` counts steps over the padded grid of
    ``_open_cells``.  ``flood[r, c]`` is one in-grid cell in meters (inf where
    unreachable), with the bits of the (rows, cols) ``array()`` there."""

    flat: list[float]
    shape: tuple[int, int]
    resolution: float

    def __getitem__(self, cell) -> float:
        r, c = cell
        return self.flat[(r + 1) * (self.shape[1] + 2) + c + 1] * self.resolution

    def array(self) -> np.ndarray:
        rows, cols = self.shape
        field = np.fromiter(self.flat, float, len(self.flat)).reshape(rows + 2, cols + 2)[1:-1, 1:-1]
        return field * self.resolution


def distance_field(plan: PlanGrid, start: tuple[int, int]) -> Flood:
    """Dijkstra flood from start: meters to every cell, inf where unreachable.

    The same snapshot, costs and blocking rules as plan_path, so values
    match planned path lengths; one flood prices every frontier candidate
    at once.

    Straight steps (+1) and diagonal steps (+sqrt 2) each feed their own
    FIFO queue, a pair of growing lists (keys, cells) read from a head
    index.  Each queue is filled in nondecreasing key order, so the
    smallest key is at the front of one of the two (Orlin et al. 2010), and
    every step pops the smaller front, the straight one on a tie.  A popped
    entry whose key is no longer its cell's distance is stale and skipped.
    Each distance is the least solution of d[j] = min_i fl(d[i] + c_ij), so
    a heap gives the same bits; the merge rule only makes each cell expand
    once.
    """
    grid, blocked, is_open = plan.grid, plan.blocked, plan.is_open
    rows, cols = blocked.shape
    width = cols + 2
    dist = [math.inf] * ((rows + 2) * width)
    flood = Flood(dist, (rows, cols), grid.resolution)
    snapped = _snap_start(blocked, start) if grid.in_grid(start) else None
    if snapped is None:
        return flood
    source = (snapped[0] + 1) * width + snapped[1] + 1
    dist[source] = 0.0
    # The eight neighbour steps are unrolled.  Each tests the distance
    # first, since most neighbours are already reached; a blocked cell's
    # distance stays inf, so its open flag still turns it away.
    s_key, s_cell, d_key, d_cell = [0.0], [source], [], []
    push_s_key, push_s_cell = s_key.append, s_cell.append
    push_d_key, push_d_cell = d_key.append, d_cell.append
    s_head = d_head = 0
    up_left, up_right, down_left, down_right = -width - 1, -width + 1, width - 1, width + 1
    while True:
        if s_head < len(s_key):
            d = s_key[s_head]
            if d_head < len(d_key) and d_key[d_head] < d:
                d = d_key[d_head]
                i = d_cell[d_head]
                d_head += 1
            else:
                i = s_cell[s_head]
                s_head += 1
        elif d_head < len(d_key):
            d = d_key[d_head]
            i = d_cell[d_head]
            d_head += 1
        else:
            break
        if d != dist[i]:
            continue
        nd = d + 1.0
        j = i - width
        if nd < dist[j] and is_open[j]:
            dist[j] = nd
            push_s_key(nd)
            push_s_cell(j)
        j = i - 1
        if nd < dist[j] and is_open[j]:
            dist[j] = nd
            push_s_key(nd)
            push_s_cell(j)
        j = i + 1
        if nd < dist[j] and is_open[j]:
            dist[j] = nd
            push_s_key(nd)
            push_s_cell(j)
        j = i + width
        if nd < dist[j] and is_open[j]:
            dist[j] = nd
            push_s_key(nd)
            push_s_cell(j)
        nd = d + SQRT2
        j = i + up_left
        if nd < dist[j] and is_open[j]:
            dist[j] = nd
            push_d_key(nd)
            push_d_cell(j)
        j = i + up_right
        if nd < dist[j] and is_open[j]:
            dist[j] = nd
            push_d_key(nd)
            push_d_cell(j)
        j = i + down_left
        if nd < dist[j] and is_open[j]:
            dist[j] = nd
            push_d_key(nd)
            push_d_cell(j)
        j = i + down_right
        if nd < dist[j] and is_open[j]:
            dist[j] = nd
            push_d_key(nd)
            push_d_cell(j)
    return flood


def _segment_blocked(
    grid: OccupancyGrid,
    p0: tuple[float, float],
    p1: tuple[float, float],
    occ: np.ndarray,
) -> bool:
    rows, cols = occ.shape
    for r, c in supercover_cells(p0, p1, grid.origin, grid.resolution):
        if 0 <= r < rows and 0 <= c < cols and occ[r, c]:
            return True
    return False


def extract_waypoint(path: GridPath, plan: PlanGrid, current_pose) -> tuple[float, float]:
    """World coordinates of the farthest path cell visible from the pose.

    Visibility means the straight segment from the pose to the cell center
    crosses no cell of the snapshot's ``occ``; the first path cell always
    qualifies, so the scan from the far end cannot come back empty.
    """
    if not path.cells:
        raise ValueError("cannot extract a waypoint from an empty path")
    grid, occ = plan.grid, plan.occ
    p0 = (float(current_pose[0]), float(current_pose[1]))
    for cell in reversed(path.cells):
        center = grid.cell_center(cell)
        if not _segment_blocked(grid, p0, center, occ):
            return center
    return grid.cell_center(path.cells[0])
