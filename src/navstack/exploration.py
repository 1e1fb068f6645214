"""Exploration-point selection from frontier candidates.

Candidates are frontier clusters scored by two factors: a distance factor
(Euclidean candidate-to-goal plus planned path cost from the robot) and a
safety factor (the critic's value with the candidate substituted as the
goal feature).  Both are min-max normalized over the candidate set and
combined as normalized_distance + gamma * normalized_safety_deficit; the
candidate minimizing the sum wins.  Four triggers force re-selection:
a large relative map-entropy change, arrival at the point, the point losing
its frontier status, and the goal turning known.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mapping import CellClass, OccupancyGrid, classify, frontier_cells
from .planning import Flood
from .world import ARRIVAL_RADIUS

_ENTROPY_EPS = 1e-12
ENTROPY_TRIGGER = 0.10  # relative map-entropy change that forces re-selection
CANDIDATE_CAP = 64      # max frontier clusters scored per cycle
MIN_CLUSTER_SIZE = 3    # smaller clusters are single-cell raster speckle along walls


@dataclass
class ExplorationState:
    current_point: tuple[int, int] | None = None
    entropy_at_selection: float = math.nan
    goal_known: bool = False
    fallback_held: bool = False  # the stale point was held through one empty cycle


@dataclass(frozen=True)
class ScoredCandidate:
    cell: tuple[int, int]
    d1: float   # Euclidean distance candidate -> goal, meters
    d2: float   # planned path length robot -> candidate, meters
    v: float    # critic value with the candidate as the goal feature

    @property
    def d(self) -> float:
        return self.d1 + self.d2


def cluster_representatives(frontier: np.ndarray, cap: int, min_size: int) -> list[tuple[int, int]]:
    """One representative cell per 8-connected cluster of the frontier mask.

    The representative is the member nearest the cluster centroid (ties to
    the row-major smallest).  Clusters smaller than ``min_size`` are treated
    as raster noise and skipped; when more than ``cap`` clusters remain the
    largest win, ties again row-major.

    The clusters grow by depth-first search over the mask padded by one
    empty cell, as flat flags, so a neighbor is one fixed offset away.
    """
    width = frontier.shape[1] + 2
    padded = np.pad(frontier, 1)
    todo = bytearray(padded.tobytes())
    steps = (-width - 1, -width, -width + 1, -1, 1, width - 1, width, width + 1)
    reps: list[tuple[int, tuple[int, int]]] = []
    for first in np.flatnonzero(padded).tolist():
        if not todo[first]:
            continue
        todo[first] = 0
        members, stack = [first], [first]
        while stack:
            i = stack.pop()
            for step in steps:
                j = i + step
                if todo[j]:
                    todo[j] = 0
                    members.append(j)
                    stack.append(j)
        n = len(members)
        if n < min_size:
            continue
        cells = [divmod(i - width - 1, width) for i in members]  # unpadded (row, col)
        # Sums of small integers are exact in any order, so the centroid's
        # bits do not depend on the order of the members.
        cr = sum(r for r, _ in cells) / n
        cc = sum(c for _, c in cells) / n
        _, r, c = min(((r - cr) * (r - cr) + (c - cc) * (c - cc), r, c) for r, c in cells)
        reps.append((n, (r, c)))
    reps.sort(key=lambda t: (-t[0], t[1]))
    return [rep for _, rep in reps[:cap]]


def score_candidates(
    frontier: np.ndarray,
    grid: OccupancyGrid,
    goal: tuple[float, float],
    critic,
    dist_field: Flood,
) -> list[ScoredCandidate]:
    """Score one representative per cluster of the ``frontier_mask`` of at
    least ``MIN_CLUSTER_SIZE`` cells (the ``CANDIDATE_CAP`` largest); drop
    unreachable ones.

    ``critic`` is a callable mapping a candidate's world point to its safety
    value (the episode harness binds the live observation and network).
    ``dist_field`` is the planning ``distance_field`` flood from the robot
    cell, which prices each candidate's path.
    """
    reps = cluster_representatives(frontier, CANDIDATE_CAP, MIN_CLUSTER_SIZE)
    out: list[ScoredCandidate] = []
    for cell in reps:
        d2 = float(dist_field[cell[0], cell[1]])
        if not math.isfinite(d2):
            continue
        cx, cy = grid.cell_center(cell)
        d1 = math.hypot(cx - goal[0], cy - goal[1])
        out.append(ScoredCandidate(cell=cell, d1=d1, d2=d2, v=float(critic((cx, cy)))))
    return out


def _normalized_scores(scored, gamma: float) -> list[float]:
    d = np.array([s.d for s in scored])
    v = np.array([s.v for s in scored])
    d_span = d.max() - d.min()
    v_span = v.max() - v.min()
    # A constant factor cannot discriminate, so its normalized term is 0.
    dn = (d - d.min()) / d_span if d_span > 0 else np.zeros_like(d)
    vn = gamma * (v.max() - v) / v_span if v_span > 0 else np.zeros_like(v)
    return list(dn + vn)


def select_exploration_point(scored, gamma: float) -> tuple[int, int]:
    """Argmin of the combined normalized score, ``gamma`` weighting the
    safety factor; ties break to the smaller distance factor, then to the
    row-major smallest cell."""
    if not scored:
        raise ValueError("cannot select from an empty candidate list")
    totals = _normalized_scores(scored, gamma)
    best = min(range(len(scored)), key=lambda i: (totals[i], scored[i].d, scored[i].cell))
    return scored[best].cell


def update_exploration_point(state: ExplorationState, scored, frontier: np.ndarray, grid: OccupancyGrid,
                             pose, gamma: float, entropy: float) -> tuple[int, int] | None:
    """Write one cycle's exploration point into ``state`` and return it, or
    None when the current point stays.  The best of ``scored`` wins; with no
    candidate a stale point is held for one cycle, then the frontier cell
    nearest the robot is taken, and with no frontier left the point stays."""
    if scored:
        cell = select_exploration_point(scored, gamma)
    elif state.current_point is not None and not state.fallback_held:
        state.fallback_held = True
        return None
    elif frontiers := frontier_cells(frontier):
        cell = min(frontiers, key=lambda rc: math.dist(grid.cell_center(rc), pose[:2]))
    else:
        return None
    state.current_point = cell
    state.entropy_at_selection = entropy
    state.fallback_held = False
    return cell


def should_reselect(
    state: ExplorationState,
    grid: OccupancyGrid,
    goal: tuple[float, float],
    current_pose,
    frontier: np.ndarray,
    entropy: float,
) -> str:
    """One of "no", "reselect", "goal_now_known".

    goal_now_known dominates: once the goal cell leaves the unknown class
    the stack should plan straight at it and stop exploring.  ``frontier``
    is the grid's ``frontier_mask`` and ``entropy`` its ``map_entropy``.
    """
    goal_cell = grid.world_to_cell(*goal)
    goal_known = grid.in_grid(goal_cell) and classify(grid, goal_cell) != CellClass.UNKNOWN
    if goal_known and not state.goal_known:
        return "goal_now_known"
    if state.current_point is None:
        return "reselect"

    h_ref = state.entropy_at_selection
    if math.isfinite(h_ref):
        rel = abs(entropy - h_ref) / max(h_ref, _ENTROPY_EPS)
        if rel > ENTROPY_TRIGGER:
            return "reselect"

    px, py = grid.cell_center(state.current_point)
    if math.hypot(current_pose[0] - px, current_pose[1] - py) < ARRIVAL_RADIUS:
        return "reselect"

    cell = state.current_point
    if not grid.in_grid(cell):
        return "reselect"
    if not frontier[cell]:
        return "reselect"
    return "no"


def candidate_csv_rows(scored, gamma: float) -> list[tuple]:
    """Debug table: one row per candidate with both factors and the final
    normalized score."""
    if not scored:
        return []
    totals = _normalized_scores(scored, gamma)
    return [
        (s.cell[0], s.cell[1], s.d1, s.d2, s.d, s.v, t)
        for s, t in zip(scored, totals)
    ]


CANDIDATE_CSV_HEADER = ("row", "col", "d1", "d2", "d_total", "v_safety", "score")
