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

from .mapping import CellClass, OccupancyGrid, classify, frontier_mask, map_entropy
from .planning import distance_field
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


@dataclass(frozen=True)
class ScoredCandidate:
    cell: tuple[int, int]
    d1: float   # Euclidean distance candidate -> goal, meters
    d2: float   # planned path length robot -> candidate, meters
    v: float    # critic value with the candidate as the goal feature

    @property
    def d(self) -> float:
        return self.d1 + self.d2


def _clusters(cells) -> list[list[tuple[int, int]]]:
    """The 8-connected components of a set of cells, in the row-major order
    of their first cells."""
    todo = set(cells)
    out = []
    for first in sorted(todo):
        if first not in todo:
            continue
        todo.remove(first)
        members = [first]
        stack = [first]
        while stack:
            r, c = stack.pop()
            for cell in ((r - 1, c - 1), (r - 1, c), (r - 1, c + 1), (r, c - 1),
                         (r, c + 1), (r + 1, c - 1), (r + 1, c), (r + 1, c + 1)):
                if cell in todo:
                    todo.remove(cell)
                    members.append(cell)
                    stack.append(cell)
        out.append(members)
    return out


def cluster_representatives(frontiers, cap: int, min_size: int) -> list[tuple[int, int]]:
    """One representative cell per 8-connected frontier cluster.

    The representative is the member nearest the cluster centroid (ties to
    the row-major smallest).  Clusters smaller than ``min_size`` are treated
    as raster noise and skipped; when more than ``cap`` clusters remain the
    largest win, ties again row-major.
    """
    reps: list[tuple[int, tuple[int, int]]] = []
    for cluster in _clusters((int(r), int(c)) for r, c in frontiers):
        if len(cluster) < min_size:
            continue
        n = len(cluster)
        # Sums of small integers are exact in any order, so the centroid's
        # bits do not depend on the order of the members.
        cr = sum(r for r, _ in cluster) / n
        cc = sum(c for _, c in cluster) / n
        _, r, c = min(((r - cr) * (r - cr) + (c - cc) * (c - cc), r, c) for r, c in cluster)
        reps.append((n, (r, c)))
    reps.sort(key=lambda t: (-t[0], t[1]))
    return [rep for _, rep in reps[:cap]]


def score_candidates(
    frontiers,
    grid: OccupancyGrid,
    goal: tuple[float, float],
    current_pose,
    critic,
    dist_field: np.ndarray | None = None,
) -> list[ScoredCandidate]:
    """Score one representative per frontier cluster of at least
    ``MIN_CLUSTER_SIZE`` cells (the ``CANDIDATE_CAP`` largest); drop
    unreachable ones.

    ``critic`` is a callable mapping a candidate's world point to its safety
    value (the episode harness binds the live observation and network).
    ``dist_field`` may carry a precomputed Dijkstra flood from the robot
    cell; otherwise one is computed here.
    """
    reps = cluster_representatives(frontiers, CANDIDATE_CAP, MIN_CLUSTER_SIZE)
    if not reps:
        return []
    if dist_field is None:
        start = grid.world_to_cell(float(current_pose[0]), float(current_pose[1]))
        dist_field = distance_field(grid, start)
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


def should_reselect(
    state: ExplorationState,
    grid: OccupancyGrid,
    goal: tuple[float, float],
    current_pose,
    frontier: np.ndarray | None = None,
) -> str:
    """One of "no", "reselect", "goal_now_known".

    goal_now_known dominates: once the goal cell leaves the unknown class
    the stack should plan straight at it and stop exploring.  ``frontier``
    may carry the grid's ``frontier_mask``; otherwise it is built here when
    the point's frontier status is tested.
    """
    goal_cell = grid.world_to_cell(*goal)
    goal_known = grid.in_grid(goal_cell) and classify(grid, goal_cell) != CellClass.UNKNOWN
    if goal_known and not state.goal_known:
        return "goal_now_known"
    if state.current_point is None:
        return "reselect"

    h_now = map_entropy(grid)
    h_ref = state.entropy_at_selection
    if math.isfinite(h_ref):
        rel = abs(h_now - h_ref) / max(h_ref, _ENTROPY_EPS)
        if rel > ENTROPY_TRIGGER:
            return "reselect"

    px, py = grid.cell_center(state.current_point)
    if math.hypot(current_pose[0] - px, current_pose[1] - py) < ARRIVAL_RADIUS:
        return "reselect"

    cell = state.current_point
    if not grid.in_grid(cell):
        return "reselect"
    if frontier is None:
        frontier = frontier_mask(grid)
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
