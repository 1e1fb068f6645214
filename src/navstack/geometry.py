"""Planar geometry kernels shared by the simulator and the grid planner."""

from __future__ import annotations

import math

import numpy as np


def rect_edges(rect: tuple[float, float, float, float]) -> list[tuple[float, float, float, float]]:
    """Four boundary segments (ax, ay, bx, by) of an axis-aligned rectangle."""
    x0, y0, x1, y1 = rect
    return [
        (x0, y0, x1, y0),
        (x1, y0, x1, y1),
        (x1, y1, x0, y1),
        (x0, y1, x0, y0),
    ]


def segment_terms(segments: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The constants ``ray_segment_hits`` needs of (m, 4) segments (ax, ay,
    bx, by): the start point (a0, a1) and the direction (e0, e1) = b - a,
    each a contiguous (m, 1) column."""
    a0 = segments[:, 0:1].copy()
    a1 = segments[:, 1:2].copy()
    return a0, a1, segments[:, 2:3] - a0, segments[:, 3:4] - a1


def ray_segment_hits(ox: float, oy: float, cos: np.ndarray, sin: np.ndarray, terms) -> np.ndarray:
    """Hit distances for every (segment, ray) pair, inf where there is no hit.

    (ox, oy): ray origin shared by all rays.
    cos, sin: (n,) components of the unit ray directions.
    terms: ``segment_terms`` of the m segments.
    Returns an (m, n) array of distances t > 0 along each ray: the rays run
    along the last axis, so every broadcast loops over them innermost and
    the nearest hit per ray is a reduction over axis 0.
    """
    a0, a1, e0, e1 = terms
    ao0 = a0 - ox
    ao1 = a1 - oy
    denom = cos * e1 - sin * e0  # cross(d, e)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = (ao0 * e1 - ao1 * e0) / denom
        u = (ao0 * sin - ao1 * cos) / denom
    valid = np.abs(denom) > 1e-12
    valid &= t > 1e-9
    valid &= u >= 0.0
    valid &= u <= 1.0
    t[~valid] = np.inf
    return t


def ray_disc_hits(origin: np.ndarray, dirs: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Hit distances for every (disc, ray) pair, inf where there is no hit.

    origin: (2,) ray origin shared by all rays.
    dirs: (n, 2) unit ray directions.
    centers, radii: (k, 2) and (k,) discs.
    Returns a (k, n) array, the rays along the last axis as in
    ``ray_segment_hits``, so the nearest hit per ray is a reduction over
    axis 0.  A ray starting inside a disc reports the exit distance, which
    keeps distances strictly positive.
    """
    oc = centers - origin  # (k, 2)
    # The (n, 2) @ (2, k) product, transposed after: a product of another
    # shape may round differently.
    b = np.ascontiguousarray((dirs @ oc.T).T)  # projection of each center offset onto each ray
    c = (np.sum(oc * oc, axis=1) - radii * radii)[:, None]  # (k, 1)
    disc = b * b - c
    sq = np.sqrt(np.maximum(disc, 0.0))
    t = b + sq  # the exit, where the entry lies behind the origin
    t[~(t > 1e-9)] = np.inf
    t1 = b - sq  # the entry
    ahead = t1 > 1e-9
    t[ahead] = t1[ahead]
    t[~(disc >= 0.0)] = np.inf
    return t


def point_segment_distance(px: float, py: float, ax: float, ay: float, bx: float, by: float) -> float:
    ex, ey = bx - ax, by - ay
    ll = ex * ex + ey * ey
    if ll <= 0.0:
        return math.hypot(px - ax, py - ay)
    u = ((px - ax) * ex + (py - ay) * ey) / ll
    u = min(1.0, max(0.0, u))
    return math.hypot(px - (ax + u * ex), py - (ay + u * ey))


def point_rect_distance(px: float, py: float, rect: tuple[float, float, float, float]) -> float:
    """Distance from a point to a filled axis-aligned rectangle (0 inside)."""
    x0, y0, x1, y1 = rect
    dx = max(x0 - px, 0.0, px - x1)
    dy = max(y0 - py, 0.0, py - y1)
    return math.hypot(dx, dy)


def supercover_cells(
    p0: tuple[float, float],
    p1: tuple[float, float],
    origin: tuple[float, float],
    resolution: float,
) -> list[tuple[int, int]]:
    """All grid cells (row, col) whose closed square the segment p0->p1 touches.

    Points are world coordinates; cell (0, 0) has its lower corner at
    ``origin``.  When the segment passes exactly through a cell corner both
    side cells are included, so the cover is never 8-connected-only.
    """
    x0 = (p0[0] - origin[0]) / resolution
    y0 = (p0[1] - origin[1]) / resolution
    x1 = (p1[0] - origin[0]) / resolution
    y1 = (p1[1] - origin[1]) / resolution

    cx, cy = math.floor(x0), math.floor(y0)
    ex, ey = math.floor(x1), math.floor(y1)
    cells = [(cy, cx)]
    dx, dy = x1 - x0, y1 - y0
    step_x = 1 if dx > 0 else -1 if dx < 0 else 0
    step_y = 1 if dy > 0 else -1 if dy < 0 else 0

    if step_x != 0:
        t_delta_x = abs(1.0 / dx)
        next_gx = cx + (1 if step_x > 0 else 0)
        t_max_x = (next_gx - x0) / dx
    else:
        t_delta_x = math.inf
        t_max_x = math.inf
    if step_y != 0:
        t_delta_y = abs(1.0 / dy)
        next_gy = cy + (1 if step_y > 0 else 0)
        t_max_y = (next_gy - y0) / dy
    else:
        t_delta_y = math.inf
        t_max_y = math.inf

    # Manhattan bound plus slack for corner double-steps.
    limit = 2 * (abs(ex - cx) + abs(ey - cy)) + 4
    for _ in range(limit):
        if cx == ex and cy == ey:
            break
        if abs(t_max_x - t_max_y) < 1e-12 and step_x != 0 and step_y != 0:
            cells.append((cy, cx + step_x))
            cells.append((cy + step_y, cx))
            cx += step_x
            cy += step_y
            t_max_x += t_delta_x
            t_max_y += t_delta_y
        elif t_max_x < t_max_y:
            cx += step_x
            t_max_x += t_delta_x
        else:
            cy += step_y
            t_max_y += t_delta_y
        cells.append((cy, cx))
    return cells
