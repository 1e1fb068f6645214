"""Occupancy-probability grid built from lidar scans at known pose.

Cells hold p(occupied) in [0, 1]; a fresh grid is all 0.5 (unknown).
Updates run in log-odds with a fixed hit/miss inverse sensor model and are
clamped to [0.02, 0.98].  Classification, frontier detection, and map
entropy are pure functions of the probabilities.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .fileio import write_pgm
from .world import beam_offsets

P_MIN = 0.02
P_MAX = 0.98
OCCUPIED_THRESHOLD = 0.52   # occupied iff p > this
FREE_THRESHOLD = 0.48       # free iff p < this
LOGIT_HIT = 0.85
LOGIT_MISS = -0.4
DEFAULT_RESOLUTION = 0.1


class CellClass(Enum):
    OCCUPIED = "occupied"
    FREE = "free"
    UNKNOWN = "unknown"


@dataclass
class OccupancyGrid:
    """Row-major probability grid; cell (0, 0) has its lower corner at
    ``origin`` and rows advance along +y."""

    resolution: float
    origin: tuple[float, float]
    p: np.ndarray  # (rows, cols) float64

    @classmethod
    def fresh(cls, rows: int, cols: int, resolution: float = DEFAULT_RESOLUTION,
              origin: tuple[float, float] = (0.0, 0.0)) -> "OccupancyGrid":
        return cls(resolution, origin, np.full((rows, cols), 0.5))

    @classmethod
    def for_bounds(cls, bounds: tuple[float, float, float, float],
                   resolution: float = DEFAULT_RESOLUTION) -> "OccupancyGrid":
        x0, y0, x1, y1 = bounds
        cols = max(1, int(math.ceil((x1 - x0) / resolution)))
        rows = max(1, int(math.ceil((y1 - y0) / resolution)))
        return cls.fresh(rows, cols, resolution, (x0, y0))

    @property
    def rows(self) -> int:
        return self.p.shape[0]

    @property
    def cols(self) -> int:
        return self.p.shape[1]

    def in_grid(self, cell: tuple[int, int]) -> bool:
        r, c = cell
        return 0 <= r < self.rows and 0 <= c < self.cols

    def world_to_cell(self, x: float, y: float) -> tuple[int, int]:
        return (
            int(math.floor((y - self.origin[1]) / self.resolution)),
            int(math.floor((x - self.origin[0]) / self.resolution)),
        )

    def cell_center(self, cell: tuple[int, int]) -> tuple[float, float]:
        r, c = cell
        return (
            self.origin[0] + (c + 0.5) * self.resolution,
            self.origin[1] + (r + 0.5) * self.resolution,
        )


def classify_p(p: float) -> CellClass:
    if p > OCCUPIED_THRESHOLD:
        return CellClass.OCCUPIED
    if p < FREE_THRESHOLD:
        return CellClass.FREE
    return CellClass.UNKNOWN


def classify(grid: OccupancyGrid, cell: tuple[int, int]) -> CellClass:
    return classify_p(float(grid.p[cell[0], cell[1]]))


def free_mask(grid: OccupancyGrid) -> np.ndarray:
    return grid.p < FREE_THRESHOLD


def occupied_mask(grid: OccupancyGrid) -> np.ndarray:
    return grid.p > OCCUPIED_THRESHOLD


def unknown_mask(grid: OccupancyGrid) -> np.ndarray:
    return (grid.p >= FREE_THRESHOLD) & (grid.p <= OCCUPIED_THRESHOLD)


def _logit(p: np.ndarray) -> np.ndarray:
    return np.log(p / (1.0 - p))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _floor_cells(start: float, origin: float, res: float, dirs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """floor((start + dirs * t - origin) / res) as int64, computed in
    ``dirs``, which is overwritten."""
    dirs *= t
    dirs += start
    dirs -= origin
    dirs /= res
    return np.floor(dirs, out=dirs).astype(np.int64)


def _flat_in_grid(grid: OccupancyGrid, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Flat indices of the (rows, cols) cells that lie in the grid."""
    # Viewed unsigned, a negative index is huge, so one test per axis
    # checks both of its bounds.
    valid = (rows.view(np.uint64) < grid.rows) & (cols.view(np.uint64) < grid.cols)
    return (rows * grid.cols + cols)[valid]


def integrate_scan(grid: OccupancyGrid, pose, ranges, max_range: float) -> OccupancyGrid:
    """Fold one lidar scan (beam i at heading + 2*pi*i/n) into the grid.

    Cells traversed by a beam move toward free; the terminal cell moves
    toward occupied when the beam actually hit something (range < max_range).
    Each scan applies at most one update per cell and the hit update wins
    over the miss update.  Beams leaving the grid are truncated at the
    border.  The pose and every range must be finite.  Returns the grid for
    chaining; the update is in place.

    Each beam is sampled only out to its own range.  Both classes read their
    cells before either is written, misses are written first and hits last,
    so a cell in both classes ends with its hit update, and every copy of a
    cell repeated within a class writes the same value.  A miss leaves a
    cell at exactly ``P_MIN`` where it is, so those cells are skipped.
    """
    x, y, th = float(pose[0]), float(pose[1]), float(pose[2])
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(th)):
        raise ValueError("scan pose must be finite")
    ranges = np.asarray(ranges, dtype=float)
    n = ranges.shape[0]
    cell = grid.world_to_cell(x, y)
    if not grid.in_grid(cell):
        raise ValueError("scan pose lies outside the grid extent")
    if not np.isfinite(ranges).all():
        raise ValueError("scan ranges must be finite")
    if n == 0:
        return grid

    res = grid.resolution
    ox, oy = grid.origin
    angles = th + beam_offsets(n)
    cos, sin = np.cos(angles), np.sin(angles)

    # Sample along each beam at half-cell spacing; as a traversal this is the
    # cell set the beam sweeps, minus corner-only touches.  Beam i takes the
    # counts[i] samples ts[:counts[i]], the ones short of its range.
    step = 0.5 * res
    ts = (np.arange(int(math.ceil(ranges.max() / step)) + 1) + 0.5) * step
    counts = np.searchsorted(ts, ranges, side="left")
    ends = np.cumsum(counts)
    k = np.arange(ends[-1])
    k -= np.repeat(ends - counts, counts)
    t = ts[k]
    miss = np.append(
        _flat_in_grid(grid, _floor_cells(y, oy, res, np.repeat(sin, counts), t),
                      _floor_cells(x, ox, res, np.repeat(cos, counts), t)),
        cell[0] * grid.cols + cell[1],
    )
    hit_beams = ranges < max_range
    hit_ranges = ranges[hit_beams]
    hit = _flat_in_grid(grid, _floor_cells(y, oy, res, sin[hit_beams], hit_ranges),
                        _floor_cells(x, ox, res, cos[hit_beams], hit_ranges))

    flat_p = grid.p.reshape(-1)
    hit_p = flat_p[hit]  # read before the miss write, which may cover hit cells
    miss_p = flat_p[miss]
    moving = miss_p != P_MIN
    miss = miss[moving]
    if miss.size:
        flat_p[miss] = np.minimum(np.maximum(_sigmoid(_logit(miss_p[moving]) + LOGIT_MISS), P_MIN), P_MAX)
    if hit.size:
        flat_p[hit] = np.minimum(np.maximum(_sigmoid(_logit(hit_p) + LOGIT_HIT), P_MIN), P_MAX)
    return grid


def _or_shifted(dst: np.ndarray, src: np.ndarray, dr: int, dc: int) -> None:
    """dst[i, j] |= src[i + dr, j + dc] wherever both cells lie in the grid."""
    rows, cols = src.shape
    if abs(dr) >= rows or abs(dc) >= cols:
        return  # no overlap; the slice bounds below would go negative and wrap
    dst[max(-dr, 0):rows - max(dr, 0), max(-dc, 0):cols - max(dc, 0)] |= \
        src[max(dr, 0):rows - max(-dr, 0), max(dc, 0):cols - max(-dc, 0)]


def dilate(mask: np.ndarray, half_widths) -> np.ndarray:
    """Binary dilation of a 2-D bool ``mask``, as
    ``scipy.ndimage.binary_dilation`` computes it with its default zero
    border, by a structure of odd height whose row ``k`` is the column
    interval [-half_widths[k], half_widths[k]] about the centre column.

    Row by row: the mask is first widened along the columns to every
    half-width (two shifted ORs per unit of width), then each structure row
    ORs in its widened mask, shifted by the row's offset from the centre.
    """
    n = len(half_widths) // 2
    widened = [mask]
    for w in range(1, max(half_widths) + 1):
        wide = widened[-1].copy()
        _or_shifted(wide, mask, 0, w)
        _or_shifted(wide, mask, 0, -w)
        widened.append(wide)
    out = widened[half_widths[n]].copy()
    for k, w in enumerate(half_widths):
        if k != n:
            _or_shifted(out, widened[w], n - k, 0)  # the structure reflected, as scipy does
    return out


def frontier_mask(grid: OccupancyGrid) -> np.ndarray:
    """True at free cells with at least one unknown cell in their
    8-neighborhood (the 3 x 3 dilation may include the cell itself: a free
    cell is never unknown)."""
    return free_mask(grid) & dilate(unknown_mask(grid), (1, 1, 1))


def frontier_cells(grid: OccupancyGrid, mask: np.ndarray | None = None) -> list[tuple[int, int]]:
    """The frontier cells (see ``frontier_mask``) in row-major order, as
    tuples of Python ints.

    ``mask`` may carry this grid's ``frontier_mask``, built once per
    snapshot for every frontier test on it."""
    if mask is None:
        mask = frontier_mask(grid)
    return list(map(tuple, np.argwhere(mask).tolist()))


def map_entropy(grid: OccupancyGrid) -> float:
    """H = -sum_ij p_ij * ln p_ij over all cells (single-term form, nats).

    Deliberately not the two-term binary entropy: the quantity is only used
    as a change detector, and the single-term form is what the rest of the
    stack (re-selection trigger, tests) is calibrated against.
    """
    p = grid.p
    return float(-np.sum(p * np.log(p)))


def save_pgm(grid: OccupancyGrid, pgm_path: str | Path, sidecar_path: str | Path | None = None) -> None:
    """Write probabilities as an 8-bit binary PGM (value = round(p * 255),
    row 0 first) plus a JSON sidecar with origin/resolution."""
    pgm_path = Path(pgm_path)
    write_pgm(pgm_path, grid.p)
    if sidecar_path is None:
        sidecar_path = pgm_path.with_suffix(".json")
    meta = {
        "schema": 1,
        "resolution": grid.resolution,
        "origin": [grid.origin[0], grid.origin[1]],
        "rows": grid.rows,
        "cols": grid.cols,
    }
    Path(sidecar_path).write_text(json.dumps(meta, sort_keys=True) + "\n")


def load_pgm(pgm_path: str | Path, sidecar_path: str | Path | None = None) -> OccupancyGrid:
    """Inverse of save_pgm; probabilities are quantized to 8 bits."""
    pgm_path = Path(pgm_path)
    raw = pgm_path.read_bytes()
    if not raw.startswith(b"P5"):
        raise ValueError("expected a binary (P5) PGM file")
    header, rest = raw.split(b"\n", 1)
    dims, rest = rest.split(b"\n", 1)
    maxval, pixels = rest.split(b"\n", 1)
    cols, rows = (int(v) for v in dims.split())
    if int(maxval) != 255:
        raise ValueError("expected maxval 255")
    p = np.frombuffer(pixels[: rows * cols], dtype=np.uint8).reshape(rows, cols) / 255.0
    if sidecar_path is None:
        sidecar_path = pgm_path.with_suffix(".json")
    meta = json.loads(Path(sidecar_path).read_text())
    return OccupancyGrid(meta["resolution"], tuple(meta["origin"]), p.astype(float))
