import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import binary_dilation

from navstack.mapping import (
    CellClass,
    FREE_THRESHOLD,
    LOGIT_HIT,
    LOGIT_MISS,
    OCCUPIED_THRESHOLD,
    OccupancyGrid,
    P_MAX,
    P_MIN,
    classify,
    classify_p,
    dilate,
    free_mask,
    frontier_cells,
    frontier_mask,
    integrate_scan,
    load_pgm,
    map_entropy,
    save_pgm,
    unknown_mask,
)


def fresh(rows=20, cols=20):
    return OccupancyGrid.fresh(rows, cols, 0.1, (0.0, 0.0))


class TestGridBasics:
    def test_fresh_is_unknown(self):
        g = fresh()
        assert np.all(g.p == 0.5)

    def test_world_cell_round_trip(self):
        g = fresh()
        cell = g.world_to_cell(0.55, 1.25)
        assert cell == (12, 5)
        assert g.cell_center(cell) == (pytest.approx(0.55), pytest.approx(1.25))


class TestClassify:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (0.5, CellClass.UNKNOWN),
            (0.53, CellClass.OCCUPIED),
            (0.47, CellClass.FREE),
            (0.52, CellClass.UNKNOWN),  # boundary values stay unknown
            (0.48, CellClass.UNKNOWN),
            (0.98, CellClass.OCCUPIED),
            (0.02, CellClass.FREE),
        ],
    )
    def test_thresholds(self, p, expected):
        assert classify_p(p) is expected

    def test_classify_reads_grid(self):
        g = fresh()
        g.p[3, 4] = 0.95
        assert classify(g, (3, 4)) is CellClass.OCCUPIED


class TestIntegrateScan:
    def test_max_range_beam_frees_traversed_cells(self):
        g = fresh(30, 30)
        integrate_scan(g, (1.05, 1.05, 0.0), np.array([1.5]), max_range=1.5)
        touched = g.p != 0.5
        assert touched.sum() > 10
        assert np.all(g.p[touched] < 0.5)
        assert not np.any(g.p > 0.5)

    def test_repeated_hits_follow_log_odds_iteration(self):
        g = fresh(30, 30)
        pose = (0.55, 0.55, 0.0)
        hit_cell = g.world_to_cell(0.55 + 0.5, 0.55)
        expected = 0.5
        for k in range(1, 25):
            integrate_scan(g, pose, np.array([0.5]), max_range=2.0)
            logit = math.log(expected / (1 - expected)) + 0.85
            expected = min(max(1 / (1 + math.exp(-logit)), P_MIN), P_MAX)
            assert g.p[hit_cell] == pytest.approx(expected, abs=1e-12)
        assert g.p[hit_cell] == P_MAX

    def test_empty_scan_is_identity(self):
        g = fresh()
        before = g.p.copy()
        h_before = map_entropy(g)
        integrate_scan(g, (1.0, 1.0, 0.0), np.array([]), max_range=2.0)
        assert np.array_equal(g.p, before)
        assert map_entropy(g) == h_before

    def test_probabilities_stay_clamped(self):
        g = fresh(40, 40)
        rng = np.random.default_rng(0)
        for _ in range(60):
            pose = (rng.uniform(0.5, 3.5), rng.uniform(0.5, 3.5), rng.uniform(0, 6.28))
            ranges = rng.uniform(0.1, 2.0, 36)
            integrate_scan(g, pose, ranges, max_range=2.0)
        assert np.all(g.p >= P_MIN)
        assert np.all(g.p <= P_MAX)

    def test_beams_truncated_at_border(self):
        g = fresh(10, 10)
        integrate_scan(g, (0.15, 0.15, math.pi), np.array([5.0]), max_range=6.0)
        assert np.all(g.p >= P_MIN)  # no crash, and nothing outside touched

    def test_pose_outside_grid_rejected(self):
        g = fresh()
        with pytest.raises(ValueError):
            integrate_scan(g, (50.0, 50.0, 0.0), np.array([1.0]), max_range=2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_range_rejected(self, bad):
        g = fresh()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast warnings on the way to the error
            with pytest.raises(ValueError, match="must be finite"):
                integrate_scan(g, (1.0, 1.0, 0.0), np.array([0.5, bad, 1.0]), max_range=2.0)
        assert np.all(g.p == 0.5)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_pose_rejected(self, axis, bad):
        g = fresh()
        pose = [1.0, 1.0, 0.0]
        pose[axis] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast or cos warnings on the way to the error
            with pytest.raises(ValueError, match="scan pose must be finite"):
                integrate_scan(g, pose, np.array([0.5, 1.0, 3.0]), max_range=2.0)
        assert np.all(g.p == 0.5)


def _integrate_scan_oracle(grid, pose, ranges, max_range):
    """Reference scan update: the cell sets deduplicated with np.unique and
    np.setdiff1d; integrate_scan must match it bit for bit."""
    x, y, th = float(pose[0]), float(pose[1]), float(pose[2])
    ranges = np.asarray(ranges, dtype=float)
    n = ranges.shape[0]
    cell = grid.world_to_cell(x, y)
    if n == 0:
        return grid
    res = grid.resolution
    angles = th + 2.0 * math.pi * np.arange(n) / n
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    step = 0.5 * res
    n_steps = int(math.ceil(ranges.max() / step)) + 1
    ts = (np.arange(n_steps) + 0.5) * step
    mask = ts[None, :] < ranges[:, None]
    px = x + dirs[:, 0:1] * ts[None, :]
    py = y + dirs[:, 1:2] * ts[None, :]
    rows = np.floor((py - grid.origin[1]) / res).astype(np.int64)
    cols = np.floor((px - grid.origin[0]) / res).astype(np.int64)
    valid = mask & (rows >= 0) & (rows < grid.rows) & (cols >= 0) & (cols < grid.cols)
    miss_flat = rows[valid] * grid.cols + cols[valid]
    miss_flat = np.unique(np.append(miss_flat, cell[0] * grid.cols + cell[1]))

    hit_beams = ranges < max_range
    hx = x + dirs[hit_beams, 0] * ranges[hit_beams]
    hy = y + dirs[hit_beams, 1] * ranges[hit_beams]
    hrows = np.floor((hy - grid.origin[1]) / res).astype(np.int64)
    hcols = np.floor((hx - grid.origin[0]) / res).astype(np.int64)
    hvalid = (hrows >= 0) & (hrows < grid.rows) & (hcols >= 0) & (hcols < grid.cols)
    hit_flat = np.unique(hrows[hvalid] * grid.cols + hcols[hvalid])

    miss_flat = np.setdiff1d(miss_flat, hit_flat, assume_unique=True)
    flat_p = grid.p.reshape(-1)
    for flat, delta in ((miss_flat, LOGIT_MISS), (hit_flat, LOGIT_HIT)):
        if flat.size:
            logit = np.log(flat_p[flat] / (1.0 - flat_p[flat])) + delta
            flat_p[flat] = np.clip(1.0 / (1.0 + np.exp(-logit)), P_MIN, P_MAX)
    return grid


def _assert_scans_match_oracle(p0, scans, max_range, resolution=0.1):
    """Apply the scans to two copies of ``p0`` and require identical bytes
    after every scan."""
    g = OccupancyGrid(resolution, (0.0, 0.0), p0.copy())
    ref = OccupancyGrid(resolution, (0.0, 0.0), p0.copy())
    for pose, ranges in scans:
        with np.errstate(divide="ignore"):  # log(0) at cells that start at 0.0 or 1.0
            integrate_scan(g, pose, ranges, max_range)
            _integrate_scan_oracle(ref, pose, ranges, max_range)
        assert g.p.tobytes() == ref.p.tobytes()
    return g


class TestIntegrateScanOracle:
    def test_hit_in_robot_cell_wins_over_its_miss(self):
        g = _assert_scans_match_oracle(np.full((10, 10), 0.5), [((0.55, 0.55, 0.0), np.array([0.02, 3.0]))], 3.0)
        assert g.p[5, 5] > 0.5  # the robot cell is both a miss and a hit

    def test_hit_on_another_beams_miss_samples_wins(self):
        # Beam 1 (1 degree off beam 0) passes through beam 0's hit cell.
        ranges = np.full(360, 1.0)
        ranges[0] = 0.5
        g = _assert_scans_match_oracle(np.full((30, 30), 0.5), [((1.05, 1.05, 0.0), ranges)], 1.0)
        assert g.p[10, 15] > 0.5
        assert g.p[10, 16] < 0.5

    def test_beams_leave_the_grid_and_max_range_beams(self):
        scans = [((0.15, 0.15, math.pi), np.array([5.0, 0.3, 6.0, 2.0])),
                 ((0.85, 0.45, 0.3), np.array([6.0, 6.0, 0.75]))]
        _assert_scans_match_oracle(np.full((6, 9), 0.5), scans, 6.0)


# Start values the update must treat exactly: the two clamp bounds (a miss
# leaves P_MIN and a hit leaves P_MAX where they are), unknown, and the two
# ends of [0, 1], which lie outside the clamp and must still move onto it.
_EXACT_P = [P_MIN, P_MAX, 0.5, 0.0, 1.0]


@st.composite
def _scan_sequences(draw):
    rows = draw(st.integers(1, 25))
    cols = draw(st.integers(1, 25))
    max_range = draw(st.sampled_from([0.5, 1.5, 4.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    p0 = rng.uniform(P_MIN, P_MAX, (rows, cols))
    exact = rng.random((rows, cols)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    p0[exact] = rng.choice(_EXACT_P, size=int(exact.sum()))
    step = 0.5 * 0.1
    special = st.one_of(
        st.sampled_from([0.0, 0.001, 0.04, max_range, 2.0 * max_range]),  # no samples, own cell, max range, past the border
        st.integers(0, int(2.0 * max_range / step)).map(lambda k: (k + 0.5) * step),  # exactly on a sample
    )
    scans = []
    for _ in range(draw(st.integers(1, 6))):
        pose = ((draw(st.integers(0, cols - 1)) + draw(st.floats(0.05, 0.95))) * 0.1,
                (draw(st.integers(0, rows - 1)) + draw(st.floats(0.05, 0.95))) * 0.1,
                draw(st.floats(-math.pi, math.pi)))
        ranges = draw(st.lists(st.one_of(st.floats(0.0, max_range), special), min_size=1, max_size=48))
        # Repeating a scan from one pose drives its cells onto the clamps.
        scans += [(pose, np.array(ranges))] * draw(st.sampled_from([1, 1, 4, 12]))
    return p0, scans, max_range


@settings(max_examples=200, deadline=None)
@given(_scan_sequences())
def test_integrate_scan_matches_oracle(case):
    p0, scans, max_range = case
    _assert_scans_match_oracle(p0, scans, max_range)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), st.integers(1, 30), st.booleans(), st.integers(0, 2**31 - 1),
       st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(-10.0, 10.0),
                          st.lists(st.floats(0.0, 5.0), min_size=1, max_size=40)),
                min_size=1, max_size=25))
def test_probabilities_stay_within_clamp(rows, cols, start_fresh, seed, scans):
    """However many scans land on a cell, from any pose and with any finite
    ranges, its probability stays in [P_MIN, P_MAX]."""
    rng = np.random.default_rng(seed)
    p0 = np.full((rows, cols), 0.5) if start_fresh else rng.uniform(P_MIN, P_MAX, (rows, cols))
    g = OccupancyGrid(0.1, (0.0, 0.0), p0)
    for fx, fy, th, ranges in scans:
        pose = (min(fx, 0.999) * cols * 0.1, min(fy, 0.999) * rows * 0.1, th)
        integrate_scan(g, pose, np.array(ranges), max_range=3.0)
        assert np.all(g.p >= P_MIN) and np.all(g.p <= P_MAX)


def _frontier_oracle(grid):
    out = []
    rows, cols = grid.p.shape
    for r in range(rows):
        for c in range(cols):
            if not grid.p[r, c] < FREE_THRESHOLD:
                continue
            hit = False
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < rows and 0 <= cc < cols:
                        if FREE_THRESHOLD <= grid.p[rr, cc] <= OCCUPIED_THRESHOLD:
                            hit = True
            if hit:
                out.append((r, c))
    return out


class TestFrontiers:
    def test_fully_unknown_grid(self):
        assert frontier_cells(fresh()) == []

    def test_fully_free_grid(self):
        g = fresh()
        g.p[:] = 0.1
        assert frontier_cells(g) == []

    def test_matches_bruteforce_oracle_100_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            g = OccupancyGrid(0.1, (0.0, 0.0), rng.uniform(0.0, 1.0, (50, 50)))
            oracle = _frontier_oracle(g)
            cells = frontier_cells(g)
            assert cells == oracle
            assert all(type(v) is int for rc in cells for v in rc)
            assert frontier_cells(g, frontier_mask(g)) == oracle


class TestEntropy:
    def test_uniform_half_grid(self):
        g = OccupancyGrid(0.1, (0.0, 0.0), np.full((10, 10), 0.5))
        assert map_entropy(g) == pytest.approx(100 * (-0.5 * math.log(0.5)), rel=1e-12)

    def test_upper_clamp_value(self):
        g = OccupancyGrid(0.1, (0.0, 0.0), np.full((7, 9), 0.98))
        assert map_entropy(g) == pytest.approx(63 * (-0.98 * math.log(0.98)), rel=1e-12)

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            g = OccupancyGrid(0.1, (0.0, 0.0), rng.uniform(P_MIN, P_MAX, (23, 31)))
            naive = -sum(p * math.log(p) for p in g.p.reshape(-1))
            assert map_entropy(g) == pytest.approx(naive, rel=1e-9)

    def test_single_term_form_is_not_symmetric(self):
        # the single-term form keeps decreasing as p -> 1, unlike binary entropy
        low = OccupancyGrid(0.1, (0.0, 0.0), np.full((5, 5), 0.5))
        high = OccupancyGrid(0.1, (0.0, 0.0), np.full((5, 5), 0.98))
        assert map_entropy(high) < map_entropy(low)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_frontier_cells_are_free_with_unknown_neighbor(seed):
    rng = np.random.default_rng(seed)
    g = OccupancyGrid(0.1, (0.0, 0.0), rng.uniform(0.0, 1.0, (20, 20)))
    unk = unknown_mask(g)
    for r, c in frontier_cells(g):
        assert classify(g, (r, c)) is CellClass.FREE
        neighborhood = unk[max(r - 1, 0):r + 2, max(c - 1, 0):c + 2]
        assert neighborhood.any()


@st.composite
def bool_masks(draw, max_side=20):
    """Bool masks of 1 to ``max_side`` rows and columns: a random fill,
    empty or full."""
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)))
    fill = draw(st.sampled_from(["random", "empty", "full"]))
    if fill != "random":
        return np.full(shape, fill == "full")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random(shape) < rng.random()


def _interval_structure(half_widths) -> np.ndarray:
    n = max(half_widths)
    structure = np.zeros((len(half_widths), 2 * n + 1), dtype=bool)
    for k, w in enumerate(half_widths):
        structure[k, n - w:n + w + 1] = True
    return structure


@settings(max_examples=300, deadline=None)
@given(bool_masks(), st.lists(st.integers(0, 6), min_size=1, max_size=15).filter(lambda hw: len(hw) % 2 == 1))
def test_dilate_matches_scipy(mask, half_widths):
    # Structures as high or wide as the grid and beyond, lopsided ones too.
    got = dilate(mask, half_widths)
    want = binary_dilation(mask, structure=_interval_structure(half_widths))
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_dilate_does_not_write_its_input():
    mask = np.eye(5, dtype=bool)
    dilate(mask, (1, 2, 1))
    assert np.array_equal(mask, np.eye(5, dtype=bool))


def _frontier_mask_oracle(grid: OccupancyGrid) -> np.ndarray:
    """The eight-offset frontier loop that ``dilate`` replaced, kept verbatim."""
    unk = unknown_mask(grid)
    near_unknown = np.zeros_like(unk)
    rows, cols = unk.shape
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            src = unk[max(dr, 0):rows + min(dr, 0), max(dc, 0):cols + min(dc, 0)]
            near_unknown[max(-dr, 0):rows + min(-dr, 0), max(-dc, 0):cols + min(-dc, 0)] |= src
    return free_mask(grid) & near_unknown


@settings(max_examples=200, deadline=None)
@given(st.tuples(st.integers(1, 12), st.integers(1, 12)), st.integers(0, 2**32 - 1))
def test_frontier_mask_matches_oracle(shape, seed):
    rng = np.random.default_rng(seed)
    p = rng.choice([P_MIN, 0.3, 0.48, 0.5, 0.52, 0.7, P_MAX], size=shape)
    g = OccupancyGrid(0.1, (0.0, 0.0), p)
    assert np.array_equal(frontier_mask(g), _frontier_mask_oracle(g))


class TestPgmRoundTrip:
    def test_round_trip_and_byte_stability(self, tmp_path):
        rng = np.random.default_rng(3)
        g = OccupancyGrid(0.05, (1.0, -2.0), rng.uniform(P_MIN, P_MAX, (12, 17)))
        p1 = tmp_path / "a.pgm"
        save_pgm(g, p1)
        loaded = load_pgm(p1)
        assert loaded.resolution == g.resolution
        assert loaded.origin == g.origin
        assert loaded.p.shape == g.p.shape
        assert np.max(np.abs(loaded.p - g.p)) <= 0.5 / 255 + 1e-12
        p2 = tmp_path / "b.pgm"
        save_pgm(g, p2)
        assert p1.read_bytes() == p2.read_bytes()
