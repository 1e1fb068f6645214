import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.ndimage import label

from navstack.exploration import (
    ENTROPY_TRIGGER,
    MIN_CLUSTER_SIZE,
    ExplorationState,
    ScoredCandidate,
    candidate_csv_rows,
    cluster_representatives,
    score_candidates,
    select_exploration_point,
    should_reselect,
)
from navstack.mapping import OccupancyGrid, P_MAX, P_MIN, frontier_mask, map_entropy
from navstack.planning import distance_field, plan_grid
from navstack.world import ROBOT_RADIUS

RES = 0.1


def open_grid(rows=40, cols=40):
    return OccupancyGrid(RES, (0.0, 0.0), np.full((rows, cols), P_MIN))


def selection_oracle(scored, gamma):
    """Literal normalized two-factor score, argmin with documented ties."""
    d = [s.d1 + s.d2 for s in scored]
    v = [s.v for s in scored]
    dmin, dmax = min(d), max(d)
    vmin, vmax = min(v), max(v)
    totals = []
    for di, vi in zip(d, v):
        term_d = (di - dmin) / (dmax - dmin) if dmax > dmin else 0.0
        term_v = gamma * (vmax - vi) / (vmax - vmin) if vmax > vmin else 0.0
        totals.append(term_d + term_v)
    best = min(range(len(scored)), key=lambda i: (totals[i], d[i], scored[i].cell))
    return scored[best].cell


def run_on(cell):
    """A row of at least ``MIN_CLUSTER_SIZE`` frontier cells centred on
    ``cell``, so that ``cell`` is its representative."""
    r, c = cell
    half = MIN_CLUSTER_SIZE // 2
    return [(r, c + k) for k in range(-half, half + 1)]


def mask_of(cells, shape=(40, 40)):
    """A frontier mask of ``shape`` holding ``cells``."""
    mask = np.zeros(shape, dtype=bool)
    for cell in cells:
        mask[cell] = True
    return mask


def make_scored(rng, n):
    cells = set()
    while len(cells) < n:
        cells.add((int(rng.integers(0, 50)), int(rng.integers(0, 50))))
    return [
        ScoredCandidate(cell=c, d1=float(rng.uniform(0, 10)), d2=float(rng.uniform(0, 10)),
                        v=float(rng.uniform(-5, 5)))
        for c in sorted(cells)
    ]


class TestScoreCandidates:
    def test_candidate_at_goal_degenerate_distance(self):
        g = open_grid()
        g.p[20, 30] = 0.5  # make (20, 29) a frontier-ish neighbor target
        cell = (20, 29)
        goal = g.cell_center(cell)
        flood = distance_field(plan_grid(g, ROBOT_RADIUS), (20, 5))  # from the robot cell
        scored = score_candidates(mask_of(run_on(cell)), g, goal, lambda p: 0.0, flood)
        assert len(scored) == 1
        assert scored[0].d1 == pytest.approx(0.0, abs=1e-12)
        straight = abs(29 - 5) * RES
        assert scored[0].d2 == pytest.approx(straight, abs=RES)

    def test_wall_increases_path_cost(self):
        g = open_grid()
        g.p[0:30, 20] = P_MAX  # wall with a gap at the bottom
        goal = (3.9, 2.05)
        open_c = (25, 10)
        walled_c = (20, 30)
        g.p[26, 10] = 0.5
        g.p[20, 31] = 0.5
        flood = distance_field(plan_grid(g, ROBOT_RADIUS), (20, 10))  # from the robot cell
        scored = score_candidates(mask_of(run_on(open_c) + run_on(walled_c)), g, goal, lambda p: 0.0, flood)
        by_cell = {s.cell: s for s in scored}
        assert by_cell[walled_c].d2 > by_cell[open_c].d2

    def test_unreachable_candidates_dropped(self):
        g = open_grid()
        g.p[9:12, 9:12] = P_MAX
        g.p[10, 10] = P_MIN  # sealed pocket
        flood = distance_field(plan_grid(g, ROBOT_RADIUS), (30, 30))  # from the robot cell
        scored = score_candidates(mask_of(run_on((10, 10))), g, (1.0, 1.0), lambda p: 0.0, flood)
        assert scored == []

    def test_critic_pure(self):
        calls = []

        def critic(pt):
            calls.append(pt)
            return 0.25 * pt[0]

        g = open_grid()
        flood = distance_field(plan_grid(g, ROBOT_RADIUS), (5, 5))  # from the robot cell
        s1 = score_candidates(mask_of(run_on((20, 20))), g, (1.0, 1.0), critic, flood)
        s2 = score_candidates(mask_of(run_on((20, 20))), g, (1.0, 1.0), critic, flood)
        assert s1[0].v == s2[0].v


class TestSelect:
    def test_gamma_zero_is_pure_distance_argmin(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scored = make_scored(rng, 6)
            cell = select_exploration_point(scored, 0.0)
            best = min(scored, key=lambda s: (s.d, s.cell))
            assert cell == best.cell

    def test_equal_distances_picks_safest(self):
        scored = [
            ScoredCandidate((0, 0), 2.0, 3.0, v=0.1),
            ScoredCandidate((0, 1), 1.0, 4.0, v=0.9),
            ScoredCandidate((0, 2), 4.0, 1.0, v=0.4),
        ]
        assert select_exploration_point(scored, 2.0) == (0, 1)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            scored = make_scored(rng, int(rng.integers(1, 8)))
            assert select_exploration_point(scored, 1.0) == selection_oracle(scored, 1.0)

    def test_selection_in_candidate_list_and_deterministic(self):
        rng = np.random.default_rng(3)
        scored = make_scored(rng, 5)
        a = select_exploration_point(scored, 0.7)
        b = select_exploration_point(scored, 0.7)
        assert a == b
        assert a in [s.cell for s in scored]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_exploration_point([], 1.0)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=0.05, max_value=20.0),
    st.floats(min_value=-30.0, max_value=30.0),
    st.floats(min_value=0.05, max_value=4.0),
    st.floats(min_value=-10.0, max_value=10.0),
)
def test_affine_rescaling_invariance(seed, a_d, b_d, a_v, b_v):
    # positive affine maps on all distances (and separately on all safety
    # values) cannot change the argmin thanks to the min-max normalization
    rng = np.random.default_rng(seed)
    scored = make_scored(rng, 5)
    base = select_exploration_point(scored, 1.0)
    ratio = a_v  # same positive scale on v
    scaled = [
        ScoredCandidate(s.cell, a_d * s.d1 + b_d / 2, a_d * s.d2 + b_d / 2, ratio * s.v + b_v)
        for s in scored
    ]
    assert select_exploration_point(scaled, 1.0) == base


class TestClustering:
    def test_one_rep_per_component(self):
        cells = [(5, 5), (5, 6), (6, 5), (20, 20), (20, 21)]
        reps = cluster_representatives(mask_of(cells), cap=10, min_size=1)
        assert len(reps) == 2
        assert reps[0] in {(5, 5), (5, 6), (6, 5)}  # larger cluster first

    def test_cap_keeps_largest(self):
        cells = [(0, 0), (0, 1), (0, 2), (10, 10), (30, 30)]
        reps = cluster_representatives(mask_of(cells), cap=1, min_size=1)
        assert reps == [(0, 1)]  # centroid-nearest of the 3-cell cluster

    def test_min_size_filters_specks(self):
        cells = [(0, 0), (10, 10), (10, 11), (10, 12)]
        reps = cluster_representatives(mask_of(cells), cap=10, min_size=3)
        assert reps == [(10, 11)]


    def test_diagonal_steps_join_one_cluster(self):
        cells = [(0, 0), (1, 1), (2, 2), (3, 1), (10, 0), (9, 1)]
        assert cluster_representatives(mask_of(cells), cap=10, min_size=1) == [(1, 1), (9, 1)]

    def test_no_cells_no_clusters(self):
        assert cluster_representatives(mask_of([]), cap=10, min_size=1) == []


def _cluster_representatives_oracle(frontiers, grid_shape, cap: int, min_size: int = 1):
    """The scipy-labelled clustering that ``cluster_representatives``
    replaced, kept verbatim."""
    if not frontiers:
        return []
    mask = np.zeros(grid_shape, dtype=bool)
    rows = np.array([c[0] for c in frontiers])
    cols = np.array([c[1] for c in frontiers])
    mask[rows, cols] = True
    labels, count = label(mask, structure=np.ones((3, 3), dtype=int))
    reps: list[tuple[int, tuple[int, int]]] = []
    for k in range(1, count + 1):
        members = np.argwhere(labels == k)
        if len(members) < min_size:
            continue
        centroid = members.mean(axis=0)
        d2 = np.sum((members - centroid) ** 2, axis=1)
        order = np.lexsort((members[:, 1], members[:, 0], d2))
        rep = tuple(int(v) for v in members[order[0]])
        reps.append((len(members), rep))
    reps.sort(key=lambda t: (-t[0], t[1]))
    return [rep for _, rep in reps[:cap]]


@st.composite
def frontier_sets(draw):
    """Row-major cells of a random mask on a grid of 1-30 rows and columns;
    a diagonal-only fill gives clusters joined only through corners."""
    shape = (draw(st.integers(1, 30)), draw(st.integers(1, 30)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fill = draw(st.sampled_from(["random", "diagonal", "full"]))
    if fill == "random":
        mask = rng.random(shape) < rng.random()
    elif fill == "diagonal":
        r, c = np.indices(shape)
        mask = ((r + c) % 2 == 0) & (rng.random(shape) < 0.8)  # a checkerboard with holes
    else:
        mask = np.ones(shape, dtype=bool)
    return shape, [tuple(rc) for rc in np.argwhere(mask)]


@settings(max_examples=300, deadline=None)
@given(frontier_sets(), st.integers(1, 70), st.integers(1, 6))
@example(((3, 3), [(0, 0), (1, 1), (2, 2), (0, 2), (2, 0)]), 1, 1)  # one X joined at corners
def test_cluster_representatives_matches_scipy_label(case, cap, min_size):
    shape, cells = case
    got = cluster_representatives(mask_of(cells, shape), cap, min_size)
    assert got == _cluster_representatives_oracle(cells, shape, cap, min_size)
    assert all(type(v) is int for rep in got for v in rep)


def reselect(state, grid, goal, pose):
    """``should_reselect`` on the grid's own frontier mask and entropy."""
    return should_reselect(state, grid, goal, pose, frontier_mask(grid), map_entropy(grid))


class TestTriggers:
    def _state_on(self, grid, cell):
        return ExplorationState(
            current_point=cell,
            entropy_at_selection=map_entropy(grid),
            goal_known=False,
        )

    def _frontier_setup(self):
        g = open_grid()
        g.p[10, 11] = 0.5  # unknown neighbor keeps (10, 10) a frontier
        goal = (10.5, 10.5)  # outside the 4 m grid? keep inside: use far cell
        return g

    def test_nothing_changed(self):
        g = self._frontier_setup()
        st_ = self._state_on(g, (10, 10))
        goal = g.cell_center((35, 35))
        g.p[35, 35] = 0.5  # goal cell unknown
        st_.entropy_at_selection = map_entropy(g)
        pose = (*g.cell_center((30, 5)), 0.0)
        assert reselect(st_, g, goal, pose) == "no"

    def test_arrival_triggers(self):
        g = self._frontier_setup()
        goal = g.cell_center((35, 35))
        g.p[35, 35] = 0.5
        st_ = self._state_on(g, (10, 10))
        pose = (*g.cell_center((10, 10)), 0.0)
        assert reselect(st_, g, goal, pose) == "reselect"

    def test_entropy_change_triggers(self):
        g = self._frontier_setup()
        goal = g.cell_center((35, 35))
        g.p[35, 35] = 0.5
        st_ = self._state_on(g, (10, 10))
        h0 = map_entropy(g)
        flip = np.random.default_rng(0).uniform(0, 1, g.p.shape) < 0.2
        g.p[flip] = 0.5  # synthetic map edit
        g.p[35, 35] = 0.5
        g.p[10, 10] = P_MIN
        g.p[10, 11] = 0.5
        h1 = map_entropy(g)
        assert abs(h1 - h0) / h0 > 0.10  # confirm the edit is big enough
        pose = (*g.cell_center((30, 5)), 0.0)
        assert reselect(st_, g, goal, pose) == "reselect"

    def test_point_losing_frontier_status_triggers(self):
        g = self._frontier_setup()
        goal = g.cell_center((35, 35))
        g.p[35, 35] = 0.5
        st_ = self._state_on(g, (10, 10))
        g.p[10, 11] = P_MIN  # unknown neighbor resolved; no longer a frontier
        st_.entropy_at_selection = map_entropy(g)
        pose = (*g.cell_center((30, 5)), 0.0)
        assert reselect(st_, g, goal, pose) == "reselect"

    def test_goal_becoming_known_dominates(self):
        g = self._frontier_setup()
        goal = g.cell_center((35, 35))
        g.p[35, 35] = 0.5
        st_ = self._state_on(g, (10, 10))
        g.p[35, 35] = P_MIN  # goal observed free
        st_.entropy_at_selection = map_entropy(g)
        pose = (*g.cell_center((10, 10)), 0.0)  # arrival would also fire
        assert reselect(st_, g, goal, pose) == "goal_now_known"

    def test_entropy_boundary_one_microstep(self):
        g = self._frontier_setup()
        goal = g.cell_center((35, 35))
        g.p[35, 35] = 0.5
        h1 = map_entropy(g)
        pose = (*g.cell_center((30, 5)), 0.0)
        for sign, expected in ((+1, "reselect"), (-1, "no")):
            ratio = ENTROPY_TRIGGER * (1 + sign * 1e-6)
            st_ = ExplorationState((10, 10), h1 / (1 + ratio), False)
            got = reselect(st_, g, goal, pose)
            assert got == expected, sign


def test_candidate_rows_align_with_selection():
    rng = np.random.default_rng(1)
    scored = make_scored(rng, 6)
    rows = candidate_csv_rows(scored, 0.0)
    assert len(rows) == 6
    scores = [r[-1] for r in rows]
    d_totals = [r[4] for r in rows]
    assert scores.index(min(scores)) == d_totals.index(min(d_totals))
