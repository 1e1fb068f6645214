"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 8 and 9 share one trained artifact set produced by a module-scoped
fixture (two stage-1 experts, then fusion co-training); everything else is
self-contained and fast.  Run with -v to see one line per criterion, or -s
for the detail prints.
"""

import heapq
import json
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binomtest

from navstack.exploration import (
    ENTROPY_TRIGGER,
    ExplorationState,
    ScoredCandidate,
    select_exploration_point,
    should_reselect,
)
from navstack.mapping import OccupancyGrid, P_MAX, P_MIN, frontier_cells, frontier_mask, map_entropy
from navstack.planning import SQRT2, distance_field, extract_waypoint, plan_grid, plan_path
from navstack.policy import (
    ExpertBank,
    MlpParams,
    Observation,
    ObservationConfig,
    SingleExpertPolicy,
    act_with_alpha,
    critic_value,
    forward,
    fuse,
    scale_to_limits,
)
from navstack.rewards import (
    FUSION,
    GO_STRAIGHT,
    OBSTACLE_AVOIDANCE,
    RewardProfile,
    Trajectory,
    Transition,
    episode_metrics,
    step_reward,
)
from navstack.scenarios import blind_alley, double_branch, training_scenarios
from navstack.scripted import CompositePolicy, scripted_bundle
from navstack.stack import StackConfig, run_episode
from navstack.training import rollout_lower, train_pipeline
from navstack.world import ACTION_HIGH, ACTION_LOW


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# Trained artifacts shared by criteria 8 and 9


@pytest.fixture(scope="module")
def trained():
    t0 = time.time()
    gs, oa, bundle = train_pipeline()
    return {
        "obs_cfg": bundle.obs_config,
        "gs": gs,
        "oa": oa,
        "bundle": bundle,
        "train_seconds": time.time() - t0,
    }


# ---------------------------------------------------------------------------
# 1. Fusion identity


def test_criterion_01_fusion_identity():
    obs_cfg = ObservationConfig()
    rng = np.random.default_rng(101)
    sizes = (obs_cfg.dim, 64, 64, 3)
    t0 = time.time()
    for _ in range(100):
        bank = ExpertBank(tuple(
            MlpParams.random(*sizes, rng=rng, input_scales=obs_cfg.feature_scales())
            for _ in range(4)
        ))
        obs = Observation(
            ranges=rng.uniform(0.1, 6.0, obs_cfg.beams),
            motion=rng.normal(0, 1, obs_cfg.beams),
            goal=rng.uniform(-6, 6, 2),
            velocity=rng.uniform(-1, 1, 3),
        )
        for n in range(4):
            alpha = np.zeros(4)
            alpha[n] = 1.0
            via_fusion = act_with_alpha(bank, alpha, obs)
            direct = np.clip(scale_to_limits(forward(bank.experts[n], obs)), ACTION_LOW, ACTION_HIGH)
            assert np.array_equal(via_fusion, direct)
        alpha = rng.dirichlet(np.ones(4))
        fused = fuse(bank, alpha)
        for i, arr in enumerate(fused.arrays()):
            stack = np.stack([e.arrays()[i] for e in bank.experts])
            assert np.all(arr >= stack.min(axis=0) - 1e-12)
            assert np.all(arr <= stack.max(axis=0) + 1e-12)
    elapsed = time.time() - t0
    report("criterion 1 (fusion identity)",
           elapsed < 1.0,
           f"100 banks, one-hot exact + hull, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Reward preset table and hand-evaluated transitions


def test_criterion_02_reward_table():
    presets_ok = (
        GO_STRAIGHT == RewardProfile(w_g=3, w_o=0, w_c=-0.25, w_r=1, w_t=-1, w_e=-1, w_a=-0.5)
        and OBSTACLE_AVOIDANCE == RewardProfile(w_g=1, w_o=-0.4, w_c=-1, w_r=0.25, w_t=1, w_e=1, w_a=0)
        and FUSION == RewardProfile(w_g=4, w_o=0, w_c=-1, w_r=1, w_t=0, w_e=0, w_a=0)
    )
    cases = [
        (GO_STRAIGHT, Transition(5.0, 4.9, 6.0, 0.0), 3 * (5.0 - 4.9) - 0.01),
        (GO_STRAIGHT, Transition(2.0, 2.0, 0.4, 0.5, collision=True),
         -0.25 * 15 - 0.01 - 0.5 * (0.5 - 0.3)),
        (GO_STRAIGHT, Transition(0.4, 0.2, 1.0, -0.8, reached=True),
         3 * (0.4 - 0.2) + 20 - 0.01 - 0.5 * (0.8 - 0.3)),
        (OBSTACLE_AVOIDANCE, Transition(3.0, 3.0, 0.3, 0.0), -0.4 * (0.3 / 0.3) + 0.01),
        (OBSTACLE_AVOIDANCE, Transition(4.0, 4.05, 2.0, 0.0, timeout=True),
         1 * (4.0 - 4.05) + 0.01 + 5),
        (OBSTACLE_AVOIDANCE, Transition(2.0, 1.9, 0.45, 1.0),
         1 * (2.0 - 1.9) - 0.4 * (0.15 / 0.45) + 0.01),
        (FUSION, Transition(5.0, 4.9, 6.0, 0.0), 4 * (5.0 - 4.9)),
        (FUSION, Transition(1.0, 1.0, 0.2, 0.0, collision=True), -15.0),
        (FUSION, Transition(0.5, 0.25, 1.0, 0.0, reached=True), 4 * (0.5 - 0.25) + 20),
    ]
    worst = max(abs(step_reward(p, t) - expected) for p, t, expected in cases)
    report("criterion 2 (reward table)",
           presets_ok and worst <= 1e-12,
           f"3 presets literal, 9 transitions, worst |err| {worst:.1e}")


# ---------------------------------------------------------------------------
# 3. Episode metric formulas


def test_criterion_03_metric_formulas():
    def traj(min_ranges, d_start, d_end, outcome="success"):
        return Trajectory(np.asarray(min_ranges, float), d_start, d_end, outcome, 10.0,
                          10.0 if outcome == "success" else None)

    errs = []
    # direct evaluation: (10 - 0) / (10 * 100)
    m = episode_metrics(traj([1.0] * 100, 10.0, 0.0))
    errs.append(abs(m["ansps"] - (10.0 - 0.0) / (10.0 * 100)))
    m = episode_metrics(traj([0.3, 0.45, 0.6, 2.0], 8.0, 6.0))
    expected_arsps = (1.0 + (0.15 / 0.45) + 0.0 + 0.0) / 4
    errs.append(abs(m["arsps"] - expected_arsps))
    errs.append(abs(m["ansps"] - (8.0 - 6.0) / (8.0 * 4)))
    m = episode_metrics(traj([2.0] * 7, 5.0, 5.0, outcome="timeout"))
    errs.append(abs(m["ansps"] - 0.0))
    errs.append(abs(m["arsps"] - 0.0))
    worst = max(errs)
    report("criterion 3 (metric formulas)", worst <= 1e-12, f"worst |err| {worst:.1e}")


# ---------------------------------------------------------------------------
# 4. Frontier oracle


def _frontier_oracle(grid):
    out = []
    rows, cols = grid.p.shape
    for r in range(rows):
        for c in range(cols):
            if not grid.p[r, c] < 0.48:
                continue
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < rows and 0 <= cc < cols and 0.48 <= grid.p[rr, cc] <= 0.52:
                        out.append((r, c))
                        break
                else:
                    continue
                break
    return out


def test_criterion_04_frontier_oracle():
    t0 = time.time()
    for seed in range(100):
        rng = np.random.default_rng(seed)
        g = OccupancyGrid(0.1, (0.0, 0.0), rng.uniform(0.0, 1.0, (50, 50)))
        assert frontier_cells(frontier_mask(g)) == _frontier_oracle(g)
    elapsed = time.time() - t0
    report("criterion 4 (frontier oracle)", elapsed < 5.0,
           f"100 random 50x50 grids, exact set equality, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 5. Planner optimality and waypoint line of sight


def _dijkstra_counts(blocked, start, target):
    rows, cols = blocked.shape
    dist = {start: 0.0}
    parent = {}
    heap = [(0.0, 0, start)]
    tie = 0
    done = set()
    while heap:
        d, _, cell = heapq.heappop(heap)
        if cell in done:
            continue
        done.add(cell)
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


def _segment_cells_sampled(grid, p0, p1, n=2000):
    cells = set()
    for i in range(n + 1):
        t = i / n
        cells.add(grid.world_to_cell(p0[0] + t * (p1[0] - p0[0]), p0[1] + t * (p1[1] - p0[1])))
    return cells


def test_criterion_05_planner_optimality_and_waypoint_los():
    checked = unreachable_checked = 0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        draw = rng.uniform(0, 1, (50, 50))
        p = np.full((50, 50), P_MIN)
        p[draw < 0.12] = P_MAX
        p[(draw >= 0.12) & (draw < 0.18)] = 0.5
        g = OccupancyGrid(0.1, (0.0, 0.0), p)
        plan = plan_grid(g, 0.12)
        blocked, occ = plan.blocked, plan.occ
        free = np.argwhere(~blocked)
        if len(free) < 2:
            continue
        start = tuple(free[0])
        field = distance_field(plan, start)
        reachable = [tuple(rc) for rc in free if np.isfinite(field[tuple(rc)])]
        target = max(reachable, key=lambda rc: field[rc])
        path = plan_path(plan, start, target)
        counts = _dijkstra_counts(blocked, start, target)
        assert path is not None and counts is not None
        assert path.step_counts() == counts
        assert path.length == (counts[0] + counts[1] * SQRT2) * 0.1
        pose = (*g.cell_center(start), 0.0)
        wp = extract_waypoint(path, plan, pose)
        for cell in _segment_cells_sampled(g, g.cell_center(start), wp):
            if g.in_grid(cell):
                assert not occ[cell]
        checked += 1
        cut_off = [tuple(rc) for rc in free if np.isinf(field[tuple(rc)])]
        if cut_off:
            assert plan_path(plan, start, cut_off[0]) is None
            assert _dijkstra_counts(blocked, start, cut_off[0]) is None
            unreachable_checked += 1
    report("criterion 5 (planner optimality)", checked == 100,
           f"{checked} grids exact vs Dijkstra ({unreachable_checked} unreachable agreements), waypoint LOS clean")


# ---------------------------------------------------------------------------
# 6. Exploration heuristic correctness


def _selection_oracle(scored, gamma):
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


def test_criterion_06_selection_heuristic():
    rng = np.random.default_rng(33)
    checked = 0
    for case in range(1000):
        n = int(rng.integers(1, 9))
        cells = set()
        while len(cells) < n:
            cells.add((int(rng.integers(0, 40)), int(rng.integers(0, 40))))
        mode = case % 4
        scored = []
        base_d = float(rng.uniform(0, 10))
        base_v = float(rng.uniform(-3, 3))
        for cell in sorted(cells):
            d1 = base_d if mode == 1 else float(rng.uniform(0, 10))
            d2 = base_d if mode == 1 else float(rng.uniform(0, 10))
            v = base_v if mode == 2 else float(rng.uniform(-3, 3))
            scored.append(ScoredCandidate(cell, d1, d2, v))
        for gamma in (0.0, 1.0):
            assert select_exploration_point(scored, gamma) == _selection_oracle(scored, gamma)
            checked += 1
    report("criterion 6 (selection heuristic)", checked == 2000,
           "1000 candidate sets x {gamma=0, gamma=1}, exact argmin incl. degenerate")


# ---------------------------------------------------------------------------
# 7. Blind-alley escape


def test_criterion_07_blind_alley_escape():
    cfg = StackConfig()
    successes = 0
    for seed in range(100):
        res = run_episode(blind_alley(seed), scripted_bundle(), cfg)
        successes += res.outcome == "success"
    report("criterion 7 (blind-alley escape)", successes >= 95,
           f"{successes}/100 seeded episodes escaped and reached the goal")


# ---------------------------------------------------------------------------
# 8. Double-branch preference


def _first_branch_choice(result):
    for _t, _cell, (x, y) in result.exploration_selections:
        if y > 3.2 and abs(x - 6.0) > 0.8:
            return "L" if x < 6.0 else "R"
    return None


def _branch_split(policy, gamma):
    counts = {"L": 0, "R": 0, None: 0}
    cfg = StackConfig(timeout=20.0, gamma=gamma)
    for seed in range(100):
        res = run_episode(double_branch(seed), policy, cfg)
        counts[_first_branch_choice(res)] += 1
    return counts


def test_criterion_08_double_branch_preference(trained):
    policy = CompositePolicy(scripted_bundle(), trained["bundle"])
    with_v = _branch_split(policy, gamma=1.0)
    without_v = _branch_split(policy, gamma=0.0)
    right_rate = with_v["R"]
    control = without_v["R"]
    ok = right_rate >= 70 and 40 <= control <= 60
    report("criterion 8 (double-branch preference)", ok,
           f"gamma=1 right-branch {right_rate}/100, gamma=0 control {control}/100")


# ---------------------------------------------------------------------------
# 9. Desk-scale training


def test_criterion_09_training_pipeline(trained):
    obs_cfg = trained["obs_cfg"]
    t0 = time.time()

    trained_gs = SingleExpertPolicy(obs_cfg, trained["gs"])
    rng = np.random.default_rng(999)
    random_init = SingleExpertPolicy(
        obs_cfg, MlpParams.random(obs_cfg.dim, 64, 64, 3, rng, obs_cfg.feature_scales())
    )
    eval_static = training_scenarios("static", 8, 77)
    wins = losses = 0
    for i, spec in enumerate(eval_static * 3):
        s = replace(spec, seed=50000 + i)
        _, tj_t, _, _ = rollout_lower(s, trained_gs, FUSION, obs_cfg, 20.0)
        _, tj_r, _, _ = rollout_lower(s, random_init, FUSION, obs_cfg, 20.0)
        a = episode_metrics(tj_t)["ansps"]
        b = episode_metrics(tj_r)["ansps"]
        if a > b:
            wins += 1
        elif a < b:
            losses += 1
    p_value = binomtest(wins, wins + losses, 0.5, alternative="greater").pvalue

    mixed = training_scenarios("static+dynamic", 10, 91)
    rates = {}
    for name, pol in (
        ("gs", trained_gs),
        ("oa", SingleExpertPolicy(obs_cfg, trained["oa"])),
        ("fusion", trained["bundle"]),
    ):
        succ = 0
        n = 0
        for i, spec in enumerate(mixed * 3):
            s = replace(spec, seed=90000 + i)
            _, traj, _, _ = rollout_lower(s, pol, FUSION, obs_cfg, 20.0)
            succ += episode_metrics(traj)["success"]
            n += 1
        rates[name] = succ / n
    total_seconds = trained["train_seconds"] + (time.time() - t0)

    ok = (
        p_value < 0.05
        and rates["fusion"] >= max(rates["gs"], rates["oa"])
        and total_seconds <= 1800
    )
    report(
        "criterion 9 (desk-scale training)", ok,
        f"sign test {wins}W/{losses}L p={p_value:.4f}; success gs={rates['gs']:.2f} "
        f"oa={rates['oa']:.2f} fusion={rates['fusion']:.2f}; pipeline {total_seconds:.0f}s",
    )


# ---------------------------------------------------------------------------
# 10. Determinism of the train + evaluate suite


def test_criterion_10_byte_identical_outputs(tmp_path):
    from navstack.cli import main

    cfg = {"population": 8, "elite_fraction": 0.3, "noise_std": 0.4,
           "generations": 3, "episodes_per_eval": 1, "episode_time_limit": 4.0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    pairs = []
    for tag in ("a", "b"):
        train_out = tmp_path / f"train-{tag}"
        sim_out = tmp_path / f"sim-{tag}"
        assert main(["train", "expert-gs", "--config", str(cfg_path), "--seed", "0",
                     "--tasks", "3", "--out", str(train_out)]) == 0
        code = main(["simulate", "--scenario", "blind-alley", "--bundle", "scripted",
                     "--seed", "6", "--episodes", "2", "--timeout", "60",
                     "--out", str(sim_out)])
        assert code in (0, 1)
        pairs.append({
            "expert": (train_out / "expert-gs.json").read_bytes(),
            "log": (train_out / "train_log.jsonl").read_bytes(),
            "metrics": (sim_out / "metrics.csv").read_bytes(),
            "trace0": (sim_out / "trace-0000.jsonl").read_bytes(),
            "trace1": (sim_out / "trace-0001.jsonl").read_bytes(),
        })
    same = all(pairs[0][k] == pairs[1][k] for k in pairs[0])
    report("criterion 10 (determinism)", same,
           "train checkpoint, log, metrics CSV, traces byte-identical on rerun")


# ---------------------------------------------------------------------------
# 11. Entropy re-selection trigger boundary


def test_criterion_11_entropy_trigger_boundary():
    g = OccupancyGrid(0.1, (0.0, 0.0), np.full((40, 40), P_MIN))
    g.p[10, 11] = 0.5  # keeps the current point a frontier
    g.p[35, 35] = 0.5  # goal cell stays unknown
    goal = g.cell_center((35, 35))
    pose = (*g.cell_center((30, 5)), 0.0)
    h1 = map_entropy(g)
    results = {}
    for sign in (+1, -1):
        ratio = ENTROPY_TRIGGER * (1 + sign * 1e-6)
        state = ExplorationState((10, 10), h1 / (1 + ratio), False)
        results[sign] = should_reselect(state, g, goal, pose, frontier_mask(g), h1)
    ok = results[+1] == "reselect" and results[-1] == "no"
    report("criterion 11 (entropy trigger boundary)", ok,
           f"threshold+1e-6 -> {results[+1]}, threshold-1e-6 -> {results[-1]}")


# ---------------------------------------------------------------------------
# Trained-critic heatmap check (module example, not a numbered criterion)


def test_trained_critic_rates_open_space_safer(trained):
    from navstack import world as sim
    from navstack.policy import build_observation

    bundle = trained["bundle"]
    spec = blind_alley(0)
    means = {}
    for label, pose in (("open", (1.5, 6.5, 0.0)), ("wall", (5.5, 4.0, 0.0))):
        w = sim.spawn(replace(spec, robot_start=pose))
        scan = sim.raycast(w, bundle.obs_config.beams, bundle.obs_config.max_range)
        obs = build_observation([scan], w.robot.pose, spec.goal, w.robot.velocity,
                                bundle.obs_config.history)
        values = []
        for sx in np.arange(-1.5, 1.51, 0.5):
            for sy in np.arange(-1.5, 1.51, 0.5):
                values.append(critic_value(bundle.critic, obs.with_goal((sx, sy))))
        means[label] = float(np.mean(values))
    assert means["open"] > means["wall"], means
