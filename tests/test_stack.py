import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.ndimage import label

from navstack import exploration, planning, stack
from navstack.exploration import MIN_CLUSTER_SIZE
from navstack.mapping import OccupancyGrid
from navstack.policy import ObservationConfig
from navstack.rewards import PROFILES
from navstack.scenarios import blind_alley, make_scenario, training_scenarios
from navstack.scripted import ScriptedGoStraight, scripted_bundle
from navstack.stack import (
    TRACE_FILE,
    EpisodeResult,
    StackConfig,
    episode_seed,
    run_episode,
    run_suite,
    summarize,
)
from navstack.training import rollout_lower
from navstack.world import CONTROL_DT, ScenarioSpec

LOWER_ONLY = StackConfig(mode="lower-only", timeout=20.0)


class Exploding:
    def action(self, obs):
        raise RuntimeError("wiring fault")


class Straight8(ScriptedGoStraight):
    """The goal chaser on an 8-beam observation layout of its own."""

    obs_config = ObservationConfig(beams=8)


def open_goal_spec(goal=(7.0, 5.0)):
    """Perimeter-walled room with the goal in line of sight of the start."""
    return ScenarioSpec(
        name="open",
        bounds=(0.0, 0.0, 10.0, 10.0),
        static_segments=(
            (0.0, 0.0, 10.0, 0.0),
            (10.0, 0.0, 10.0, 10.0),
            (10.0, 10.0, 0.0, 10.0),
            (0.0, 10.0, 0.0, 0.0),
        ),
        robot_start=(3.0, 5.0, 0.0),
        goal=goal,
        seed=0,
    )


class TestConfig:
    def test_cadence_ordering_enforced(self):
        with pytest.raises(ValueError):
            StackConfig(mode="warp")
        with pytest.raises(ValueError, match="gamma"):
            StackConfig(gamma=-0.5)


class TestRunEpisode:
    def test_visible_goal_skips_exploration(self):
        res = run_episode(open_goal_spec(), scripted_bundle(), StackConfig(timeout=30.0))
        assert res.outcome == "success"
        assert res.exploration_selections == []
        assert res.goal_known_time is not None
        assert res.goal_known_time <= CONTROL_DT + 1e-9

    def test_cadence_counts(self):
        res = run_episode(blind_alley(2), scripted_bundle(), StackConfig(timeout=10.0))
        seconds = res.sim_time
        assert abs(res.cadence["map"] - round(seconds * 30)) <= 1
        if res.outcome == "timeout":  # ran the full 10 s
            assert abs(res.cadence["plan"] - 10) <= 1
            assert abs(res.cadence["explore_scheduled"] - 2) <= 1

    def test_outcome_vocabulary(self):
        res = run_episode(open_goal_spec(), scripted_bundle(), StackConfig(timeout=1.0))
        assert res.outcome in {"success", "crash", "timeout", "failed"}

    def test_timeout_outcome(self):
        res = run_episode(open_goal_spec(goal=(9.5, 9.5)), scripted_bundle(), StackConfig(timeout=0.5))
        assert res.outcome == "timeout"
        assert res.steps == 15

    def test_policy_exception_marks_failed(self):
        res = run_episode(open_goal_spec(), Exploding(), StackConfig(timeout=1.0))
        assert res.outcome == "failed"
        assert "wiring fault" in res.error

    @pytest.mark.parametrize("size", [2, 4])
    @pytest.mark.parametrize("mode", ["lower-only", "full"])
    def test_malformed_action_marks_failed(self, size, mode):
        class Malformed:
            def action(self, obs):
                return np.zeros(size)

        res = run_episode(make_scenario("square", 0), Malformed(), StackConfig(mode=mode, timeout=1.0))
        assert res.outcome == "failed"
        assert f"shape ({size},)" in res.error
        assert res.steps == 0 and res.actions.shape == (0, 3) and res.poses.shape == (0, 3)

    def test_selections_stop_after_goal_known(self):
        res = run_episode(blind_alley(4), scripted_bundle(), StackConfig())
        assert res.outcome == "success"
        assert res.goal_known_time is not None
        assert res.exploration_selections  # the alley forces exploration first
        # one planning period of grace: a trigger decision made in the same
        # tick the goal turned known may still select once
        for t, _cell, _xy in res.exploration_selections:
            assert t <= res.goal_known_time + 1.0 + 1e-9

    def test_lower_only_skips_upper_layer(self):
        res = run_episode(
            open_goal_spec(), ScriptedGoStraight(), StackConfig(mode="lower-only", timeout=30.0)
        )
        assert res.outcome == "success"
        assert res.cadence["map"] == 0
        assert res.cadence["plan"] == 0
        assert res.cadence["explore_scheduled"] == 0

    def test_upper_with_scripted_lower_mode(self):
        res = run_episode(
            blind_alley(1), scripted_bundle(), StackConfig(mode="upper-with-scripted-lower")
        )
        assert res.outcome == "success"

    def test_scripted_lower_reads_the_policy_layout(self, tmp_path):
        """With the scripted lower layer the policy still sets the observation
        layout, and its critic, not its action or alpha, is what the stack reads."""
        seen = []

        class Critic8:
            obs_config = ObservationConfig(beams=8)

            def action(self, obs):
                raise AssertionError("the scripted lower layer acts in this mode")

            def alpha(self, obs):
                raise AssertionError("the trace's alpha is the acting policy's")

            def value(self, obs):
                seen.append(len(obs.ranges))
                return 0.0

        path = tmp_path / "trace.jsonl"
        cfg = StackConfig(mode="upper-with-scripted-lower", timeout=5.0)
        res = run_episode(blind_alley(0), Critic8(), cfg, trace_path=path)
        assert res.outcome != "failed", res.error
        assert seen and set(seen) == {8}
        assert all(json.loads(line)["alpha"] is None for line in path.read_text().splitlines())

    def test_one_record_per_episode(self):
        """Steps, poses, actions, ranges and metrics count the same ticks in
        both modes, and a training rollout returns the episode's record."""
        spec = blind_alley(0)
        for mode in ("full", "lower-only"):
            res = run_episode(spec, scripted_bundle(), StackConfig(mode=mode, timeout=5.0))
            assert isinstance(res, EpisodeResult)
            counts = (len(res.poses), len(res.actions), len(res.min_ranges), res.metrics["steps"])
            assert res.steps > 0 and counts == (res.steps,) * 4
        rolled = rollout_lower(spec, scripted_bundle(), PROFILES["fusion"], ObservationConfig(), 5.0)[1]
        assert isinstance(rolled, EpisodeResult)
        for name in ("outcome", "sim_time", "d_start", "d_end", "min_ranges", "poses", "actions"):
            assert np.array_equal(getattr(rolled, name), getattr(res, name))
        assert rolled.metrics == res.metrics

    def test_scoring_skips_frontier_clusters_below_min_size(self, monkeypatch):
        calls = []
        original = exploration.cluster_representatives

        def recording(frontiers, cap, min_size):
            reps = original(frontiers, cap, min_size)
            calls.append((frontiers, reps))
            return reps

        monkeypatch.setattr(exploration, "cluster_representatives", recording)
        spec = blind_alley(1)
        res = run_episode(spec, scripted_bundle(), StackConfig(timeout=30.0))
        assert len(calls) == len(res.candidates) > 0  # one clustering per scoring cycle
        speckles = 0
        for (mask, reps), (_tick, scored) in zip(calls, res.candidates):
            assert mask.shape == OccupancyGrid.for_bounds(spec.bounds).p.shape
            labels, _ = label(mask, structure=np.ones((3, 3), dtype=int))
            sizes = np.bincount(labels.ravel())
            speckles += int(np.sum(sizes[1:] < MIN_CLUSTER_SIZE))
            assert {s.cell for s in scored} <= set(reps)
            for r, c in reps:
                assert sizes[labels[r, c]] >= MIN_CLUSTER_SIZE
        assert speckles > 0  # the map did grow clusters the stack must skip

    def test_scored_path_costs_are_the_flood_array(self, monkeypatch):
        """Every scored d2 is read from the tick's flood, which runs on the
        tick's plan snapshot; it must equal that flood's ``array()`` at the
        candidate's cell, bit for bit."""
        floods = []
        original = stack.distance_field

        def recording(*args, **kwargs):
            floods.append(original(*args, **kwargs))
            return floods[-1]

        monkeypatch.setattr(stack, "distance_field", recording)
        res = run_episode(blind_alley(1), scripted_bundle(), StackConfig(timeout=30.0))
        assert len(floods) == len(res.candidates) > 0  # one flood per scoring cycle
        count = 0
        for flood, (_tick, scored) in zip(floods, res.candidates):
            field = flood.array()
            for s in scored:
                assert np.float64(s.d2).tobytes() == field[s.cell].tobytes()
                count += 1
        assert count > len(floods)

    def test_map_entropy_once_per_plan_tick(self, monkeypatch):
        calls = []
        original = stack.map_entropy

        def counting(grid):
            calls.append(grid)
            return original(grid)

        monkeypatch.setattr(stack, "map_entropy", counting)
        res = run_episode(blind_alley(1), scripted_bundle(), StackConfig(timeout=30.0))
        plan_period = round(StackConfig.control_hz / StackConfig.plan_hz)
        assert len(calls) == (res.steps - 1) // plan_period + 1
        assert len(res.exploration_selections) > 1

    def test_one_inflation_per_plan_tick_at_the_spec_radius(self, monkeypatch):
        """The tick's one snapshot inflates the map once, by the robot's own
        radius, not the default one."""
        radii = []
        original = planning.inflate_occupied

        def recording(grid, robot_radius):
            radii.append(robot_radius)
            return original(grid, robot_radius)

        monkeypatch.setattr(planning, "inflate_occupied", recording)
        spec = replace(make_scenario("double-branch", 0), robot_radius=0.35)
        res = run_episode(spec, scripted_bundle(), StackConfig(timeout=10.0))
        plan_period = round(StackConfig.control_hz / StackConfig.plan_hz)
        assert len(radii) == (res.cadence["map"] - 1) // plan_period + 1 > 1
        assert set(radii) == {0.35}

    def test_trace_written(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        res = run_episode(open_goal_spec(), scripted_bundle(), StackConfig(timeout=5.0), trace_path=path)
        lines = path.read_text().splitlines()
        assert len(lines) == res.steps
        row = json.loads(lines[0])
        assert {"tick", "t", "pose", "action", "alpha", "waypoint", "exploration_point"} <= set(row)


class TestRunSuite:
    def test_single_row(self):
        rows, results = run_suite([open_goal_spec()], scripted_bundle(), 1, seed=5,
                                  config=StackConfig(timeout=20.0))
        assert len(rows) == 1
        assert len(results) == 1
        assert rows[0][0] == "open"

    def test_deterministic(self):
        cfg = StackConfig(timeout=10.0)
        rows_a, _ = run_suite([blind_alley(0)], scripted_bundle(), 2, seed=9, config=cfg)
        rows_b, _ = run_suite([blind_alley(0)], scripted_bundle(), 2, seed=9, config=cfg)
        assert rows_a == rows_b

    def test_scripted_straight_line_in_empty_room(self):
        spec = open_goal_spec(goal=(6.0, 5.0))
        rows, results = run_suite(
            [spec], ScriptedGoStraight(), 5, seed=3, config=StackConfig(mode="lower-only", timeout=30.0)
        )
        assert all(r.outcome == "success" for r in results)
        assert all(row[3] == 0 for row in rows)  # crash column

    def test_episode_seed_is_stable(self):
        assert episode_seed(7, 0, 0) == episode_seed(7, 0, 0)
        assert episode_seed(7, 0, 0) != episode_seed(7, 0, 1)
        assert episode_seed(7, 0, 0) != episode_seed(8, 0, 0)

    def test_traces_match_run_episode(self, tmp_path):
        specs = [open_goal_spec(), make_scenario("square", 1)]
        cfg = StackConfig(timeout=1.0)
        (tmp_path / "suite").mkdir()
        run_suite(specs, scripted_bundle(), 2, seed=4, config=cfg, trace_dir=tmp_path / "suite")
        for si, spec in enumerate(specs):
            for ei in range(2):
                k = 2 * si + ei  # scenario-major
                alone = tmp_path / f"alone-{k}.jsonl"
                run_episode(replace(spec, seed=episode_seed(4, si, ei)), scripted_bundle(), cfg, trace_path=alone)
                assert (tmp_path / "suite" / TRACE_FILE.format(k)).read_bytes() == alone.read_bytes()

    def test_parallel_jobs_match_serial(self, tmp_path):
        specs = [blind_alley(0), make_scenario("rooms", 2)]
        cfg = StackConfig(timeout=2.0)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        serial = run_suite(specs, scripted_bundle(), 2, seed=7, config=cfg, trace_dir=tmp_path / "a", jobs=1)
        par = run_suite(specs, scripted_bundle(), 2, seed=7, config=cfg, trace_dir=tmp_path / "b", jobs=2)
        assert serial[0] == par[0]
        assert [r.outcome for r in serial[1]] == [r.outcome for r in par[1]]
        for k in range(4):
            name = TRACE_FILE.format(k)
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_pool_has_at_most_one_worker_per_episode(self, monkeypatch):
        import concurrent.futures

        sizes = []

        class RecordingPool:
            """Records its size and maps in this process: it starts no worker."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = StackConfig(timeout=0.2)
        for jobs, episodes in ((8, 2), (2, 3), (3, 3)):
            run_suite([open_goal_spec()], scripted_bundle(), episodes, seed=1, config=cfg, jobs=jobs)
        assert sizes == [2, 2, 3]


class TestSummarize:
    def test_deterministic(self):
        cfg = StackConfig(mode="lower-only", timeout=5.0)
        tasks = training_scenarios("static", 2, 1)
        _, a = run_suite(tasks, Straight8(), 2, seed=4, config=cfg)
        _, b = run_suite(tasks, Straight8(), 2, seed=4, config=cfg)
        assert summarize(a) == summarize(b)

    def test_scripted_straight_in_open_room(self):
        spec = ScenarioSpec(name="open", bounds=(0.0, 0.0, 10.0, 10.0), robot_start=(3.0, 5.0, 0.0),
                            goal=(6.0, 5.0), seed=0)
        _, results = run_suite([spec], Straight8(), 5, seed=2, config=LOWER_ONLY)
        out = summarize(results)
        assert out["success_rate"] == 1.0
        assert out["crash_rate"] == out["timeout_rate"] == out["failed_rate"] == 0.0
        times = [r.metrics["arriving_time"] for r in results]
        assert min(times) <= out["arriving_time_mean"] <= max(times)

    def test_raising_policy_is_all_failed(self):
        _, results = run_suite([open_goal_spec()], Exploding(), 3, seed=1, config=LOWER_ONLY)
        out = summarize(results)
        assert out["failed_rate"] == 1.0
        assert out["success_rate"] == out["crash_rate"] == out["timeout_rate"] == 0.0
        assert out["arriving_time_mean"] is None

    def test_rates_sum_to_one(self):
        _, results = run_suite([blind_alley(0)], scripted_bundle(), 2, seed=9, config=StackConfig(timeout=10.0))
        results.append(run_episode(open_goal_spec(), Exploding(), LOWER_ONLY))
        out = summarize(results)
        assert sum(out[f"{k}_rate"] for k in ("success", "crash", "timeout", "failed")) == pytest.approx(1.0)
        assert out["failed_rate"] == pytest.approx(1 / 3)

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            summarize([])
