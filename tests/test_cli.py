import csv
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from navstack.cli import EXIT_EPISODE_FAILURE, EXIT_OK, EXIT_USAGE, main
from navstack.policy import (
    CriticParams,
    ExpertBank,
    GatingParams,
    MlpParams,
    ObservationConfig,
    PolicyBundle,
    load_bundle,
    load_expert,
    save_bundle,
    save_expert,
)


def _dir_files(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.fixture()
def zero_bundle_path(tmp_path):
    cfg = ObservationConfig()
    z = lambda y: MlpParams.zeros(cfg.dim, 64, 64, y)  # noqa: E731
    bundle = PolicyBundle(cfg, ExpertBank((z(3), z(3), z(3), z(3))), GatingParams(z(4)), CriticParams(z(1)))
    path = tmp_path / "zero-bundle.json"
    save_bundle(bundle, path)
    return path


class TestSimulate:
    def test_blind_alley_scripted_episode(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "simulate", "--scenario", "blind-alley", "--bundle", "scripted",
            "--seed", "3", "--episodes", "1", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert (out / "metrics.csv").exists()
        assert (out / "trace-0000.jsonl").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert "metrics.csv" in manifest["artifacts"]
        rows = (out / "metrics.csv").read_text().splitlines()
        assert rows[0].startswith("scenario,seed,success")
        assert len(rows) == 2

    def test_seed_repeat_is_byte_identical(self, tmp_path):
        args = ["simulate", "--scenario", "blind-alley", "--bundle", "scripted",
                "--seed", "4", "--episodes", "2", "--timeout", "60"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        fa, fb = _dir_files(a), _dir_files(b)
        assert set(fa) == set(fb)
        for name in fa:
            if name in ("manifest.json", "timing.json"):
                continue  # the manifest embeds the differing --out argument; timing is wall time
            assert fa[name] == fb[name], name

    def test_timing_json_counts_ticks_and_stays_out_of_the_manifest(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--scenario", "blind-alley", "--bundle", "scripted",
              "--seed", "4", "--episodes", "2", "--timeout", "5", "--out", str(out)])
        timing = json.loads((out / "timing.json").read_text())
        assert set(timing) == {"wall_s", "ticks", "ticks_per_s"}
        steps = [int(row.split(",")[-1]) for row in (out / "metrics.csv").read_text().splitlines()[1:]]
        assert timing["ticks"] == sum(steps) > 0
        assert timing["wall_s"] > 0
        assert timing["ticks_per_s"] == pytest.approx(timing["ticks"] / timing["wall_s"])
        assert "timing.json" not in json.loads((out / "manifest.json").read_text())["artifacts"]

    def test_parallel_jobs_match_serial(self, tmp_path):
        args = ["simulate", "--scenario", "blind-alley", "--bundle", "scripted",
                "--seed", "4", "--episodes", "2", "--timeout", "30"]
        a, b = tmp_path / "serial", tmp_path / "par"
        main(args + ["--out", str(a), "--jobs", "1"])
        main(args + ["--out", str(b), "--jobs", "2"])
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "trace-0001.jsonl").read_bytes() == (b / "trace-0001.jsonl").read_bytes()

    def test_missing_bundle_is_usage_error(self, tmp_path):
        code = main([
            "simulate", "--scenario", "blind-alley", "--bundle", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "x"),
        ])
        assert code == EXIT_USAGE

    def test_unreachable_episode_reports_failure_exit(self, tmp_path):
        code = main([
            "simulate", "--scenario", "blind-alley", "--bundle", "scripted",
            "--seed", "3", "--episodes", "1", "--timeout", "2", "--out", str(tmp_path / "r"),
        ])
        assert code == EXIT_EPISODE_FAILURE  # 2 s is not enough to escape

    @pytest.mark.parametrize("flags, name", [
        (["--gamma", "nan"], "gamma"),
        (["--gamma", "inf"], "gamma"),
        (["--timeout", "inf"], "timeout"),
        (["--timeout", "nan"], "timeout"),
        (["--timeout", "0"], "timeout"),
        (["--timeout", "-1"], "timeout"),
        (["--timeout", "1e308"], "timeout"),
        (["--episodes", "-1"], "--episodes"),
        (["--episodes", "0"], "--episodes"),
        (["--jobs", "0"], "--jobs"),
        (["--jobs", "-3"], "--jobs"),
    ])
    def test_bad_number_is_usage_error_naming_it(self, tmp_path, capsys, flags, name):
        code = main(["simulate", "--scenario", "blind-alley", "--seed", "3", "--timeout", "1",
                     *flags, "--out", str(tmp_path / "run")])
        assert code == EXIT_USAGE
        assert name in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_scenario_name_with_a_comma_stays_one_cell(self, tmp_path):
        from navstack.scenarios import make_scenario, scenario_to_dict

        doc = scenario_to_dict(make_scenario("square", 0))
        doc["name"] = "my,map"
        path = tmp_path / "my-map.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        code = main(["simulate", "--scenario", str(path), "--episodes", "2", "--timeout", "2", "--out", str(out)])
        assert code in (EXIT_OK, EXIT_EPISODE_FAILURE)
        with open(out / "metrics.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert [len(row) for row in rows] == [9, 9, 9]
        assert [row[0] for row in rows[1:]] == ["my,map", "my,map"]

    def test_failed_episode_prints_its_error(self, tmp_path, monkeypatch, capsys):
        class Exploding:
            def action(self, obs):
                raise RuntimeError("policy exploded")

        monkeypatch.setattr("navstack.scripted.scripted_bundle", lambda: Exploding())
        code = main([
            "simulate", "--scenario", "blind-alley", "--bundle", "scripted",
            "--seed", "3", "--episodes", "2", "--out", str(tmp_path / "r"),
        ])
        assert code == EXIT_EPISODE_FAILURE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        for line in err:
            assert line.startswith("seed ")
            assert line.endswith(": failed: RuntimeError: policy exploded")


class TestTrain:
    def test_one_generation_checkpoint_loads(self, tmp_path):
        cfg = {"population": 8, "elite_fraction": 0.3, "noise_std": 0.4,
               "generations": 3, "episodes_per_eval": 1, "episode_time_limit": 4.0}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "train"
        code = main(["train", "expert-gs", "--config", str(cfg_path), "--seed", "0",
                     "--tasks", "3", "--out", str(out)])
        assert code == EXIT_OK
        params, profile, obs_cfg = load_expert(out / "expert-gs.json")
        assert profile == "go-straight"
        assert params.sizes[0] == obs_cfg.dim
        log_lines = (out / "train_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 3
        bests = [json.loads(l)["best_return"] for l in log_lines]
        assert bests == sorted(bests)

    def test_fusion_stage_trains_on_the_family_mix(self, tmp_path):
        from navstack.scenarios import training_scenarios
        from navstack.training import TrainConfig, cotrain_fusion

        # zero-generation experts; one tiny fusion generation, so the task mix is used
        cfgs = {"zero": {"generations": 0},
                "fusion": {"generations": 1, "population": 4, "episodes_per_eval": 1, "episode_time_limit": 1.0}}
        for name, cfg in cfgs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        common = ["--seed", "5", "--tasks", "3"]
        for stage in ("expert-gs", "expert-oa"):
            assert main(["train", stage, "--config", str(tmp_path / "zero.json"), *common,
                         "--out", str(tmp_path / stage)]) == EXIT_OK
        gs_path, oa_path = tmp_path / "expert-gs" / "expert-gs.json", tmp_path / "expert-oa" / "expert-oa.json"
        out = tmp_path / "fusion"
        assert main(["train", "fusion", "--config", str(tmp_path / "fusion.json"), *common,
                     "--expert-gs", str(gs_path), "--expert-oa", str(oa_path), "--out", str(out)]) == EXIT_OK

        gs, oa = load_expert(gs_path)[0], load_expert(oa_path)[0]
        bank, gating, critic = cotrain_fusion(gs, oa, training_scenarios("families", 3, 5),
                                              TrainConfig(**cfgs["fusion"], seed=5))
        saved = load_bundle(out / "fusion-bundle.json")
        expected = [*bank.experts, gating.params, critic.params]
        got = [*saved.bank.experts, saved.gating.params, saved.critic.params]
        for want, have in zip(expected, got, strict=True):
            for a, b in zip(want.arrays(), have.arrays(), strict=True):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("tasks", ["0", "-2"])
    def test_no_tasks_is_usage_error_naming_it(self, tmp_path, capsys, tasks):
        code = main(["train", "expert-gs", "--tasks", tasks, "--out", str(tmp_path / "t")])
        assert code == EXIT_USAGE
        assert "--tasks" in capsys.readouterr().err

    def test_fusion_without_expert_checkpoints_is_usage_error(self, tmp_path):
        code = main(["train", "fusion", "--out", str(tmp_path / "f")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flags", [
        ["fusion"],
        ["fusion", "--expert-gs", "nope.json", "--expert-oa", "nope.json"],
        ["expert-gs", "--tasks", "0"],
    ])
    def test_rejected_input_leaves_no_out_directory(self, tmp_path, monkeypatch, flags):
        monkeypatch.chdir(tmp_path)
        assert main(["train", *flags, "--out", "X"]) == EXIT_USAGE
        assert not (tmp_path / "X").exists()

    def test_bad_config_is_usage_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"poppulation": 8}))
        code = main(["train", "expert-gs", "--config", str(cfg_path), "--out", str(tmp_path / "t")])
        assert code == EXIT_USAGE


    @pytest.mark.parametrize("field, value", [
        ("generations", -1),
        ("episodes_per_eval", 0),
        ("noise_std", float("nan")),
        ("noise_std", float("inf")),
        ("noise_decay", 0.0),
        ("noise_decay", float("inf")),
        ("episode_time_limit", 0.0),
        ("episode_time_limit", float("nan")),
        ("episode_time_limit", 1e308),
        ("generations", 1.5),
        ("population", 4.0),
        ("episodes_per_eval", True),
        ("seed", 0.5),
        ("seed", -1),
    ])
    def test_bad_config_value_is_usage_error_naming_it(self, tmp_path, capsys, field, value):
        cfg = {"population": 4, "generations": 1, "episodes_per_eval": 1, "episode_time_limit": 1.0}
        cfg[field] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["train", "expert-gs", "--config", str(cfg_path), "--tasks", "1",
                     "--out", str(tmp_path / "t")])
        assert code == EXIT_USAGE
        assert field in capsys.readouterr().err
        assert not (tmp_path / "t").exists()


class TestHeatmap:
    def test_constant_critic_uniform_pgm(self, tmp_path, zero_bundle_path):
        out = tmp_path / "heat.pgm"
        code = main(["heatmap", "--bundle", str(zero_bundle_path), "--scenario", "blind-alley",
                     "--pose", "5.5,4.0,0.0", "--out", str(out)])
        assert code == EXIT_OK
        raw = out.read_bytes()
        assert raw.startswith(b"P5\n")
        pixels = raw.split(b"\n", 3)[3]
        values = np.frombuffer(pixels, dtype=np.uint8)
        assert np.all(values == values[0])

    def test_single_point_region(self, tmp_path, zero_bundle_path):
        out = tmp_path / "one.pgm"
        code = main(["heatmap", "--bundle", str(zero_bundle_path), "--scenario", "blind-alley",
                     "--pose", "5.5,4.0,0.0", "--region", "1,1,1,1", "--out", str(out)])
        assert code == EXIT_OK
        header = out.read_bytes().split(b"\n")
        assert header[1] == b"1 1"

    @pytest.mark.parametrize("flags", [["--region", "-3,-3,3,3"], ["--region=-3,-3,3,3"], []])
    def test_negative_region_parses_in_both_forms(self, tmp_path, zero_bundle_path, flags):
        out = tmp_path / "h.pgm"
        code = main(["heatmap", "--bundle", str(zero_bundle_path), "--scenario", "blind-alley",
                     "--pose", "5.5,4.0,0.0", *flags, "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_bytes().split(b"\n")[1] == b"25 25"  # the default region, stride 0.25

    def test_scripted_bundle_rejected(self, tmp_path):
        code = main(["heatmap", "--bundle", "scripted", "--scenario", "blind-alley",
                     "--pose", "5.5,4,0", "--out", str(tmp_path / "h.pgm")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flags, name", [
        (["--stride", "0"], "--stride"),
        (["--stride", "-0.5"], "--stride"),
        (["--stride", "nan"], "--stride"),
        (["--stride", "inf"], "--stride"),
        (["--region", "nan,-3,3,3"], "--region"),
        (["--region=-3,-3,inf,3"], "--region"),
    ])
    def test_bad_grid_flag_is_usage_error_naming_it(self, tmp_path, zero_bundle_path, capsys, flags, name):
        code = main(["heatmap", "--bundle", str(zero_bundle_path), "--scenario", "blind-alley",
                     "--pose", "5.5,4.0,0.0", *flags, "--out", str(tmp_path / "h.pgm")])
        assert code == EXIT_USAGE
        assert name in capsys.readouterr().err

    def test_bad_pose_is_usage_error(self, tmp_path, zero_bundle_path):
        code = main(["heatmap", "--bundle", str(zero_bundle_path), "--scenario", "blind-alley",
                     "--pose", "oops", "--out", str(tmp_path / "h.pgm")])
        assert code == EXIT_USAGE


class TestFrontierDebug:
    def test_gamma_zero_selection_minimizes_distance(self, tmp_path):
        out = tmp_path / "dbg"
        code = main(["frontier-debug", "--scenario", "blind-alley", "--seed", "2",
                     "--steps", "120", "--gamma", "0", "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "candidates.csv").read_text().splitlines()
        assert lines[0] == "tick,row,col,d1,d2,d_total,v_safety,score"
        by_tick: dict[str, list[tuple[float, float]]] = {}
        for line in lines[1:]:
            parts = line.split(",")
            by_tick.setdefault(parts[0], []).append((float(parts[5]), float(parts[7])))
        assert by_tick
        for rows in by_tick.values():
            d_min = min(d for d, _ in rows)
            s_min = min(s for _, s in rows)
            chosen = [d for d, s in rows if s == s_min]
            assert d_min in chosen

    def test_known_map_yields_empty_csv(self, tmp_path):
        # goal in view from the first scan: exploration never scores anything
        from navstack.scenarios import save_scenario
        from navstack.world import ScenarioSpec

        spec = ScenarioSpec(
            name="open",
            bounds=(0.0, 0.0, 8.0, 8.0),
            static_segments=((0.0, 0.0, 8.0, 0.0), (8.0, 0.0, 8.0, 8.0),
                             (8.0, 8.0, 0.0, 8.0), (0.0, 8.0, 0.0, 0.0)),
            robot_start=(3.0, 4.0, 0.0),
            goal=(5.0, 4.0),
            seed=0,
        )
        spec_path = tmp_path / "open.json"
        save_scenario(spec, spec_path)
        out = tmp_path / "dbg"
        code = main(["frontier-debug", "--scenario", str(spec_path), "--steps", "90",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "candidates.csv").read_text().splitlines()
        assert len(lines) == 1  # header only

    # 10**400 has no float; the largest float's steps make a finite timeout whose tick count is inf
    @pytest.mark.parametrize("steps", [10**400, int(sys.float_info.max)], ids=["no-float", "inf-ticks"])
    def test_steps_too_large_for_a_float_is_usage_error(self, tmp_path, capsys, steps):
        code = main(["frontier-debug", "--scenario", "square", "--steps", str(steps),
                     "--out", str(tmp_path / "dbg")])
        assert code == EXIT_USAGE
        assert "--steps" in capsys.readouterr().err
        assert not (tmp_path / "dbg").exists()


def test_unknown_scenario_is_usage_error(tmp_path):
    assert main(["simulate", "--scenario", "mars", "--out", str(tmp_path / "x")]) == EXIT_USAGE


def test_scenario_missing_field_is_usage_error(tmp_path, capsys):
    from navstack.scenarios import make_scenario, scenario_to_dict

    doc = scenario_to_dict(make_scenario("blind-alley", 0))
    del doc["bounds"]
    path = tmp_path / "no-bounds.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert "scenario is missing required field 'bounds'" in capsys.readouterr().err


@pytest.mark.parametrize("where, field, message", [
    ("obstacles", "radius", "obstacle 0 is missing required field 'radius'"),
    ("obstacles", "max_speed", "obstacle 0 is missing required field 'max_speed'"),
    ("static_shapes", "type", "static shape 0 is missing required field 'type'"),
    ("static_shapes", "a", "static shape 0 is missing required field 'a'"),
    ("static_shapes", "b", "static shape 0 is missing required field 'b'"),
])
def test_scenario_missing_nested_field_names_its_owner(tmp_path, capsys, where, field, message):
    from navstack.scenarios import make_scenario, scenario_to_dict

    doc = scenario_to_dict(make_scenario("blind-alley", 0))
    del doc[where][0][field]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("scenario, edit, message", [
    ("blind-alley", lambda d: d.update(bounds=[0.0, 0.0, 10.0]),
     "scenario field 'bounds' must hold 4 numbers"),
    ("blind-alley", lambda d: d.update(robot_start=[1.0, "2", 0.0]),
     "scenario field 'robot_start' must hold 3 numbers"),
    ("blind-alley", lambda d: d.update(goal=7.0),
     "scenario field 'goal' must hold 2 numbers"),
    ("blind-alley", lambda d: d["static_shapes"][0].update(a=[1.0]),
     "static shape 0 field 'a' must hold 2 numbers"),
    ("blind-alley", lambda d: d["static_shapes"][0].update(b=[1.0, True]),
     "static shape 0 field 'b' must hold 2 numbers"),
    ("blind-alley", lambda d: d["obstacles"][0].update(region=[0.0, 0.0, 5.0, 5.0, 1.0]),
     "obstacle 0 field 'region' must hold 4 numbers"),
    ("double-branch", lambda d: d["obstacles"][0].update(max_speed=float("nan")),
     "obstacle 0 field 'max_speed' must be a finite number"),
    ("blind-alley", lambda d: d.update(robot_radius=float("inf")),
     "scenario field 'robot_radius' must be a finite number"),
    ("blind-alley", lambda d: d.update(robot_radius=-0.3),
     "scenario field 'robot_radius' must be a finite number > 0"),
    ("blind-alley", lambda d: d.update(robot_radius=0.0),
     "scenario field 'robot_radius' must be a finite number > 0"),
    ("double-branch", lambda d: d["obstacles"][0].update(radius=-0.5),
     "obstacle 0 field 'radius' must be a finite number > 0"),
    ("double-branch", lambda d: d["obstacles"][0].update(radius=0),
     "obstacle 0 field 'radius' must be a finite number > 0"),
    ("rooms", lambda d: d["static_shapes"][2].update(rect=[1.0, 1.0, float("-inf"), 2.0]),
     "static shape 2 field 'rect' must hold 4 numbers"),
    ("double-branch", lambda d: d["obstacles"].__setitem__(0, None),
     "scenario field 'obstacles' must be a list of objects"),
    ("blind-alley", lambda d: d.update(static_shapes=5),
     "scenario field 'static_shapes' must be a list of objects"),
    ("double-branch", lambda d: d.update(seed=-1), "scenario field 'seed' must be an integer >= 0"),
    ("square", lambda d: d.update(seed=1.5), "scenario field 'seed' must be an integer >= 0"),
    ("square", lambda d: d.update(name="cr\rhere"), "scenario field 'name' must be a string with no line break"),
    ("square", lambda d: d.update(name="two\nlines"), "scenario field 'name' must be a string with no line break"),
    ("square", lambda d: d.update(name=7), "scenario field 'name' must be a string with no line break"),
])
def test_scenario_bad_field_value_names_it(tmp_path, capsys, scenario, edit, message):
    from navstack.scenarios import make_scenario, scenario_to_dict

    doc = scenario_to_dict(make_scenario(scenario, 0))
    edit(doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--scenario", "square", "--seed", "-5", "--out", "X"],
    ["frontier-debug", "--scenario", "square", "--seed", "-2", "--out", "X"],
    ["train", "expert-gs", "--seed", "-3", "--out", "X"],
    ["heatmap", "--bundle", "{bundle}", "--scenario", "square", "--pose", "0,0,0", "--seed", "-1",
     "--out", "X/h.pgm"],
    ["simulate", "--scenario", "square", "--seed", "two", "--out", "X"],
], ids=["simulate", "frontier-debug", "train", "heatmap", "not-a-number"])
def test_bad_seed_is_usage_error_naming_it(tmp_path, monkeypatch, capsys, zero_bundle_path, argv):
    monkeypatch.chdir(tmp_path)
    assert main([str(zero_bundle_path) if a == "{bundle}" else a for a in argv]) == EXIT_USAGE
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "X").exists()


def test_scenario_rect_with_three_numbers_names_it(tmp_path, capsys):
    from navstack.scenarios import make_scenario, scenario_to_dict

    doc = scenario_to_dict(make_scenario("rooms", 0))
    index = next(i for i, shape in enumerate(doc["static_shapes"]) if shape["type"] == "rect")
    doc["static_shapes"][index]["rect"] = doc["static_shapes"][index]["rect"][:3]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert f"static shape {index} field 'rect' must hold 4 numbers" in capsys.readouterr().err


def test_scenario_rect_without_rect_field_names_it(tmp_path, capsys):
    from navstack.scenarios import make_scenario, scenario_to_dict

    doc = scenario_to_dict(make_scenario("rooms", 0))
    index = next(i for i, shape in enumerate(doc["static_shapes"]) if shape["type"] == "rect")
    del doc["static_shapes"][index]["rect"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "x")]) == EXIT_USAGE
    assert f"static shape {index} is missing required field 'rect'" in capsys.readouterr().err


def _null_file(tmp_path):
    path = tmp_path / "null.json"
    path.write_text("null")
    return path


@pytest.mark.parametrize("flag, value", [
    ("--scenario", lambda tmp: tmp),
    ("--scenario", _null_file),
    ("--bundle", lambda tmp: tmp),
    ("--bundle", _null_file),
], ids=["scenario-dir", "scenario-null", "bundle-dir", "bundle-null"])
def test_simulate_input_that_is_no_object_file_names_the_option(tmp_path, capsys, flag, value):
    args = {"--scenario": "blind-alley", "--bundle": "scripted", flag: str(value(tmp_path))}
    code = main(["simulate", *(a for kv in args.items() for a in kv), "--out", str(tmp_path / "x")])
    assert code == EXIT_USAGE
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--config", "{null}", "--seed", "1"],
    ["--config", "{dir}"],
    ["--config", "{list}"],
])
def test_train_config_that_is_no_object_file_names_the_option(tmp_path, capsys, flags):
    (tmp_path / "list.json").write_text("[1, 2]")
    paths = {"{null}": str(_null_file(tmp_path)), "{dir}": str(tmp_path), "{list}": str(tmp_path / "list.json")}
    code = main(["train", "expert-gs", *(paths.get(f, f) for f in flags), "--out", str(tmp_path / "t")])
    assert code == EXIT_USAGE
    assert "--config" in capsys.readouterr().err


def test_fusion_expert_directory_names_the_option(tmp_path, capsys):
    code = main(["train", "fusion", "--expert-gs", str(tmp_path), "--expert-oa", str(tmp_path),
                 "--out", str(tmp_path / "f")])
    assert code == EXIT_USAGE
    assert "--expert-gs" in capsys.readouterr().err


@pytest.mark.parametrize("profiles, flag", [
    (("obstacle-avoidance", "obstacle-avoidance"), "--expert-gs"),
    (("go-straight", "go-straight"), "--expert-oa"),
    (("obstacle-avoidance", "go-straight"), "--expert-gs"),
    (("go-straight", "fusion"), "--expert-oa"),
], ids=["gs-is-oa", "oa-is-gs", "swapped", "oa-is-fusion"])
def test_fusion_expert_of_another_stage_names_the_option(tmp_path, capsys, profiles, flag):
    cfg = ObservationConfig()
    paths = [tmp_path / f"expert-{k}.json" for k in range(2)]
    for profile, path in zip(profiles, paths):
        save_expert(MlpParams.zeros(cfg.dim, 64, 64, 3), profile, cfg, path)
    (tmp_path / "zero.json").write_text(json.dumps({"generations": 0}))  # so a missed check trains nothing
    code = main(["train", "fusion", "--config", str(tmp_path / "zero.json"), "--tasks", "1",
                 "--expert-gs", str(paths[0]), "--expert-oa", str(paths[1]), "--out", str(tmp_path / "f")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert flag in err and "expert" in err
    assert not (tmp_path / "f" / "fusion-bundle.json").exists()


@pytest.mark.parametrize("flags, option", [
    (["--bundle", "{missing}"], "--bundle"),
    (["--bundle", "{dir}"], "--bundle"),
    (["--bundle", "{text}"], "--bundle"),
    (["--timeout", "nan"], "--timeout"),
    (["--gamma", "-1"], "--gamma"),
    (["--seed", "-1"], "--seed"),
], ids=["bundle-missing", "bundle-dir", "bundle-not-json", "timeout-nan", "gamma-negative", "seed-negative"])
def test_eval_script_bad_input_exits_2_naming_the_option(tmp_path, monkeypatch, capsys, flags, option):
    script = Path(__file__).resolve().parent.parent / "scripts" / "eval_scenarios.py"
    spec = importlib.util.spec_from_file_location("eval_scenarios", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    (tmp_path / "text.json").write_text("not json")
    paths = {"{missing}": str(tmp_path / "missing.json"), "{dir}": str(tmp_path), "{text}": str(tmp_path / "text.json")}
    argv = [str(script), *(paths.get(f, f) for f in flags), "--episodes", "1", "--out", str(tmp_path / "e")]
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as exit_info:
        module.main()
    assert exit_info.value.code == 2
    assert option in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["observation"].update(beams=36), "expert 0 field 'sizes'"),
    (lambda d: d["experts"][1].update(sizes=[149, 64, 64]), "expert 1 field 'sizes'"),
    (lambda d: d["critic"]["w2"].__setitem__(3, float("nan")), "critic field 'w2'"),
], ids=["beams-36", "three-sizes", "nan-weight"])
def test_bad_bundle_is_usage_error_naming_the_network_and_field(tmp_path, capsys, zero_bundle_path, edit, message):
    doc = json.loads(zero_bundle_path.read_text())
    edit(doc)
    path = tmp_path / "bad-bundle.json"
    path.write_text(json.dumps(doc))
    code = main(["simulate", "--scenario", "blind-alley", "--bundle", str(path), "--out", str(tmp_path / "x")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--bundle" in err and message in err
