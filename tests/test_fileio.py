import csv
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navstack import policy
from navstack.fileio import fmt, json_text, write_csv, write_jsonl
from navstack.policy import (
    CriticParams,
    ExpertBank,
    GatingParams,
    MlpParams,
    ObservationConfig,
    PolicyBundle,
    save_bundle,
    save_expert,
)
from navstack.scenarios import make_scenario
from navstack.scripted import scripted_bundle
from navstack.stack import StackConfig, run_episode

FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, 1.0, -3.0, 2.0**53, 1e300, 5e-324, 0.1])

# Each leaf is drawn as (value written, value json.loads must return).
LEAVES = st.one_of(
    st.none().map(lambda v: (v, v)),
    st.booleans().map(lambda v: (v, v)),
    st.integers().map(lambda v: (v, v)),
    st.text().map(lambda v: (v, v)),
    FLOATS.map(lambda v: (v, v)),
    FLOATS.map(lambda v: (np.float64(v), v)),
    st.floats(width=32).map(lambda v: (np.float32(v), v)),
    st.integers(-(2**63), 2**63 - 1).map(lambda v: (np.int64(v), v)),
    st.booleans().map(lambda v: (np.bool_(v), v)),
    st.lists(FLOATS, max_size=6).map(lambda v: (np.array(v, dtype=float), v)),
    st.lists(FLOATS, min_size=4, max_size=4).map(lambda v: (np.array(v).reshape(2, 2), [v[:2], v[2:]])),
)


def _containers(children):
    lists = st.lists(children, max_size=4)
    return st.one_of(
        lists.map(lambda items: ([w for w, _ in items], [r for _, r in items])),
        lists.map(lambda items: (tuple(w for w, _ in items), [r for _, r in items])),
        st.dictionaries(st.text(max_size=5), children, max_size=4).map(
            lambda d: ({k: w for k, (w, _) in d.items()}, {k: r for k, (_, r) in d.items()})),
    )


def same(a, b) -> bool:
    """Equal in type and value; floats compare by their bits, so NaN equals
    NaN and -0.0 differs from 0.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b) or (math.isnan(a) and math.isnan(b))
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


@settings(max_examples=300, deadline=None)
@given(st.recursive(LEAVES, _containers, max_leaves=20))
def test_json_text_round_trips_values_and_types(case):
    written, expected = case
    text = json_text(written)
    assert "\n" not in text
    assert same(json.loads(text), expected), text


@pytest.mark.parametrize("value, text", [
    (0.1, "0.1"), (1.0, "1.0"), (-0.0, "-0.0"), (float("nan"), "NaN"),
    (float("inf"), "Infinity"), (-math.inf, "-Infinity"), (np.float32(0.5), "0.5"), (np.int64(-7), "-7"),
    ({"b": [1, (2.5, None)], "a": np.bool_(True)}, '{"a": true, "b": [1, [2.5, null]]}'),
])
def test_json_text_spelling(value, text):
    assert json_text(value) == text


def test_json_text_rejects_other_objects():
    with pytest.raises(TypeError):
        json_text({"path": Path(".")})


def _parent_write_checkpoint(path, kind, obs_config, **fields):
    """The checkpoint writer before ``json_text`` wrote checkpoints, frozen."""
    doc = {"schema": 1, "kind": kind,
           "observation": {k: getattr(obs_config, k) for k in ("beams", "max_range", "history")}, **fields}
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def test_checkpoint_bytes_match_the_frozen_writer(tmp_path, monkeypatch):
    cfg = ObservationConfig(beams=8)
    rng = np.random.default_rng(5)
    nets = [MlpParams.random(cfg.dim, 6, 5, y, rng, cfg.feature_scales()) for y in (3, 3, 3, 3, 4, 1)]
    nets[0].b0[:3] = (1.0, -0.0, 0.1)  # integral, signed-zero and inexact floats
    bundle = PolicyBundle(cfg, ExpertBank(tuple(nets[:4])), GatingParams(nets[4]), CriticParams(nets[5]))

    def save_both(name):
        save_bundle(bundle, tmp_path / f"{name}-bundle.json")
        save_expert(nets[0], "go-straight", cfg, tmp_path / f"{name}-expert.json")

    save_both("now")
    monkeypatch.setattr(policy, "_write_checkpoint", _parent_write_checkpoint)
    save_both("frozen")
    for kind in ("bundle", "expert"):
        assert (tmp_path / f"now-{kind}.json").read_bytes() == (tmp_path / f"frozen-{kind}.json").read_bytes()


def _trace_rows(path):
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


@pytest.mark.parametrize("mode", ["full", "lower-only"])
def test_trace_pose_and_action_read_back_bit_for_bit(tmp_path, mode):
    path = tmp_path / "trace.jsonl"
    res = run_episode(make_scenario("double-branch", 0), scripted_bundle(), StackConfig(timeout=20.0, mode=mode),
                      trace_path=path)
    rows = _trace_rows(path)
    assert len(rows) == res.steps > 0
    for key, stored in (("pose", res.poses), ("action", res.actions)):
        values = [row[key] for row in rows]
        assert all(type(v) is float for vec in values for v in vec)
        assert np.array(values).tobytes() == stored.tobytes()
    assert [row["tick"] for row in rows] == list(range(res.steps))


def test_trace_alpha_reads_back_as_floats(tmp_path):
    cfg = ObservationConfig()
    rng = np.random.default_rng(2)
    nets = [MlpParams.random(cfg.dim, 8, 8, y, rng, cfg.feature_scales()) for y in (3, 3, 3, 3, 4, 1)]
    bundle = PolicyBundle(cfg, ExpertBank(tuple(nets[:4])), GatingParams(nets[4]), CriticParams(nets[5]))
    path = tmp_path / "trace.jsonl"
    run_episode(make_scenario("square", 1), bundle, StackConfig(timeout=2.0), trace_path=path)
    alphas = [row["alpha"] for row in _trace_rows(path)]
    assert alphas and all(len(a) == 4 and all(type(v) is float for v in a) for a in alphas)


class NanAction:
    def action(self, obs):
        return np.array([math.nan, 0.0, 0.0])


def test_nan_action_trace_parses(tmp_path):
    path = tmp_path / "trace.jsonl"
    res = run_episode(make_scenario("double-branch", 0), NanAction(), StackConfig(timeout=3.0, mode="lower-only"),
                      trace_path=path)
    rows = _trace_rows(path)  # json.loads rejects a bare nan
    assert len(rows) == res.steps > 0
    assert all(math.isnan(row["action"][0]) for row in rows)


def test_write_jsonl_writes_one_line_per_row(tmp_path):
    rows = [{"generation": 0, "best_return": -0.0}, {"generation": 1, "best_return": np.float64(2.0)}]
    write_jsonl(tmp_path / "log.jsonl", rows)
    assert (tmp_path / "log.jsonl").read_text() == ('{"best_return": -0.0, "generation": 0}\n'
                                                    '{"best_return": 2.0, "generation": 1}\n')


def test_write_csv_plain_cells_are_joined_by_commas(tmp_path):
    rows = [("square", 3, 0.1, True, -0.0), ("rooms", 4, float("nan"), False, 2.5)]
    write_csv(tmp_path / "m.csv", ("scenario", "seed", "x", "ok", "y"), rows)
    want = "scenario,seed,x,ok,y\n" + "".join(",".join(fmt(v) for v in row) + "\n" for row in rows)
    assert (tmp_path / "m.csv").read_text() == want


def test_write_csv_quotes_cells_that_need_it(tmp_path):
    names = ["my,map", 'say "hi"', "two\nlines"]
    write_csv(tmp_path / "m.csv", ("name", "seed"), [(name, k) for k, name in enumerate(names)])
    with open(tmp_path / "m.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows == [["name", "seed"]] + [[name, str(k)] for k, name in enumerate(names)]
