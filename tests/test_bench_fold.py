"""scripts/bench_fold.py on synthetic perfbench records."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_fold.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_fold", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCHMARK = {"end_to_end": [
    {"name": "ticks_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "tick_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
]}


def _record(directory: Path, seed: int, ticks_per_s: float, p50: float, digest: str, commit: str,
            failed_frac: float = 0.0) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    record = {
        "meta": {"workload": "train-fusion", "seed": seed, "git_commit": commit, "numpy": "2.4.6",
                 "seconds": 30.0, "tiny": False},
        "metrics": {"ticks_per_s": {"value": ticks_per_s, "unit": "1/s"},
                    "tick_ms_p50": {"value": p50, "unit": "ms"}},
        "specific": {"failed_frac": {"value": failed_frac, "unit": "ratio of 84 episodes"}},
        "digest": digest,
        "repeat_mismatches": 0,
        "errors": [],
    }
    (directory / f"train-fusion-seed{seed}-trace0.json").write_text(json.dumps(record))
    # Traced records are not folded.
    (directory / f"train-fusion-seed{seed}-trace1.json").write_text("not json")


def test_folds_two_records(tmp_path):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(BENCHMARK))
    _record(tmp_path / "parent", 1, 4000.0, 0.24, "d1", "aaa")
    _record(tmp_path / "change", 1, 5000.0, 0.16, "d1", "bbb")
    out = tmp_path / "BENCH_t.json"
    code = _load().main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                         "--tag", "t", "--benchmark", str(bench), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["tag"] == "t"
    assert doc["parent"]["git_commit"] == "aaa" and doc["change"]["git_commit"] == "bbb"
    w = doc["workloads"]["train-fusion"]
    assert w["seeds"] == [1] and w["pairs"] == 1
    tps = w["metrics"]["ticks_per_s"]
    assert tps["parent"] == {"median": 4000.0, "q1": 4000.0, "q3": 4000.0, "values": [4000.0]}
    assert tps["change"]["median"] == 5000.0
    assert tps["median_change_frac"] == pytest.approx(0.25)
    assert tps["parent_iqr_frac"] == 0.0
    assert tps["pairs_won"] == 1
    assert w["metrics"]["tick_ms_p50"]["pairs_won"] == 1  # lower is better
    assert w["metrics"]["tick_ms_p50"]["bound"] == 0.25
    assert w["digests"] == {"parent": ["d1"], "change": ["d1"], "equal": True}
    assert w["failed_runs"] == {"parent": 0, "change": 0}


def test_quartiles_pairs_and_digest_mismatch(tmp_path):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(BENCHMARK))
    for seed, (p, c) in enumerate([(100.0, 90.0), (110.0, 120.0), (120.0, 130.0), (130.0, 130.0)], start=1):
        _record(tmp_path / "parent", seed, p, 1.0, f"d{seed}", "aaa")
        _record(tmp_path / "change", seed, c, 1.0, "x" if seed == 4 else f"d{seed}", "bbb",
                failed_frac=0.1 if seed == 2 else 0.0)
    _record(tmp_path / "change", 9, 1.0, 1.0, "d9", "bbb")  # no parent record: not a pair
    out = tmp_path / "out.json"
    assert _load().main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                         "--tag", "q", "--benchmark", str(bench), "--out", str(out)]) == 0
    w = json.loads(out.read_text())["workloads"]["train-fusion"]
    tps = w["metrics"]["ticks_per_s"]
    assert w["seeds"] == [1, 2, 3, 4]
    assert (tps["parent"]["q1"], tps["parent"]["median"], tps["parent"]["q3"]) == (107.5, 115.0, 122.5)
    assert tps["pairs_won"] == 2  # a tie wins nothing
    assert w["metrics"]["tick_ms_p50"]["pairs_won"] == 0
    assert w["digests"]["equal"] is False
    assert w["failed_runs"] == {"parent": 0, "change": 1}


def test_no_pairs_is_an_error(tmp_path):
    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps(BENCHMARK))
    _record(tmp_path / "parent", 1, 1.0, 1.0, "d", "aaa")
    (tmp_path / "change").mkdir()
    assert _load().main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                         "--tag", "n", "--benchmark", str(bench), "--out", str(tmp_path / "o.json")]) == 2
