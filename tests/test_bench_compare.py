"""tools/bench_compare.py: seed lists and the collation of parent/change pairs."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_compare", Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)

METRICS = [{"name": "segment_mchar_s", "unit": "Mchar/s", "better": "higher"},
           {"name": "setup_s", "unit": "s", "better": "lower"}]


def run(segment, setup, failed=0):
    figures = {"segment_mchar_s": segment, "setup_s": setup}
    return {"exit": 0, "attempted": 10, "failed": failed, "scaled": figures, "raw": figures}


def test_seed_list():
    assert bench_compare.seed_list("121-123,130") == [121, 122, 123, 130]
    assert bench_compare.seed_list("7") == [7]


def test_ties_count_for_neither_side():
    pairs = [
        {"parent": run(1.0, 0.2), "change": run(1.1, 0.2)},  # change wins, setup tie
        {"parent": run(1.0, 0.2), "change": run(1.0, 0.3)},  # segment tie, parent wins
        {"parent": run(1.2, 0.3), "change": run(1.0, 0.1)},  # parent wins, change wins
    ]
    metrics = bench_compare.collate(pairs, METRICS)["metrics"]
    assert (metrics["segment_mchar_s"]["change_wins"],
            metrics["segment_mchar_s"]["parent_wins"]) == (1, 1)
    assert (metrics["setup_s"]["change_wins"], metrics["setup_s"]["parent_wins"]) == (1, 1)
    assert metrics["segment_mchar_s"]["pairs"] == 3


def test_failed_run_drops_its_pair_and_is_counted():
    pairs = [
        {"parent": run(1.0, 0.2), "change": run(2.0, 0.1, failed=1)},
        {"parent": run(1.0, 0.2), "change": {"exit": 1, "stderr": "boom"}},
    ]
    out = bench_compare.collate(pairs, METRICS)
    assert out["sides"] == {
        "parent": {"attempted": 20, "failed": 0, "pairs_dropped": 0},
        "change": {"attempted": 10, "failed": 1, "pairs_dropped": 1},
    }
    segment = out["metrics"]["segment_mchar_s"]
    assert segment["pairs"] == 1
    assert segment["change"]["scaled"]["median"] == 2.0
    assert segment["change_wins"] == 1
