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


BOUNDED = [{**METRICS[0], "bound": 0.25}, {**METRICS[1], "bound": 0.25}]


def flags(pairs):
    metrics = bench_compare.collate(pairs, BOUNDED)["metrics"]
    return {name: (m["regressed"], m["unresolved"]) for name, m in metrics.items()}


def test_regressed_when_worse_by_more_than_the_bound():
    # segment (higher is better) 1.0 -> 0.74, setup (lower is better) 0.2 -> 0.26
    pairs = [{"parent": run(1.0, 0.2), "change": run(0.74, 0.26)} for _ in range(4)]
    assert flags(pairs) == {"segment_mchar_s": (True, False), "setup_s": (True, False)}
    # within the bound either way, and better by any amount, is no regression
    pairs = [{"parent": run(1.0, 0.2), "change": run(0.76, 0.24)} for _ in range(4)]
    assert flags(pairs) == {"segment_mchar_s": (False, False), "setup_s": (False, False)}
    pairs = [{"parent": run(1.0, 0.2), "change": run(2.0, 0.05)} for _ in range(4)]
    assert flags(pairs) == {"segment_mchar_s": (False, False), "setup_s": (False, False)}


def test_unresolved_when_the_parent_spreads_beyond_the_bound():
    # parent segment quartiles 0.85 and 1.15 around a median of 1.0: IQR / median 0.3
    pairs = [{"parent": run(seg, 0.2), "change": run(1.0, 0.2)} for seg in (0.7, 0.9, 1.1, 1.3)]
    out = bench_compare.collate(pairs, BOUNDED)["metrics"]["segment_mchar_s"]
    assert out["parent"]["scaled"]["iqr_over_median"] > 0.25
    assert (out["regressed"], out["unresolved"]) == (False, True)
    assert flags(pairs)["setup_s"] == (False, False)


def test_no_bound_no_flags():
    pairs = [{"parent": run(1.0, 0.2), "change": run(0.1, 2.0)}]
    metrics = bench_compare.collate(pairs, METRICS)["metrics"]
    assert all(m["regressed"] is None and m["unresolved"] is None for m in metrics.values())
