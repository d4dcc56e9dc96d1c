"""tools/bench_compare.py: seed lists and the collation of parent/change pairs."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_compare", Path(__file__).resolve().parent.parent / "tools" / "bench_compare.py")
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)

METRICS = [{"name": "segment_mchar_s", "unit": "Mchar/s", "better": "higher"},
           {"name": "setup_s", "unit": "s", "better": "lower"}]


def run(segment, setup, failed=0, load=0.5):
    figures = {"segment_mchar_s": segment, "setup_s": setup}
    return {"exit": 0, "load": load, "attempted": 10, "failed": failed,
            "scaled": figures, "raw": figures}


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
        {"parent": run(1.0, 0.2), "change": {"exit": 1, "load": 0.5, "stderr": "boom"}},
    ]
    out = bench_compare.collate(pairs, METRICS)
    assert out["sides"] == {
        "parent": {"attempted": 20, "failed": 0, "max_load": 0.5, "pairs_dropped": 0},
        "change": {"attempted": 10, "failed": 1, "max_load": 0.5, "pairs_dropped": 1},
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


def test_progress_line_gives_every_metric_ratio():
    pair = {"seed": 7, "parent": run(2.0, 0.2), "change": run(3.0, 0.1, failed=1)}
    assert bench_compare.progress_line("hindi", pair, METRICS) == (
        "hindi seed 7: change/parent segment_mchar_s 1.500, setup_s 0.500"
        "; failed parent 0 change 1; load parent 0.50 change 0.50")


def test_progress_line_marks_a_failed_run():
    pair = {"seed": 8, "parent": {"exit": 1, "load": 0.25, "stderr": "boom"},
            "change": run(3.0, 0.1)}
    assert bench_compare.progress_line("multiscript", pair, METRICS) == (
        "multiscript seed 8: change/parent segment_mchar_s n/a, setup_s n/a"
        "; failed parent exit 1 change 0; load parent 0.25 change 0.50")


def test_load_before_each_run_is_reported_per_side():
    # a busy host slows one side of a pair: each side's load shows in the
    # pair's line and its highest in the collation, failed runs included
    pairs = [
        {"seed": 1, "parent": run(1.0, 0.2, load=0.1), "change": run(1.0, 0.2, load=1.37)},
        {"seed": 2, "parent": {"exit": 1, "load": 2.5, "stderr": "boom"},
         "change": run(1.0, 0.2, load=0.2)},
    ]
    sides = bench_compare.collate(pairs, METRICS)["sides"]
    assert (sides["parent"]["max_load"], sides["change"]["max_load"]) == (2.5, 1.37)
    assert bench_compare.progress_line("hindi", pairs[0], METRICS).endswith(
        "; load parent 0.10 change 1.37")


def test_unresolved_clears_when_every_change_run_is_better():
    # parent segment spreads as above, but every change run beats every parent run
    pairs = [{"parent": run(seg, 0.2), "change": run(1.4, 0.2)} for seg in (0.7, 0.9, 1.1, 1.3)]
    assert flags(pairs)["segment_mchar_s"] == (False, False)
    pairs = [{"parent": run(seg, 0.2), "change": run(1.3, 0.2)} for seg in (0.7, 0.9, 1.1, 1.3)]
    assert flags(pairs)["segment_mchar_s"] == (False, True)


def gained(pairs):
    return bench_compare.collate(pairs, METRICS)["metrics"]["segment_mchar_s"]["gained"]


PARENT_SEGMENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def test_gained_with_nine_of_ten_wins():
    changes = [1.5] * 9 + [0.9]
    pairs = [{"parent": run(p, 0.2), "change": run(c, 0.2)}
             for p, c in zip(PARENT_SEGMENT, changes)]
    assert gained(pairs)
    # fewer than ten pairs never make a claim, even when all are won
    assert not gained(pairs[:9])


def test_not_gained_with_eight_of_ten_wins():
    changes = [1.5] * 8 + [0.9, 1.08]  # a loss and a tie
    pairs = [{"parent": run(p, 0.2), "change": run(c, 0.2)}
             for p, c in zip(PARENT_SEGMENT, changes)]
    assert not gained(pairs)


def test_not_gained_when_the_gap_is_within_the_parents_quartiles():
    # the change wins every pair, but by 0.01 against a parent q3 - q1 of 0.045
    pairs = [{"parent": run(p, 0.2), "change": run(p + 0.01, 0.2)} for p in PARENT_SEGMENT]
    assert bench_compare.collate(pairs, METRICS)["metrics"]["segment_mchar_s"]["change_wins"] == 10
    assert not gained(pairs)


def test_dropped_pairs_stay_in_the_denominator():
    won = [{"parent": run(p, 0.2), "change": run(1.5, 0.2)} for p in PARENT_SEGMENT[:9]]
    dropped = {"parent": run(1.0, 0.2), "change": {"exit": 1, "load": 0.5, "stderr": "boom"}}
    assert gained(won + [dropped])  # 9 of 10
    assert not gained(won + [dropped, dropped])  # 9 of 11, though 9 of the 9 summarised


def test_compile_sources_writes_bytecode(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("X = 1\n")
    bench_compare.compile_sources(tmp_path)  # perfbench/ and tests/ may be absent
    assert list((tmp_path / "src" / "__pycache__").glob("m.*.pyc"))
