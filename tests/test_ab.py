"""The summary and verdict of `scripts/ab.py`; its benchmark runs are not run here."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "scripts" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab = load_ab()


def test_direction_of_every_end_to_end_metric_comes_from_the_benchmark():
    assert ab.end_to_end_metrics() == {"setup_s": "lower", "op_s": "lower",
                                       "accuracy": "higher", "peak_rss_mb": "lower"}


def test_quartiles_match_the_benchmarks_own_summary():
    assert ab.quartiles([3.0]) == (3.0, 3.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 4.5)


def test_clear_win_meets_the_bar():
    base = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    change = [b - 0.2 for b in base]
    r = ab.compare(base, change, "lower")
    assert r["wins"] == 10 and r["pairs"] == 10
    assert r["base_median"] == 1.0
    assert r["change_median"] == pytest.approx(0.8)
    assert r["gap"] == pytest.approx(0.2)
    assert r["bar_met"]


def test_eight_wins_in_ten_miss_the_bar_however_large_the_gap():
    base = [1.0] * 10
    change = [0.5] * 8 + [1.5] * 2
    r = ab.compare(base, change, "lower")
    assert r["wins"] == 8
    assert r["gap"] == 0.5
    assert not r["bar_met"]


def test_a_gap_inside_the_base_spread_misses_the_bar():
    base = [0.8, 0.9, 1.0, 1.1, 1.2, 0.8, 0.9, 1.0, 1.1, 1.2]
    change = [b - 0.05 for b in base]
    r = ab.compare(base, change, "lower")
    assert r["wins"] == 10
    assert r["gap"] == pytest.approx(0.05)
    assert r["base_q3"] - r["base_q1"] > r["gap"]
    assert not r["bar_met"]


def test_higher_is_better_counts_rises_and_ties_count_as_lost():
    r = ab.compare([0.5, 0.5, 0.5], [0.6, 0.5, 0.7], "higher")
    assert r["wins"] == 2
    assert r["gap"] == pytest.approx(0.1)
    assert not r["bar_met"]
    same = ab.compare([1.0] * 10, [1.0] * 10, "higher")
    assert same["wins"] == 0 and same["gap"] == 0.0 and not same["bar_met"]


def test_a_slower_change_has_a_negative_gap():
    r = ab.compare([1.0, 1.0], [1.5, 1.5], "lower")
    assert r["gap"] == -0.5 and r["wins"] == 0


def test_uneven_or_empty_sides_are_rejected():
    with pytest.raises(ValueError):
        ab.compare([1.0], [1.0, 2.0], "lower")
    with pytest.raises(ValueError):
        ab.compare([], [], "lower")


def test_verdict_line_names_the_figures():
    r = ab.compare([1.0] * 10, [0.8] * 10, "lower")
    line = ab.format_verdict("op_s", r)
    assert line.startswith("op_s: median 1 -> 0.8 (-20.0 %)")
    assert "change better in 10/10 pairs, bar met" in line


def test_bad_pair_count_is_an_argument_error():
    with pytest.raises(SystemExit) as exc:
        ab.main(["--base", "HEAD", "--workload", "verify_gate", "--pairs", "0"])
    assert exc.value.code == 2


def test_sign_test_rank_keeps_at_least_95_percent_coverage():
    # 10 pairs: P(B < 2) = 11/1024, so ratios 2 and 9 cover 97.9 %;
    # ratios 3 and 8 would cover only 89.1 %
    assert ab.sign_test_rank(10) == 2
    assert [ab.sign_test_rank(n) for n in (5, 6, 8, 9, 20)] == [0, 1, 1, 2, 6]


def test_ratio_summary_takes_the_2nd_and_9th_of_10_ratios():
    base = [2.0, 1.0, 4.0, 1.0, 2.0, 1.0, 5.0, 1.0, 2.0, 1.0]
    ratios = [0.9, 0.8, 0.95, 0.85, 0.7, 1.0, 0.92, 0.88, 0.81, 0.99]
    s = ab.ratio_summary(base, [b * q for b, q in zip(base, ratios)])
    assert s["pairs"] == 10 and s["rank"] == 2
    assert s["median"] == pytest.approx((0.88 + 0.9) / 2)
    assert (s["low"], s["high"]) == pytest.approx((0.8, 0.99))
    assert s["coverage"] == 1 - 2 * 11 / 1024
    line = ab.format_ratio("op_s", s)
    assert line == ("op_s: change/base ratio median 0.89, 97.9 % interval 0.8-0.99 "
                    "(ratios 2 and 9 of 10 in order)")


def test_fewer_than_6_pairs_give_no_interval():
    s = ab.ratio_summary([1.0] * 5, [0.5] * 5)
    assert s["median"] == 0.5 and s["low"] is None and s["high"] is None
    assert ab.format_ratio("op_s", s) == ("op_s: change/base ratio median 0.5, "
                                          "no 95 % interval from 5 pairs (it takes 6)")
    six = ab.ratio_summary([1.0] * 6, [0.5, 0.6, 0.7, 0.8, 0.9, 1.1])
    assert (six["low"], six["high"]) == (0.5, 1.1)


def test_a_base_that_reads_0_has_no_ratio():
    s = ab.ratio_summary([0.0] + [1.0] * 9, [1.0] * 10)
    assert s["median"] is None and s["low"] is None
    assert ab.format_ratio("accuracy", s) == "accuracy: no change/base ratio, a base run reads 0"
    with pytest.raises(ValueError):
        ab.ratio_summary([1.0], [])
