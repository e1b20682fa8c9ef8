import pytest

import bench_pairs


def test_schedule_alternates_which_side_runs_first():
    assert bench_pairs.schedule(3, 40) == [
        (1, "parent", 40), (1, "change", 40),
        (2, "change", 41), (2, "parent", 41),
        (3, "parent", 42), (3, "change", 42)]


def test_summarize_counts_wins_in_each_metric_direction():
    metrics = [("op_ms.p50", "lower"), ("items_per_s", "higher")]
    parent = [(6.0, 100.0), (6.2, 110.0), (5.9, 90.0), (6.1, 95.0)]
    change = [(5.5, 120.0), (6.2, 100.0), (5.6, 95.0), (6.3, 95.0)]
    results = {}
    for pair, (p, c) in enumerate(zip(parent, change), 1):
        results[pair, "parent"] = dict(zip(("op_ms.p50", "items_per_s"), p))
        results[pair, "change"] = dict(zip(("op_ms.p50", "items_per_s"), c))
    (_, p50_parent, p50_change, p50_wins, n), (*_, ips_wins, _) = \
        bench_pairs.summarize(results, metrics)
    assert n == 4
    # a tie (6.2 against 6.2, 95 against 95) is no win
    assert p50_wins == 2 and ips_wins == 2
    assert p50_parent == pytest.approx((5.975, 6.05, 6.125))
    assert p50_change[1] == pytest.approx(5.9)


def test_end_to_end_metrics_are_the_benchmarks():
    names = [name for name, _ in bench_pairs.end_to_end_metrics()]
    assert names == ["setup_s", "op_ms.p50", "op_ms.p90", "items_per_s",
                     "peak_rss_mb"]
