"""Tests for the metrics substrate (repro.engine.stats)."""

import threading

from repro.engine.stats import (
    BUCKET_EDGES,
    EngineStats,
    LatencyHistogram,
    RECENT_WINDOW_SECONDS,
)


# ----------------------------------------------------------------------
# LatencyHistogram
# ----------------------------------------------------------------------
class TestHistogramReservoir:
    def test_wraparound_keeps_last_n_samples(self):
        hist = LatencyHistogram(reservoir_size=8)
        for i in range(20):
            hist.record(float(i))
        # The ring holds exactly the last 8 observations (12..19);
        # older samples have been overwritten in place.
        assert sorted(hist._reservoir) == [float(i) for i in range(12, 20)]
        assert len(hist._reservoir) == 8
        # Lifetime aggregates still cover every observation.
        assert hist.count == 20
        assert hist.total == sum(range(20))
        assert hist.max == 19.0

    def test_wraparound_percentiles_reflect_recent_window(self):
        hist = LatencyHistogram(reservoir_size=4)
        for _ in range(100):
            hist.record(0.001)
        for _ in range(4):
            hist.record(1.0)
        # After wraparound only the four 1.0s samples remain, so the
        # median must ignore the hundred earlier fast queries.
        assert hist.percentile(50) == 1.0

    def test_percentile_clamped_at_zero_and_hundred(self):
        hist = LatencyHistogram()
        samples = [0.5, 0.1, 0.9, 0.3]
        for s in samples:
            hist.record(s)
        assert hist.percentile(0) == min(samples)
        assert hist.percentile(100) == max(samples)
        # Out-of-range ranks clamp rather than index-error.
        assert hist.percentile(-50) == min(samples)
        assert hist.percentile(250) == max(samples)

    def test_percentile_empty_reservoir(self):
        assert LatencyHistogram().percentile(95) == 0.0

    def test_snapshot_exports_buckets_and_total(self):
        hist = LatencyHistogram()
        hist.record(0.0002)   # second bucket (le 0.00025)
        hist.record(0.003)    # le 0.005
        hist.record(500.0)    # open-ended overflow bucket
        snap = hist.snapshot()
        assert snap["count"] == 3
        assert snap["total_seconds"] == round(0.0002 + 0.003 + 500.0, 6)
        buckets = snap["buckets"]
        assert len(buckets) == len(BUCKET_EDGES) + 1
        by_edge = dict((edge, count) for edge, count in buckets)
        assert by_edge[0.00025] == 1
        assert by_edge[0.005] == 1
        # The final bucket is open-ended: its bound is None.
        assert buckets[-1] == [None, 1]
        assert sum(count for _, count in buckets) == 3

    def test_snapshot_percentiles_agree_with_percentile(self):
        hist = LatencyHistogram()
        for i in range(1, 101):
            hist.record(i / 1000.0)
        snap = hist.snapshot()
        assert snap["p50_ms"] == round(hist.percentile(50) * 1000, 3)
        assert snap["p95_ms"] == round(hist.percentile(95) * 1000, 3)


# ----------------------------------------------------------------------
# EngineStats
# ----------------------------------------------------------------------
class TestEngineStats:
    def test_snapshot_reports_recent_and_lifetime_throughput(self):
        stats = EngineStats()
        for _ in range(10):
            stats.observe("search", 0.001)
        snap = stats.snapshot()
        assert snap["throughput_per_second"] > 0
        # All ten completions happened inside the recent window, and
        # the window is clamped to the (tiny) uptime, so the recent
        # rate is at least the lifetime rate here.
        assert snap["throughput_recent_per_second"] >= \
            snap["throughput_per_second"]

    def test_recent_throughput_drops_stale_completions(self):
        stats = EngineStats()
        stats.observe("search", 0.001)
        # Backdate the completion beyond the window; the next snapshot
        # must prune it, while lifetime counters keep it.
        stats._completions[0] -= RECENT_WINDOW_SECONDS + 10
        stats.started_at -= RECENT_WINDOW_SECONDS + 10
        snap = stats.snapshot()
        assert snap["throughput_recent_per_second"] == 0.0
        assert snap["latency"]["search"]["count"] == 1

    def test_snapshot_thread_safe_under_concurrent_observe(self):
        stats = EngineStats()
        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            while not stop.is_set():
                stats.observe("search", (i % 50) / 1000.0)
                stats.count("queries")
                i += 1

        def reader():
            try:
                while not stop.is_set():
                    snap = stats.snapshot()
                    hist = snap["latency"].get("search")
                    if hist is not None:
                        # A torn histogram would break this invariant.
                        assert sum(c for _, c in hist["buckets"]) == \
                            hist["count"]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(3)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        stop_timer = threading.Timer(0.5, stop.set)
        stop_timer.start()
        for t in threads:
            t.join(timeout=10)
        stop_timer.cancel()
        assert not errors
        snap = stats.snapshot()
        assert snap["counters"]["queries"] == \
            snap["latency"]["search"]["count"]
