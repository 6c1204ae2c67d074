"""Engine observability: latency histograms and throughput counters.

The paper pitches C-Explorer as an *online* system ("the communities
will be returned instantly"); once queries run through a shared worker
pool, "instantly" has to be measured, not assumed.  This module is the
measurement substrate the engine reports through ``/v1/metrics``:

* :class:`LatencyHistogram` -- per-operation latency distribution with
  log-scale buckets (for the shape) and a bounded reservoir of recent
  samples (for accurate p50/p95 over the live window);
* :class:`EngineStats` -- named counters plus one histogram per
  operation kind (``search``, ``detect``, ``compare``, ...),
  thread-safe, snapshotted as one JSON-friendly dict.

Counters are monotonic; histograms age out naturally as the reservoir
rolls, so percentiles describe recent traffic rather than boot-time
behaviour.
"""

import threading
import time
from collections import deque

# Completion timestamps are kept for this long to compute the
# recent-window throughput: the lifetime completions/uptime ratio
# decays toward zero on an idle server, which is useless for alerting.
RECENT_WINDOW_SECONDS = 60.0

# Bucket upper bounds in seconds; the last bucket is open-ended.  A
# decade-per-3-buckets geometric ladder from 100us to 100s covers both
# cache hits and the slowest whole-graph detections.
BUCKET_EDGES = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
)


class LatencyHistogram:
    """Latency distribution for one operation kind.

    Not thread-safe on its own; :class:`EngineStats` provides the lock.
    """

    __slots__ = ("count", "total", "max", "buckets", "_reservoir",
                 "_reservoir_size", "_next")

    def __init__(self, reservoir_size=512):
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        self.buckets = [0] * (len(BUCKET_EDGES) + 1)
        self._reservoir = []
        self._reservoir_size = reservoir_size
        self._next = 0

    def record(self, seconds):
        """Fold one observation into the buckets and the reservoir."""
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds
        for i, edge in enumerate(BUCKET_EDGES):
            if seconds <= edge:
                self.buckets[i] += 1
                break
        else:
            self.buckets[-1] += 1
        # Ring-buffer reservoir: percentiles reflect the last N samples.
        if len(self._reservoir) < self._reservoir_size:
            self._reservoir.append(seconds)
        else:
            self._reservoir[self._next] = seconds
            self._next = (self._next + 1) % self._reservoir_size

    @staticmethod
    def _rank(ordered, p):
        """The ``p``-th percentile (0..100, nearest rank) of a
        non-empty, already-sorted sample list."""
        return ordered[int(round(p / 100.0 * (len(ordered) - 1)))]

    def snapshot(self):
        """Count, mean, p50/p95/max (ms) and the log-scale buckets.

        The reservoir is sorted once and both percentiles are read
        from the same ordered list.  ``buckets`` pairs each upper
        bound in seconds with its (non-cumulative) count; the final
        open-ended bucket has bound ``None`` -- exactly what the
        Prometheus exposition needs to build cumulative ``le`` series.
        """
        mean = self.total / self.count if self.count else 0.0
        if self._reservoir:
            ordered = sorted(self._reservoir)
            p50 = self._rank(ordered, 50)
            p95 = self._rank(ordered, 95)
        else:
            p50 = p95 = 0.0
        edges = list(BUCKET_EDGES) + [None]
        return {
            "count": self.count,
            "mean_ms": round(mean * 1000, 3),
            "p50_ms": round(p50 * 1000, 3),
            "p95_ms": round(p95 * 1000, 3),
            "max_ms": round(self.max * 1000, 3),
            "total_seconds": round(self.total, 6),
            "buckets": [[edge, count]
                        for edge, count in zip(edges, self.buckets)],
        }


class EngineStats:
    """Thread-safe counters + per-operation latency histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters = {}
        self._histograms = {}
        self._completed = 0
        self._completions = deque()
        self.started_at = time.time()

    def count(self, name, n=1):
        """Bump counter ``name`` by ``n``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def get(self, name):
        """Current value of counter ``name`` (0 when never bumped)."""
        with self._lock:
            return self._counters.get(name, 0)

    def observe(self, op, seconds, completion=False):
        """Record one ``op`` execution that took ``seconds``.  Only a
        ``completion`` -- an admitted engine job finishing -- counts
        toward throughput; a step inside one (a job's ``shard_ipc``, a
        snapshot build) is latency only."""
        now = time.time()
        with self._lock:
            hist = self._histograms.get(op)
            if hist is None:
                hist = self._histograms[op] = LatencyHistogram()
            hist.record(seconds)
            if completion:
                self._completed += 1
                self._completions.append(now)
                self._prune(now)

    def _prune(self, now):
        """Drop completion timestamps older than the recent window
        (caller holds the lock)."""
        horizon = now - RECENT_WINDOW_SECONDS
        while self._completions and self._completions[0] < horizon:
            self._completions.popleft()

    def snapshot(self):
        """One JSON-friendly dict: counters, latency, throughput."""
        with self._lock:
            now = time.time()
            elapsed = max(now - self.started_at, 1e-9)
            self._prune(now)
            window = max(min(elapsed, RECENT_WINDOW_SECONDS), 1e-9)
            return {
                "uptime_seconds": round(elapsed, 3),
                "throughput_per_second": round(self._completed / elapsed, 4),
                "throughput_recent_per_second": round(
                    len(self._completions) / window, 4),
                "counters": dict(self._counters),
                "latency": {op: hist.snapshot()
                            for op, hist in self._histograms.items()},
            }
