"""Retry, hedging and circuit-breaking policy: how the engine reacts
to failure instead of propagating it.

Three mechanisms, composed by the engine's one fan-out
(:meth:`~repro.engine.executor.QueryEngine.run_jobs`), which hands
them "start another attempt" and "wait for that attempt" as callables
-- so each is written once, whatever substrate the attempt runs on:

* :class:`RetryPolicy` / :meth:`ResiliencePlane.retrying_result` --
  per-job-class retry budgets.  Every engine job class
  (``full_query``, ``full_query_batch``, ``detect``, ``index_build``)
  is a pure function of an immutable frozen payload, so retries are
  always safe; the
  policy only decides *how many* and *how spaced* (capped exponential
  backoff with deterministic jitter), and the remaining-deadline
  budget always wins -- a retry whose backoff would outlive the
  caller's deadline is not attempted.

* **Hedging** (:meth:`ResiliencePlane.hedged_result`) -- a straggler
  job past the observed p95 of its class (times :data:`HEDGE_ALPHA`)
  gets one duplicate submission; the first result wins and the loser
  is cancelled (best-effort parent-side, cooperatively in the worker
  via the shipped deadline).  Hedging is the standard tail-latency
  answer when a worker stalls rather than dies; idempotent jobs make
  it free of semantic risk.  (An inline attempt runs to completion
  on the waiting thread: it never looks like a straggler.)

* :class:`CircuitBreaker` / :class:`ResiliencePlane` -- the breaker
  behind the degradation ladder ``process -> inline``.  Consecutive
  infrastructure failures (pool death, submission failure) open it;
  while open, fan-outs skip the pool entirely (no doomed submissions,
  no fallback latency); after a cooldown one *probe* fan-out is let
  through (half-open), and its success promotes the pool back.
  Payload corruption deliberately does **not** count against the
  breaker -- a poisoned ``(graph, version)`` payload is quarantined
  individually (see ``QueryEngine._quarantine_if_corrupt``) so one bad
  graph cannot condemn an otherwise healthy backend.
"""

import threading
import time
import zlib
from concurrent.futures import FIRST_COMPLETED
from concurrent.futures import wait as _futures_wait

from repro.engine import tracing
from repro.engine.backends import ProcessBackendError
from repro.util.errors import (
    FaultInjectedError,
    JobPayloadError,
    PayloadCorruptionError,
    QueryTimeoutError,
    WorkerKilledError,
)

#: exceptions a per-job retry may absorb: transient worker failures
#: and injected faults.  Pool death is *not* here -- that is a
#: substrate failure handled by the breaker/fallback ladder, and
#: deadline/cancellation signals always propagate untouched.
RETRYABLE = (WorkerKilledError, FaultInjectedError,
             PayloadCorruptionError)

#: hedge a job once it has run longer than p95 * alpha of its class.
HEDGE_ALPHA = 4.0

#: observed samples of a job class before its p95 is trusted for
#: hedging decisions (a cold histogram hedges everything or nothing).
HEDGE_MIN_SAMPLES = 20

#: never hedge before this many seconds, whatever the p95 says --
#: duplicating microsecond jobs buys nothing and doubles pool load.
HEDGE_MIN_SECONDS = 0.05

#: the degradation ladder, most- to least-parallel.
SUBSTRATES = ("process", "inline")


def remaining(deadline):
    """Seconds left until a ``perf_counter`` deadline (``None`` when
    unbounded, never negative)."""
    if deadline is None:
        return None
    return max(deadline - time.perf_counter(), 0.0)


class Attempt:
    """One started attempt of a job: its substrate future, when it
    was submitted and -- stamped by the future's done callback, where
    the substrate has one -- when it completed, both on this
    process's ``perf_counter``."""

    __slots__ = ("future", "started", "done_at")

    def __init__(self, future):
        self.future = future
        self.started = time.perf_counter()
        self.done_at = None
        callback = getattr(future, "add_done_callback", None)
        if callback is not None:
            callback(self._stamp)

    def _stamp(self, _future):
        self.done_at = time.perf_counter()


class RetryPolicy:
    """Retry budget and backoff schedule for one job class."""

    __slots__ = ("attempts", "base_delay", "max_delay", "hedge")

    def __init__(self, attempts=3, base_delay=0.005, max_delay=0.1,
                 hedge=True):
        self.attempts = int(attempts)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.hedge = bool(hedge)

    def backoff(self, attempt, token=""):
        """Sleep before retry number ``attempt`` (1-based): capped
        exponential with deterministic jitter in [0, 50%] derived from
        ``token`` -- reproducible under a seeded fault plan, yet
        decorrelated across jobs so a killed fan-out does not retry in
        lockstep."""
        base = min(self.max_delay,
                   self.base_delay * (2 ** (attempt - 1)))
        jitter = (zlib.crc32("{}:{}".format(token, attempt)
                             .encode("utf-8")) % 1000) / 2000.0
        return base * (1.0 + jitter)


#: per-job-class policies; job classes not named here use DEFAULT.
#: ``full_query_batch`` does not hedge: duplicating a whole group's
#: job doubles the largest unit of work in the system for one
#: straggling member -- the batching layer's solo-retry is the better
#: tool there.
POLICIES = {
    "full_query": RetryPolicy(attempts=3, hedge=True),
    "full_query_batch": RetryPolicy(attempts=3, hedge=False),
    "detect": RetryPolicy(attempts=2, hedge=False),
}

DEFAULT_POLICY = RetryPolicy(attempts=2, hedge=False)


class CircuitBreaker:
    """Closed / open / half-open breaker for one execution substrate.

    Opens after ``failure_threshold`` consecutive failures *or* when
    the error rate over the last ``window`` outcomes exceeds
    ``error_rate`` (with at least ``failure_threshold`` failures seen),
    stays open for ``cooldown`` seconds, then admits exactly one probe
    (half-open).  The probe's outcome decides: success closes the
    breaker (promotion), failure re-opens it for another cooldown.
    Thread-safe; all timing uses a monotonic clock.
    """

    def __init__(self, name, failure_threshold=3, window=16,
                 error_rate=0.5, cooldown=5.0):
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.window = int(window)
        self.error_rate = float(error_rate)
        self.cooldown = float(cooldown)
        self._lock = threading.Lock()
        self._state = "closed"
        self._consecutive = 0
        self._recent = []          # ring of recent outcomes (bools)
        self._next = 0
        self._opened_at = None
        self._probe_inflight = False
        self.opens = 0
        self.probes = 0
        self.promotions = 0
        self._degraded_seconds = 0.0

    @property
    def state(self):
        with self._lock:
            return self._state

    def allow(self):
        """Whether a fan-out may use this substrate right now:
        ``True`` (closed), ``"probe"`` (half-open, this caller is the
        probe), or ``False`` (open / probe already in flight)."""
        now = time.monotonic()
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if now - self._opened_at < self.cooldown:
                    return False
                self._state = "half_open"
                self._probe_inflight = False
            if self._probe_inflight:
                return False
            self._probe_inflight = True
            self.probes += 1
            return "probe"

    def record_success(self):
        with self._lock:
            self._record(True)
            if self._state == "half_open":
                self._degraded_seconds += \
                    time.monotonic() - self._opened_at
                self._opened_at = None
                self._state = "closed"
                self._probe_inflight = False
                self.promotions += 1
            self._consecutive = 0

    def record_failure(self):
        with self._lock:
            self._record(False)
            self._consecutive += 1
            if self._state == "half_open":
                # The probe failed: back to open, clock restarts.
                self._state = "open"
                self._probe_inflight = False
                self._opened_at = time.monotonic()
                return
            if self._state == "closed" and self._should_open():
                self._state = "open"
                self._opened_at = time.monotonic()
                self.opens += 1

    def _record(self, ok):
        if len(self._recent) < self.window:
            self._recent.append(ok)
        else:
            self._recent[self._next] = ok
            self._next = (self._next + 1) % self.window
        return ok

    def _should_open(self):
        if self._consecutive >= self.failure_threshold:
            return True
        failures = sum(1 for ok in self._recent if not ok)
        return (failures >= self.failure_threshold
                and failures / len(self._recent) >= self.error_rate)

    def degraded_seconds(self):
        """Cumulative seconds spent open/half-open (live-inclusive)."""
        with self._lock:
            total = self._degraded_seconds
            if self._opened_at is not None:
                total += time.monotonic() - self._opened_at
            return total

    def snapshot(self):
        with self._lock:
            live = self._degraded_seconds
            if self._opened_at is not None:
                live += time.monotonic() - self._opened_at
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive,
                "opens": self.opens,
                "probes": self.probes,
                "promotions": self.promotions,
                "degraded_seconds": round(live, 6),
            }


class ResiliencePlane:
    """The engine's failure-handling state, gathered in one object:
    substrate breakers, the payload quarantine set, hedging
    thresholds, and the resilience counters the metrics plane
    exports.  One per :class:`~repro.engine.executor.QueryEngine`.
    """

    COUNTER_KEYS = ("retries", "retry_exhausted", "hedges",
                    "hedges_won", "hedges_lost", "quarantines",
                    "breaker_rejections", "payload_retries",
                    "batch_member_retries", "faults_injected")

    def __init__(self, stats, breaker_cooldown=5.0,
                 hedge_alpha=HEDGE_ALPHA,
                 hedge_min_samples=HEDGE_MIN_SAMPLES):
        self.stats = stats
        self.hedge_alpha = float(hedge_alpha)
        self.hedge_min_samples = int(hedge_min_samples)
        self.breakers = {
            "process": CircuitBreaker("process",
                                      cooldown=breaker_cooldown),
        }
        self._lock = threading.Lock()
        self._quarantined = set()

    # ------------------------------------------------------------------
    # policies
    # ------------------------------------------------------------------
    @staticmethod
    def policy(op):
        return POLICIES.get(op, DEFAULT_POLICY)

    def substrate(self, preferred):
        """Walk the degradation ladder from ``preferred`` down to the
        first substrate whose breaker admits work.  Returns
        ``(substrate, probe)`` -- ``probe`` flags a half-open trial
        whose outcome the caller must report.  ``inline`` has no
        breaker: the calling thread is the floor that always works."""
        for level in SUBSTRATES[SUBSTRATES.index(preferred):-1]:
            verdict = self.breakers[level].allow()
            if verdict:
                return level, verdict == "probe"
            self.stats.count("breaker_rejections")
        return "inline", False

    def record(self, level, ok):
        """Report a substrate outcome to its breaker (no-op for
        ``inline``)."""
        breaker = self.breakers.get(level)
        if breaker is None:
            return
        if ok:
            breaker.record_success()
        else:
            breaker.record_failure()

    # ------------------------------------------------------------------
    # retries
    # ------------------------------------------------------------------
    def retrying_result(self, op, index, attempt, restart, wait,
                        deadline, on_failure):
        """One job's result, absorbing transient failures up to the
        policy's budget for ``op`` (and never past ``deadline``, a
        ``perf_counter`` instant or ``None``).

        ``attempt`` is the job's already-started first attempt (an
        object with ``future`` and ``started``); ``restart()`` starts
        a pristine further one -- injected faults are one-shot, so a
        retry or hedge never re-applies them -- and ``wait(attempt,
        budget)`` blocks for an attempt's result.  ``on_failure(exc)``
        sees every retryable failure first (the quarantine hook).
        Returns ``(result, winning attempt)``.
        """
        policy = self.policy(op)
        tries = 1
        while True:
            try:
                return self.hedged_result(op, attempt, restart, wait,
                                          deadline)
            except RETRYABLE as exc:
                on_failure(exc)
                delay = policy.backoff(
                    tries, token="{}:{}".format(op, index))
                if tries >= policy.attempts or (
                        deadline is not None
                        and time.perf_counter() + delay >= deadline):
                    self.stats.count("retry_exhausted")
                    raise
                self.stats.count("retries")
                tracing.add_span("retry", delay, op=op, job=index,
                                 attempt=tries,
                                 error=type(exc).__name__)
                time.sleep(delay)
                tries += 1
                attempt = restart()

    # ------------------------------------------------------------------
    # hedging
    # ------------------------------------------------------------------
    def hedged_result(self, op, attempt, restart, wait, deadline):
        """Await one attempt, hedging a straggler: past the p95-based
        threshold a duplicate is started, the first to finish wins,
        and the loser is cancelled (cooperatively, in the worker, via
        the shipped deadline).  Returns ``(result, winning
        attempt)``."""
        threshold = self.hedge_threshold(op)
        if threshold is None:
            return wait(attempt, remaining(deadline)), attempt
        first_wait = max(
            threshold - (time.perf_counter() - attempt.started), 0.0)
        budget = remaining(deadline)
        if budget is not None:
            first_wait = min(first_wait, budget)
        try:
            return wait(attempt, first_wait), attempt
        except QueryTimeoutError:
            if attempt.future.done():
                # The *worker* reported a deadline expiry; that is
                # the job's result, not a straggler signal.
                raise
            if deadline is not None \
                    and time.perf_counter() >= deadline:
                raise
        try:
            hedge = restart()
        except (ProcessBackendError, JobPayloadError):
            # No capacity for a duplicate; keep waiting on the
            # primary within the remaining budget.
            return wait(attempt, remaining(deadline)), attempt
        self.stats.count("hedges")
        done, _ = _futures_wait({attempt.future, hedge.future},
                                timeout=remaining(deadline),
                                return_when=FIRST_COMPLETED)
        if not done:
            hedge.future.cancel()
            attempt.future.cancel()
            raise QueryTimeoutError(
                "hedged job pair missed the deadline")
        won = attempt.future not in done
        winner, loser = (hedge, attempt) if won else (attempt, hedge)
        loser.future.cancel()
        self.stats.count("hedges_won" if won else "hedges_lost")
        tracing.add_span("hedge",
                         time.perf_counter() - hedge.started, op=op,
                         won=won)
        return wait(winner, remaining(deadline)), winner

    def hedge_threshold(self, op):
        """Seconds after which a running ``op`` job deserves a hedged
        duplicate, or ``None`` while the latency history is too cold
        to call anything a straggler."""
        if not self.policy(op).hedge:
            return None
        probe = getattr(self.stats, "latency_probe", None)
        if probe is None:
            return None
        count, p95 = probe(op)
        if count < self.hedge_min_samples or p95 <= 0.0:
            return None
        return max(p95 * self.hedge_alpha, HEDGE_MIN_SECONDS)

    # ------------------------------------------------------------------
    # quarantine
    # ------------------------------------------------------------------
    def quarantine(self, key):
        """Mark one payload identity as poisoned; returns whether it
        was newly quarantined."""
        with self._lock:
            if key in self._quarantined:
                return False
            self._quarantined.add(key)
        self.stats.count("quarantines")
        return True

    def is_quarantined(self, key):
        with self._lock:
            return key in self._quarantined

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def snapshot(self, faults=None):
        counters = {key: self.stats.get(key)
                    for key in self.COUNTER_KEYS}
        if faults is not None:
            counters["faults_injected"] = faults.injected()
        doc = {
            "counters": counters,
            "breakers": {name: breaker.snapshot()
                         for name, breaker in self.breakers.items()},
            "quarantined": len(self._quarantined),
            "degraded": any(b.state != "closed"
                            for b in self.breakers.values()),
        }
        if faults is not None:
            doc["fault_plan"] = faults.snapshot()
        return doc
