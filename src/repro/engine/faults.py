"""Deterministic fault injection: the testable half of the failure rule.

The engine's one failure rule -- a job the pool cannot finish runs
once more inline -- is unfalsifiable without a way to *cause* the
faults it claims to survive.  This module provides the seeded
:class:`FaultPlan` that the chaos suite, the CI ``chaos`` job and the
fault-injection benchmark all drive: a plan can kill worker jobs,
delay/duplicate/drop engine jobs, corrupt pickled payloads, break the
process pool, and raise inside named tracing spans -- each with a
deterministic, seed-derived decision per injection site, so a failing
chaos run replays bit-for-bit.

Determinism is the design constraint.  Every decision is drawn
**parent-side at dispatch time** from a counter-indexed PRNG stream
(``seed : rule index : op : invocation``), never from worker-side
state: the same plan against the same query sequence injects the same
faults regardless of scheduling, pool size, or which worker picks a
job up.  The drawn actions ship *with* the job (see
:func:`~repro.engine.backends.timed_job`) and fire inside the worker.

Plans are installable three ways, all equivalent:

* ``QueryEngine(faults=FaultPlan.from_spec(
  "seed=7;kill:full_query@0.05"))``
* the CLI: ``--fault-plan "seed=7;kill:full_query@0.05"``
* the environment: ``REPRO_FAULT_PLAN=...`` (what the CI chaos job
  sets; every engine constructed without an explicit plan picks it
  up).

Spec grammar (``;``-separated tokens)::

    seed=<int>
    <kind>:<target>@<rate>[=<param>][#<limit>]

``kind`` is one of :data:`FAULT_KINDS`; ``target`` is an
``fnmatch``-style pattern over the job classes in :data:`JOB_CLASSES`
or ``span:<name>`` for span-level ``error`` rules -- a job-class
pattern that matches none of them is rejected, since it could never
inject anything; ``rate`` is the
injection probability; ``param`` is kind-specific (sleep seconds for
``delay``, message for ``error``); ``#limit`` caps total injections
from that rule.
"""

import json
import os
import random
import threading
from fnmatch import fnmatchcase

from repro.util.errors import (
    EngineError,
    FaultInjectedError,
    WorkerKilledError,
)

ENV_VAR = "REPRO_FAULT_PLAN"

#: kinds a rule may inject.  ``kill`` and ``drop`` abort the job with a
#: :class:`~repro.util.errors.WorkerKilledError` (``drop``
#: models a lost result, ``kill`` a dead worker -- distinguished only
#: in counters); ``delay`` sleeps; ``duplicate`` runs the (idempotent)
#: job twice; ``corrupt`` poisons the shipped payload parent-side (a
#: flipped byte of a pickled blob, a corrupted locator for a
#: zero-copy payload ref); ``segment_loss`` unlinks the shared-memory
#: segment behind a payload ref at the dispatch site, so the worker
#: discovers the loss at attach time; ``pool_break`` fails dispatch
#: as if the process pool
#: died; ``error`` raises a :class:`FaultInjectedError` (inside a span
#: for ``span:*`` targets, at job start otherwise).
FAULT_KINDS = ("kill", "drop", "delay", "duplicate", "corrupt",
               "segment_loss", "pool_break", "error")

# Kinds that execute inside the worker (shipped with the job); the
# rest act at the parent's dispatch site.
WORKER_KINDS = ("kill", "drop", "delay", "duplicate", "error")

#: the job classes the engine draws faults for: the ``op`` of every
#: :meth:`~repro.engine.executor.QueryEngine.run_jobs` dispatch.
JOB_CLASSES = ("full_query", "detect", "index_build")


class FaultSpecError(EngineError):
    """A fault-plan spec string did not parse."""


class FaultRule:
    """One injection rule: *kind*, applied to ops matching *target*,
    with probability *rate*."""

    __slots__ = ("kind", "target", "rate", "param", "limit")

    def __init__(self, kind, target, rate, param=None, limit=None):
        if kind not in FAULT_KINDS:
            raise FaultSpecError(
                "unknown fault kind {!r}; choose from {}".format(
                    kind, FAULT_KINDS))
        if not 0.0 <= float(rate) <= 1.0:
            raise FaultSpecError(
                "fault rate must be in [0, 1], got {!r}".format(rate))
        self.kind = kind
        self.target = target
        self.rate = float(rate)
        self.param = param
        self.limit = int(limit) if limit is not None else None

    def matches(self, op):
        return fnmatchcase(op, self.target)

    def to_spec(self):
        token = "{}:{}@{}".format(self.kind, self.target, self.rate)
        if self.param is not None:
            token += "={}".format(self.param)
        if self.limit is not None:
            token += "#{}".format(self.limit)
        return token


class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s with deterministic,
    counter-indexed draws.

    Thread-safe: draws from concurrent queries serialise on one lock,
    and the (rule, op) invocation counters -- the only mutable state --
    advance one injection site at a time.  ``snapshot()`` reports what
    actually fired, per kind, for the metrics plane.
    """

    def __init__(self, seed=0, rules=()):
        self.seed = int(seed)
        self.rules = tuple(rules)
        self._lock = threading.Lock()
        self._counters = {}
        self._injected = {}
        self._per_rule = [0] * len(self.rules)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec):
        """Parse the compact ``seed=...;kind:target@rate`` grammar (or
        its JSON object equivalent).  Returns ``None`` for an
        empty/blank spec; raises :class:`FaultSpecError` for a rule
        whose job-class pattern matches no class in
        :data:`JOB_CLASSES`."""
        if spec is None:
            return None
        spec = spec.strip()
        if not spec:
            return None
        plan = cls._from_json(spec) if spec.startswith("{") \
            else cls._from_tokens(spec)
        for rule in plan.rules:
            if not rule.target.startswith("span:") and not any(
                    rule.matches(op) for op in JOB_CLASSES):
                raise FaultSpecError(
                    "fault target {!r} matches no job class; choose "
                    "from {}".format(rule.target, JOB_CLASSES))
        return plan

    @classmethod
    def _from_tokens(cls, spec):
        seed = 0
        rules = []
        for token in spec.split(";"):
            token = token.strip()
            if not token:
                continue
            if token.startswith("seed="):
                try:
                    seed = int(token[len("seed="):])
                except ValueError:
                    raise FaultSpecError(
                        "bad seed in fault spec: {!r}".format(token)
                    ) from None
                continue
            rules.append(cls._parse_rule(token))
        return cls(seed=seed, rules=rules)

    @classmethod
    def _from_json(cls, spec):
        try:
            doc = json.loads(spec)
        except ValueError as exc:
            raise FaultSpecError(
                "fault spec is not valid JSON: {}".format(exc)
            ) from None
        rules = [FaultRule(r["kind"], r.get("target", "*"),
                           r.get("rate", 1.0), r.get("param"),
                           r.get("limit"))
                 for r in doc.get("rules", ())]
        return cls(seed=doc.get("seed", 0), rules=rules)

    @staticmethod
    def _parse_rule(token):
        try:
            kind, rest = token.split(":", 1)
            target, rest = rest.rsplit("@", 1)
        except ValueError:
            raise FaultSpecError(
                "bad fault rule {!r}; expected kind:target@rate"
                "[=param][#limit]".format(token)) from None
        limit = None
        if "#" in rest:
            rest, limit = rest.split("#", 1)
        param = None
        if "=" in rest:
            rest, param = rest.split("=", 1)
            try:
                param = float(param)
            except ValueError:
                pass  # non-numeric params (error messages) stay strings
        try:
            rate = float(rest)
        except ValueError:
            raise FaultSpecError(
                "bad fault rate in {!r}".format(token)) from None
        return FaultRule(kind.strip(), target.strip(), rate,
                         param=param, limit=limit)

    @classmethod
    def from_env(cls, environ=None):
        """The plan named by ``REPRO_FAULT_PLAN``, or ``None``."""
        environ = environ if environ is not None else os.environ
        return cls.from_spec(environ.get(ENV_VAR))

    def to_spec(self):
        """The compact spec string round-tripping this plan."""
        tokens = ["seed={}".format(self.seed)]
        tokens.extend(rule.to_spec() for rule in self.rules)
        return ";".join(tokens)

    # ------------------------------------------------------------------
    # drawing
    # ------------------------------------------------------------------
    def draw(self, op):
        """The fault actions (``(kind, param)`` pairs) to inject into
        this invocation of job class ``op`` -- deterministic in
        ``(seed, op, how many times op was drawn before)``.  Returns
        ``None`` when nothing fires (the overwhelmingly common case,
        kept allocation-free)."""
        actions = None
        with self._lock:
            for i, rule in enumerate(self.rules):
                if rule.kind == "error" and \
                        rule.target.startswith("span:"):
                    continue  # span rules fire via the span hook
                if not rule.matches(op):
                    continue
                n = self._counters.get((i, op), 0)
                self._counters[(i, op)] = n + 1
                if rule.limit is not None and \
                        self._per_rule[i] >= rule.limit:
                    continue
                if self._roll(i, op, n) >= rule.rate:
                    continue
                self._per_rule[i] += 1
                self._injected[rule.kind] = \
                    self._injected.get(rule.kind, 0) + 1
                if actions is None:
                    actions = []
                actions.append((rule.kind, rule.param))
        return actions

    def span_fault(self, name):
        """Raise :class:`FaultInjectedError` when a ``span:<name>``
        rule fires for this span entry (the hook
        :func:`~repro.engine.tracing.set_fault_hook` installs)."""
        op = "span:" + name
        message = None
        with self._lock:
            for i, rule in enumerate(self.rules):
                if rule.kind != "error" or not rule.matches(op):
                    continue
                n = self._counters.get((i, op), 0)
                self._counters[(i, op)] = n + 1
                if rule.limit is not None and \
                        self._per_rule[i] >= rule.limit:
                    continue
                if self._roll(i, op, n) >= rule.rate:
                    continue
                self._per_rule[i] += 1
                self._injected["error"] = \
                    self._injected.get("error", 0) + 1
                message = (rule.param if isinstance(rule.param, str)
                           else "injected fault in span {!r}".format(
                               name))
                break
        if message is not None:
            raise FaultInjectedError(message)

    def has_span_rules(self):
        return any(rule.kind == "error"
                   and rule.target.startswith("span:")
                   for rule in self.rules)

    def _roll(self, rule_index, op, n):
        """One U(0,1) draw for injection site ``(rule, op, n)`` --
        a fresh PRNG per site, so sites are independent and order
        of evaluation never matters."""
        return random.Random(
            "{}:{}:{}:{}".format(self.seed, rule_index, op, n)).random()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def injected(self, kind=None):
        """Total injections, optionally for one kind."""
        with self._lock:
            if kind is not None:
                return self._injected.get(kind, 0)
            return sum(self._injected.values())

    def snapshot(self):
        with self._lock:
            return {"seed": self.seed,
                    "rules": [rule.to_spec() for rule in self.rules],
                    "injected": dict(self._injected)}


def worker_actions(actions):
    """The subset of drawn ``actions`` that execute inside the worker
    (shipped with the job); parent-side kinds are filtered out."""
    if not actions:
        return None
    shipped = [a for a in actions if a[0] in WORKER_KINDS]
    return shipped or None


def apply_worker_actions(actions):
    """Fire worker-side fault actions (except ``duplicate``, which the
    job wrapper handles because it needs the job callable)."""
    import time as _time

    for kind, param in actions or ():
        if kind == "kill":
            raise WorkerKilledError(
                "fault injection killed this worker job")
        if kind == "drop":
            raise WorkerKilledError(
                "fault injection dropped this job's result")
        if kind == "delay":
            _time.sleep(float(param) if param is not None else 0.01)
        elif kind == "error":
            raise FaultInjectedError(
                param if isinstance(param, str)
                else "injected job error")


def wants_duplicate(actions):
    return any(kind == "duplicate" for kind, _ in actions or ())


def corrupt_blob(blob, seed=0):
    """A copy of ``blob`` with its pickle header byte flipped.

    Flipping a *random* byte could land inside string data and yield a
    blob that still unpickles -- to silently wrong values, which the
    corruption-detection path could never catch.  Flipping the
    protocol opcode makes every unpickle fail loudly, which is the
    failure the inline rerun exists for.  ``seed`` is accepted for
    signature stability but the corruption is always detectable.
    """
    del seed
    if not isinstance(blob, (bytes, bytearray)) or not blob:
        return blob
    corrupted = bytearray(blob)
    corrupted[0] ^= 0xFF
    return bytes(corrupted)
