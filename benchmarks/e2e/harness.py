"""Launching the server, driving it over HTTP, and measuring.

One client process, closed loop: a C-Explorer user waits for the
community before the next click, so each client sends its next request
only after the previous answer has arrived.  ``session_pair`` runs two
such clients (threads of this process), every other workload one.
"""

import http.client
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import oracle
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
OP_TIMEOUT = 60.0

# Environment that would move the server off its default configuration.
_CLEARED_ENV = ("REPRO_FAULT_PLAN", "REPRO_STORE_DIR",
                "REPRO_PAYLOAD_TRANSPORT")


class Server:
    """A launched ``launcher.py`` process and its control channel."""

    def __init__(self, graph_path, maintainer=False, config=""):
        env = {k: v for k, v in os.environ.items()
               if k not in _CLEARED_ENV}
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        cmd = [sys.executable, os.path.join(HERE, "launcher.py"),
               "--graph", graph_path, "--server-config", config]
        if maintainer:
            cmd.append("--maintainer")
        started = time.monotonic()
        self.process = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env, cwd=HERE, text=True)
        try:
            hello = self._read()
            self.port = hello["port"]
            self.stages = hello["stages"]
            client = Client(self.port)
            while client.send("GET", "/v1/ready", None)[0] != 200:
                time.sleep(0.005)
            client.close()
        except BaseException:
            self.stop()
            raise
        # Process start -> first 200 from /v1/ready.
        self.setup_s = time.monotonic() - started

    def _read(self):
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("server exited with code {}".format(
                self.process.wait()))
        return json.loads(line)

    def control(self, cmd, **fields):
        """One request/reply on the control channel."""
        self.process.stdin.write(json.dumps(dict(fields, cmd=cmd)) + "\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self):
        """End the process and wait for it (closing stdin ends its
        control loop; kill only if that fails)."""
        if self.process.poll() is None:
            try:
                self.process.stdin.write('{"cmd": "quit"}\n')
                self.process.stdin.close()
            except OSError:
                pass
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Client:
    """One HTTP connection, reused while the server leaves it open."""

    def __init__(self, port):
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=OP_TIMEOUT)

    def send(self, method, path, body):
        """``(status, body bytes)``; a dropped idle connection is
        reopened once, a timeout or refusal is status 0."""
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (0, 1):
            try:
                self.conn.request(method, path, body=body, headers=headers)
                response = self.conn.getresponse()
                return response.status, response.read()
            except (http.client.RemoteDisconnected, BrokenPipeError,
                    ConnectionResetError):
                self.conn.close()
                if attempt:
                    return 0, b""
            except OSError:
                self.conn.close()
                return 0, b""

    def close(self):
        self.conn.close()


class Record:
    """What one executed op left behind."""

    __slots__ = ("op", "status", "body", "sent", "received")

    def __init__(self, op, status, body, sent, received):
        self.op = op
        self.status = status
        self.body = body
        self.sent = sent
        self.received = received

    @property
    def ms(self):
        return (self.received - self.sent) * 1000.0


def run_ops(server, world, ops, meet=None):
    """Run one client's op list; returns its records.

    Nothing but send/receive happens between ops (answers are parsed
    and checked after the pass), except that a session's follow-up ops
    are filled in from the search answer they depend on the first time
    they run, and that two users wait for each other (``meet``) before
    an op marked ``"meet"``.
    """
    client = Client(server.port)
    records = []
    for op in ops:
        if meet is not None and op.get("meet"):
            meet()
        if "member_of" in op:
            answer = json.loads(records[op["member_of"]].body)["data"]
            workloads.resolve_member(world, op, answer)
        sent = time.monotonic()
        if op["kind"] == "update":
            u, v = op["edge"]
            reply = server.control(
                "update", kind="insert" if op["insert"] else "remove",
                u=u, v=v)
            status, body = 200, json.dumps(reply).encode("utf-8")
        else:
            status, body = client.send("POST", op["path"], op["body"])
        records.append(Record(op, status, body, sent, time.monotonic()))
    client.close()
    return records


def drive(server, world, users, together=True):
    """Run every user's op list once: ``(records per user, pass wall
    seconds, server CPU seconds)``.  The server's CPU clock is read
    once before and once after the pass, outside the timed wall.  Two
    users run as two threads that start every session together (think
    time: the user who finishes a session first waits for the other),
    so that they overlap the same way on every pass; ``together=False``
    runs them back to back (traced passes)."""
    results = [None] * len(users)
    cpu_before = server.control("usage")["cpu_s"]
    started = time.monotonic()
    if together and len(users) > 1:
        barrier = threading.Barrier(len(users))

        def work(i):
            try:
                results[i] = run_ops(server, world, users[i], barrier.wait)
            except BaseException:
                barrier.abort()     # do not leave the other user waiting
                raise

        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(users))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if None in results:
            raise RuntimeError("a client thread failed")
    else:
        for i, ops in enumerate(users):
            results[i] = run_ops(server, world, ops)
    wall_s = time.monotonic() - started
    cpu_s = server.control("usage")["cpu_s"] - cpu_before
    return results, wall_s, cpu_s


def get_metrics(server):
    """The public ``/v1/metrics`` document."""
    client = Client(server.port)
    status, body = client.send("GET", "/v1/metrics", None)
    client.close()
    if status != 200:
        raise RuntimeError("/v1/metrics answered {}".format(status))
    return json.loads(body)["data"]


# ----------------------------------------------------------------------
# checking
# ----------------------------------------------------------------------

class Checker:
    """Judges every answer, in op order, against the world as the
    updates so far have left it.  One checker follows a server for its
    whole life, so it knows what the result cache must have dropped."""

    def __init__(self, world):
        self.world = world
        self.footprints = {}    # key -> names in the last answer seen
        self.evicted = set()    # keys an update has certainly evicted
        self._parsed = {}       # body bytes -> what check() needs of it

    def _parse(self, body):
        """``(ok, hit, answer digest, member names)`` of a response
        body.  Cached answers repeat byte for byte, so each distinct
        body is decoded once."""
        found = self._parsed.get(body)
        if found is None:
            doc = json.loads(body)
            piece = names = None
            data = doc.get("data") or {}
            if "communities" in data or "community" in data:
                sets = oracle.answer_sets(data)
                piece = oracle.digest([repr(sets)])
                names = frozenset(n for members in sets for n in members)
            # A computed answer carries a trace id, a cached one none.
            found = (doc.get("ok") is True, "trace" not in doc, piece,
                     names)
            self._parsed[body] = found
        return found

    def check(self, records, verify=False):
        """``(failures, answer digests, search hits, search misses)``
        for one client's records.  ``verify`` turns on the
        from-definition check of the flagged searches (one pass is
        enough: every pass must produce the same digests)."""
        failures = []
        answers = []
        hits = misses = 0
        for i, rec in enumerate(records):
            op = rec.op
            if op["kind"] == "update":
                self._apply(op)
                continue
            error = None
            if rec.status != 200:
                error = "status {}".format(rec.status)
            else:
                ok, hit, piece, names = self._parse(rec.body)
                if not ok:
                    error = "ok is not true"
                elif piece is not None:
                    answers.append(piece)
                    if op["kind"] == "search":
                        hits += hit
                        misses += not hit
                        error = self._judge(op, hit, names)
                        if not error and verify and op.get("verify"):
                            error = self._verify(op, rec.body)
            if error:
                failures.append("op {} {}: {}".format(i, op["kind"], error))
        return failures, answers, hits, misses

    def _apply(self, op):
        """Mirror one update and work out what it must have evicted:
        ``local``/``k-truss`` entries are dropped on any update, ``acq``
        and ``global`` entries when their answer holds an endpoint."""
        u, v = op["edge"]
        if op["insert"]:
            self.world.insert(u, v)
        else:
            self.world.remove(u, v)
        ends = {self.world.names[u], self.world.names[v]}
        for key, names in self.footprints.items():
            if key[0] in ("local", "k-truss") or ends & names:
                self.evicted.add(key)

    def _judge(self, op, hit, names):
        key = op["key"]
        if hit and key in self.evicted:
            return "stale cache hit"
        self.evicted.discard(key)
        self.footprints[key] = names
        if not names and op["algorithm"] in ("acq", "global"):
            return "no community for a vertex of core >= k"
        return None

    def _verify(self, op, body):
        for community in json.loads(body)["data"]["communities"]:
            error = oracle.community_error(self.world, op, community)
            if error:
                return error
        return None


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

# What ``calibrate`` reads on this box when nothing disturbs it.
REFERENCE_MS = 90.0


def calibrate():
    """Milliseconds a fixed pure-Python + NumPy kernel of about 100 ms
    takes.  It is read before and after every launch and every timed
    pass; the lower quartile of a run's readings over ``REFERENCE_MS``
    is the run's ``speed`` -- how much slower than undisturbed the box
    ran -- and ``run.measure`` divides the run's times by it.  The NumPy half
    is element-wise on purpose: a BLAS call brings a thread pool whose
    warm-up takes several calls to settle."""
    import numpy

    started = time.perf_counter()
    total = 0
    for i in range(500000):
        total += i * i % 7
    a = numpy.arange(500000, dtype=numpy.float64)
    for _ in range(8):     # in place: no allocation, no page faults
        numpy.multiply(a, a, out=a)
        a += 1.0
        numpy.sqrt(a, out=a)
        a %= 1000.0
    float(a.sum()) + total
    return (time.perf_counter() - started) * 1000.0


def quiet(values):
    """The lower quartile: what a quantity measured once per pass reads
    when the box is left alone.  The host only ever adds time to a pass
    (bursts of a fraction of a second to some seconds, see README.md),
    so the slow side of the samples says more about the host than about
    the program; a cost the program pays on more than a quarter of the
    passes still shows."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]
