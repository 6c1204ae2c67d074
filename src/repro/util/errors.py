"""Exception hierarchy for the C-Explorer reproduction.

Every error raised deliberately by the library derives from
:class:`CExplorerError`, so callers embedding the system (e.g. the HTTP
server in :mod:`repro.server`) can catch one type and translate it into
a user-facing message, exactly as the original system reports query
problems back to the browser.
"""


class CExplorerError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(CExplorerError):
    """An uploaded/parsed graph file is malformed."""


class UnknownVertexError(CExplorerError, KeyError):
    """A query referenced a vertex name or id not present in the graph."""

    def __init__(self, vertex):
        super().__init__(vertex)
        self.vertex = vertex

    def __str__(self):
        return "unknown vertex: {!r}".format(self.vertex)


class QueryError(CExplorerError, ValueError):
    """A query had invalid parameters (bad k, empty keyword set, ...)."""


class EngineError(CExplorerError):
    """Base class for query-execution-engine failures."""


class EngineBusyError(EngineError):
    """Admission control rejected the request: the queue is full.

    The HTTP layer translates this into a fast 429 so overload sheds
    load instead of stacking threads.
    """


class QueryTimeoutError(EngineError):
    """A submitted query exceeded its deadline."""


class WorkerKilledError(EngineError):
    """A worker died (or was killed by fault injection) mid-job.

    The job itself is idempotent, so the engine runs it once more,
    inline, instead of failing the query.
    """


class FaultInjectedError(EngineError):
    """An error raised deliberately by an active
    :class:`~repro.engine.faults.FaultPlan` (``error`` rules firing
    inside spans or job dispatch).  Inside a job it earns the job one
    inline rerun, like any other infrastructure failure."""


class PayloadCorruptionError(EngineError):
    """A shipped payload failed to resolve in the worker.

    Carries the payload ``key`` so the engine can discard exactly the
    ``(graph, version)`` payload at fault before it reruns the job
    inline on the in-process copy.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.key))


class JobPayloadError(EngineError):
    """A single job would not pickle for process shipping.

    Unlike :class:`~repro.engine.backends.ProcessBackendError` this
    concerns only the offending job -- the pool stays up and sibling
    jobs keep running there, while this one runs inline.
    """


class UnknownAlgorithmError(CExplorerError, KeyError):
    """An algorithm name was not found in the plug-in registry."""

    def __init__(self, name, known=()):
        super().__init__(name)
        self.name = name
        self.known = tuple(known)

    def __str__(self):
        msg = "unknown algorithm: {!r}".format(self.name)
        if self.known:
            msg += " (registered: {})".format(", ".join(sorted(self.known)))
        return msg
