"""Exception hierarchy shared across the simulated stack."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SimTimeout(ReproError, TimeoutError):
    """A blocking simulated-OS operation exceeded its timeout."""


class PipeClosed(ReproError, EOFError):
    """Read/write on a byte pipe whose peer has closed the connection."""


class ConnectionRefused(ReproError, ConnectionError):
    """TCP connect to an address nobody is listening on."""


class AddressInUse(ReproError, OSError):
    """bind() on an (ip, port) already bound."""


class NoRouteToHost(ReproError, OSError):
    """Destination IP is not registered with the simulated kernel."""


class TaintMapError(ReproError):
    """Taint Map protocol violation or unavailable Taint Map service."""


class TaintMapTransportError(TaintMapError, ConnectionError):
    """A Taint Map connection died under a request.

    Inherits ``ConnectionError`` so HA failover (which rotates replicas
    on ``TRANSPORT_ERRORS``) treats it as a transport failure, never as
    a semantic protocol error.  Raised as a *fresh* instance per failed
    request — a broken multiplexed connection must not re-raise one
    cached exception object across unrelated callers.
    """


class TaintMapStaleRingError(TaintMapError):
    """A registration was routed with a hash ring the server has
    superseded (``STATUS_STALE_RING``).

    Deliberately **not** a ``ConnectionError``: the replica is healthy,
    so HA failover must never rotate on it.  The reply carries the
    server's current ring; the client adopts it and re-routes the
    registration.  ``ring`` is the decoded :class:`ShardRing` (None when
    the server knows it is not the owner but has no ring to share) and
    ``adopted`` records whether this client actually moved to a newer
    epoch — a False with a ring present means another thread already
    adopted it, or the server itself is behind this client.
    """

    def __init__(self, message: str, ring=None, adopted: bool = False):
        super().__init__(message)
        self.ring = ring
        self.adopted = adopted


class TaintMapExhaustedError(TaintMapError):
    """A shard ran out of Global-ID sequence numbers
    (``STATUS_GID_EXHAUSTED``).

    Deliberately **not** a ``ConnectionError``: the shard is healthy and
    answering, it simply has nothing left to allocate — failing over or
    retrying cannot help (the standby replicates the same exhausted
    counter), so the transports surface this immediately instead of
    burning a replica rotation on it.  The ``dista_gid_headroom`` gauge
    gives deployments the advance warning this error is the end of.
    """


class TaintMapDeadlineError(TaintMapError, TimeoutError):
    """A Taint Map request missed its configured deadline.

    Raised to the submitting wrapper thread when a wedged shard fails to
    produce a response in time, instead of blocking the traced execution
    forever.
    """


class TaintMapBackpressureError(TaintMapError):
    """A shard's pending coalescing window hit its high-water mark and
    the transport's backpressure policy is ``"shed"``."""


class WireFormatError(ReproError):
    """Malformed DisTA cell stream / packet envelope on the wire."""


class TelemetryError(ReproError):
    """Invalid metric registration or aggregation (repro.obs)."""


class InstrumentationError(ReproError):
    """Agent attach/patch failures (e.g. double instrumentation)."""


class JavaIOError(ReproError, IOError):
    """Simulated ``java.io.IOException``."""


class JavaEOFException(JavaIOError):
    """Simulated ``java.io.EOFException``."""


class SocketClosedError(JavaIOError):
    """Simulated ``java.net.SocketException: Socket closed``."""
