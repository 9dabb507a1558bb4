"""The DisTA agent — the ``-javaagent:DisTA.jar`` equivalent (§III, §V-E).

Attaching the agent to a node is the moral equivalent of launching that
JVM with DisTA's two flags: it connects the node to the Taint Map and
replaces the network-communication JNI methods on the node's
:class:`~repro.jre.jni.JniTable` with the wrappers of
:mod:`repro.core.wrappers`.

:data:`INSTRUMENTED_METHODS` reproduces paper Table I: the 23 method
descriptors DisTA instruments, each with its wrapper type.  Several
descriptors share one simulated patch target (e.g. the JDK has separate
Linux/Windows AIO implementations; our simulated JRE has one dispatcher
surface), and the two ``readv0``/``writev0`` vector variants are covered
because their (unpatched) bodies call the patched scalar methods — the
same effect as the paper wrapping each entry point.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.core import wrappers
from repro.core.taintmap import TaintMapClient
from repro.errors import InstrumentationError

#: Environment override for the coalescing window (microseconds).
#: Pinning a window replaces the timer-free default with a static
#: timer window.
COALESCE_WINDOW_ENV = "DISTA_COALESCE_WINDOW_US"

#: Environment override for the per-request deadline (seconds);
#: ``0`` disables the deadline.
DEADLINE_ENV = "DISTA_TAINTMAP_DEADLINE_S"


def resolve_transport() -> str:
    """Name of the Taint Map transport: always ``async``, the one
    multiplexed, coalescing request path (:mod:`repro.core.aio_transport`).
    Benchmark reports record it in their environment block."""
    return "async"


def resolve_coalesce_window(window_us: Optional[float] = None) -> Optional[float]:
    """The effective coalescing window (µs), or ``None`` for the
    transport default."""
    if window_us is not None:
        return float(window_us)
    from_env = os.environ.get(COALESCE_WINDOW_ENV)
    return float(from_env) if from_env else None


def resolve_request_deadline(deadline_s: Optional[float] = None) -> Optional[float]:
    """Effective per-request deadline (s): explicit argument, else
    ``DISTA_TAINTMAP_DEADLINE_S``, else ``None`` for the transport
    default.  A non-positive value disables the deadline."""
    if deadline_s is not None:
        return float(deadline_s)
    from_env = os.environ.get(DEADLINE_ENV)
    return float(from_env) if from_env else None


@dataclass(frozen=True)
class InstrumentedMethod:
    """One row of paper Table I."""

    java_class: str
    method: str
    wrapper_type: int
    #: JniTable attribute patched for this descriptor; ``None`` when the
    #: descriptor is covered via another entry (see module docstring).
    patch_target: Optional[str]
    covered_by: Optional[str] = None


INSTRUMENTED_METHODS: tuple[InstrumentedMethod, ...] = (
    # -- Type 1: stream oriented (TCP) --------------------------------- #
    InstrumentedMethod("java.net.SocketInputStream", "socketRead0", 1, "socket_read0"),
    InstrumentedMethod("java.net.SocketOutputStream", "socketWrite0", 1, "socket_write0"),
    InstrumentedMethod("java.net.SocketInputStream", "socketAvailable", 1, "socket_available"),
    InstrumentedMethod(
        "sun.tools.attach.LinuxVirtualMachine", "read", 1, None, "socket_read0"
    ),
    InstrumentedMethod(
        "sun.tools.attach.LinuxVirtualMachine", "write", 1, None, "socket_write0"
    ),
    # -- Type 2: packet oriented (UDP) ----------------------------------- #
    InstrumentedMethod("java.net.PlainDatagramSocketImpl", "send", 2, "datagram_send"),
    InstrumentedMethod("java.net.PlainDatagramSocketImpl", "receive0", 2, "datagram_receive0"),
    InstrumentedMethod("java.net.PlainDatagramSocketImpl", "peekData", 2, "datagram_peek_data"),
    # -- Type 3: direct buffer oriented (NIO/AIO) -------------------------- #
    InstrumentedMethod("sun.nio.ch.FileDispatcherImpl", "read0", 3, "disp_read0"),
    InstrumentedMethod("sun.nio.ch.FileDispatcherImpl", "write0", 3, "disp_write0"),
    InstrumentedMethod("sun.nio.ch.FileDispatcherImpl", "readv0", 3, None, "disp_read0"),
    InstrumentedMethod("sun.nio.ch.FileDispatcherImpl", "writev0", 3, None, "disp_write0"),
    InstrumentedMethod("sun.nio.ch.DatagramDispatcher", "read0", 3, "dgram_disp_read0"),
    InstrumentedMethod("sun.nio.ch.DatagramDispatcher", "write0", 3, "dgram_disp_write0"),
    InstrumentedMethod("sun.nio.ch.DatagramDispatcher", "readv0", 3, None, "dgram_disp_read0"),
    InstrumentedMethod("sun.nio.ch.DatagramDispatcher", "writev0", 3, None, "dgram_disp_write0"),
    InstrumentedMethod("sun.nio.ch.DatagramChannelImpl", "send0", 3, "dgram_channel_send0"),
    InstrumentedMethod("sun.nio.ch.DatagramChannelImpl", "receive0", 3, "dgram_channel_receive0"),
    InstrumentedMethod("java.nio.DirectByteBuffer", "get", 3, "direct_get"),
    InstrumentedMethod("java.nio.DirectByteBuffer", "put", 3, "direct_put"),
    InstrumentedMethod(
        "sun.nio.ch.IOUtil", "writeFromNativeBuffer", 3, None, "disp_write0"
    ),
    InstrumentedMethod(
        "sun.nio.ch.IOUtil", "readIntoNativeBuffer", 3, None, "disp_read0"
    ),
    InstrumentedMethod(
        "sun.nio.ch.WindowsAsynchronousSocketChannelImpl", "implRead/implWrite", 3, None,
        "disp_read0",
    ),
)

#: patch target → (wrapper type, factory constructor).
_WRAPPER_FACTORIES_BY_TYPE = {
    "socket_read0": (1, wrappers.make_socket_read0),
    "socket_write0": (1, wrappers.make_socket_write0),
    "socket_available": (1, wrappers.make_socket_available),
    "datagram_send": (2, wrappers.make_datagram_send),
    "datagram_receive0": (2, wrappers.make_datagram_receive0),
    "datagram_peek_data": (2, wrappers.make_datagram_peek_data),
    "disp_read0": (3, wrappers.make_disp_read0),
    "disp_write0": (3, wrappers.make_disp_write0),
    "dgram_disp_read0": (3, wrappers.make_dgram_disp_read0),
    "dgram_disp_write0": (3, wrappers.make_dgram_disp_write0),
    "dgram_channel_send0": (3, wrappers.make_dgram_channel_send0),
    "dgram_channel_receive0": (3, wrappers.make_dgram_channel_receive0),
    "direct_get": (3, wrappers.make_direct_get),
    "direct_put": (3, wrappers.make_direct_put),
}

#: patch target → wrapper factory constructor (all types).
_WRAPPER_FACTORIES = {
    name: factory for name, (_type, factory) in _WRAPPER_FACTORIES_BY_TYPE.items()
}


def instrumented_method_count() -> int:
    """The paper's headline: 23 instrumented methods."""
    return len(INSTRUMENTED_METHODS)


class DisTAAgent:
    """Attaches DisTA's inter-node tracking to a simulated JVM.

    ``cache_enabled=False`` and ``byte_granularity=False`` exist only for
    the ablation benchmarks: the former re-registers every taint with the
    Taint Map (no Fig.-9 step-② dedup), the latter coarsens tracking to
    message granularity (one taint for a whole buffer — the over-tainting
    DisTA's byte-level design avoids, §II-D precision factor).
    """

    def __init__(
        self,
        taint_map_address,
        cache_enabled: bool = True,
        byte_granularity: bool = True,
        cache_capacity: Optional[int] = None,
        extensions: tuple = (),
        wrapper_types: frozenset = frozenset({1, 2, 3}),
        trace=None,
        coalesce_window_us: Optional[float] = None,
        request_deadline_s: Optional[float] = None,
        max_pending: Optional[int] = None,
        backpressure: Optional[str] = None,
        sample_every: Optional[int] = None,
        lineage=None,
    ):
        #: One ``(ip, port)`` or a sequence of per-shard addresses —
        #: passed straight to :class:`TaintMapClient`, which routes by
        #: consistent hash / GID shard bits.
        self.taint_map_address = taint_map_address
        self.cache_enabled = cache_enabled
        #: Optional LRU bound for the client's GID/taint caches.
        self.cache_capacity = cache_capacity
        self.byte_granularity = byte_granularity
        #: User :class:`~repro.core.extensions.ExtensionPoint`s for
        #: system-specific native methods (paper §VI).
        self.extensions = tuple(extensions)
        #: Ablation only: restrict instrumentation to a subset of the
        #: three wrapper types, modelling partial-coverage tools like
        #: FlowDist's 6 default APIs (§II-D soundness argument).
        self.wrapper_types = frozenset(wrapper_types)
        #: Optional :class:`~repro.core.trace.CrossingTrace` shared by
        #: every node this agent attaches to.
        self.trace = trace
        #: Coalescing window (µs) for the Taint Map transport; ``None``
        #: defers to ``DISTA_COALESCE_WINDOW_US``/the transport default
        #: (timer-free).  Pinning a window selects a static timer.
        self.coalesce_window_us = coalesce_window_us
        #: Per-request deadline (s) for the Taint Map transport; ``None``
        #: defers to ``DISTA_TAINTMAP_DEADLINE_S``/the transport
        #: default; ``0`` disables the deadline.
        self.request_deadline_s = request_deadline_s
        #: Per-shard pending-window high-water mark for the transport's
        #: backpressure.
        self.max_pending = max_pending
        #: Backpressure policy past the mark: "block" or "shed".
        self.backpressure = backpressure
        #: Flow-sampling period: track every k-th flow admitted at
        #: source registration.  ``None`` leaves the registry's value
        #: alone.
        self.sample_every = sample_every
        #: Optional :class:`~repro.obs.lineage.LineageStore` shared by
        #: every node this agent attaches to; each attach builds a
        #: node-stamped :class:`~repro.obs.lineage.LineageRecorder`
        #: feeding it.  ``None`` leaves lineage off (NULL_LINEAGE).
        self.lineage = lineage

    def _make_client(self, node) -> TaintMapClient:
        options = {}
        window = resolve_coalesce_window(self.coalesce_window_us)
        if window is not None:
            options["coalesce_window_us"] = window
        deadline = resolve_request_deadline(self.request_deadline_s)
        if deadline is not None:
            options["request_deadline_s"] = deadline
        if self.max_pending is not None:
            options["max_pending"] = self.max_pending
        if self.backpressure is not None:
            options["backpressure"] = self.backpressure
        return TaintMapClient(
            node,
            self.taint_map_address,
            self.cache_enabled,
            self.cache_capacity,
            **options,
        )

    def attach(self, node) -> wrappers.DisTARuntime:
        """Patch every instrumentation point on ``node``'s JNI table."""
        if node.jni.instrumented:
            raise InstrumentationError(f"node {node.name} is already instrumented")
        client = self._make_client(node)
        runtime = wrappers.DisTARuntime(node, client, self.byte_granularity)
        if self.trace is not None:
            runtime.trace = self.trace
        if self.lineage is not None:
            from repro.obs.lineage import LineageRecorder

            recorder = LineageRecorder(self.lineage, node.name)
            runtime.lineage = recorder
            registry = getattr(node, "registry", None)
            if registry is not None:
                registry.lineage = recorder
        for target, (wrapper_type, factory) in _WRAPPER_FACTORIES_BY_TYPE.items():
            if wrapper_type not in self.wrapper_types:
                continue
            node.jni.patch(target, factory(runtime))
        for extension in self.extensions:
            if extension.name in node.jni._extensions:
                node.jni.patch(extension.name, extension.build(runtime))
        node.taintmap = client
        self._apply_sample_every(node)
        return runtime

    def _apply_sample_every(self, node) -> None:
        """Apply the static ``sample_every`` to the node's source registry."""
        if self.sample_every is None:
            return
        k = int(self.sample_every)
        if k < 1:
            raise InstrumentationError(f"sample_every must be >= 1, got {k}")
        registry = getattr(node, "registry", None)
        if registry is not None:
            registry.sample_every = k

    def detach(self, node) -> None:
        node.jni.unpatch_all()
        if node.taintmap is not None:
            node.taintmap.close()
            node.taintmap = None
