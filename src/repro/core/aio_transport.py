"""Async multiplexed Taint Map transport with cross-message coalescing.

The pooled :class:`~repro.core.taintmap.TaintMapClient` burns one
blocking thread-and-connection per in-flight request — exactly the
per-request overhead the Taint Rabbit line of work attributes to slow
generic paths.  This module decouples the traced execution from the
tracking traffic instead, and is the **default transport** (opt out
with ``DISTA_TAINTMAP_TRANSPORT=pooled``):

* **One long-lived connection per shard.**  The client upgrades each
  connection with :data:`~repro.core.taintmap.OP_MUX_HELLO`; after the
  acknowledgement every frame carries a 4-byte **correlation id** in
  front of the *unchanged* sync frame bytes, so thousands of requests
  can be in flight at once and responses resolve futures out of order.
  The inner frames — and every payload encoding: taint serialization,
  batch formats, GID packing — are byte-identical to the sync protocol;
  the server dispatches both through the same ``_handle``.

* **A background event loop.**  Each client owns one asyncio loop on a
  daemon thread.  Sync callers (the JNI wrappers) submit work with
  ``run_coroutine_threadsafe`` and block only on their own future (up
  to a configurable ``request_deadline_s`` — a wedged shard fails the
  request with :class:`~repro.errors.TaintMapDeadlineError` instead of
  hanging the wrapper thread); the loop itself never blocks on the
  simulated kernel (frames are written with a non-blocking send, and
  only a remainder the pipe cannot take yet goes to the loop's
  executor; frame arrival is pushed in by a per-connection reader
  thread).

* **Cross-message coalescing.**  ``gid_for``/``gids_for``/``taint_for``/
  ``taints_for`` misses from concurrent wrappers accumulate in a
  per-shard pending window, flushed when the window reaches
  ``max_batch`` entries or by the flush policy below — so *k* small
  messages in flight cost one ``OP_REGISTER_MANY`` /
  ``OP_LOOKUP_MANY`` round-trip per shard per window instead of *k*.
  Identical entries submitted by different messages share one wire
  entry and one future; this is safe because registration is idempotent
  (same taint ⇒ same GID) and lookup is read-only.  Windows size-flush
  **mid-insertion** and flushes chunk at the 16-bit protocol batch
  ceiling (:data:`~repro.core.taintmap.PROTOCOL_MAX_BATCH`), so one
  oversized call can never build an unencodable frame.

* **Timer-free flushing (group commit).**  By default a window arms no
  timer.  With nothing in flight for its ``(shard, kind)`` it flushes
  on the next loop turn (``call_soon``), so every key enqueued in the
  same turn shares the flush; while a flush is in flight, new entries
  wait in the window and go out as one flush the moment it completes.
  Concurrency thus batches itself and a lone request pays no added
  delay — which a timer cannot offer, because the selector rounds
  timer waits up to whole milliseconds.  Pinning
  ``coalesce_window_us`` selects a static timer window instead.

* **Backpressure.**  Each shard's pending window (queued + in-flight
  entries) is bounded by ``max_pending``; past the high-water mark new
  entries either **block** until the shard drains (default) or are
  **shed** with :class:`~repro.errors.TaintMapBackpressureError`, both
  counted in ``dista_coalesce_backpressure_total``.

* **Failover with in-flight futures.**  Replica rotation composes per
  shard exactly as in the pooled client: a connection that dies fails
  every pending future with a transport error, and each affected
  request retries on the shard's next replica (idempotency makes the
  retry safe).  Semantic errors (``STATUS_*``) never fail over.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import struct
import threading
import time
from collections import OrderedDict, deque
from itertools import islice
from typing import Optional, Sequence, Union

from repro.core.taintmap import (
    OP_LOOKUP,
    OP_LOOKUP_MANY,
    OP_MUX_HELLO,
    OP_REGISTER,
    OP_REGISTER_MANY,
    PROTOCOL_MAX_BATCH,
    STATUS_GID_EXHAUSTED,
    STATUS_OK,
    STATUS_STALE_RING,
    STATUS_UNKNOWN_GID,
    TRANSPORT_ERRORS,
    TaintMapClient,
    _pack_batch_lookup,
    _pack_batch_register,
    _recv_exact,
    _send_frame,
    _split_batch_lookup_response,
    _split_batch_register,
    deserialize_tags,
    taint_key,
)
from repro.errors import (
    PipeClosed,
    TaintMapBackpressureError,
    TaintMapDeadlineError,
    TaintMapError,
    TaintMapExhaustedError,
    TaintMapTransportError,
)
from repro.runtime.kernel import Address, TcpEndpoint

#: Entries that force an immediate flush.
DEFAULT_MAX_BATCH = 512

#: Per-shard pending-entry high-water mark (queued in windows plus
#: handed to in-flight flushes) before backpressure engages.
DEFAULT_MAX_PENDING = 8192

#: Default wall-clock deadline for one ``submit``/``submit_many`` (s).
#: Generous next to any healthy round-trip; bounds how long a wrapper
#: thread can hang on a wedged shard.
DEFAULT_DEADLINE_S = 30.0

#: Mask keeping correlation ids within their 4-byte wire field; the
#: counter itself is unbounded (``itertools.count``) and would
#: eventually overflow ``>I`` without it.
_CORR_MASK = 0xFFFFFFFF

_REGISTER = 0
_LOOKUP = 1

_BACKPRESSURE_POLICIES = ("block", "shed")

#: ``dista_coalesce_flush_total`` reasons: ``idle``/``chained`` under
#: the default timer-free policy, ``timer`` under a pinned window,
#: ``size``/``backpressure`` under both.
FLUSH_REASONS = ("size", "timer", "backpressure", "idle", "chained")


def _fail_future(future: "asyncio.Future", exc: Exception) -> None:
    """Fail a future whose consumer may already be gone (cancelled by a
    deadline, or torn down by ``close()``): immediately mark the
    exception retrieved so the event loop doesn't log ``exception was
    never retrieved`` from the future's finalizer.  A consumer that is
    still awaiting gets the exception exactly as with a plain
    ``set_exception``."""
    if not future.done():
        future.set_exception(exc)
        future.exception()


def mux_frame(corr: int, op: int, payload: bytes) -> bytes:
    """One multiplexed request frame: a correlation-id prefix followed
    by the **unchanged** sync frame bytes (``op | len | payload``)."""
    return (
        struct.pack(">I", corr)
        + bytes([op])
        + struct.pack(">I", len(payload))
        + payload
    )


class _MuxConnection:
    """One upgraded connection: correlated frames, out-of-order futures.

    All state except the reader thread is confined to the event loop
    thread; the reader pushes completed frames in with
    ``call_soon_threadsafe``.
    """

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        endpoint: TcpEndpoint,
        inflight=None,
    ):
        self._loop = loop
        self._endpoint = endpoint
        self._pending: dict[int, asyncio.Future] = {}
        self._corr = itertools.count(1)
        #: Frame bytes the pipe could not take yet, oldest first; the
        #: head is being written by the executor.  While it is non-empty
        #: new frames queue behind it, so frames never interleave.
        self._unsent: deque = deque()
        self._broken: Optional[Exception] = None
        #: Optional gauge child tracking in-flight request depth.
        self._inflight = inflight
        threading.Thread(
            target=self._read_loop, name="taintmap-mux-reader", daemon=True
        ).start()

    @property
    def broken(self) -> bool:
        return self._broken is not None

    async def request(self, op: int, payload: bytes) -> tuple[int, bytes]:
        """Send one frame, await its correlated response (any order)."""
        if self._broken is not None:
            # A fresh exception per caller: re-raising the one cached
            # instance would cross-contaminate tracebacks between
            # unrelated requests (and mutate the original's context).
            raise TaintMapTransportError(
                f"taint map mux connection is broken: {self._broken}"
            ) from self._broken
        corr = next(self._corr) & _CORR_MASK
        # After a 32-bit wrap a fresh id can collide with one still in
        # flight; overwriting its future would leave that caller hanging.
        while corr in self._pending:
            corr = next(self._corr) & _CORR_MASK
        future = self._loop.create_future()
        self._pending[corr] = future
        if self._inflight is not None:
            self._inflight.inc()
        try:
            self._send(mux_frame(corr, op, payload))
        except BaseException:
            if self._pending.pop(corr, None) is not None and self._inflight is not None:
                self._inflight.dec()
            raise
        return await future

    def _send(self, frame: bytes) -> None:
        """Write ``frame`` on the loop thread without blocking; only a
        remainder the pipe cannot take yet is handed to the executor."""
        if self._unsent:
            self._unsent.append(frame)
            return
        sent = self._endpoint.send_nonblocking(frame)
        if sent < len(frame):
            self._unsent.append(frame[sent:])
            self._send_unsent_head()

    def _send_unsent_head(self) -> None:
        self._loop.run_in_executor(
            None, self._endpoint.send_all, self._unsent[0]
        ).add_done_callback(self._unsent_head_sent)

    def _unsent_head_sent(self, job: asyncio.Future) -> None:
        if job.cancelled():
            return  # loop teardown
        exc = job.exception()
        if exc is not None:
            # A partly written frame desynchronizes the stream: fail
            # every in-flight request so each can fail over.
            self._unsent.clear()
            self._fail_pending(exc)
            return
        self._unsent.popleft()
        if self._unsent:
            self._send_unsent_head()

    # -- reader thread ---------------------------------------------------- #

    def _read_loop(self) -> None:
        try:
            while True:
                first = self._endpoint.recv(1)
                if not first:
                    raise PipeClosed("taint map mux connection closed")
                (corr,) = struct.unpack(">I", first + _recv_exact(self._endpoint, 3))
                status = _recv_exact(self._endpoint, 1)[0]
                (length,) = struct.unpack(">I", _recv_exact(self._endpoint, 4))
                response = _recv_exact(self._endpoint, length) if length else b""
                self._loop.call_soon_threadsafe(self._resolve, corr, status, response)
        except Exception as exc:
            try:
                self._loop.call_soon_threadsafe(self._fail_pending, exc)
            except RuntimeError:
                pass  # loop already closed during shutdown

    # -- loop-thread callbacks ---------------------------------------------- #

    def _resolve(self, corr: int, status: int, response: bytes) -> None:
        future = self._pending.pop(corr, None)
        if future is not None:
            if self._inflight is not None:
                self._inflight.dec()
            if not future.done():
                future.set_result((status, response))

    def _fail_pending(self, exc: Exception) -> None:
        """Connection death: every in-flight future gets the transport
        error, so its request can fail over to the next replica."""
        self._broken = exc
        pending = list(self._pending.values())
        self._pending.clear()
        if pending and self._inflight is not None:
            self._inflight.dec(len(pending))
        for future in pending:
            _fail_future(future, exc)

    def close(self) -> None:
        self._endpoint.close()


class _PendingWindow:
    """One shard's accumulating batch of one kind (register or lookup)."""

    __slots__ = ("entries", "timer", "inflight")

    def __init__(self) -> None:
        #: entry key (serialized taint bytes, or int GID) → result future.
        self.entries: OrderedDict = OrderedDict()
        #: The armed flush: a static-window timer, or the next-turn
        #: ``call_soon`` handle of an idle window.
        self.timer: Optional[asyncio.Handle] = None
        #: Flushes of this window currently on the wire.
        self.inflight = 0


class _ShardChannel:
    """Per-shard connection management + replica failover.

    State is event-loop-confined; the replica list and active index are
    shared with the owning client so HA widening
    (:class:`~repro.core.ha.AsyncFailoverTaintMapClient`) and
    ``active_address_for`` introspection keep working unchanged.
    """

    def __init__(self, transport: "AsyncTaintMapTransport", shard: int):
        self._transport = transport
        self._shard = shard
        self._connection: Optional[_MuxConnection] = None
        self._connect_lock = asyncio.Lock()

    async def _connected(self) -> _MuxConnection:
        # A flush racing close() must not re-dial the endpoint the
        # shutdown just tore down (TaintMapError: no replica rotation).
        if self._transport._closed:
            raise TaintMapError("async taint map transport is closed")
        if self._connection is not None and not self._connection.broken:
            return self._connection
        async with self._connect_lock:
            if self._connection is not None and not self._connection.broken:
                return self._connection
            client = self._transport.client
            address = client._shard_replicas[self._shard][
                client._active[self._shard]
            ]
            loop = self._transport.loop
            endpoint = await loop.run_in_executor(
                None, self._transport._connect, address
            )
            if self._transport._closed:
                # close() ran during the dial and could not see this
                # connection: never send on it, and do not leak it.
                endpoint.close()
                raise TaintMapError("async taint map transport is closed")
            self._connection = _MuxConnection(
                loop, endpoint, self._transport._inflight_child
            )
            return self._connection

    def _rotate(self, observed_active: int) -> None:
        """Fail over to the shard's next replica (no-op if a concurrent
        request already rotated past ``observed_active``); always drop
        the broken connection."""
        client = self._transport.client
        stale, self._connection = self._connection, None
        if client._active[self._shard] == observed_active:
            client._active[self._shard] = (observed_active + 1) % len(
                client._shard_replicas[self._shard]
            )
        if stale is not None:
            try:
                stale.close()
            except Exception:
                client.stats.bump("close_errors")

    async def roundtrip(self, op: int, payload: bytes) -> tuple[int, bytes]:
        """One request with per-shard replica failover.  Transport
        errors rotate and retry (idempotent ops make the retry safe);
        protocol-level statuses are returned to the caller."""
        client = self._transport.client
        replicas = client._shard_replicas[self._shard]
        last_error: Optional[Exception] = None
        for _ in range(len(replicas)):
            observed_active = client._active[self._shard]
            try:
                connection = await self._connected()
                # Timed from request-out, like the pooled _roundtrip: the
                # dial and OP_MUX_HELLO upgrade are not RPC latency.
                started = time.perf_counter()
                status, response = await connection.request(op, payload)
            except TRANSPORT_ERRORS as exc:
                last_error = exc
                self._rotate(observed_active)
                continue
            with client.stats._lock:
                client.requests_sent += 1
            client._observe_rpc(op, time.perf_counter() - started)
            return status, response
        if len(replicas) == 1:
            raise last_error  # single replica: surface the transport error
        raise TaintMapError(f"all taint map replicas unreachable: {last_error}")

    def fail_pending(self, exc: Exception) -> None:
        """Shutdown hook: fail every request future still correlated on
        this channel's connection (callers are about to be torn down)."""
        connection = self._connection
        if connection is not None:
            connection._fail_pending(exc)

    def close(self) -> None:
        connection, self._connection = self._connection, None
        if connection is not None:
            try:
                connection.close()
            except Exception:
                self._transport.client.stats.bump("close_errors")


class AsyncTaintMapTransport:
    """The event-loop half of :class:`AsyncTaintMapClient`.

    ``submit``/``submit_many`` are the sync bridge: they accept the
    pooled client's ``(shard, op, payload)`` request shape, route the
    four map ops through the coalescing windows, and return response
    payloads in exactly the sync protocol's formats — so the caching
    and batching logic of :class:`~repro.core.taintmap.TaintMapClient`
    runs unmodified on top.
    """

    def __init__(
        self,
        client: TaintMapClient,
        coalesce_window_us: Optional[float] = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        request_deadline_s: Optional[float] = DEFAULT_DEADLINE_S,
        max_pending: int = DEFAULT_MAX_PENDING,
        backpressure: str = "block",
    ):
        if max_batch < 1:
            raise TaintMapError(f"max_batch must be >= 1, got {max_batch}")
        if max_pending < 1:
            raise TaintMapError(f"max_pending must be >= 1, got {max_pending}")
        if backpressure not in _BACKPRESSURE_POLICIES:
            raise TaintMapError(
                f"unknown backpressure policy {backpressure!r}; "
                f"expected one of {_BACKPRESSURE_POLICIES}"
            )
        self.client = client
        #: Static coalescing window (µs), or ``None`` for the default
        #: timer-free policy (flush on the next loop turn when idle,
        #: chain behind the in-flight flush when busy).
        self.coalesce_window_us = (
            None
            if coalesce_window_us is None
            else max(float(coalesce_window_us), 0.0)
        )
        #: A flush frame's entry count is wire-encoded in 16 bits;
        #: larger thresholds would build unencodable windows.
        self.max_batch = min(max_batch, PROTOCOL_MAX_BATCH)
        self.request_deadline_s = (
            None
            if request_deadline_s is None or request_deadline_s <= 0
            else float(request_deadline_s)
        )
        self.max_pending = max_pending
        self.backpressure = backpressure
        #: Per-shard pending entries: queued in windows + handed to
        #: in-flight flushes.  Drained (and waiters woken) as flushes
        #: complete.
        self._pending_counts: list[int] = []
        self._drain_waiters: list[deque] = []
        #: Entries owned by in-flight ``_flush`` tasks, so ``close()``
        #: can fail their futures too (they are in no window anymore).
        self._inflight_flushes: dict[int, OrderedDict] = {}
        self._flush_ids = itertools.count(1)
        # Coalescing/in-flight telemetry on the owning node's registry
        # (None for bare test nodes).  Families and their reason
        # children are pre-declared so /metrics always exposes them.
        self._flush_reason = None
        self._window_entries = None
        self._backpressure_total = None
        self._window_gauge = None
        self._inflight_child = None
        metrics = getattr(client, "_metrics", None)
        if metrics is not None:
            self._flush_reason = metrics.counter(
                "dista_coalesce_flush_total",
                "Coalescing-window flushes by trigger "
                "(size/timer/backpressure/idle/chained).",
                ("reason",),
            )
            for reason in FLUSH_REASONS:
                self._flush_reason.labels(reason=reason)
            self._window_entries = metrics.histogram(
                "dista_coalesce_window_entries",
                "Entries per flushed coalescing window.",
                (),
                lowest=1.0,
                buckets=16,
            )
            self._backpressure_total = metrics.counter(
                "dista_coalesce_backpressure_total",
                "Entries gated at a shard's pending-window high-water mark.",
                ("action",),
            )
            for action in ("block", "shed"):
                self._backpressure_total.labels(action=action)
            self._window_gauge = metrics.gauge(
                "dista_coalesce_window_us",
                "Effective coalescing window per shard in microseconds "
                "(0 under the default timer-free policy, else the pinned "
                "static window).",
                ("shard",),
            )
            self._inflight_child = metrics.gauge(
                "dista_taintmap_inflight_requests",
                "Requests in flight on the multiplexed Taint Map connections.",
            ).labels()
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._lifecycle_lock = threading.Lock()
        self._channels: list[_ShardChannel] = []
        self._windows: list[tuple[_PendingWindow, _PendingWindow]] = []
        self._closed = False
        self._grow_state(len(client._shard_replicas))

    # -- lifecycle ---------------------------------------------------------- #

    def _ensure_loop(self) -> asyncio.AbstractEventLoop:
        with self._lifecycle_lock:
            if self._closed:
                raise TaintMapError("async taint map transport is closed")
            if self.loop is None:
                self.loop = asyncio.new_event_loop()
                # The client's replica list may have grown (ring adopted
                # before first use); size every per-shard list from it.
                self._grow_state(len(self.client._shard_replicas))
                self._thread = threading.Thread(
                    target=self.loop.run_forever, name="taintmap-aio", daemon=True
                )
                self._thread.start()
            return self.loop

    def _grow_state(self, shard_count: int) -> None:
        """Append per-shard state up to ``shard_count`` (never shrinks).

        Must run on the event-loop thread once the loop exists — every
        list here is loop-confined after start.  Channels dial lazily,
        so a shard that appears mid-flight costs nothing until its
        first request opens the mux connection.
        """
        while len(self._pending_counts) < shard_count:
            if self._window_gauge is not None:
                self._window_gauge.labels(shard=str(len(self._pending_counts))).set(
                    self.coalesce_window_us or 0.0
                )
            self._pending_counts.append(0)
            self._drain_waiters.append(deque())
        if self.loop is not None:
            while len(self._channels) < shard_count:
                self._channels.append(_ShardChannel(self, len(self._channels)))
                self._windows.append((_PendingWindow(), _PendingWindow()))

    def grow_to(self, shard_count: int) -> None:
        """Ring adoption hook: make every per-shard structure cover
        ``shard_count`` shards before the client's router can return a
        new index.  Safe from any thread; loop-confined state is grown
        on the loop itself (inline when already running there — the
        stale-ring re-route path calls this mid-flush)."""
        with self._lifecycle_lock:
            if self._closed:
                return
            loop = self.loop
            if loop is None:
                self._grow_state(shard_count)
                return
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            self._grow_state(shard_count)
            return

        async def grow() -> None:
            self._grow_state(shard_count)

        try:
            asyncio.run_coroutine_threadsafe(grow(), loop).result(10)
        except RuntimeError:
            pass  # loop stopped by a concurrent close(): nothing to grow

    def readdress(self, indices: Sequence[int]) -> None:
        """Drain adoption hook: the listed shard slots now forward to a
        surviving shard's address.  Cached mux connections for them are
        *dropped without closing* — in-flight requests finish on the old
        connection (the drained process keeps serving until the cluster
        stops it), while every new request dials the forwarding address.
        Safe from any thread; channel state is swapped on the loop."""
        with self._lifecycle_lock:
            if self._closed:
                return
            loop = self.loop
            if loop is None:
                return  # no connections exist before the loop starts

        def drop() -> None:
            for index in indices:
                if index < len(self._channels):
                    self._channels[index]._connection = None

        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is loop:
            drop()
            return

        async def drop_async() -> None:
            drop()

        try:
            asyncio.run_coroutine_threadsafe(drop_async(), loop).result(10)
        except RuntimeError:
            pass  # loop stopped by a concurrent close(): nothing to drop

    def close(self) -> None:
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            loop = self.loop
            thread, self._thread = self._thread, None
            # The per-shard lists (and self.loop) stay in place: in-flight
            # _flush/_dispatch tasks still index them, and swapping in
            # empty lists would turn their teardown paths (_drain,
            # _coalesce) into IndexErrors instead of clean closed errors.
            # Only their *contents* are failed and cleared below.
            channels = self._channels
            windows = self._windows
            waiters = self._drain_waiters
            inflight_flushes, self._inflight_flushes = self._inflight_flushes, {}
        if loop is None:
            return

        async def shutdown() -> None:
            closed = TaintMapError("async taint map transport is closed")
            for register_window, lookup_window in windows:
                for window in (register_window, lookup_window):
                    if window.timer is not None:
                        window.timer.cancel()
                        window.timer = None
                    for future in window.entries.values():
                        _fail_future(future, closed)
                    window.entries.clear()
            # Entries already handed to an in-flight _flush task are in
            # no window anymore — without failing them here, their sync
            # submitters would block in submit().result() forever.
            for entries in inflight_flushes.values():
                for future in entries.values():
                    _fail_future(future, closed)
            for shard_waiters in waiters:
                while shard_waiters:
                    _fail_future(shard_waiters.popleft(), closed)
            for channel in channels:
                # TaintMapError is not a TRANSPORT_ERROR, so awakened
                # roundtrips propagate it instead of rotating replicas.
                channel.fail_pending(closed)
                channel.close()
            # Let the awakened _dispatch/_flush tasks run to completion
            # (their futures are already failed) so every
            # run_coroutine_threadsafe caller unblocks before the loop
            # stops processing callbacks.
            current = asyncio.current_task()
            tasks = [task for task in asyncio.all_tasks() if task is not current]
            if tasks:
                await asyncio.wait(tasks, timeout=5)
            loop.stop()

        try:
            asyncio.run_coroutine_threadsafe(shutdown(), loop)
        except RuntimeError:
            return
        if thread is not None:
            thread.join(timeout=10)
        try:
            # Close the loop even when the join timed out: a wedged
            # executor job must not leak the loop object.  A loop still
            # running raises RuntimeError; nothing more can be done
            # short of killing daemon threads.
            loop.close()
        except RuntimeError:
            pass

    def _connect(self, address: Address) -> TcpEndpoint:
        """Blocking connect + OP_MUX_HELLO upgrade (runs on executor)."""
        node = self.client._node
        endpoint = node.kernel.connect(node.ip, address)
        try:
            _send_frame(endpoint, bytes([OP_MUX_HELLO]), b"")
            status = _recv_exact(endpoint, 1)[0]
            (length,) = struct.unpack(">I", _recv_exact(endpoint, 4))
            if length:
                _recv_exact(endpoint, length)
            if status != STATUS_OK:
                raise TaintMapError(
                    f"taint map refused multiplexed upgrade (status {status})"
                )
        except BaseException:
            endpoint.close()
            raise
        return endpoint

    # -- sync bridge -------------------------------------------------------- #

    def submit(self, shard: int, op: int, payload: bytes) -> bytes:
        loop = self._ensure_loop()
        future = asyncio.run_coroutine_threadsafe(
            self._dispatch(shard, op, payload), loop
        )
        return self._result_within_deadline(future)

    def submit_many(self, calls: Sequence[tuple[int, int, bytes]]) -> list[bytes]:
        loop = self._ensure_loop()

        async def run_all() -> list[bytes]:
            return await asyncio.gather(
                *(self._dispatch(shard, op, payload) for shard, op, payload in calls)
            )

        return self._result_within_deadline(
            asyncio.run_coroutine_threadsafe(run_all(), loop)
        )

    def _result_within_deadline(self, future):
        """Block the sync caller on its future, bounded by the deadline:
        a wedged shard (or stalled loop) fails the request with a
        timeout error instead of hanging the wrapper thread forever."""
        deadline = self.request_deadline_s
        if deadline is None:
            return future.result()
        try:
            return future.result(deadline)
        # Both classes: future.result raises concurrent.futures.TimeoutError,
        # which is only an alias of the builtin from 3.11 on.
        except (TimeoutError, concurrent.futures.TimeoutError):
            if future.done():
                raise  # the request itself failed with a timeout-type error
            future.cancel()  # window futures are shielded; peers unaffected
            raise TaintMapDeadlineError(
                f"taint map request exceeded its {deadline}s deadline"
            ) from None

    # -- op dispatch (loop thread) ------------------------------------------- #

    async def _dispatch(self, shard: int, op: int, payload: bytes) -> bytes:
        """Route one sync-protocol request through the coalescing
        windows, returning the response payload the sync protocol
        would have produced."""
        if op == OP_REGISTER:
            gids = await self._coalesce(shard, _REGISTER, [bytes(payload)])
            return struct.pack(">I", gids[0])
        if op == OP_REGISTER_MANY:
            entries = _split_batch_register(payload)
            gids = await self._coalesce(shard, _REGISTER, entries)
            return struct.pack(f">{len(gids)}I", *gids)
        if op == OP_LOOKUP:
            (gid,) = struct.unpack(">I", payload)
            values = await self._coalesce(shard, _LOOKUP, [gid])
            return values[0]
        if op == OP_LOOKUP_MANY:
            (count,) = struct.unpack(">H", payload[:2])
            gids = list(struct.unpack(f">{count}I", payload[2:]))
            values = await self._coalesce(shard, _LOOKUP, gids)
            return b"".join(
                struct.pack(">I", len(value)) + value for value in values
            )
        # Unknown/extension op: pass through un-coalesced.
        status, response = await self._channels[shard].roundtrip(op, payload)
        self._check_status(status)
        return response

    @staticmethod
    def _check_status(status: int) -> None:
        if status == STATUS_UNKNOWN_GID:
            raise TaintMapError("unknown Global ID")
        if status == STATUS_STALE_RING:
            # Register windows re-home via _reroute_register before this
            # check; any other op seeing it is a protocol violation.
            raise TaintMapError("taint map rejected request routed on a stale ring")
        if status == STATUS_GID_EXHAUSTED:
            # Structured and non-retried: the shard is healthy but has no
            # sequence numbers left — rotating to a standby (which
            # replicates the same exhausted counter) cannot help, so this
            # must never burn a failover.
            raise TaintMapExhaustedError(
                "taint map shard has exhausted its Global-ID sequence space"
            )
        if status != STATUS_OK:
            raise TaintMapError(f"taint map rejected request (status {status})")

    # -- coalescing windows (loop thread) ------------------------------------- #

    async def _coalesce(self, shard: int, kind: int, keys: Sequence) -> list:
        """Enqueue ``keys`` into the shard's pending window and await
        their results.  The window size-flushes **mid-insertion**, so
        one oversized call never builds a window beyond ``max_batch``
        (and hence never beyond the 16-bit protocol frame ceiling),
        while a small call's keys still share one flush even with a
        zero-length window."""
        if self._closed:
            raise TaintMapError("async taint map transport is closed")
        window = self._windows[shard][kind]
        futures = []
        for key in keys:
            future = window.entries.get(key)
            if future is None and self._pending_counts[shard] >= self.max_pending:
                await self._admit(shard, kind)
                # Re-check after blocking: close() may have torn the
                # windows down (entries queued now would never resolve),
                # and a concurrent caller may have queued the same key.
                if self._closed:
                    raise TaintMapError("async taint map transport is closed")
                future = window.entries.get(key)
            if future is None:
                future = self.loop.create_future()
                window.entries[key] = future
                self._pending_counts[shard] += 1
                if len(window.entries) >= self.max_batch:
                    self._flush_now(shard, kind, "size")
            futures.append(future)
        if window.entries and window.timer is None:
            if self.coalesce_window_us is not None:
                window.timer = self.loop.call_later(
                    self.coalesce_window_us / 1e6, self._flush_now, shard, kind, "timer"
                )
            elif not window.inflight:
                window.timer = self.loop.call_soon(self._flush_now, shard, kind, "idle")
            # else: chained — the in-flight flush sends it on completion.
        # Shield the shared window futures: a deadline-cancelled caller
        # must not cancel entries other callers are awaiting.
        results = await asyncio.gather(
            *(asyncio.shield(future) for future in futures),
            return_exceptions=True,
        )
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return list(results)

    async def _admit(self, shard: int, kind: int) -> None:
        """Backpressure gate for one new entry at the high-water mark:
        shed immediately, or block until in-flight flushes drain."""
        while self._pending_counts[shard] >= self.max_pending:
            if self.backpressure == "shed":
                if self._backpressure_total is not None:
                    self._backpressure_total.labels(action="shed").inc()
                raise TaintMapBackpressureError(
                    f"shard {shard} pending window at its high-water mark "
                    f"({self.max_pending} entries); shedding request"
                )
            # Before parking, start draining the shard: flush both of
            # its parked windows now rather than waiting out their
            # timers or in-flight flushes (at the mark that is pure
            # queueing).
            for parked_kind in (_REGISTER, _LOOKUP):
                if self._windows[shard][parked_kind].entries:
                    self._flush_now(shard, parked_kind, "backpressure")
            if self._backpressure_total is not None:
                self._backpressure_total.labels(action="block").inc()
            waiter = self.loop.create_future()
            self._drain_waiters[shard].append(waiter)
            try:
                await waiter
            finally:
                if not waiter.done():
                    waiter.cancel()

    def _drain(self, shard: int, count: int) -> None:
        """A flush completed: release its entries' pending budget and
        wake blocked admitters (each re-checks the mark)."""
        self._pending_counts[shard] -= count
        waiters = self._drain_waiters[shard]
        while waiters:
            waiter = waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)

    def _flush_now(self, shard: int, kind: int, reason: str = "size") -> None:
        window = self._windows[shard][kind]
        if window.timer is not None:
            window.timer.cancel()
            window.timer = None
        if not window.entries:
            return
        entries, window.entries = window.entries, OrderedDict()
        window.inflight += 1
        if self._flush_reason is not None:
            self._flush_reason.labels(reason=reason).inc()
            self._window_entries.observe(len(entries))
        flush_id = next(self._flush_ids)
        self._inflight_flushes[flush_id] = entries
        self.loop.create_task(self._flush(shard, kind, entries, flush_id))

    async def _flush(
        self, shard: int, kind: int, entries: OrderedDict, flush_id: int
    ) -> None:
        """The wire round-trip(s) for an accumulated window; resolves
        every entry future (out of order relative to other flushes) and
        pops entries from ``entries`` as they settle, so shutdown can
        fail exactly the still-pending remainder."""
        drained = len(entries)
        try:
            if kind == _REGISTER:
                await self._flush_register(shard, entries)
            else:
                await self._flush_lookup(shard, entries)
        except Exception as exc:
            for future in entries.values():
                _fail_future(future, exc)
        finally:
            self._inflight_flushes.pop(flush_id, None)
            self._drain(shard, drained)
            self._windows[shard][kind].inflight -= 1
            if self.coalesce_window_us is None and not self._closed:
                # Group commit: what queued behind this flush goes now.
                self._flush_now(shard, kind, "chained")

    async def _flush_register(
        self, shard: int, entries: OrderedDict, attempts: int = 0
    ) -> None:
        # Chunk at the protocol ceiling: max_batch is clamped below it,
        # but a window must never be *able* to build an unencodable
        # frame whatever path filled it.
        while entries:
            keys = list(islice(entries, PROTOCOL_MAX_BATCH))
            status, response = await self._channels[shard].roundtrip(
                OP_REGISTER_MANY, _pack_batch_register(keys)
            )
            if status == STATUS_STALE_RING:
                await self._reroute_register(shard, entries, response, attempts)
                return
            self._check_status(status)
            gids = struct.unpack(f">{len(keys)}I", response)
            for key, gid in zip(keys, gids):
                future = entries.pop(key)
                if not future.done():
                    future.set_result(gid)

    async def _reroute_register(
        self, shard: int, entries: OrderedDict, response: bytes, attempts: int
    ) -> None:
        """Drain/re-home a register window the server stale-rung.

        The reply's ring is adopted (which grows this transport's
        per-shard state inline — we are on the loop thread), the
        window's entries regroup under the new router, and each group
        replays through the normal flush path on its new shard's
        channel.  The in-flight futures ride along untouched: submitters
        blocked in ``submit()`` never observe the epoch flip.
        """
        client = self.client
        error = client._stale_ring_error(shard, response)
        if error.ring is None or attempts + 1 >= client.RING_RETRY_LIMIT:
            raise error  # _flush fails the window's remaining futures
        if attempts > 0:
            await asyncio.sleep(min(0.001 * (1 << attempts), 0.05))
        router = client._router
        regroup: dict[int, OrderedDict] = {}
        for key, future in entries.items():
            target = router.shard_for_key(taint_key(frozenset(deserialize_tags(key))))
            regroup.setdefault(target, OrderedDict())[key] = future
        entries.clear()

        async def flush_group(target: int, group: OrderedDict) -> None:
            try:
                await self._flush_register(target, group, attempts + 1)
            except Exception as exc:
                # Fail only this group's remainder: groups re-homed to
                # healthy shards must still resolve.
                for future in group.values():
                    _fail_future(future, exc)

        await asyncio.gather(
            *(flush_group(target, group) for target, group in regroup.items())
        )

    async def _flush_lookup(self, shard: int, entries: OrderedDict) -> None:
        while entries:
            keys = list(islice(entries, PROTOCOL_MAX_BATCH))
            status, response = await self._channels[shard].roundtrip(
                OP_LOOKUP_MANY, _pack_batch_lookup(keys)
            )
            if status == STATUS_UNKNOWN_GID and len(response) == 4:
                # The server names the offending GID: fail that entry
                # alone and retry the remainder (one extra round-trip)
                # instead of failing the whole window.
                (bad,) = struct.unpack(">I", response)
                future = entries.pop(bad, None)
                if future is not None:
                    _fail_future(future, TaintMapError("unknown Global ID"))
                    continue
            self._check_status(status)
            serialized = _split_batch_lookup_response(response, len(keys))
            for key, value in zip(keys, serialized):
                future = entries.pop(key)
                if not future.done():
                    future.set_result(value)


class AsyncTaintMapClient(TaintMapClient):
    """Drop-in :class:`~repro.core.taintmap.TaintMapClient` whose
    transport is one multiplexed connection per shard plus cross-message
    coalescing.  The sync ``gid_for``/``gids_for``/``taint_for``/
    ``taints_for`` API, both-direction caches, shard routing, and HA
    failover semantics are all inherited — only the two request-path
    hooks (``_request`` / ``_request_by_shard``) change.
    """

    transport_name = "async"

    def __init__(
        self,
        node,
        address: Union[Address, Sequence[Address]],
        cache_enabled: bool = True,
        cache_capacity: Optional[int] = None,
        coalesce_window_us: Optional[float] = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        request_deadline_s: Optional[float] = DEFAULT_DEADLINE_S,
        max_pending: int = DEFAULT_MAX_PENDING,
        backpressure: str = "block",
        cache_admission: bool = False,
    ):
        super().__init__(node, address, cache_enabled, cache_capacity, cache_admission)
        self.transport = AsyncTaintMapTransport(
            self,
            coalesce_window_us,
            max_batch,
            request_deadline_s=request_deadline_s,
            max_pending=max_pending,
            backpressure=backpressure,
        )

    def _on_shards_grown(self, shard_count: int) -> None:
        self.transport.grow_to(shard_count)

    def _on_shards_readdressed(self, indices) -> None:
        self.transport.readdress(indices)

    def _request(self, op: int, payload: bytes, shard: int = 0) -> bytes:
        return self.transport.submit(shard, op, payload)

    def _request_by_shard(
        self, calls: Sequence[tuple[int, int, bytes]]
    ) -> list[bytes]:
        return self.transport.submit_many(calls)

    def close(self) -> None:
        self.transport.close()
        super().close()
