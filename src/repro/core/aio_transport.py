"""Multiplexed Taint Map transport with caller-runs cross-message coalescing.

This is the request path of every
:class:`~repro.core.taintmap.TaintMapClient`.  A blocking connection per
in-flight request would cost one round-trip per message and could not
batch across messages; this transport multiplexes and coalesces instead.
It starts no thread: the wrapper threads that need a Taint Map answer do
the transport's work themselves.

* **One long-lived connection per shard.**  The client upgrades each
  connection with :data:`~repro.core.taintmap.OP_MUX_HELLO`; after the
  acknowledgement every frame carries a 4-byte **correlation id** in
  front of the *unchanged* sync frame bytes, so many requests can be in
  flight at once and replies resolve out of order.  The inner frames —
  and every payload encoding: taint serialization, batch formats, GID
  packing — are byte-identical to the sync protocol; the server
  dispatches both through the same ``_handle``.

* **Cross-message coalescing.**  ``gid_for``/``gids_for``/``taint_for``/
  ``taints_for`` misses from concurrent wrappers accumulate in a
  per-shard pending window, so *k* small messages in flight cost one
  ``OP_REGISTER_MANY`` / ``OP_LOOKUP_MANY`` round-trip per shard per
  window instead of *k*.  Identical keys submitted by different messages
  share one wire entry; this is safe because registration is idempotent
  (same taint ⇒ same GID) and lookup is read-only.  Windows size-flush
  **mid-insertion** at ``max_batch``, which is clamped to the 16-bit
  protocol batch ceiling (:data:`~repro.core.taintmap.PROTOCOL_MAX_BATCH`),
  so no window can build an unencodable frame.

* **Caller-runs group commit.**  A caller whose ``(shard, kind)`` window
  has no flush in flight sends it at once on its own thread (reason
  ``idle``); every key of one ``gids_for``/``taints_for`` call shares
  that flush.  While a flush is in flight, new entries wait in the
  window, and when it completes one of the waiting callers sends what
  accumulated (``chained``).  Concurrency thus batches itself and a lone
  request pays no added delay.  Pinning ``coalesce_window_us`` makes the
  flushing caller wait out a static window first (``timer``).

* **Replies are read by the callers that wait for them.**  Any caller
  with a request on a connection may take that connection's read role:
  it reads frames, settles the requests they answer (its own and
  others'), and hands the role back once its own answer is in or its
  ``request_deadline_s`` fires (a wedged shard then fails the caller
  with :class:`~repro.errors.TaintMapDeadlineError`; the other callers
  of the same batch keep waiting on their own deadlines).  The server
  writes each reply before it reads the next request, so a caller whose
  frame does not fit the pipe keeps the replies draining while it
  writes.  ``submit_many`` sends every shard's frame before it waits,
  so a batch spanning shards costs one round-trip time.

* **Backpressure.**  Each shard's pending entries (queued + in flight)
  are bounded by ``max_pending``; past the high-water mark new entries
  either **block** until the shard drains (default) or are **shed**
  with :class:`~repro.errors.TaintMapBackpressureError`, both counted in
  ``dista_coalesce_backpressure_total``.

* **Failover with in-flight requests.**  Replica rotation composes per
  shard: a connection that dies hands every request on it to the
  shard's next replica (idempotency makes the retry safe).  Semantic
  errors (``STATUS_*``) never fail over.  A deadline error
  (:class:`~repro.errors.TaintMapDeadlineError`) is raised to the
  waiting caller rather than replayed against the standby; the flush
  that carried it still completes (or fails over) for the co-batched
  callers that keep waiting.
"""

from __future__ import annotations

import itertools
import struct
import threading
import time
from collections import OrderedDict
from typing import Optional, Sequence

from repro.core.taintmap import (
    DEFAULT_DEADLINE_S,
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_PENDING,
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
    SimTimeout,
    TaintMapBackpressureError,
    TaintMapDeadlineError,
    TaintMapError,
    TaintMapExhaustedError,
    TaintMapTransportError,
)
from repro.runtime.kernel import Address, TcpEndpoint

#: Mask keeping correlation ids within their 4-byte wire field; the
#: counter itself is unbounded (``itertools.count``) and would
#: eventually overflow ``>I`` without it.
_CORR_MASK = 0xFFFFFFFF

#: Reply frame head: ``corr:4 | status:1 | len:4``.
_REPLY_HEAD = struct.Struct(">IBI")

#: Bytes asked of the pipe per read by a connection's read-role holder.
_READ_CHUNK = 256 * 1024

_REGISTER = 0
_LOOKUP = 1

_BACKPRESSURE_POLICIES = ("block", "shed")

_CLOSED = "async taint map transport is closed"

#: ``dista_coalesce_flush_total`` reasons: ``idle``/``chained`` under
#: the default group-commit policy, ``timer`` under a pinned window,
#: ``size``/``backpressure`` under both.
FLUSH_REASONS = ("size", "timer", "backpressure", "idle", "chained")


def mux_frame(corr: int, op: int, payload: bytes) -> bytes:
    """One multiplexed request frame: a correlation-id prefix followed
    by the **unchanged** sync frame bytes (``op | len | payload``)."""
    return (
        struct.pack(">I", corr)
        + bytes([op])
        + struct.pack(">I", len(payload))
        + payload
    )


class _Entry:
    """One key's pending result, shared by every caller that submitted
    the key while it sat in the same window."""

    __slots__ = ("key", "shard", "kind", "request", "done", "value", "error")

    def __init__(self, key, shard: int, kind: Optional[int]):
        self.key = key
        self.shard = shard
        self.kind = kind
        #: The request carrying this entry; ``None`` while it is queued.
        self.request: Optional[_Request] = None
        self.done = False
        self.value = None
        self.error: Optional[BaseException] = None

    def settle(self, value=None, error: Optional[BaseException] = None) -> None:
        if not self.done:
            self.value, self.error, self.done = value, error, True


class _Window:
    """One shard's accumulating batch of one kind (register or lookup)."""

    __slots__ = ("entries", "due", "chained", "inflight")

    def __init__(self) -> None:
        #: entry key (serialized taint bytes, or int GID) → :class:`_Entry`.
        self.entries: OrderedDict = OrderedDict()
        #: Pinned-window policy: when the window flushes (monotonic s).
        self.due = 0.0
        #: Its first entry arrived while a flush was in flight.
        self.chained = False
        #: This window's requests currently on the wire.
        self.inflight: list[_Request] = []


class _Request:
    """One frame's worth of entries: the wire round-trip of a flushed
    window (or of a re-routed or pass-through batch), kept across
    replica failover and partial retries."""

    __slots__ = (
        "shard", "kind", "entries", "window", "counted", "op", "payload",
        "tries", "redialed", "attempts", "observed_active", "started", "conn",
    )

    def __init__(
        self,
        shard: int,
        kind: Optional[int],
        entries: OrderedDict,
        window: Optional[_Window] = None,
        op: Optional[int] = None,
        payload: bytes = b"",
        attempts: int = 0,
    ):
        self.shard = shard
        self.kind = kind
        self.entries = entries
        #: The window whose in-flight slot and pending budget this
        #: request holds until it settles.
        self.window = window
        self.counted = len(entries) if window is not None else 0
        if kind == _REGISTER:
            op, payload = OP_REGISTER_MANY, _pack_batch_register(list(entries))
        elif kind == _LOOKUP:
            op, payload = OP_LOOKUP_MANY, _pack_batch_lookup(list(entries))
        self.op = op
        self.payload = payload
        #: Replicas that failed this request (failover budget).
        self.tries = 0
        #: It already redialed its replica after a stale connection.
        self.redialed = False
        #: Stale-ring re-routes behind this request.
        self.attempts = attempts
        self.observed_active = 0
        self.started = 0.0
        self.conn: Optional[_MuxConnection] = None
        for entry in entries.values():
            entry.request = self
            entry.shard = shard


class _MuxConnection:
    """One upgraded connection: correlated frames, out-of-order replies.

    ``pending`` and the flags are guarded by the transport lock; frames
    are written under ``send_lock`` so they never interleave, and only
    the caller holding the read role (``reading``) touches the receive
    buffer.
    """

    def __init__(self, endpoint: TcpEndpoint, shard: int):
        self.endpoint = endpoint
        self.shard = shard
        self.pending: dict[int, _Request] = {}
        self._corr = itertools.count(1)
        self.send_lock = threading.Lock()
        self.reading = False
        self.broken: Optional[Exception] = None
        #: A reply arrived on it: a later failure means it went stale.
        self.answered = False
        self._rx = bytearray()

    def correlate(self, request: _Request) -> int:
        """Allocate a correlation id for ``request`` (transport lock held)."""
        if self.broken is not None:
            # A fresh exception per caller: re-raising the one cached
            # instance would cross-contaminate tracebacks between
            # unrelated requests (and mutate the original's context).
            raise TaintMapTransportError(
                f"taint map mux connection is broken: {self.broken}"
            ) from self.broken
        corr = next(self._corr) & _CORR_MASK
        # After a 32-bit wrap a fresh id can collide with one still in
        # flight; overwriting its request would strand its callers.
        while corr in self.pending:
            corr = next(self._corr) & _CORR_MASK
        self.pending[corr] = request
        request.conn = self
        return corr

    def read_frames(self, timeout: Optional[float]) -> list[tuple[int, int, bytes]]:
        """One pipe read (read role only): the frames it completes,
        ``[]`` when ``timeout`` passes first.  A partial frame stays
        buffered for the next reader."""
        try:
            chunk = self.endpoint.recv(_READ_CHUNK, timeout)
        except SimTimeout:
            return []
        if not chunk:
            raise PipeClosed("taint map mux connection closed")
        rx = self._rx
        rx += chunk
        frames = []
        offset = 0
        while len(rx) - offset >= _REPLY_HEAD.size:
            corr, status, length = _REPLY_HEAD.unpack_from(rx, offset)
            end = offset + _REPLY_HEAD.size + length
            if len(rx) < end:
                break
            frames.append((corr, status, bytes(rx[end - length : end])))
            offset = end
        del rx[:offset]
        if frames:
            self.answered = True
        return frames


class _Shard:
    """Per-shard state: the current connection, one window per kind and
    the backpressure budget.  Replica choice lives on the client
    (``_shard_replicas``/``_active``) so HA widening and
    ``active_address_for`` keep working unchanged."""

    __slots__ = ("conn", "windows", "pending", "dial_lock")

    def __init__(self) -> None:
        self.conn: Optional[_MuxConnection] = None
        self.windows = (_Window(), _Window())
        #: Entries queued in windows plus carried by in-flight requests.
        self.pending = 0
        self.dial_lock = threading.Lock()


class AsyncTaintMapTransport:
    """The multiplexed, coalescing request path of a
    :class:`~repro.core.taintmap.TaintMapClient`.

    ``submit``/``submit_many`` take ``(shard, op, payload)`` requests in
    the sync protocol's encoding, route the four map ops through the
    coalescing windows, and return response payloads in exactly the sync
    protocol's formats, so the client's caching and batching logic never
    sees the multiplexing.  All shared state is guarded by one lock; I/O
    runs outside it.
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
        #: group-commit policy (flush at once when idle, chain behind
        #: the in-flight flush when busy).
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
                "(0 under the default group-commit policy, else the pinned "
                "static window).",
                ("shard",),
            )
            self._inflight_child = metrics.gauge(
                "dista_taintmap_inflight_requests",
                "Requests in flight on the multiplexed Taint Map connections.",
            ).labels()
        self._lock = threading.Lock()
        #: Signalled whenever shared state changes in a way a waiting
        #: caller could act on (an entry settled, a window freed, a
        #: request correlated, a read role released, close()).
        self._changed = threading.Condition(self._lock)
        self._shards: list[_Shard] = []
        #: Every open connection, including ones a drain readdressed
        #: away that still carry requests.
        self._conns: list[_MuxConnection] = []
        self._closed = False
        self._grow_locked(len(client._shard_replicas))

    # -- lifecycle ---------------------------------------------------------- #

    def _grow_locked(self, shard_count: int) -> None:
        """Append per-shard state up to ``shard_count`` (never shrinks).
        Shards dial lazily, so a shard that appears mid-flight costs
        nothing until its first request opens the mux connection."""
        while len(self._shards) < shard_count:
            if self._window_gauge is not None:
                self._window_gauge.labels(shard=str(len(self._shards))).set(
                    self.coalesce_window_us or 0.0
                )
            self._shards.append(_Shard())

    def grow_to(self, shard_count: int) -> None:
        """Ring adoption hook: make every per-shard structure cover
        ``shard_count`` shards before the client's router can return a
        new index.  Safe from any thread."""
        with self._lock:
            self._grow_locked(shard_count)

    def readdress(self, indices: Sequence[int]) -> None:
        """Drain adoption hook: the listed shard slots now forward to a
        surviving shard's address.  Their connections are *dropped
        without closing* — in-flight requests finish on the old
        connection (the drained process keeps serving until the cluster
        stops it), while every new request dials the forwarding address."""
        with self._lock:
            for index in indices:
                if index < len(self._shards):
                    self._shards[index].conn = None

    def close(self) -> None:
        """Fail every queued and in-flight entry and close every
        connection; waiting callers wake and raise."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            closed = TaintMapError(_CLOSED)
            # The per-shard list stays in place: a straggling reply or
            # re-route still indexes it.
            for shard in self._shards:
                shard.conn = None
                for window in shard.windows:
                    for entry in window.entries.values():
                        entry.settle(error=closed)
                    window.entries.clear()
            conns, self._conns = self._conns, []
            for conn in conns:
                conn.broken = conn.broken or closed
                for request in conn.pending.values():
                    for entry in request.entries.values():
                        entry.settle(error=closed)
                self._inflight_dec(len(conn.pending))
                conn.pending.clear()
                # Wakes a caller blocked reading this connection.
                self._close_endpoint(conn.endpoint)
            self._changed.notify_all()

    def _connect(self, address: Address) -> TcpEndpoint:
        """Blocking connect + OP_MUX_HELLO upgrade.  A shard that accepts
        but never acknowledges fails the dial within the deadline."""
        node = self.client._node
        endpoint = node.kernel.connect(node.ip, address)
        try:
            _send_frame(endpoint, bytes([OP_MUX_HELLO]), b"")
            ack = b""
            while len(ack) < 5:
                chunk = endpoint.recv(
                    5 - len(ack), self.request_deadline_s or DEFAULT_DEADLINE_S
                )
                if not chunk:
                    raise PipeClosed("taint map closed the connection during upgrade")
                ack += chunk
            status, length = ack[0], struct.unpack(">I", ack[1:])[0]
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

    def _connection(self, shard: int) -> _MuxConnection:
        """The shard's connection, dialing its active replica on first
        use (lock not held; one dial per shard at a time)."""
        state = self._shards[shard]
        conn = state.conn
        if conn is not None:
            return conn
        with state.dial_lock:
            conn = state.conn
            if conn is not None:
                return conn
            if self._closed:
                raise TaintMapError(_CLOSED)
            client = self.client
            endpoint = self._connect(client._shard_replicas[shard][client._active[shard]])
            with self._lock:
                if self._closed:
                    # close() ran during the dial and could not see this
                    # connection: never send on it, and do not leak it.
                    endpoint.close()
                    raise TaintMapError(_CLOSED)
                conn = state.conn = _MuxConnection(endpoint, shard)
                self._conns.append(conn)
            return conn

    def _close_endpoint(self, endpoint: TcpEndpoint) -> None:
        try:
            endpoint.close()
        except Exception:
            self.client.stats.bump("close_errors")

    def _inflight_dec(self, count: int) -> None:
        if count and self._inflight_child is not None:
            self._inflight_child.dec(count)

    # -- sync API ----------------------------------------------------------- #

    def submit(self, shard: int, op: int, payload: bytes) -> bytes:
        return self.submit_many([(shard, op, payload)])[0]

    def submit_many(self, calls: Sequence[tuple[int, int, bytes]]) -> list[bytes]:
        """Enqueue every call, then do this caller's share of the
        transport until all of its entries settle or its deadline fires."""
        deadline = (
            None
            if self.request_deadline_s is None
            else time.monotonic() + self.request_deadline_s
        )
        plans = []
        sends: list[_Request] = []
        with self._lock:
            if self._closed:
                raise TaintMapError(_CLOSED)
            try:
                for shard, op, payload in calls:
                    plans.append((op, self._enqueue_locked(shard, op, payload, deadline, sends)))
            except BaseException:
                # Size flushes already taken must still go out: other
                # callers' entries may share them.
                self._unlocked(self._send, sends)
                raise
            self._await(
                [entry for _, entries in plans for entry in entries], deadline, sends
            )
        return [self._response(op, entries) for op, entries in plans]

    @staticmethod
    def _response(op: int, entries: list) -> bytes:
        """Re-encode settled entries as the sync protocol's reply."""
        for entry in entries:
            if entry.error is not None:
                raise entry.error
        values = [entry.value for entry in entries]
        if op == OP_REGISTER:
            return struct.pack(">I", values[0])
        if op == OP_REGISTER_MANY:
            return struct.pack(f">{len(values)}I", *values)
        if op == OP_LOOKUP_MANY:
            return b"".join(struct.pack(">I", len(value)) + value for value in values)
        return values[0]  # OP_LOOKUP, or a pass-through op's raw payload

    @staticmethod
    def _check_status(status: int) -> None:
        if status == STATUS_UNKNOWN_GID:
            raise TaintMapError("unknown Global ID")
        if status == STATUS_STALE_RING:
            # Register requests re-home via _reroute before this check;
            # any other op seeing it is a protocol violation.
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

    # -- coalescing windows (lock held) -------------------------------------- #

    def _enqueue_locked(
        self, shard: int, op: int, payload: bytes, deadline, sends: list
    ) -> list[_Entry]:
        """Enter one sync-protocol request's keys into the shard's
        window.  The window size-flushes **mid-insertion** (into
        ``sends``), so one oversized call never builds a window beyond
        ``max_batch``, while a small call's keys share one flush."""
        if op == OP_REGISTER:
            kind, keys = _REGISTER, [bytes(payload)]
        elif op == OP_REGISTER_MANY:
            kind, keys = _REGISTER, _split_batch_register(payload)
        elif op == OP_LOOKUP:
            kind, keys = _LOOKUP, list(struct.unpack(">I", payload))
        elif op == OP_LOOKUP_MANY:
            (count,) = struct.unpack(">H", payload[:2])
            kind, keys = _LOOKUP, list(struct.unpack(f">{count}I", payload[2:]))
        else:
            # Unknown/extension op: pass through un-coalesced.
            entry = _Entry(None, shard, None)
            sends.append(
                _Request(shard, None, OrderedDict([(None, entry)]), op=op, payload=payload)
            )
            return [entry]
        state = self._shards[shard]
        window = state.windows[kind]
        entries = []
        for key in keys:
            entry = window.entries.get(key)
            if entry is None and state.pending >= self.max_pending:
                self._admit_locked(shard, deadline, sends)
                # A concurrent caller may have queued the same key.
                entry = window.entries.get(key)
            if entry is None:
                if not window.entries:
                    window.chained = bool(window.inflight)
                    if self.coalesce_window_us is not None:
                        window.due = time.monotonic() + self.coalesce_window_us / 1e6
                entry = window.entries[key] = _Entry(key, shard, kind)
                state.pending += 1
                if len(window.entries) >= self.max_batch:
                    sends.append(self._take_locked(shard, kind, "size"))
            entries.append(entry)
        return entries

    def _admit_locked(self, shard: int, deadline, sends: list) -> None:
        """Backpressure gate for one new entry at the high-water mark:
        shed at once, or flush the shard's parked windows and wait (doing
        this caller's share of the reading) until it drains."""
        state = self._shards[shard]
        if self.backpressure == "shed":
            if self._backpressure_total is not None:
                self._backpressure_total.labels(action="shed").inc()
            raise TaintMapBackpressureError(
                f"shard {shard} pending window at its high-water mark "
                f"({self.max_pending} entries); shedding request"
            )
        for kind, window in enumerate(state.windows):
            if window.entries:
                sends.append(self._take_locked(shard, kind, "backpressure"))
        if self._backpressure_total is not None:
            self._backpressure_total.labels(action="block").inc()
        parked, sends[:] = list(sends), []
        self._await(
            (),
            deadline,
            parked,
            until=lambda: state.pending < self.max_pending,
            shard=shard,
        )
        if self._closed:
            raise TaintMapError(_CLOSED)

    def _take_locked(self, shard: int, kind: int, reason: str) -> _Request:
        """Turn the window's entries into one request (not yet sent)."""
        window = self._shards[shard].windows[kind]
        entries, window.entries = window.entries, OrderedDict()
        if self._flush_reason is not None:
            self._flush_reason.labels(reason=reason).inc()
            self._window_entries.observe(len(entries))
        request = _Request(shard, kind, entries, window)
        window.inflight.append(request)
        return request

    def _release_locked(self, request: _Request) -> None:
        """The request no longer holds its window's in-flight slot or
        pending budget (idempotent)."""
        window, request.window = request.window, None
        if window is not None:
            window.inflight.remove(request)
            self._shards[request.shard].pending -= request.counted

    # -- the caller's share of the work ------------------------------------- #

    def _await(self, entries, deadline, sends=(), until=None, shard=None) -> None:
        """Run until every entry settles (or ``until()`` holds), each
        turn doing the first thing that makes progress: send what is
        ready, read a connection carrying this caller's requests that
        nobody reads, or sleep until another caller changes something.
        ``shard`` adds that shard's windows to the caller's interest
        (backpressure waits on them).  Lock held on entry and exit."""
        sends = list(sends)
        while True:
            if sends:
                self._unlocked(self._send, sends)
                sends = []
            if until is None:
                entries = [entry for entry in entries if not entry.done]
                if not entries:
                    return
            elif until():
                return
            if self._closed:
                raise TaintMapError(_CLOSED)
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                raise TaintMapDeadlineError(
                    f"taint map request exceeded its {self.request_deadline_s}s deadline"
                )
            wake = deadline
            windows = {}  # ordered: frames go out in call order
            conns = set()
            for entry in entries:
                if entry.request is None:
                    windows[entry.shard, entry.kind] = None
                elif entry.request.conn is not None:
                    conns.add(entry.request.conn)
            if shard is not None:
                windows[shard, _REGISTER] = windows[shard, _LOOKUP] = None
            for index, kind in windows:
                window = self._shards[index].windows[kind]
                if window.entries:
                    if self.coalesce_window_us is None:
                        if not window.inflight:
                            reason = "chained" if window.chained else "idle"
                            sends.append(self._take_locked(index, kind, reason))
                    elif window.due <= now:
                        sends.append(self._take_locked(index, kind, "timer"))
                    elif wake is None or window.due < wake:
                        wake = window.due
                conns.update(r.conn for r in window.inflight if r.conn is not None)
            if sends:
                continue
            timeout = None if wake is None else max(wake - now, 0.0)
            for conn in conns:
                if conn.pending and not conn.reading and conn.broken is None:
                    conn.reading = True
                    self._unlocked(self._read_and_send, conn, timeout)
                    break
            else:
                self._changed.wait(timeout)

    def _unlocked(self, fn, *args):
        self._lock.release()
        try:
            return fn(*args)
        finally:
            self._lock.acquire()

    def _read_and_send(self, conn: _MuxConnection, timeout: Optional[float]) -> None:
        self._send(self._read(conn, timeout))

    def _read(self, conn: _MuxConnection, timeout: Optional[float]) -> list:
        """One pipe read by the read-role holder (lock not held): settle
        the frames it completes, then hand the role back.  Returns the
        follow-up requests (retries, re-routes) for the caller to send."""
        followups: list[_Request] = []
        try:
            frames = conn.read_frames(timeout)
        except Exception as exc:
            followups = self._on_broken(conn, exc)
        else:
            for frame in frames:
                followups += self._on_frame(conn, *frame)
        finally:
            with self._lock:
                conn.reading = False
                self._changed.notify_all()
        return followups

    def _send(self, requests: list) -> None:
        """Write each request's frame on its shard's connection, dialing
        on first use; a transport error fails the request over to the
        shard's next replica (lock not held)."""
        index = 0
        while index < len(requests):
            request = requests[index]
            index += 1
            request.observed_active = self.client._active[request.shard]
            conn = None
            try:
                conn = self._connection(request.shard)
                with self._lock:
                    if self._closed:
                        raise TaintMapError(_CLOSED)
                    corr = conn.correlate(request)
                    if self._inflight_child is not None:
                        self._inflight_child.inc()
                    self._changed.notify_all()
            except TRANSPORT_ERRORS as exc:
                # With a connection in hand, it broke before this request
                # went out on it: nothing was sent, so redialing is safe.
                requests += self._retry(request, exc, stale=conn is not None)
                continue
            except TaintMapError as exc:
                self._finish(request, error=exc)
                continue
            # Timed from request-out: the dial and OP_MUX_HELLO upgrade
            # are not RPC latency.
            request.started = time.perf_counter()
            try:
                requests += self._write(conn, mux_frame(corr, request.op, request.payload))
            except TRANSPORT_ERRORS as exc:
                requests += self._on_broken(conn, exc)

    def _write(self, conn: _MuxConnection, frame: bytes) -> list:
        """Write one whole frame.  While the pipe is full, keep the
        server's replies draining (it answers before it reads on) so the
        write can finish; returns the follow-ups those replies produced.
        A write stalled past the deadline breaks the connection."""
        followups: list[_Request] = []
        stall = time.monotonic() + (self.request_deadline_s or DEFAULT_DEADLINE_S)
        with conn.send_lock:
            sent = conn.endpoint.send_nonblocking(frame)
            while sent < len(frame):
                if time.monotonic() > stall:
                    raise SimTimeout("taint map frame write stalled")
                with self._lock:
                    drain = not conn.reading
                    conn.reading = True
                if drain:
                    followups += self._read(conn, 0.001)
                if conn.broken is not None:
                    break  # _on_broken already re-sent this frame's request
                sent += conn.endpoint.send_nonblocking(frame[sent:])
        return followups

    # -- replies and failures (lock not held) -------------------------------- #

    def _on_frame(self, conn: _MuxConnection, corr: int, status: int, response: bytes) -> list:
        with self._lock:
            request = conn.pending.pop(corr, None)
        if request is None:
            return []  # failed by close() while the reply was in flight
        self._inflight_dec(1)
        client = self.client
        with client.stats._lock:
            client.requests_sent += 1
        client._observe_rpc(request.op, time.perf_counter() - request.started)
        try:
            return self._on_reply(request, status, response)
        except Exception as exc:
            self._finish(request, error=exc)
            return []

    def _on_reply(self, request: _Request, status: int, response: bytes) -> list:
        if request.kind == _REGISTER and status == STATUS_STALE_RING:
            return self._reroute(request, response)
        if request.kind == _LOOKUP and status == STATUS_UNKNOWN_GID and len(response) == 4:
            # The server names the offending GID: fail that entry alone
            # and retry the remainder (one extra round-trip) instead of
            # failing the whole window.
            (bad,) = struct.unpack(">I", response)
            with self._lock:
                entry = request.entries.pop(bad, None)
                if entry is not None:
                    entry.settle(error=TaintMapError("unknown Global ID"))
                    self._changed.notify_all()
            if entry is not None:
                if not request.entries:
                    self._finish(request)
                    return []
                request.payload = _pack_batch_lookup(list(request.entries))
                request.tries = 0
                return [request]
        self._check_status(status)
        if request.kind == _REGISTER:
            values = struct.unpack(f">{len(request.entries)}I", response)
        elif request.kind == _LOOKUP:
            values = _split_batch_lookup_response(response, len(request.entries))
        else:
            values = [response]
        self._finish(request, values)
        return []

    def _finish(self, request: _Request, values=None, error=None) -> None:
        """Settle the request's entries (with ``values`` in entry order,
        or with ``error``) and release its window."""
        with self._lock:
            results = itertools.repeat(None) if values is None else values
            for entry, value in zip(request.entries.values(), results):
                entry.settle(value, error)
            self._release_locked(request)
            self._changed.notify_all()

    def _reroute(self, request: _Request, response: bytes) -> list:
        """Re-home a register request the server stale-rung: adopt the
        reply's ring (which grows this transport's per-shard state), then
        regroup the entries under the new router, one request per new
        shard.  Callers waiting on the entries never observe the flip."""
        client = self.client
        error = client._stale_ring_error(request.shard, response)
        if error.ring is None or request.attempts + 1 >= client.RING_RETRY_LIMIT:
            raise error
        if request.attempts > 0:
            time.sleep(min(0.001 * (1 << request.attempts), 0.05))
        router = client._router
        groups: dict[int, OrderedDict] = {}
        for key, entry in request.entries.items():
            target = router.shard_for_key(taint_key(frozenset(deserialize_tags(key))))
            groups.setdefault(target, OrderedDict())[key] = entry
        with self._lock:
            followups = [
                _Request(target, _REGISTER, group, attempts=request.attempts + 1)
                for target, group in groups.items()
            ]
            request.entries = OrderedDict()
            self._release_locked(request)
            self._changed.notify_all()
        return followups

    def _on_broken(self, conn: _MuxConnection, exc: Exception) -> list:
        """Connection death: drop it and fail every request it carried
        over to the shard's next replica.  Returns the retries."""
        with self._lock:
            if conn.broken is not None:
                return []
            conn.broken = exc
            requests = list(conn.pending.values())
            self._inflight_dec(len(requests))
            conn.pending.clear()
            if conn in self._conns:
                self._conns.remove(conn)
            if self._shards[conn.shard].conn is conn:
                self._shards[conn.shard].conn = None
            self._close_endpoint(conn.endpoint)
            self._changed.notify_all()
        retries = []
        for request in requests:
            retries += self._retry(request, exc, stale=conn.answered)
        return retries

    def _retry(self, request: _Request, exc: Exception, stale: bool = False) -> list:
        """Hand the request back for re-sending, or settle it with the
        error once every replica has failed it.

        A ``stale`` failure — on a connection that had already answered,
        such as one left idle across a server restart — first redials
        the same replica, once per request.  Any other failure rotates
        the shard to its next replica."""
        client = self.client
        shard = request.shard
        replicas = len(client._shard_replicas[shard])
        if stale and not request.redialed and not self._closed:
            request.redialed = True
            return [request]
        request.tries += 1
        if self._closed:
            exc = TaintMapError(_CLOSED)
        elif request.tries < replicas:
            with self._lock:
                # No-op if a concurrent failure already rotated past it.
                if client._active[shard] == request.observed_active:
                    client._active[shard] = (request.observed_active + 1) % replicas
            return [request]
        elif replicas > 1:
            exc = TaintMapError(f"all taint map replicas unreachable: {exc}")
        # A single replica surfaces the transport error itself.
        self._finish(request, error=exc)
        return []
