"""The three JNI wrapper types (paper §III-C, Figs. 6–8).

The agent patches a node's :class:`~repro.jre.jni.JniTable` with the
closures built here.  Senders combine message bytes with their taints
(as Global-ID cells or packet envelopes) and push them through the
*original* JNI method; receivers invoke the original method into an
enlarged buffer and split the result back into data and taints.

* **Type 1 — stream oriented** (``socketRead0``/``socketWrite0``): the
  TCP byte stream becomes a stream of 5-byte cells; a per-fd
  :class:`~repro.core.wire.CellDecoder` absorbs arbitrary read
  boundaries.
* **Type 2 — packet oriented** (``send``/``receive0``/``peekData``):
  each datagram is re-wrapped in a fresh packet carrying the envelope —
  the original packet object is never mutated on the send path, because
  the application may keep using it (Fig. 7's note).
* **Type 3 — direct buffer oriented** (dispatcher read/write families +
  ``DirectByteBuffer`` get/put): native memory gets a shadow label array
  keyed by block address; get/put move labels between heap and shadow,
  and the dispatchers translate shadow ↔ wire cells.
"""

from __future__ import annotations

import threading
import weakref
from typing import Optional

from repro.core import wire
from repro.core.taintmap import TaintMapClient
from repro.core.trace import NULL_TRACE
from repro.errors import WireFormatError
from repro.obs.lineage import NULL_LINEAGE
from repro.jre.jni import EOF, UNAVAILABLE
from repro.jre.buffer import NativeMemory
from repro.jre.datagram_api import DatagramPacket
from repro.runtime.kernel import MAX_DATAGRAM
from repro.taint.values import LabelRuns, TByteArray, TBytes


#: The five crossing families ``record_io`` feeds, with their help text.
_IO_HELP = {
    "dista_jni_calls_total": "Wrapped JNI method invocations.",
    "dista_jni_bytes_total": "Payload bytes through wrapped JNI methods.",
    "dista_jni_tainted_bytes_total": (
        "Tainted payload bytes through wrapped JNI methods "
        "(divide by dista_jni_bytes_total for the per-method ratio)."
    ),
    "dista_crossings_total": "Tainted boundary crossings observed at the wrappers.",
    "dista_fastpath_total": (
        "Crossings by taint-state-specialized codec path: fast = "
        "zero-taint short circuit (no resolver call, no Taint "
        "Map round-trip), slow = shadow codec engaged."
    ),
}


class DisTARuntime:
    """Per-node runtime state shared by all wrappers on one JVM."""

    def __init__(
        self,
        node,
        client: TaintMapClient,
        byte_granularity: bool = True,
        trace=NULL_TRACE,
    ):
        self.node = node
        self.client = client
        #: Every wrapper resolves labels through this bundle, so the
        #: client behind it is swappable without touching wrapper code.
        self.resolver = wire.LabelResolver.for_client(client)
        #: False only in the granularity ablation: whole-message tainting.
        self.byte_granularity = byte_granularity
        #: Optional CrossingTrace recording tainted boundary crossings.
        self.trace = trace
        #: Per-node LineageRecorder (NULL_LINEAGE when lineage is off;
        #: its ``enabled`` False short-circuits every hook below).
        self.lineage = NULL_LINEAGE
        self._lock = threading.Lock()
        self._decoders: dict[int, wire.CellDecoder] = {}
        #: (method, direction) -> [calls, bytes, tainted bytes, tainted
        #: crossings, fast, slow]; record_io bumps one row under one
        #: lock and ``_io_samples`` folds the rows in at scrape time.
        self._io_lock = threading.Lock()
        self._io_rows: dict = {}
        #: Wrapper-boundary telemetry (None for bare test nodes).
        self.metrics = getattr(node, "metrics", None)
        if self.metrics is not None:
            self.metrics.register_collector(self._io_samples)

    def record_io(self, direction: str, method: str, data: TBytes, channel=None) -> None:
        """One wrapper-boundary event: telemetry plus the crossing trace.

        Bumps this ``(method, direction)`` row under one lock;
        :meth:`_io_samples` folds the rows into the five crossing
        families (``_IO_HELP``) at scrape time.  ``channel`` names the
        wire channel (see ``TcpEndpoint.send_channel``) so the trace can
        correlate this send with its receive into a span.
        """
        total = len(data)
        labels = data.labels
        # Which codec path this crossing's payload dispatches to: the
        # predicate mirrors the one in the wire codecs.
        slow = labels is not None and labels.has_labels()
        tainted = labels.tainted_byte_count() if slow else 0
        key = (method, direction)
        with self._io_lock:
            row = self._io_rows.get(key)
            if row is None:
                row = self._io_rows[key] = [0, 0, 0, 0, 0, 0]
            row[0] += 1
            row[1] += total
            row[2] += tainted
            if tainted:
                row[3] += 1
            row[5 if slow else 4] += 1
        self.trace.record(self.node.name, direction, method, data, channel=channel)

    def _io_samples(self) -> dict:
        """Scrape-time fold of the ``record_io`` rows into the five families."""
        with self._io_lock:
            rows = [(key, tuple(row)) for key, row in self._io_rows.items()]
        series: dict = {name: {} for name in _IO_HELP}
        for (method, direction), (calls, size, tainted, crossed, fast, slow) in rows:
            io = (("method", method), ("direction", direction))
            for name, labels, value in (
                ("dista_jni_calls_total", io, calls),
                ("dista_jni_bytes_total", io, size),
                ("dista_jni_tainted_bytes_total", io, tainted),
                ("dista_crossings_total", (("direction", direction),), crossed),
                ("dista_fastpath_total", (("site", method), ("path", "fast")), fast),
                ("dista_fastpath_total", (("site", method), ("path", "slow")), slow),
            ):
                series[name][labels] = series[name].get(labels, 0) + value
        return {
            name: {
                "type": "counter",
                "help": _IO_HELP[name],
                "samples": [
                    {"labels": dict(labels), "value": float(value)}
                    for labels, value in sorted(by_labels.items())
                ],
            }
            for name, by_labels in series.items()
        }

    def outgoing(self, data: TBytes) -> TBytes:
        """Apply the configured granularity to outgoing data."""
        # Zero-taint fast path: untainted data is identical under both
        # granularities, so skip the overall-taint fold entirely.
        if data.labels is None:
            return data
        if self.byte_granularity:
            return data
        overall = data.overall_taint()
        if overall is None:
            return data
        return TBytes.tainted(data.data, overall)

    # -- cell-stream state -------------------------------------------------- #

    def decoder_for(self, fd) -> wire.CellDecoder:
        key = id(fd)
        with self._lock:
            decoder = self._decoders.get(key)
            if decoder is not None:
                return decoder
            decoder = wire.CellDecoder()
            self._decoders[key] = decoder
        # Outside the lock: registration may fire the eviction callback
        # immediately when the fd is already closed.
        self._register_eviction(fd, key, decoder)
        return decoder

    def _evict_decoder(self, key: int, decoder: wire.CellDecoder) -> None:
        with self._lock:
            if self._decoders.get(key) is decoder:
                del self._decoders[key]

    def _register_eviction(self, fd, key: int, decoder: wire.CellDecoder) -> None:
        """Evict the per-fd decoder when ``fd`` closes or is collected.

        ``_decoders`` is keyed by ``id(fd)`` and CPython recycles ids: a
        decoder left behind by a dead fd would hand its stale residue to
        an unrelated future connection (the same bug class as the PR 1
        ``_gid_cache`` collision).  The identity check in
        ``_evict_decoder`` keeps a late finalizer from evicting a
        successor fd's decoder after an id is reused.
        """
        add_callback = getattr(fd, "add_close_callback", None)
        if add_callback is not None:
            add_callback(lambda: self._evict_decoder(key, decoder))
        try:
            weakref.finalize(fd, self._evict_decoder, key, decoder)
        except TypeError:
            # Not weak-referenceable: close-callback eviction (if any)
            # still applies; bare test doubles keep the old behaviour.
            pass

    # -- native-memory shadow ------------------------------------------------ #

    def shadow_for(self, mem: NativeMemory) -> LabelRuns:
        shadow = self.node.jni.native_shadow.get(mem.address)
        if shadow is None:
            shadow = LabelRuns(mem.size)
            self.node.jni.native_shadow[mem.address] = shadow
        return shadow

    def native_read(self, mem: NativeMemory, position: int, count: int) -> TBytes:
        """Bytes + shadow labels from native memory."""
        shadow = self.node.jni.native_shadow.get(mem.address)
        if shadow is None or not shadow.has_labels():
            # Zero-taint fast path: clean memory yields untainted bytes
            # without slicing an empty shadow.
            return TBytes.raw(mem.read(position, count))
        return TBytes(mem.read(position, count), shadow.slice(position, position + count))

    def native_write(self, mem: NativeMemory, position: int, data: TBytes) -> None:
        """Bytes into native memory, labels into its shadow."""
        mem.write(position, data.data)
        self.shadow_write(mem, position, data)

    def shadow_write(self, mem: NativeMemory, position: int, data: TBytes) -> None:
        """Splice ``data``'s label runs over ``mem``'s shadow — O(runs)."""
        labels = data.labels
        if labels is None or not labels.has_labels():
            # Zero-taint fast path: an untainted write into never-tainted
            # memory must not materialize a shadow via shadow_for; only
            # scrub the range when labelled bytes already live there.
            shadow = self.node.jni.native_shadow.get(mem.address)
            if shadow is not None and shadow.has_labels():
                shadow[position : position + len(data)] = LabelRuns(len(data))
            return
        self.shadow_for(mem)[position : position + len(data)] = labels


# --------------------------------------------------------------------- #
# Type 1: stream oriented
# --------------------------------------------------------------------- #


def make_socket_write0(runtime: DisTARuntime):
    def wrapper(original):
        def socket_write0(fd, data: TBytes) -> None:
            runtime.record_io("send", "socketWrite0", data, channel=fd.send_channel)
            cells = wire.encode_cells(runtime.outgoing(data), runtime.resolver)
            original(fd, TBytes.raw(cells))

        return socket_write0

    return wrapper


def make_socket_read0(runtime: DisTARuntime):
    def wrapper(original):
        def socket_read0(fd, buf: TByteArray, offset: int, length: int, timeout=None) -> int:
            length = min(length, len(buf) - offset)
            if length == 0:
                return 0
            decoder = runtime.decoder_for(fd)
            staging = TByteArray.raw(wire.wire_length(length))
            while True:
                kwargs = {} if timeout is None else {"timeout": timeout}
                count = original(fd, staging, 0, len(staging), **kwargs)
                if count == EOF:
                    decoder.check_clean_eof()
                    return EOF
                # The staging buffer carries no shadow: hand its bytes
                # straight to the decoder.
                decoded = decoder.feed(staging.data[:count], runtime.resolver)
                if decoded:
                    runtime.record_io(
                        "receive", "socketRead0", decoded, channel=fd.receive_channel
                    )
                    buf.write(offset, decoded)
                    return len(decoded)
                # A partial cell arrived; keep blocking until a whole
                # cell (the receiver-side fix for mismatched lengths).

        return socket_read0

    return wrapper


def make_socket_available(runtime: DisTARuntime):
    def wrapper(original):
        def socket_available(fd) -> int:
            decoder = runtime.decoder_for(fd)
            return (original(fd) + decoder.residue_len) // wire.CELL_WIDTH

        return socket_available

    return wrapper


# --------------------------------------------------------------------- #
# Type 2: packet oriented
# --------------------------------------------------------------------- #


def _check_envelope_fits(data_length: int) -> None:
    if wire.envelope_length(data_length) > MAX_DATAGRAM:
        raise WireFormatError(
            f"datagram payload of {data_length} bytes cannot carry its taint "
            f"envelope within {MAX_DATAGRAM} bytes; send smaller datagrams"
        )


def make_datagram_send(runtime: DisTARuntime):
    def wrapper(original):
        def datagram_send(fd, packet: DatagramPacket) -> None:
            runtime.record_io(
                "send",
                "datagram.send",
                packet.payload(),
                channel=("udp", tuple(packet.socket_address())),
            )
            payload = runtime.outgoing(packet.payload())
            _check_envelope_fits(len(payload))
            envelope = wire.encode_packet(
                payload, runtime.resolver
            )
            # A fresh packet: mutating the caller's packet could change
            # application semantics (paper Fig. 7).
            wrapped = DatagramPacket(TBytes.raw(envelope), address=packet.socket_address())
            original(fd, wrapped)

        return datagram_send

    return wrapper


def _decode_incoming_datagram(runtime: DisTARuntime, raw: TBytes) -> TBytes:
    if wire.is_enveloped(raw.data):
        return wire.decode_packet(raw.data, runtime.resolver)
    # Uninstrumented sender: plain payload, no taints to recover.
    return TBytes(raw.data)


def make_datagram_receive0(runtime: DisTARuntime):
    def wrapper(original):
        def datagram_receive0(fd, packet: DatagramPacket, timeout=None) -> None:
            staging = DatagramPacket(TByteArray.raw(MAX_DATAGRAM))
            kwargs = {} if timeout is None else {"timeout": timeout}
            original(fd, staging, **kwargs)
            decoded = _decode_incoming_datagram(runtime, staging.payload())
            runtime.record_io(
                "receive", "datagram.receive0", decoded, channel=("udp", tuple(fd.address))
            )
            packet.fill_from_wire(decoded, staging.address)

        return datagram_receive0

    return wrapper


def make_datagram_peek_data(runtime: DisTARuntime):
    def wrapper(original):
        def datagram_peek_data(fd, packet: DatagramPacket, timeout=None) -> int:
            staging = DatagramPacket(TByteArray.raw(MAX_DATAGRAM))
            kwargs = {} if timeout is None else {"timeout": timeout}
            port = original(fd, staging, **kwargs)
            decoded = _decode_incoming_datagram(runtime, staging.payload())
            packet.fill_from_wire(decoded, staging.address)
            return port

        return datagram_peek_data

    return wrapper


# --------------------------------------------------------------------- #
# Type 3: direct buffer oriented
# --------------------------------------------------------------------- #


def make_direct_put(runtime: DisTARuntime):
    def wrapper(original):
        def direct_put(mem: NativeMemory, position: int, src: TBytes) -> None:
            original(mem, position, src)
            runtime.shadow_write(mem, position, src)

        return direct_put

    return wrapper


def make_direct_get(runtime: DisTARuntime):
    def wrapper(original):
        def direct_get(
            mem: NativeMemory, position: int, dst: TByteArray, dst_offset: int, length: int
        ) -> None:
            original(mem, position, dst, dst_offset, length)
            shadow = runtime.node.jni.native_shadow.get(mem.address)
            if shadow is None:
                return
            piece = shadow[position : position + length]
            if not piece.has_labels() and dst.labels is None:
                # Zero-taint fast path: nothing to transfer, nothing to
                # scrub — keep the destination's shadow unmaterialized.
                return
            dst._ensure_labels()[dst_offset : dst_offset + length] = piece

        return direct_get

    return wrapper


def make_disp_write0(runtime: DisTARuntime):
    def wrapper(original):
        def disp_write0(fd, mem, position, count, blocking=True, timeout=None) -> int:
            runtime.node.jni.calls.hit("FileDispatcherImpl#write0")
            data = runtime.outgoing(runtime.native_read(mem, position, count))
            runtime.record_io(
                "send", "dispatcher.write0", data, channel=fd.send_channel
            )
            cells = wire.encode_cells(data, runtime.resolver)
            # The simulated kernel's buffers are sized so a full cell
            # write completes; see DESIGN.md (blocking simplification).
            fd.send_all(cells)
            return count

        return disp_write0

    return wrapper


def make_disp_read0(runtime: DisTARuntime):
    def wrapper(original):
        def disp_read0(fd, mem, position, count, blocking=True, timeout=None) -> int:
            runtime.node.jni.calls.hit("FileDispatcherImpl#read0")
            decoder = runtime.decoder_for(fd)
            budget = wire.wire_length(count)
            while True:
                if blocking:
                    kwargs = {} if timeout is None else {"timeout": timeout}
                    raw = fd.recv(budget, **kwargs)
                    if not raw:
                        decoder.check_clean_eof()
                        return EOF
                else:
                    raw = fd.recv_nonblocking(budget)
                    if raw is None:
                        # Nothing ready (possibly mid-cell); the selector
                        # will re-arm when more wire bytes arrive.
                        return UNAVAILABLE
                    if raw == b"":
                        decoder.check_clean_eof()
                        return EOF
                decoded = decoder.feed(raw, runtime.resolver)
                if decoded:
                    runtime.record_io(
                        "receive",
                        "dispatcher.read0",
                        decoded,
                        channel=fd.receive_channel,
                    )
                    runtime.native_write(mem, position, decoded)
                    return len(decoded)
                if not blocking and not decoder.residue_len:
                    return UNAVAILABLE

        return disp_read0

    return wrapper


def make_dgram_disp_write0(runtime: DisTARuntime):
    def wrapper(original):
        def dgram_disp_write0(fd, mem, position, count, destination) -> int:
            runtime.node.jni.calls.hit("DatagramDispatcherImpl#write0")
            data = runtime.outgoing(runtime.native_read(mem, position, count))
            runtime.record_io(
                "send", "dgram_dispatcher.write0", data,
                channel=("udp", tuple(destination)),
            )
            _check_envelope_fits(count)
            fd.sendto(wire.encode_packet(data, runtime.resolver), destination)
            return count

        return dgram_disp_write0

    return wrapper


def make_dgram_disp_read0(runtime: DisTARuntime):
    def wrapper(original):
        def dgram_disp_read0(fd, mem, position, count, blocking=True, timeout=None) -> int:
            runtime.node.jni.calls.hit("DatagramDispatcherImpl#read0")
            from repro.errors import SimTimeout

            try:
                raw, _source = fd.recvfrom(
                    (timeout if timeout is not None else 30.0) if blocking else 0.001
                )
            except SimTimeout:
                if blocking:
                    raise
                return UNAVAILABLE
            decoded = _decode_incoming_datagram(runtime, TBytes(raw))[:count]
            runtime.record_io(
                "receive", "dgram_dispatcher.read0", decoded,
                channel=("udp", tuple(fd.address)),
            )
            runtime.native_write(mem, position, decoded)
            return len(decoded)

        return dgram_disp_read0

    return wrapper


def make_dgram_channel_send0(runtime: DisTARuntime):
    def wrapper(original):
        def dgram_channel_send0(fd, mem, position, count, destination) -> int:
            runtime.node.jni.calls.hit("DatagramChannelImpl#send0")
            data = runtime.outgoing(runtime.native_read(mem, position, count))
            runtime.record_io(
                "send", "dgram_channel.send0", data,
                channel=("udp", tuple(destination)),
            )
            _check_envelope_fits(count)
            fd.sendto(wire.encode_packet(data, runtime.resolver), destination)
            return count

        return dgram_channel_send0

    return wrapper


def make_dgram_channel_receive0(runtime: DisTARuntime):
    def wrapper(original):
        def dgram_channel_receive0(
            fd, mem, position, count, blocking=True, timeout=None
        ) -> tuple[int, Optional[tuple]]:
            runtime.node.jni.calls.hit("DatagramChannelImpl#receive0")
            from repro.errors import SimTimeout

            try:
                raw, source = fd.recvfrom(
                    (timeout if timeout is not None else 30.0) if blocking else 0.001
                )
            except SimTimeout:
                if blocking:
                    raise
                return UNAVAILABLE, None
            decoded = _decode_incoming_datagram(runtime, TBytes(raw))[:count]
            runtime.record_io(
                "receive", "dgram_channel.receive0", decoded,
                channel=("udp", tuple(fd.address)),
            )
            runtime.native_write(mem, position, decoded)
            return len(decoded), source

        return dgram_channel_receive0

    return wrapper
