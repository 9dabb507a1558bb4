"""Unit tests for the three JNI wrapper types (paper §III-C).

The e2e suite exercises the wrappers through the full JRE stack; these
tests pin down wrapper-level behaviour directly: partial reads at cell
boundaries, the packet-envelope interop fallback, native-memory shadow
bookkeeping, and error paths.
"""

import sys
import threading
from types import SimpleNamespace

import pytest

from repro.core import wire
from repro.errors import WireFormatError
from repro.jre import ByteBuffer, DatagramPacket, DatagramSocket, ServerSocket, Socket
from repro.jre.buffer import NativeMemory
from repro.jre.jni import EOF
from repro.runtime.cluster import Cluster
from repro.runtime.modes import Mode
from repro.runtime.pipes import BytePipe
from repro.taint.values import TByteArray, TBytes


@pytest.fixture()
def dista_pair():
    cluster = Cluster(Mode.DISTA)
    n1 = cluster.add_node("n1")
    n2 = cluster.add_node("n2")
    with cluster:
        yield cluster, n1, n2


def _connect(n1, n2, port=9500):
    server = ServerSocket(n2, port)
    client = Socket.connect(n1, (n2.ip, port))
    return server.accept(), client, server


class TestType1StreamWrappers:
    def test_read_with_tiny_kernel_segments(self):
        """Force the kernel to deliver 1-3 bytes at a time: the per-fd
        cell decoder must reassemble across partial cells."""
        cluster = Cluster(Mode.DISTA, name="tiny-segments")
        cluster.kernel._pipe_capacity = 1 << 16
        n1 = cluster.add_node("n1")
        n2 = cluster.add_node("n2")
        with cluster:
            server = ServerSocket(n2, 9501)
            client = Socket.connect(n1, (n2.ip, 9501))
            conn = server.accept()
            # Throttle the receiving pipe to 3-byte segments (not a
            # multiple of the 5-byte cell width).
            conn._endpoint._rx._max_segment = 3
            taint = n1.tree.taint_for_tag("frag")
            client.get_output_stream().write(TBytes.tainted(b"fragmented-data", taint))
            received = conn.get_input_stream().read_fully(15)
            assert received == b"fragmented-data"
            assert {t.tag for t in received.overall_taint().tags} == {"frag"}

    def test_available_reports_data_bytes_not_wire_bytes(self, dista_pair):
        cluster, n1, n2 = dista_pair
        conn, client, _ = _connect(n1, n2)
        client.get_output_stream().write(TBytes(b"12345678"))
        ins = conn.get_input_stream()
        ins.read_fully(3)
        assert ins.available() == 5

    def test_eof_mid_cell_raises_wire_format_error(self, dista_pair):
        """A truncated cell at EOF is a protocol violation, not silent
        data loss."""
        cluster, n1, n2 = dista_pair
        conn, client, _ = _connect(n1, n2, 9502)
        # Bypass the instrumented write: push a partial cell raw.
        client._endpoint.send_all(b"\x41\x00\x00")  # 3 of 5 cell bytes
        client._endpoint.shutdown_output()
        buf = TByteArray(8)
        with pytest.raises(WireFormatError, match="residual"):
            n2.jni.socket_read0(conn._endpoint, buf, 0, 8)

    def test_clean_eof_returns_minus_one(self, dista_pair):
        cluster, n1, n2 = dista_pair
        conn, client, _ = _connect(n1, n2, 9503)
        client.get_output_stream().write(TBytes(b"ok"))
        client.shutdown_output()
        buf = TByteArray(8)
        assert n2.jni.socket_read0(conn._endpoint, buf, 0, 8) == 2
        assert n2.jni.socket_read0(conn._endpoint, buf, 0, 8) == EOF

    @pytest.mark.parametrize("mode", [Mode.ORIGINAL, Mode.DISTA])
    def test_zero_length_read_returns_zero_not_eof(self, mode):
        """``SocketInputStream.read(b, off, 0)`` returns 0 while data is
        pending; it neither touches the socket nor reports EOF."""
        cluster = Cluster(mode)
        n1 = cluster.add_node("n1")
        n2 = cluster.add_node("n2")
        with cluster:
            conn, client, _ = _connect(n1, n2, 9505)
            client.get_output_stream().write(TBytes(b"ok"))
            buf = TByteArray(8)
            assert n2.jni.socket_read0(conn._endpoint, buf, 0, 0) == 0
            assert n2.jni.socket_read0(conn._endpoint, buf, 8, 4) == 0
            assert n2.jni.socket_read0(conn._endpoint, buf, 0, 8) == 2
            assert bytes(buf.data[:2]) == b"ok"

    def test_write_counts_both_jni_hits(self, dista_pair):
        """The wrapper calls the *original* method (Fig. 6), so the
        unpatched counter still increments."""
        cluster, n1, n2 = dista_pair
        conn, client, _ = _connect(n1, n2, 9504)
        before = n1.jni.calls.count("SocketOutputStream#socketWrite0")
        client.get_output_stream().write(TBytes(b"x"))
        assert n1.jni.calls.count("SocketOutputStream#socketWrite0") == before + 1


class TestType2PacketWrappers:
    def test_sender_packet_not_mutated(self, dista_pair):
        """Fig. 7: the wrapper wraps a *fresh* packet; the application's
        packet object keeps its original payload."""
        cluster, n1, n2 = dista_pair
        a = DatagramSocket(n1, 5600)
        b = DatagramSocket(n2, 5600)
        taint = n1.tree.taint_for_tag("u")
        packet = DatagramPacket(TBytes.tainted(b"app-payload", taint), address=(n2.ip, 5600))
        a.send(packet)
        assert packet.payload() == b"app-payload"  # unchanged
        incoming = DatagramPacket(64)
        b.receive(incoming)
        assert incoming.payload() == b"app-payload"

    def test_uninstrumented_sender_interop(self, dista_pair):
        """A plain (non-enveloped) datagram from outside the instrumented
        world is delivered as untainted data, not an error."""
        cluster, n1, n2 = dista_pair
        b = DatagramSocket(n2, 5601)
        raw = n1.kernel.udp_bind(n1.ip, 5601)
        raw.sendto(b"legacy-datagram", (n2.ip, 5601))
        incoming = DatagramPacket(64)
        b.receive(incoming)
        assert incoming.payload() == b"legacy-datagram"
        assert incoming.payload().overall_taint() is None

    def test_oversized_payload_rejected_with_clear_error(self, dista_pair):
        cluster, n1, n2 = dista_pair
        a = DatagramSocket(n1, 5602)
        DatagramSocket(n2, 5602)
        big = DatagramPacket(TBytes(b"x" * 20000), address=(n2.ip, 5602))
        with pytest.raises(WireFormatError, match="envelope"):
            a.send(big)

    def test_peek_then_receive_consistent(self, dista_pair):
        cluster, n1, n2 = dista_pair
        a = DatagramSocket(n1, 5603)
        b = DatagramSocket(n2, 5603)
        taint = n1.tree.taint_for_tag("peeked")
        a.send(DatagramPacket(TBytes.tainted(b"dgram", taint), address=(n2.ip, 5603)))
        peeked = DatagramPacket(64)
        b.peek(peeked)
        assert peeked.payload() == b"dgram"
        assert {t.tag for t in peeked.payload().overall_taint().tags} == {"peeked"}
        received = DatagramPacket(64)
        b.receive(received)
        assert received.payload() == b"dgram"


class TestType3DirectBufferWrappers:
    def test_put_populates_native_shadow(self, dista_pair):
        cluster, n1, n2 = dista_pair
        taint = n1.tree.taint_for_tag("native")
        buf = ByteBuffer.allocate_direct(8, n1.jni)
        buf.put(TBytes.tainted(b"abc", taint))
        shadow = n1.jni.native_shadow[buf.native.address]
        assert shadow[0] is taint and shadow[2] is taint
        assert shadow[3] is None

    def test_get_recovers_labels_from_shadow(self, dista_pair):
        cluster, n1, n2 = dista_pair
        taint = n1.tree.taint_for_tag("roundtrip")
        buf = ByteBuffer.allocate_direct(8, n1.jni)
        buf.put(TBytes.tainted(b"xyz", taint))
        buf.flip()
        out = buf.get(3)
        assert out.overall_taint() is taint

    def test_overwrite_updates_shadow(self, dista_pair):
        cluster, n1, n2 = dista_pair
        taint = n1.tree.taint_for_tag("old")
        buf = ByteBuffer.allocate_direct(4, n1.jni)
        buf.put(TBytes.tainted(b"ab", taint))
        buf.rewind()
        buf.put(TBytes(b"cd"))  # untainted overwrite
        buf.flip()
        assert buf.get(2).overall_taint() is None

    def test_uninstrumented_node_has_no_shadow(self):
        cluster = Cluster(Mode.PHOSPHOR)
        node = cluster.add_node("n")
        with cluster:
            taint = node.tree.taint_for_tag("t")
            buf = ByteBuffer.allocate_direct(4, node.jni)
            buf.put(TBytes.tainted(b"ab", taint))
            assert node.jni.native_shadow == {}


class TestRuntimeHelpers:
    def test_decoder_is_per_fd(self, dista_pair):
        from repro.core.wrappers import DisTARuntime

        cluster, n1, n2 = dista_pair
        runtime = DisTARuntime(n1, n1.taintmap)
        fd_a, fd_b = object(), object()
        assert runtime.decoder_for(fd_a) is runtime.decoder_for(fd_a)
        assert runtime.decoder_for(fd_a) is not runtime.decoder_for(fd_b)

    def test_native_read_write_roundtrip(self, dista_pair):
        from repro.core.wrappers import DisTARuntime

        cluster, n1, n2 = dista_pair
        runtime = DisTARuntime(n1, n1.taintmap)
        mem = NativeMemory(16)
        taint = n1.tree.taint_for_tag("nm")
        runtime.native_write(mem, 4, TBytes.tainted(b"data", taint))
        out = runtime.native_read(mem, 4, 4)
        assert out == b"data"
        assert out.overall_taint() is taint
        assert runtime.native_read(mem, 0, 4).overall_taint() is None

    def test_outgoing_granularity_modes(self, dista_pair):
        from repro.core.wrappers import DisTARuntime

        cluster, n1, n2 = dista_pair
        taint = n1.tree.taint_for_tag("g")
        half = TBytes.tainted(b"T", taint) + TBytes(b".")
        precise = DisTARuntime(n1, n1.taintmap, byte_granularity=True)
        coarse = DisTARuntime(n1, n1.taintmap, byte_granularity=False)
        assert precise.outgoing(half).label_at(1) is None
        assert coarse.outgoing(half).label_at(1) is taint


#: The five crossing families ``record_io`` feeds.
_CROSSING_FAMILIES = (
    "dista_jni_calls_total",
    "dista_jni_bytes_total",
    "dista_jni_tainted_bytes_total",
    "dista_crossings_total",
    "dista_fastpath_total",
)

#: Per method of the scripted exchange: (calls, bytes, tainted bytes,
#: fast-path crossings, slow-path crossings).  These are the values the
#: per-crossing counter children emitted before the rows were folded at
#: scrape time; the fold must reproduce them exactly.
_EXCHANGE_ROWS = {
    "send": {
        "socketWrite0": (3, 20, 8, 1, 2),
        "datagram.send": (1, 5, 5, 0, 1),
        "dispatcher.write0": (1, 4, 4, 0, 1),
    },
    "receive": {
        "socketRead0": (3, 20, 8, 1, 2),
        "datagram.receive0": (1, 5, 5, 0, 1),
        "dispatcher.read0": (1, 4, 4, 0, 1),
    },
}


def _crossing_series(node) -> dict:
    """family -> {sorted label items (minus ``node``): value}."""
    snapshot = node.metrics.snapshot()
    return {
        name: {
            tuple(sorted((k, v) for k, v in s["labels"].items() if k != "node")): s["value"]
            for s in snapshot[name]["samples"]
        }
        for name in _CROSSING_FAMILIES
    }


def _expected_series(direction: str, crossings: int) -> dict:
    out: dict = {name: {} for name in _CROSSING_FAMILIES}
    for method, (calls, size, tainted, fast, slow) in _EXCHANGE_ROWS[direction].items():
        io = (("direction", direction), ("method", method))
        out["dista_jni_calls_total"][io] = calls
        out["dista_jni_bytes_total"][io] = size
        out["dista_jni_tainted_bytes_total"][io] = tainted
        out["dista_fastpath_total"][(("path", "fast"), ("site", method))] = fast
        out["dista_fastpath_total"][(("path", "slow"), ("site", method))] = slow
    out["dista_crossings_total"][(("direction", direction),)] = crossings
    return out


class TestCrossingTelemetry:
    def test_scripted_exchange_pins_every_crossing_family(self, dista_pair):
        """Tainted, untainted and mixed stream writes, one datagram and
        one Type-3 dispatcher write/read: every series of the five
        crossing families, per label set, on both nodes."""
        cluster, n1, n2 = dista_pair
        for node in (n1, n2):
            # Each family exists, empty, before the first crossing.
            assert _crossing_series(node) == {name: {} for name in _CROSSING_FAMILIES}
        conn, client, _ = _connect(n1, n2, 9510)
        taint = n1.tree.taint_for_tag("secret")
        out = client.get_output_stream()

        def drain(count):
            buf = TByteArray(count)
            got = 0
            while got < count:
                got += n2.jni.socket_read0(conn._endpoint, buf, got, count - got)

        out.write(TBytes.tainted(b"secret", taint))
        drain(6)
        out.write(TBytes(b"plain-text"))
        drain(10)
        out.write(TBytes(b"ab") + TBytes.tainted(b"cd", taint))
        drain(4)
        a = DatagramSocket(n1, 5700)
        b = DatagramSocket(n2, 5700)
        a.send(DatagramPacket(TBytes.tainted(b"dgram", taint), address=(n2.ip, 5700)))
        b.receive(DatagramPacket(64))
        src = ByteBuffer.allocate_direct(8, n1.jni)
        src.put(TBytes.tainted(b"nio!", taint))
        n1.jni.disp_write0(client._endpoint, src.native, 0, 4)
        dst = ByteBuffer.allocate_direct(8, n2.jni)
        assert n2.jni.disp_read0(conn._endpoint, dst.native, 0, 4) == 4

        assert _crossing_series(n1) == _expected_series("send", 4)
        assert _crossing_series(n2) == _expected_series("receive", 4)

    def test_concurrent_crossings_and_scrapes(self, dista_pair):
        """Wrapper threads keep adding ``record_io`` rows while a scraper
        folds them: with a tiny switch interval and more threads than
        cores, every bump lands and no scrape fails."""
        from repro.core.wrappers import DisTARuntime
        from repro.obs.registry import MetricsRegistry, snapshot_total

        cluster, n1, n2 = dista_pair
        registry = MetricsRegistry()
        runtime = DisTARuntime(SimpleNamespace(name="race", metrics=registry), n1.taintmap)
        tainted = TBytes.tainted(b"abc", n1.tree.taint_for_tag("race"))
        workers_n, calls = 8, 6000
        done = threading.Event()
        scrape_errors: list = []

        def worker(index):
            data = tainted if index % 2 else TBytes(b"xyz")
            for n in range(calls):
                # Every call opens a fresh (method, direction) row.
                runtime.record_io("send", f"m{index}.{n}", data)

        def scraper():
            while not done.is_set():
                try:
                    registry.snapshot()
                except Exception as exc:  # noqa: BLE001 - reported below
                    scrape_errors.append(exc)
                    return

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        watcher = threading.Thread(target=scraper, daemon=True)
        workers = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(workers_n)
        ]
        try:
            watcher.start()
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
        finally:
            done.set()
            watcher.join(timeout=60)
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in workers + [watcher])
        assert scrape_errors == []
        snap = registry.snapshot()
        total = workers_n * calls
        assert snapshot_total(snap, "dista_jni_calls_total") == total
        assert snapshot_total(snap, "dista_jni_bytes_total") == 3 * total
        assert snapshot_total(snap, "dista_crossings_total") == total / 2
        assert snapshot_total(snap, "dista_fastpath_total", {"path": "slow"}) == total / 2
