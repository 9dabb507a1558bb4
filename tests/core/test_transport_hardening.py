"""Regression tests for the transport-hardening fixes (ISSUE 5):
16-bit batch-count overflow (protocol chunking + mid-insertion size
flush), shutdown with an in-flight flush, per-request deadlines on a
stalled shard, fresh broken-connection errors, correlation-id wrap,
backpressure policies, the timer-free group-commit flush policy, and
the non-blocking send path with its executor fallback.
"""

import asyncio
import itertools
import struct
import threading
import time

import pytest

from repro.core.aio_transport import (
    AsyncTaintMapClient,
    _MuxConnection,
    _REGISTER,
    mux_frame,
)
from repro.core.taintmap import (
    OP_REGISTER,
    PROTOCOL_MAX_BATCH,
    STATUS_OK,
    TaintMapClient,
    TaintMapServer,
    _pack_batch_lookup,
    _pack_batch_register,
    _protocol_chunks,
    _recv_exact,
    serialize_tags,
)
from repro.errors import (
    TaintMapBackpressureError,
    TaintMapDeadlineError,
    TaintMapError,
    TaintMapTransportError,
)
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode


def _node(kernel, fs, name="n", ip="10.0.0.1", pid=1):
    return SimNode(name, kernel.register_node(ip), pid, kernel, fs, Mode.DISTA)


@pytest.fixture()
def single():
    kernel = SimKernel("hardening-test")
    kernel.register_node(TAINT_MAP_IP)
    fs = SimFileSystem()
    server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT)
    server.start()
    node = _node(kernel, fs)
    yield kernel, fs, server, node
    server.stop()


def _wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestProtocolBatchLimit:
    """The batch payloads wire-encode their entry count as ``>H``;
    pre-fix, a >65535-entry batch crashed with an opaque struct.error
    deep in ``_pack_batch_register``."""

    def test_pack_guards_reject_oversized_batches(self):
        with pytest.raises(TaintMapError, match="65535"):
            _pack_batch_register([b"x"] * (PROTOCOL_MAX_BATCH + 1))
        with pytest.raises(TaintMapError, match="65535"):
            _pack_batch_lookup(list(range(PROTOCOL_MAX_BATCH + 1)))

    def test_protocol_chunks_split_at_the_wire_limit(self):
        items = list(range(PROTOCOL_MAX_BATCH + 2))
        chunks = _protocol_chunks(items)
        assert [len(chunk) for chunk in chunks] == [PROTOCOL_MAX_BATCH, 2]
        assert [len(c) for c in _protocol_chunks(items[:10])] == [10]

    def test_async_max_batch_clamped_to_protocol_limit(self, single):
        _, _, server, node = single
        client = AsyncTaintMapClient(
            node, server.address, max_batch=10 * PROTOCOL_MAX_BATCH
        )
        assert client.transport.max_batch == PROTOCOL_MAX_BATCH
        client.close()

    def test_oversized_batch_round_trips_on_both_transports(self, single):
        """A single >65535-run message registers and resolves on both
        transports (multiple byte-identical frames on the wire)."""
        _, _, server, node = single
        count = PROTOCOL_MAX_BATCH + 17
        taints = [node.tree.taint_for_tag(f"ovr{i}") for i in range(count)]

        pooled = TaintMapClient(node, server.address, cache_enabled=False)
        # max_batch above the wire limit: the window itself must chunk.
        aio = AsyncTaintMapClient(
            node,
            server.address,
            cache_enabled=False,
            max_batch=10 * PROTOCOL_MAX_BATCH,
        )
        try:
            pooled_gids = pooled.gids_for(taints)
            assert len(pooled_gids) == count
            assert len(set(pooled_gids)) == count
            assert all(gid > 0 for gid in pooled_gids)

            # Registration is idempotent: the async client sees the
            # same map, so the same taints yield the same GIDs.
            async_gids = aio.gids_for(taints)
            assert async_gids == pooled_gids

            resolved = aio.taints_for(async_gids)
            assert len(resolved) == count
            for index in (0, 511, PROTOCOL_MAX_BATCH - 1, PROTOCOL_MAX_BATCH, count - 1):
                assert resolved[index].tags == taints[index].tags
        finally:
            pooled.close()
            aio.close()


class TestShutdownWithInflightFlush:
    def test_close_fails_inflight_flush_instead_of_hanging(self):
        """Pre-fix, ``close()`` failed only futures still *in windows*;
        entries already handed to an in-flight ``_flush`` were never
        failed and the sync submitter blocked forever."""
        kernel = SimKernel("close-test")
        kernel.register_node(TAINT_MAP_IP)
        fs = SimFileSystem()
        # Slow shard: the flush is guaranteed in flight when we close.
        server = TaintMapServer(
            kernel, TAINT_MAP_IP, TAINT_MAP_PORT, service_time=0.6
        )
        server.start()
        node = _node(kernel, fs)
        client = AsyncTaintMapClient(
            node, server.address, coalesce_window_us=0.0
        )
        errors = []

        def register():
            try:
                client.gid_for(node.tree.taint_for_tag("hang"))
            except Exception as exc:  # noqa: BLE001 - recorded for asserts
                errors.append(exc)

        thread = threading.Thread(target=register, daemon=True)
        thread.start()
        assert _wait_until(
            lambda: client.transport._inflight_flushes
            or client.transport._pending_counts[0] > 0
        )
        started = time.monotonic()
        client.close()
        assert time.monotonic() - started < 8.0
        thread.join(timeout=8)
        assert not thread.is_alive(), "submitter still blocked after close()"
        assert errors and isinstance(errors[0], TaintMapError)
        # The per-shard lists survive close(): a straggling in-flight
        # flush draining afterwards must not die with IndexError.
        client.transport._drain(0, 0)
        client.close()  # idempotent
        server.stop()

    def test_close_during_dial_leaves_no_open_connection(self, monkeypatch):
        """A flush whose dial completes after ``close()`` must close the
        fresh endpoint instead of sending on it: shutdown could not see
        that connection, so it would otherwise stay open and hold
        ``close()`` until the shard answered."""
        kernel = SimKernel("dial-close-test")
        kernel.register_node(TAINT_MAP_IP)
        server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT, service_time=3.0)
        server.start()
        node = _node(kernel, SimFileSystem())
        client = AsyncTaintMapClient(node, server.address)
        dial = client.transport._connect
        dialing = threading.Event()
        endpoints = []

        def slow_dial(address):
            dialing.set()
            time.sleep(0.3)
            endpoints.append(dial(address))
            return endpoints[-1]

        monkeypatch.setattr(client.transport, "_connect", slow_dial)
        errors = []

        def register():
            try:
                client.gid_for(node.tree.taint_for_tag("dialing"))
            except Exception as exc:  # noqa: BLE001 - recorded for asserts
                errors.append(exc)

        thread = threading.Thread(target=register, daemon=True)
        thread.start()
        assert dialing.wait(5)
        started = time.monotonic()
        client.close()
        assert time.monotonic() - started < 2.0
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert errors and isinstance(errors[0], TaintMapError)
        assert endpoints and endpoints[0].closed
        server.stop()


class TestRequestDeadline:
    def test_deadline_expires_on_stalled_shard(self, single):
        """A shard that accepts the upgrade but never answers fails the
        request with a timeout error instead of wedging the caller."""
        kernel, _, server, node = single
        server.stop()
        listener = kernel.listen(TAINT_MAP_IP, TAINT_MAP_PORT)

        def stalled_server():
            try:
                endpoint = listener.accept(timeout=10)
                _recv_exact(endpoint, 5)  # hello frame
                endpoint.send_all(bytes([STATUS_OK]) + struct.pack(">I", 0))
                while endpoint.recv(1024):  # swallow frames, never answer
                    pass
            except Exception:
                pass

        thread = threading.Thread(target=stalled_server, daemon=True)
        thread.start()
        client = AsyncTaintMapClient(
            node, (TAINT_MAP_IP, TAINT_MAP_PORT), request_deadline_s=0.3
        )
        started = time.monotonic()
        with pytest.raises(TaintMapDeadlineError, match="deadline"):
            client.gid_for(node.tree.taint_for_tag("stalled"))
        elapsed = time.monotonic() - started
        assert 0.2 < elapsed < 5.0
        # Deadline errors are timeouts, not transport errors: they must
        # not trigger replica failover.
        assert issubclass(TaintMapDeadlineError, TimeoutError)
        client.close()
        listener.close()

    def test_deadline_disabled_with_nonpositive_value(self, single):
        _, _, server, node = single
        client = AsyncTaintMapClient(node, server.address, request_deadline_s=0)
        assert client.transport.request_deadline_s is None
        assert client.gid_for(node.tree.taint_for_tag("nodl")) > 0
        client.close()


class TestBrokenConnectionErrors:
    def test_fresh_transport_error_per_raise(self, single):
        """Pre-fix, a broken connection re-raised one cached exception
        instance across unrelated callers."""
        _, _, server, node = single
        client = AsyncTaintMapClient(node, server.address)
        assert client.gid_for(node.tree.taint_for_tag("pre")) > 0
        connection = client.transport._channels[0]._connection
        connection._endpoint.close()
        assert _wait_until(lambda: connection.broken)

        loop = client.transport.loop
        raised = []
        for _ in range(2):
            future = asyncio.run_coroutine_threadsafe(
                connection.request(OP_REGISTER, b""), loop
            )
            raised.append(future.exception(timeout=5))
        first, second = raised
        assert isinstance(first, TaintMapTransportError)
        assert isinstance(second, TaintMapTransportError)
        assert first is not second  # fresh instance per raise
        # Failover catches ConnectionError; semantic handling catches
        # TaintMapError — the wrapper is both.
        assert isinstance(first, ConnectionError)
        assert isinstance(first, TaintMapError)
        assert first.__cause__ is connection._broken
        client.close()


class TestCorrelationIdWrap:
    def test_requests_survive_corr_counter_wrap(self, single):
        """The unbounded corr counter must wrap at 32 bits instead of
        overflowing the ``>I`` wire field."""
        _, _, server, node = single
        client = AsyncTaintMapClient(node, server.address)
        gids = [client.gid_for(node.tree.taint_for_tag("wrap0"))]
        connection = client.transport._channels[0]._connection
        # Jump the counter to the edge of the 4-byte field; the next
        # requests use corr ids 2**32-2, 2**32-1, 0, 1 on the wire.
        connection._corr = itertools.count(2**32 - 2)
        gids += [
            client.gid_for(node.tree.taint_for_tag(f"wrap{i}")) for i in range(1, 5)
        ]
        assert len(set(gids)) == 5
        assert all(gid > 0 for gid in gids)
        client.close()

    def test_wrapped_corr_id_skips_still_pending_ids(self, single):
        """A wrapped id that collides with a still-pending request must
        be skipped at allocation — overwriting the pending future would
        leave its caller hanging until the deadline."""
        _, _, server, node = single
        client = AsyncTaintMapClient(node, server.address)
        assert client.gid_for(node.tree.taint_for_tag("collide0")) > 0
        transport = client.transport
        connection = transport._channels[0]._connection

        planted = threading.Event()

        def plant():
            connection._pending[1] = transport.loop.create_future()
            planted.set()

        transport.loop.call_soon_threadsafe(plant)
        assert planted.wait(5)
        # The next allocation computes (2**32 + 1) & 0xFFFFFFFF == 1 —
        # exactly the planted in-flight id.
        connection._corr = itertools.count(2**32 + 1)
        assert client.gid_for(node.tree.taint_for_tag("collide1")) > 0
        assert 1 in connection._pending, "pending future was overwritten"
        assert not connection._pending[1].done()
        client.close()


class TestBackpressure:
    def _dispatch_register(self, client, node, tag):
        transport = client.transport
        loop = transport._ensure_loop()
        payload = serialize_tags(node.tree.taint_for_tag(tag).tags)
        return asyncio.run_coroutine_threadsafe(
            transport._dispatch(0, OP_REGISTER, payload), loop
        )

    def test_shed_policy_rejects_past_high_water_mark(self, single):
        _, _, server, node = single
        client = AsyncTaintMapClient(
            node,
            server.address,
            coalesce_window_us=10_000_000,  # park entries: no timer flush
            max_pending=4,
            backpressure="shed",
        )
        transport = client.transport
        futures = [
            self._dispatch_register(client, node, f"shed{i}") for i in range(4)
        ]
        assert _wait_until(lambda: transport._pending_counts[0] == 4)
        overflow = self._dispatch_register(client, node, "shed-overflow")
        exc = overflow.exception(timeout=5)
        assert isinstance(exc, TaintMapBackpressureError)
        assert isinstance(exc, TaintMapError)
        # Draining the window readmits new work.
        transport.loop.call_soon_threadsafe(
            transport._flush_now, 0, _REGISTER, "size"
        )
        gids = {struct.unpack(">I", f.result(timeout=5))[0] for f in futures}
        assert len(gids) == 4
        assert _wait_until(lambda: transport._pending_counts[0] == 0)
        retry = self._dispatch_register(client, node, "shed-retry")
        assert _wait_until(lambda: transport._pending_counts[0] == 1)
        transport.loop.call_soon_threadsafe(
            transport._flush_now, 0, _REGISTER, "size"
        )
        assert struct.unpack(">I", retry.result(timeout=5))[0] > 0
        client.close()

    def test_block_policy_flushes_and_waits_for_drain(self, single):
        _, _, server, node = single
        client = AsyncTaintMapClient(
            node,
            server.address,
            coalesce_window_us=10_000_000,
            max_pending=2,
            backpressure="block",
        )
        transport = client.transport
        first = self._dispatch_register(client, node, "blk0")
        second = self._dispatch_register(client, node, "blk1")
        assert _wait_until(lambda: transport._pending_counts[0] == 2)
        # The third blocks at the mark — and must flush the parked
        # window itself (nothing else would drain it) before waiting.
        third = self._dispatch_register(client, node, "blk2")
        assert struct.unpack(">I", first.result(timeout=5))[0] > 0
        assert struct.unpack(">I", second.result(timeout=5))[0] > 0
        # The third was admitted after the drain and now parks alone.
        assert _wait_until(lambda: transport._pending_counts[0] == 1)
        assert not third.done()
        transport.loop.call_soon_threadsafe(
            transport._flush_now, 0, _REGISTER, "size"
        )
        assert struct.unpack(">I", third.result(timeout=5))[0] > 0
        client.close()


class TestTimerFreeCoalescing:
    def test_sequential_default_path_arms_no_timer(self, single, monkeypatch):
        """Idle traffic flushes on the next loop turn: no loop timer, so
        no millisecond-rounded selector wait per request.  A pinned
        window still arms its static timer (the spy's control)."""
        _, _, server, node = single
        armed = []

        def spy_on(transport):
            loop = transport._ensure_loop()
            real_call_later = loop.call_later

            def call_later(delay, *args, **kwargs):
                armed.append(delay)
                return real_call_later(delay, *args, **kwargs)

            monkeypatch.setattr(loop, "call_later", call_later)

        client = AsyncTaintMapClient(node, server.address, cache_enabled=False)
        spy_on(client.transport)
        for i in range(8):
            gid = client.gid_for(node.tree.taint_for_tag(f"seq{i}"))
            assert {t.tag for t in client.taint_for(gid).tags} == {f"seq{i}"}
        assert armed == []
        assert client.requests_sent == 16
        client.close()

        pinned = AsyncTaintMapClient(
            node, server.address, cache_enabled=False, coalesce_window_us=0.0
        )
        spy_on(pinned.transport)
        pinned.gid_for(node.tree.taint_for_tag("pinned"))
        assert armed == [0.0]
        pinned.close()

    def test_arrivals_during_held_flush_chain_into_one_flush(self):
        """Callers arriving while a flush is held in flight wait in the
        window and go out together when it completes."""
        kernel = SimKernel("chain-test")
        kernel.register_node(TAINT_MAP_IP)
        server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT, service_time=0.5)
        server.start()
        node = _node(kernel, SimFileSystem())
        client = AsyncTaintMapClient(node, server.address, cache_enabled=False)
        transport = client.transport
        workers = 12
        gids = [None] * (workers + 1)

        def register(i):
            gids[i] = client.gid_for(node.tree.taint_for_tag(f"chain{i}"))

        threads = [threading.Thread(target=register, args=(0,), daemon=True)]
        threads[0].start()
        assert _wait_until(lambda: transport._inflight_flushes)
        for i in range(1, workers + 1):
            threads.append(threading.Thread(target=register, args=(i,), daemon=True))
            threads[-1].start()
        assert _wait_until(lambda: transport._pending_counts[0] == workers + 1)
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(set(gids)) == workers + 1 and all(gid > 0 for gid in gids)
        # The held flush plus one chained flush for every arrival.
        assert client.requests_sent <= 2
        assert server.stats.register_entries == workers + 1
        client.close()
        server.stop()

    def test_close_fails_held_chained_window_promptly(self):
        """``close()`` fails both the held in-flight flush and the
        window chained behind it, long before the shard would answer."""
        kernel = SimKernel("chain-close-test")
        kernel.register_node(TAINT_MAP_IP)
        server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT, service_time=3.0)
        server.start()
        node = _node(kernel, SimFileSystem())
        client = AsyncTaintMapClient(node, server.address, cache_enabled=False)
        transport = client.transport
        errors = []

        def register(i):
            try:
                client.gid_for(node.tree.taint_for_tag(f"held{i}"))
            except Exception as exc:  # noqa: BLE001 - recorded for asserts
                errors.append(exc)

        threads = [threading.Thread(target=register, args=(0,), daemon=True)]
        threads[0].start()

        def held_on_the_wire():
            channels = transport._channels
            connection = channels[0]._connection if channels else None
            return connection is not None and connection._pending

        assert _wait_until(held_on_the_wire)
        for i in range(1, 4):
            threads.append(threading.Thread(target=register, args=(i,), daemon=True))
            threads[-1].start()
        assert _wait_until(
            lambda: len(transport._windows[0][_REGISTER].entries) == 3
        )
        started = time.monotonic()
        client.close()
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive(), "submitter still blocked after close()"
        assert time.monotonic() - started < 2.0
        assert len(errors) == 4
        assert all(isinstance(exc, TaintMapError) for exc in errors)
        server.stop()

    def test_send_overflowing_the_pipe_completes_via_executor(self):
        """A frame larger than the pipe is written partly on the loop
        thread; the remainder goes to the executor while the loop keeps
        running, and frames queued behind it are never interleaved."""
        kernel = SimKernel("overflow-test")
        kernel.register_node(TAINT_MAP_IP)
        kernel.register_node("10.0.0.1")
        listener = kernel.listen(TAINT_MAP_IP, TAINT_MAP_PORT)
        client_end = kernel.connect("10.0.0.1", (TAINT_MAP_IP, TAINT_MAP_PORT))
        server_end = listener.accept(timeout=5)
        loop = asyncio.new_event_loop()
        loop_thread = threading.Thread(target=loop.run_forever, daemon=True)
        loop_thread.start()
        try:
            connection = _MuxConnection(loop, client_end)
            big = bytes(range(256)) * 1024  # 256 KiB: four pipes' worth
            first = asyncio.run_coroutine_threadsafe(
                connection.request(OP_REGISTER, big), loop
            )
            # Nobody reads yet: the remainder is parked in the executor,
            # and the loop still serves other work.
            assert _wait_until(lambda: connection._unsent)
            asyncio.run_coroutine_threadsafe(asyncio.sleep(0), loop).result(1)
            second = asyncio.run_coroutine_threadsafe(
                connection.request(OP_REGISTER, b"small"), loop
            )
            assert _wait_until(lambda: len(connection._unsent) == 2)
            expected = mux_frame(1, OP_REGISTER, big) + mux_frame(2, OP_REGISTER, b"small")
            assert _recv_exact(server_end, len(expected)) == expected
            for corr in (2, 1):  # answer out of order
                server_end.send_all(
                    struct.pack(">IBI", corr, STATUS_OK, 4) + struct.pack(">I", corr)
                )
            assert second.result(5) == (STATUS_OK, struct.pack(">I", 2))
            assert first.result(5) == (STATUS_OK, struct.pack(">I", 1))
            assert _wait_until(lambda: not connection._unsent)
        finally:
            client_end.close()
            server_end.close()
            loop.call_soon_threadsafe(loop.stop)
            loop_thread.join(timeout=5)
            loop.close()


class TestLaunchAndEnvKnobs:
    def test_parse_switch(self):
        from repro.core.config import parse_switch

        assert parse_switch("on") and parse_switch("TRUE") and parse_switch("1")
        assert not parse_switch("off") and not parse_switch("no")
        with pytest.raises(ValueError, match="taintMapAsync"):
            parse_switch("maybe", "taintMapAsync")

    def test_launch_extras_configure_hardening_knobs(self, monkeypatch):
        from repro.core.launch import launch_cluster

        monkeypatch.delenv("DISTA_TAINTMAP_TRANSPORT", raising=False)
        cluster = launch_cluster(
            Mode.DISTA,
            "taintSources=s.spec,taintSinks=k.spec,"
            "coalesceWindowUs=350,"
            "taintMapDeadlineS=2.5,coalesceMaxPending=64,"
            "coalesceBackpressure=shed",
            sources_text="source:ignored#m\n",
            sinks_text="sink:ignored#m\n",
        )
        assert cluster.agent_options["request_deadline_s"] == 2.5
        with cluster:
            node = cluster.add_node("n1")
            transport = node.taintmap.transport
            assert transport.coalesce_window_us == 350.0
            assert transport.request_deadline_s == 2.5
            assert transport.max_pending == 64
            assert transport.backpressure == "shed"

    def test_launch_extra_opts_out_to_pooled(self, monkeypatch):
        from repro.core.launch import launch_cluster

        monkeypatch.delenv("DISTA_TAINTMAP_TRANSPORT", raising=False)
        cluster = launch_cluster(
            Mode.DISTA,
            "taintSources=s.spec,taintSinks=k.spec,taintMapAsync=off",
            sources_text="source:ignored#m\n",
            sinks_text="sink:ignored#m\n",
        )
        assert cluster.agent_options["transport"] == "pooled"
        with cluster:
            node = cluster.add_node("n1")
            assert not isinstance(node.taintmap, AsyncTaintMapClient)

    def test_env_knobs_configure_transport(self, single, monkeypatch):
        from repro.core.agent import DisTAAgent

        _, _, server, node = single
        monkeypatch.delenv("DISTA_TAINTMAP_TRANSPORT", raising=False)
        monkeypatch.setenv("DISTA_COALESCE_WINDOW_US", "450")
        monkeypatch.setenv("DISTA_TAINTMAP_DEADLINE_S", "0")
        runtime = DisTAAgent(server.address).attach(node)
        transport = runtime.client.transport
        assert transport.coalesce_window_us == 450.0
        assert transport.request_deadline_s is None  # 0 disables
        DisTAAgent(server.address).detach(node)
