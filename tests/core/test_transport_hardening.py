"""Regression tests for the transport-hardening fixes (ISSUE 5):
16-bit batch-count overflow (protocol chunking + mid-insertion size
flush), shutdown with an in-flight flush, per-request deadlines on a
stalled shard, fresh broken-connection errors, correlation-id wrap,
backpressure policies and the caller-runs group-commit flush policy.
"""

import itertools
import struct
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.aio_transport import _REGISTER, _Request
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


def _flush(transport, shard, kind):
    """Send a shard's parked window now, as a size flush would."""
    with transport._lock:
        request = transport._take_locked(shard, kind, "size")
    transport._send([request])


def _in_flight(transport, shard=0):
    """The requests correlated on the shard's current connection."""
    conn = transport._shards[shard].conn
    return list(conn.pending.values()) if conn is not None else []


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
        client = TaintMapClient(
            node, server.address, max_batch=10 * PROTOCOL_MAX_BATCH
        )
        assert client.transport.max_batch == PROTOCOL_MAX_BATCH
        client.close()

    def test_oversized_batch_round_trips_at_any_max_batch(self, single):
        """A single >65535-run message registers and resolves whether the
        client chunks it (default ``max_batch``) or the window must
        (``max_batch`` above the wire limit): multiple byte-identical
        frames on the wire either way."""
        _, _, server, node = single
        count = PROTOCOL_MAX_BATCH + 17
        taints = [node.tree.taint_for_tag(f"ovr{i}") for i in range(count)]

        default = TaintMapClient(node, server.address, cache_enabled=False)
        # max_batch above the wire limit: the window itself must chunk.
        wide = TaintMapClient(
            node,
            server.address,
            cache_enabled=False,
            max_batch=10 * PROTOCOL_MAX_BATCH,
        )
        try:
            default_gids = default.gids_for(taints)
            assert len(default_gids) == count
            assert len(set(default_gids)) == count
            assert all(gid > 0 for gid in default_gids)

            # Registration is idempotent: the second client sees the
            # same map, so the same taints yield the same GIDs.
            wide_gids = wide.gids_for(taints)
            assert wide_gids == default_gids

            resolved = wide.taints_for(wide_gids)
            assert len(resolved) == count
            for index in (0, 511, PROTOCOL_MAX_BATCH - 1, PROTOCOL_MAX_BATCH, count - 1):
                assert resolved[index].tags == taints[index].tags
        finally:
            default.close()
            wide.close()


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
        client = TaintMapClient(
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
        assert _wait_until(lambda: _in_flight(client.transport))
        (straggler,) = _in_flight(client.transport)
        started = time.monotonic()
        client.close()
        assert time.monotonic() - started < 8.0
        thread.join(timeout=8)
        assert not thread.is_alive(), "submitter still blocked after close()"
        assert errors and isinstance(errors[0], TaintMapError)
        # The per-shard state survives close(): a reply that straggles in
        # afterwards settles harmlessly instead of dying with IndexError.
        assert client.transport._on_reply(straggler, STATUS_OK, struct.pack(">I", 7)) == []
        assert client.transport._shards[0].pending == 0
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
        client = TaintMapClient(node, server.address)
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
        client = TaintMapClient(
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

    def test_deadline_bounds_an_unacknowledged_upgrade(self, single):
        """A shard that accepts the connection but never acknowledges
        ``OP_MUX_HELLO`` fails the request within the deadline, not the
        kernel's 30 s blocking timeout."""
        kernel, _, server, node = single
        server.stop()
        listener = kernel.listen(TAINT_MAP_IP, TAINT_MAP_PORT)
        accepted = []
        thread = threading.Thread(
            target=lambda: accepted.append(listener.accept(timeout=10)), daemon=True
        )
        thread.start()
        client = TaintMapClient(
            node, (TAINT_MAP_IP, TAINT_MAP_PORT), request_deadline_s=0.3
        )
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            client.gid_for(node.tree.taint_for_tag("unacknowledged"))
        assert time.monotonic() - started < 5.0
        thread.join(5)
        assert accepted and accepted[0] is not None
        client.close()
        listener.close()

    def test_deadline_fails_only_its_own_caller(self):
        """Two callers share one entry; the first one's deadline fires
        while the flush is on the wire.  It fails alone: the second
        caller (whose deadline is later) still reads the reply, even if
        the first held the read role when it gave up."""
        kernel = SimKernel("shared-deadline-test")
        kernel.register_node(TAINT_MAP_IP)
        server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT, service_time=0.5)
        server.start()
        node = _node(kernel, SimFileSystem())
        # The window flushes at t=1.0 and the reply lands at about t=1.5:
        # after the first caller's deadline (1.2), before the second's (2.0).
        client = TaintMapClient(
            node, server.address, coalesce_window_us=1_000_000, request_deadline_s=1.2
        )
        taint = node.tree.taint_for_tag("shared")
        outcomes = {}

        def register(name):
            try:
                outcomes[name] = client.gid_for(taint)
            except Exception as exc:  # noqa: BLE001 - recorded for asserts
                outcomes[name] = exc

        first = threading.Thread(target=register, args=("first",), daemon=True)
        second = threading.Thread(target=register, args=("second",), daemon=True)
        first.start()
        time.sleep(0.8)
        second.start()
        first.join(5)
        second.join(5)
        assert isinstance(outcomes["first"], TaintMapDeadlineError)
        assert isinstance(outcomes["second"], int) and outcomes["second"] > 0
        assert server.stats.register_requests == 1
        client.close()
        server.stop()

    def test_deadline_disabled_with_nonpositive_value(self, single):
        _, _, server, node = single
        client = TaintMapClient(node, server.address, request_deadline_s=0)
        assert client.transport.request_deadline_s is None
        assert client.gid_for(node.tree.taint_for_tag("nodl")) > 0
        client.close()


class TestBrokenConnectionErrors:
    def test_fresh_transport_error_per_raise(self, single):
        """Pre-fix, a broken connection re-raised one cached exception
        instance across unrelated callers."""
        _, _, server, node = single
        client = TaintMapClient(node, server.address)
        assert client.gid_for(node.tree.taint_for_tag("pre")) > 0
        transport = client.transport
        connection = transport._shards[0].conn
        connection.endpoint.close()
        # The next reader finds the connection dead and drops it.
        connection.reading = True
        assert transport._read(connection, 1.0) == []
        assert connection.broken is not None
        assert transport._shards[0].conn is None

        raised = []
        for _ in range(2):
            with pytest.raises(TaintMapTransportError) as info:
                with transport._lock:
                    connection.correlate(_Request(0, None, OrderedDict()))
            raised.append(info.value)
        first, second = raised
        assert isinstance(first, TaintMapTransportError)
        assert isinstance(second, TaintMapTransportError)
        assert first is not second  # fresh instance per raise
        # Failover catches ConnectionError; semantic handling catches
        # TaintMapError — the wrapper is both.
        assert isinstance(first, ConnectionError)
        assert isinstance(first, TaintMapError)
        assert first.__cause__ is connection.broken
        # The client itself redials.
        assert client.gid_for(node.tree.taint_for_tag("post")) > 0
        client.close()


class TestCorrelationIdWrap:
    def test_requests_survive_corr_counter_wrap(self, single):
        """The unbounded corr counter must wrap at 32 bits instead of
        overflowing the ``>I`` wire field."""
        _, _, server, node = single
        client = TaintMapClient(node, server.address)
        gids = [client.gid_for(node.tree.taint_for_tag("wrap0"))]
        connection = client.transport._shards[0].conn
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
        client = TaintMapClient(node, server.address)
        assert client.gid_for(node.tree.taint_for_tag("collide0")) > 0
        transport = client.transport
        connection = transport._shards[0].conn
        planted = _Request(0, None, OrderedDict())
        with transport._lock:
            connection.pending[1] = planted
        # The next allocation computes (2**32 + 1) & 0xFFFFFFFF == 1 —
        # exactly the planted in-flight id.
        connection._corr = itertools.count(2**32 + 1)
        assert client.gid_for(node.tree.taint_for_tag("collide1")) > 0
        assert connection.pending.get(1) is planted, "pending request was overwritten"
        client.close()


class TestBackpressure:
    @pytest.fixture()
    def pool(self):
        with ThreadPoolExecutor(max_workers=8) as pool:
            yield pool

    def _submit_register(self, pool, client, node, tag):
        payload = serialize_tags(node.tree.taint_for_tag(tag).tags)
        return pool.submit(client.transport.submit, 0, OP_REGISTER, payload)

    def test_shed_policy_rejects_past_high_water_mark(self, single, pool):
        _, _, server, node = single
        client = TaintMapClient(
            node,
            server.address,
            coalesce_window_us=10_000_000,  # park entries: no timer flush
            max_pending=4,
            backpressure="shed",
        )
        transport = client.transport
        futures = [
            self._submit_register(pool, client, node, f"shed{i}") for i in range(4)
        ]
        assert _wait_until(lambda: transport._shards[0].pending == 4)
        overflow = self._submit_register(pool, client, node, "shed-overflow")
        exc = overflow.exception(timeout=5)
        assert isinstance(exc, TaintMapBackpressureError)
        assert isinstance(exc, TaintMapError)
        # Draining the window readmits new work.
        _flush(transport, 0, _REGISTER)
        gids = {struct.unpack(">I", f.result(timeout=5))[0] for f in futures}
        assert len(gids) == 4
        assert _wait_until(lambda: transport._shards[0].pending == 0)
        retry = self._submit_register(pool, client, node, "shed-retry")
        assert _wait_until(lambda: transport._shards[0].pending == 1)
        _flush(transport, 0, _REGISTER)
        assert struct.unpack(">I", retry.result(timeout=5))[0] > 0
        client.close()

    def test_block_policy_flushes_and_waits_for_drain(self, single, pool):
        _, _, server, node = single
        client = TaintMapClient(
            node,
            server.address,
            coalesce_window_us=10_000_000,
            max_pending=2,
            backpressure="block",
        )
        transport = client.transport
        first = self._submit_register(pool, client, node, "blk0")
        second = self._submit_register(pool, client, node, "blk1")
        assert _wait_until(lambda: transport._shards[0].pending == 2)
        # The third blocks at the mark — and must flush the parked
        # window itself (nothing else would drain it) before waiting.
        third = self._submit_register(pool, client, node, "blk2")
        assert struct.unpack(">I", first.result(timeout=5))[0] > 0
        assert struct.unpack(">I", second.result(timeout=5))[0] > 0
        # The third was admitted after the drain and now parks alone.
        assert _wait_until(lambda: transport._shards[0].pending == 1)
        assert not third.done()
        _flush(transport, 0, _REGISTER)
        assert struct.unpack(">I", third.result(timeout=5))[0] > 0
        client.close()


class TestTimerFreeCoalescing:
    def test_sequential_default_path_arms_no_timer(self, single):
        """Idle traffic flushes at once on the caller's thread: no
        timer wait per request.  A pinned window still waits out its
        static timer (the control)."""
        _, _, server, node = single
        client = TaintMapClient(node, server.address, cache_enabled=False)
        reasons = client.transport._flush_reason

        def flushes():
            return {r: reasons.labels(reason=r).value for r in ("idle", "timer", "chained")}

        for i in range(8):
            gid = client.gid_for(node.tree.taint_for_tag(f"seq{i}"))
            assert {t.tag for t in client.taint_for(gid).tags} == {f"seq{i}"}
        assert flushes() == {"idle": 16, "timer": 0, "chained": 0}
        assert client.requests_sent == 16
        client.close()

        pinned = TaintMapClient(
            node, server.address, cache_enabled=False, coalesce_window_us=0.0
        )
        pinned.gid_for(node.tree.taint_for_tag("pinned"))
        assert flushes() == {"idle": 16, "timer": 1, "chained": 0}
        pinned.close()

    def test_arrivals_during_held_flush_chain_into_one_flush(self):
        """Callers arriving while a flush is held in flight wait in the
        window and go out together when it completes."""
        kernel = SimKernel("chain-test")
        kernel.register_node(TAINT_MAP_IP)
        server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT, service_time=0.5)
        server.start()
        node = _node(kernel, SimFileSystem())
        client = TaintMapClient(node, server.address, cache_enabled=False)
        transport = client.transport
        workers = 12
        gids = [None] * (workers + 1)

        def register(i):
            gids[i] = client.gid_for(node.tree.taint_for_tag(f"chain{i}"))

        threads = [threading.Thread(target=register, args=(0,), daemon=True)]
        threads[0].start()
        assert _wait_until(lambda: _in_flight(transport))
        for i in range(1, workers + 1):
            threads.append(threading.Thread(target=register, args=(i,), daemon=True))
            threads[-1].start()
        assert _wait_until(lambda: transport._shards[0].pending == workers + 1)
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(set(gids)) == workers + 1 and all(gid > 0 for gid in gids)
        # The held flush plus one chained flush for every arrival.
        assert client.requests_sent <= 2
        assert server.stats.register_entries == workers + 1
        assert transport._flush_reason.labels(reason="chained").value == 1
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
        client = TaintMapClient(node, server.address, cache_enabled=False)
        transport = client.transport
        errors = []

        def register(i):
            try:
                client.gid_for(node.tree.taint_for_tag(f"held{i}"))
            except Exception as exc:  # noqa: BLE001 - recorded for asserts
                errors.append(exc)

        threads = [threading.Thread(target=register, args=(0,), daemon=True)]
        threads[0].start()
        assert _wait_until(lambda: _in_flight(transport))
        for i in range(1, 4):
            threads.append(threading.Thread(target=register, args=(i,), daemon=True))
            threads[-1].start()
        assert _wait_until(
            lambda: len(transport._shards[0].windows[_REGISTER].entries) == 3
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


class TestLaunchAndEnvKnobs:
    def test_parse_switch(self):
        from repro.core.config import parse_switch

        assert parse_switch("on") and parse_switch("TRUE") and parse_switch("1")
        assert not parse_switch("off") and not parse_switch("no")
        with pytest.raises(ValueError, match="taintMapDurable"):
            parse_switch("maybe", "taintMapDurable")

    def test_launch_extras_configure_hardening_knobs(self):
        from repro.core.launch import launch_cluster

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

    def test_env_knobs_configure_transport(self, single, monkeypatch):
        from repro.core.agent import DisTAAgent

        _, _, server, node = single
        monkeypatch.setenv("DISTA_COALESCE_WINDOW_US", "450")
        monkeypatch.setenv("DISTA_TAINTMAP_DEADLINE_S", "0")
        runtime = DisTAAgent(server.address).attach(node)
        transport = runtime.client.transport
        assert transport.coalesce_window_us == 450.0
        assert transport.request_deadline_s is None  # 0 disables
        DisTAAgent(server.address).detach(node)
