"""Tests for the multiplexed Taint Map transport: correlation-id
framing, cross-message coalescing (timer vs size flush), out-of-order
response delivery, mid-frame connection kill, per-shard failover with
in-flight requests, the caller-runs lifecycle (no thread, nothing left
pending), and the transport's construction paths."""

import struct
import threading
import time

import pytest

from repro.core import aio_transport
from repro.core.agent import DisTAAgent, resolve_transport
from repro.core.aio_transport import DEFAULT_MAX_BATCH, mux_frame
from repro.core.ha import (
    FailoverTaintMapClient,
    ReplicatedTaintMapServer,
    StandbyTaintMapServer,
)
from repro.core.launch import launch_cluster
from repro.core.taintmap import (
    OP_MUX_HELLO,
    OP_REGISTER,
    STATUS_OK,
    ShardedTaintMapService,
    ShardRouter,
    TaintMapClient,
    TaintMapServer,
    _recv_exact,
    gid_shard,
    serialize_tags,
    taint_key,
)
from repro.errors import PipeClosed, TaintMapError
from repro.jre import ServerSocket, Socket
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT, Cluster
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode
from repro.taint.values import TBytes


def _node(kernel, fs, name="n", ip="10.0.0.1", pid=1):
    return SimNode(name, kernel.register_node(ip), pid, kernel, fs, Mode.DISTA)


@pytest.fixture()
def single():
    kernel = SimKernel("aio-test")
    kernel.register_node(TAINT_MAP_IP)
    fs = SimFileSystem()
    server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT)
    server.start()
    node = _node(kernel, fs)
    yield kernel, fs, server, node
    server.stop()


class TestMuxFraming:
    def test_golden_frame_bytes(self):
        """A mux frame is the sync frame with a 4-byte corr prefix —
        the payload encodings themselves are byte-identical."""
        payload = b"\x01\x02\x03"
        frame = mux_frame(0xDEADBEEF, OP_REGISTER, payload)
        assert frame == b"\xde\xad\xbe\xef" + bytes([OP_REGISTER]) + b"\x00\x00\x00\x03" + payload

    def test_hello_handshake_then_correlated_roundtrip(self, single):
        """Raw protocol: OP_MUX_HELLO upgrade, then a correlated register
        whose inner bytes are the unchanged sync frame."""
        kernel, _, server, node = single
        endpoint = kernel.connect(node.ip, server.address)
        endpoint.send_all(bytes([OP_MUX_HELLO]) + struct.pack(">I", 0))
        assert _recv_exact(endpoint, 1)[0] == STATUS_OK
        assert struct.unpack(">I", _recv_exact(endpoint, 4)) == (0,)

        taint = node.tree.taint_for_tag("raw")
        payload = serialize_tags(taint.tags)
        endpoint.send_all(mux_frame(77, OP_REGISTER, payload))
        (corr,) = struct.unpack(">I", _recv_exact(endpoint, 4))
        status = _recv_exact(endpoint, 1)[0]
        (length,) = struct.unpack(">I", _recv_exact(endpoint, 4))
        assert (corr, status, length) == (77, STATUS_OK, 4)
        (gid,) = struct.unpack(">I", _recv_exact(endpoint, 4))
        assert gid == 1
        endpoint.close()

    def test_out_of_order_responses_resolve_correct_futures(self, single):
        """Two concurrent requests whose responses arrive in reverse
        order must each resolve their own caller."""
        kernel, _, server, node = single
        server.stop()
        listener = kernel.listen(TAINT_MAP_IP, TAINT_MAP_PORT)
        release = threading.Event()

        def reordering_server():
            endpoint = listener.accept(timeout=10)
            # Hello upgrade.
            _recv_exact(endpoint, 5)
            endpoint.send_all(bytes([STATUS_OK]) + struct.pack(">I", 0))
            # Read two register frames, then answer them REVERSED with
            # distinguishable GIDs.
            frames = []
            for _ in range(2):
                (corr,) = struct.unpack(">I", _recv_exact(endpoint, 4))
                _recv_exact(endpoint, 1)
                (length,) = struct.unpack(">I", _recv_exact(endpoint, 4))
                _recv_exact(endpoint, length)
                frames.append(corr)
            release.wait(10)
            for index, corr in enumerate(reversed(frames)):
                endpoint.send_all(
                    struct.pack(">I", corr)
                    + bytes([STATUS_OK])
                    + struct.pack(">I", 4)
                    + struct.pack(">I", 1000 + index)
                )
            listener.close()

        thread = threading.Thread(target=reordering_server, daemon=True)
        thread.start()

        # A pinned zero window flushes each caller's register at once
        # even while the other's is in flight: two separate frames.
        client = TaintMapClient(
            node, (TAINT_MAP_IP, TAINT_MAP_PORT), coalesce_window_us=0.0
        )
        gids = {}

        def register(name):
            gids[name] = client.gid_for(node.tree.taint_for_tag(name))

        first = threading.Thread(target=register, args=("a",), daemon=True)
        second = threading.Thread(target=register, args=("b",), daemon=True)
        first.start()
        # Ensure deterministic send order before submitting the second.
        time.sleep(0.05)
        second.start()
        time.sleep(0.05)
        release.set()
        first.join(10)
        second.join(10)
        # Responses were sent reversed: the *second* request's corr came
        # back first carrying 1000, the first's carrying 1001.
        assert gids == {"a": 1001, "b": 1000}
        thread.join(10)
        client.close()


class TestAsyncClientApi:
    def test_register_lookup_interop_between_clients(self, single):
        kernel, fs, server, node = single
        aclient = TaintMapClient(node, server.address)
        node2 = _node(kernel, fs, "n2", "10.0.0.2", 2)
        other = TaintMapClient(node2, server.address, coalesce_window_us=0)

        taints = [node.tree.taint_for_tag(f"t{i}") for i in range(10)]
        gids = aclient.gids_for(taints)
        # Another node's client, on a pinned window, resolves the same
        # taints to the same GIDs: every client speaks one registry.
        assert other.gids_for(taints) == gids
        back = aclient.taints_for(gids)
        assert [sorted(t.tag for t in b.tags) for b in back] == [
            sorted(t.tag for t in a.tags) for a in taints
        ]
        assert aclient.gid_for(None) == 0
        assert aclient.taint_for(0) is None
        aclient.close()
        other.close()

    def test_unknown_gid_raises_and_other_lookups_survive(self, single):
        """A coalesced lookup window containing one unknown GID fails
        only that future; co-batched lookups still resolve."""
        kernel, _, server, node = single
        client = TaintMapClient(
            node, server.address, coalesce_window_us=20000.0
        )
        known = client.gid_for(node.tree.taint_for_tag("known"))
        client._taint_cache.clear()  # force a wire lookup

        results = {}
        barrier = threading.Barrier(2)

        def fetch(name, gid):
            barrier.wait()
            try:
                results[name] = client.taint_for(gid)
            except TaintMapError as exc:
                results[name] = exc

        threads = [
            threading.Thread(target=fetch, args=("known", known), daemon=True),
            threading.Thread(target=fetch, args=("bogus", 0x0ABCDEF), daemon=True),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert isinstance(results["bogus"], TaintMapError)
        assert "unknown Global ID" in str(results["bogus"])
        assert {t.tag for t in results["known"].tags} == {"known"}
        client.close()

    def test_closed_client_rejects_requests(self, single):
        _, _, server, node = single
        client = TaintMapClient(node, server.address)
        client.gid_for(node.tree.taint_for_tag("pre"))
        client.close()
        with pytest.raises(TaintMapError, match="closed"):
            client.gid_for(node.tree.taint_for_tag("post"))

    def test_bad_max_batch_rejected(self, single):
        _, _, server, node = single
        with pytest.raises(TaintMapError, match="max_batch"):
            TaintMapClient(node, server.address, max_batch=0)

    def test_first_request_latency_excludes_connect(self, single, monkeypatch):
        """``dista_taintmap_rpc_seconds`` times request-out to reply-in on
        both transports: the dial and mux upgrade of a first request are
        not RPC latency."""
        _, _, server, node = single
        client = TaintMapClient(node, server.address)
        dial = client.transport._connect
        dial_s = 0.3

        def slow_dial(address):
            time.sleep(dial_s)
            return dial(address)

        observed = []
        monkeypatch.setattr(client.transport, "_connect", slow_dial)
        monkeypatch.setattr(
            client, "_observe_rpc", lambda op, elapsed: observed.append(elapsed)
        )
        started = time.perf_counter()
        client.gid_for(node.tree.taint_for_tag("first"))
        assert time.perf_counter() - started >= dial_s  # the dial happened
        assert len(observed) == 1 and observed[0] < dial_s
        client.close()


class TestCoalescing:
    def test_concurrent_registrations_coalesce_to_one_roundtrip(self, single):
        """k concurrent single-taint messages cost one round-trip per
        window, not k — the tentpole's headline property."""
        kernel, _, server, node = single
        server._service_time = 0.002  # hold the window open
        client = TaintMapClient(
            node, server.address, cache_enabled=False, coalesce_window_us=5000.0
        )
        workers = 12
        taints = [node.tree.taint_for_tag(f"co-{i}") for i in range(workers)]
        barrier = threading.Barrier(workers)
        gids = [None] * workers

        def run(i):
            barrier.wait()
            gids[i] = client.gid_for(taints[i])

        threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert len(set(gids)) == workers
        assert client.requests_sent < workers
        assert server.stats.register_entries == workers
        assert server.stats.register_requests < workers
        client.close()

    def test_duplicate_keys_share_one_wire_entry(self, single):
        """The same taint submitted by two in-flight messages dedups to
        one entry (registration is idempotent)."""
        kernel, _, server, node = single
        server._service_time = 0.002
        client = TaintMapClient(
            node, server.address, cache_enabled=False, coalesce_window_us=5000.0
        )
        taint = node.tree.taint_for_tag("dup")
        barrier = threading.Barrier(8)
        gids = [None] * 8

        def run(i):
            barrier.wait()
            gids[i] = client.gid_for(taint)

        threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert set(gids) == {gids[0]}
        assert server.stats.register_entries <= 2  # at most two windows
        client.close()

    def test_flush_on_max_batch_size_beats_timer(self, single):
        """A window reaching max_batch flushes immediately — well before
        a deliberately huge timer could fire."""
        _, _, server, node = single
        client = TaintMapClient(
            node,
            server.address,
            cache_enabled=False,
            coalesce_window_us=5_000_000.0,  # 5 s: the timer can't be the flusher
            max_batch=8,
        )
        taints = [node.tree.taint_for_tag(f"mb-{i}") for i in range(8)]
        start = time.monotonic()
        gids = client.gids_for(taints)
        elapsed = time.monotonic() - start
        assert len(set(gids)) == 8
        assert elapsed < 2.0  # size-triggered, not the 5 s timer
        client.close()

    def test_flush_on_timer_when_under_batch_size(self, single):
        """A lone sub-batch request relies on the timer flush."""
        _, _, server, node = single
        client = TaintMapClient(
            node,
            server.address,
            cache_enabled=False,
            coalesce_window_us=50_000.0,  # 50 ms — measurable but quick
            max_batch=64,
        )
        start = time.monotonic()
        gid = client.gid_for(node.tree.taint_for_tag("timer"))
        elapsed = time.monotonic() - start
        assert gid == 1
        assert 0.04 <= elapsed < 5.0  # waited for the timer, then flushed
        client.close()

    def test_zero_window_still_batches_one_call(self, single):
        """window=0 degrades gracefully: a single gids_for call is still
        one round-trip (all entries enter the window atomically)."""
        _, _, server, node = single
        client = TaintMapClient(
            node, server.address, cache_enabled=False, coalesce_window_us=0.0
        )
        taints = [node.tree.taint_for_tag(f"z-{i}") for i in range(16)]
        before = client.requests_sent
        gids = client.gids_for(taints)
        assert len(set(gids)) == 16
        assert client.requests_sent - before == 1
        client.close()


class TestFaultInjection:
    def test_mid_frame_kill_fails_inflight_and_recovers(self):
        """A server dying mid-response frame fails the in-flight future
        with a transport error; once a healthy server rebinds, the same
        client reconnects with clean framing."""
        kernel = SimKernel("aio-kill")
        kernel.register_node(TAINT_MAP_IP)
        fs = SimFileSystem()
        node = _node(kernel, fs)
        client = TaintMapClient(node, (TAINT_MAP_IP, TAINT_MAP_PORT))

        listener = kernel.listen(TAINT_MAP_IP, TAINT_MAP_PORT)

        def evil():
            endpoint = listener.accept(timeout=10)
            _recv_exact(endpoint, 5)  # hello
            endpoint.send_all(bytes([STATUS_OK]) + struct.pack(">I", 0))
            # Swallow one request, answer with a truncated frame, die.
            (corr,) = struct.unpack(">I", _recv_exact(endpoint, 4))
            _recv_exact(endpoint, 1)
            (length,) = struct.unpack(">I", _recv_exact(endpoint, 4))
            _recv_exact(endpoint, length)
            endpoint.send_all(struct.pack(">I", corr) + bytes([STATUS_OK]) + struct.pack(">I", 8) + b"\x2a")
            endpoint.close()
            listener.close()

        thread = threading.Thread(target=evil, daemon=True)
        thread.start()
        with pytest.raises((PipeClosed, EOFError)):
            client.gid_for(node.tree.taint_for_tag("victim"))
        thread.join(10)

        server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT)
        server.start()
        assert client.gid_for(node.tree.taint_for_tag("victim")) == 1
        server.stop()
        client.close()

    def test_per_shard_failover_with_inflight_futures(self):
        """Killing shard 1's primary mid-stream fails over only shard 1;
        shard 0's connection and GIDs are undisturbed, and requests that
        were in flight during the kill complete via the standby."""
        kernel = SimKernel("aio-ha")
        fs = SimFileSystem()
        shards = 2
        primaries, standbys = [], []
        for shard in range(shards):
            p_ip = kernel.register_node(f"10.1.0.{shard + 1}")
            s_ip = kernel.register_node(f"10.2.0.{shard + 1}")
            standby = StandbyTaintMapServer(
                kernel, s_ip, 7300, shard_index=shard, shard_count=shards
            ).start()
            primary = ReplicatedTaintMapServer(
                kernel, p_ip, 7300, standby.address,
                shard_index=shard, shard_count=shards,
            ).start()
            primaries.append(primary)
            standbys.append(standby)

        node = _node(kernel, fs)
        client = FailoverTaintMapClient(
            node,
            [p.address for p in primaries],
            [s.address for s in standbys],
            cache_enabled=False,
        )
        router = ShardRouter(shards)

        def taint_on(shard, prefix):
            for i in range(10000):
                taint = node.tree.taint_for_tag(f"{prefix}-{i}")
                if router.shard_for_key(taint_key(taint.tags)) == shard:
                    return taint
            raise AssertionError("no key found")

        t0, t1 = taint_on(0, "s0"), taint_on(1, "s1")
        g0, g1 = client.gids_for([t0, t1])
        assert gid_shard(g0) == 0 and gid_shard(g1) == 1
        assert client.active_address_for(1) == primaries[1].address

        # Slow shard 1 down and kill its primary while a request is in
        # flight; that future must fail over to the standby.
        primaries[1]._service_time = 0.2
        victim = taint_on(1, "inflight")
        result = {}

        def register():
            result["gid"] = client.gid_for(victim)

        thread = threading.Thread(target=register, daemon=True)
        thread.start()
        time.sleep(0.05)  # the request is now mid-service on primary 1
        primaries[1].stop()
        thread.join(10)
        assert gid_shard(result["gid"]) == 1
        assert client.active_address_for(1) == standbys[1].address
        # Shard 0 never failed over.
        assert client.active_address_for(0) == primaries[0].address
        # Replicated GIDs survive: the pre-kill registration resolves to
        # the same id on the standby.
        assert client.gid_for(t1) == g1

        client.close()
        primaries[0].stop()
        for standby in standbys:
            standby.stop()


class TestCallerRunsLifecycle:
    def test_no_thread_started_and_no_entry_left_pending(self, monkeypatch):
        """A tainted two-node exchange on the default transport: the
        client's first ``gid_for`` starts no thread (the only new thread
        is the server's per-connection handler), and after
        ``Cluster.shutdown()`` no entry is left unsettled and no
        connection open."""
        entries = []
        entry_init = aio_transport._Entry.__init__

        def recording_init(self, *args):
            entry_init(self, *args)
            entries.append(self)

        monkeypatch.setattr(aio_transport._Entry, "__init__", recording_init)
        cluster = Cluster(Mode.DISTA)
        node1 = cluster.add_node("node1")
        node2 = cluster.add_node("node2")
        with cluster:
            transports = [node1.taintmap.transport, node2.taintmap.transport]
            server = ServerSocket(node2, 9000)
            client = Socket.connect(node1, (node2.ip, 9000))
            connection = server.accept()

            secret = node1.tree.taint_for_tag("secret")
            before = set(threading.enumerate())
            gid = node1.taintmap.gid_for(secret)
            started = set(threading.enumerate()) - before
            assert gid > 0
            assert {thread.name for thread in started} <= {"taintmap-conn"}

            message = TBytes(b"user=") + TBytes.tainted(b"hunter2", secret)
            client.get_output_stream().write(message)
            received = connection.get_input_stream().read_fully(len(message))
            assert {t.tag for t in received[5:].overall_taint().tags} == {"secret"}
            assert received[:5].overall_taint() is None
        assert entries, "the exchange never reached the transport"
        assert all(entry.done for entry in entries)
        for transport in transports:
            assert transport._conns == []
            for shard in transport._shards:
                assert shard.conn is None
                assert all(not window.entries for window in shard.windows)
                assert all(not window.inflight for window in shard.windows)


class TestCloseErrorSuppression:
    def test_connection_reset_counts_and_survives_close_errors(self, single):
        """A broken connection whose close() raises is still dropped;
        the error is counted in TaintMapStats and the next request
        redials."""
        _, _, server, node = single
        client = TaintMapClient(node, server.address)
        client.gid_for(node.tree.taint_for_tag("warm"))  # dials shard 0
        transport = client.transport
        conn = transport._shards[0].conn
        real = conn.endpoint

        class ExplodingEndpoint:
            closed = False

            def close(self):
                real.close()
                raise OSError("close failed")

        conn.endpoint = ExplodingEndpoint()
        assert transport._on_broken(conn, PipeClosed("reset")) == []
        assert client.stats.snapshot()["close_errors"] == 1
        assert real.closed
        assert transport._shards[0].conn is None
        assert transport._conns == []
        # The client keeps working after the reset.
        assert client.gid_for(node.tree.taint_for_tag("after")) == 2
        assert transport._shards[0].conn is not conn
        client.close()


class TestTransportSelection:
    """Every construction path builds the one multiplexed client."""

    def test_resolve_transport_is_always_async(self, monkeypatch):
        assert resolve_transport() == "async"
        monkeypatch.setenv("DISTA_TAINTMAP_TRANSPORT", "pooled")
        assert resolve_transport() == "async"  # no environment override

    def test_transport_env_var_is_ignored(self, monkeypatch):
        monkeypatch.setenv("DISTA_TAINTMAP_TRANSPORT", "pooled")
        with Cluster(Mode.DISTA) as cluster:
            node = cluster.add_node("n1")
            assert node.taintmap.transport.coalesce_window_us is None
            runtime_gid = node.taintmap.gid_for(node.tree.taint_for_tag("env"))
            assert runtime_gid == 1
            assert node.taintmap.transport._shards[0].conn is not None

    def test_cluster_kwarg_pins_coalesce_window(self):
        with Cluster(Mode.DISTA, coalesce_window_us=0.0) as cluster:
            node = cluster.add_node("n1")
            assert node.taintmap.transport.coalesce_window_us == 0.0

    def test_default_is_async(self):
        with Cluster(Mode.DISTA) as cluster:
            node = cluster.add_node("n1")
            assert type(node.taintmap) is TaintMapClient
            # Default: timer-free coalescing (no pinned window), deadline armed.
            assert node.taintmap.transport.coalesce_window_us is None
            assert node.taintmap.transport.request_deadline_s is not None

    def test_launch_extras_select_async(self):
        cluster = launch_cluster(
            Mode.DISTA,
            "taintSources=s.spec,taintSinks=k.spec,coalesceWindowUs=350",
            sources_text="source:ignored#m\n",
            sinks_text="sink:ignored#m\n",
        )
        assert cluster.agent_options["coalesce_window_us"] == 350.0
        with cluster:
            node = cluster.add_node("n1")
            assert type(node.taintmap) is TaintMapClient
            assert node.taintmap.transport.coalesce_window_us == 350.0

    def test_agent_wires_client_into_runtime(self, single):
        _, _, server, node = single
        runtime = DisTAAgent(server.address).attach(node)
        assert node.taintmap is runtime.client
        assert isinstance(runtime.client, TaintMapClient)
        assert runtime.resolver.gids_for == runtime.client.gids_for
        DisTAAgent(server.address).detach(node)
