"""Tests for the sharded Taint Map: GID namespace partitioning,
consistent-hash routing, the per-shard client, bounded caches, and
poisoned- and stale-connection recovery."""

import struct
import threading

import pytest

from repro.core.taintmap import (
    GID_SEQ_MASK,
    GID_SHARD_BITS,
    MAX_SHARDS,
    OP_REGISTER,
    OP_REGISTER_MANY,
    STATUS_BAD_REQUEST,
    STATUS_OK,
    STATUS_STALE_RING,
    ShardedTaintMapService,
    ShardRing,
    ShardRouter,
    TaintMapClient,
    TaintMapStats,
    _LruCache,
    _pack_batch_register,
    _recv_exact,
    gid_shard,
    make_gid,
    serialize_tags,
    taint_key,
)
from repro.errors import PipeClosed, TaintMapError
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT, Cluster
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode

SHARDS = 4


class TestGidLayout:
    def test_roundtrip(self):
        for shard in (0, 1, 7, MAX_SHARDS - 1):
            for seq in (1, 2, GID_SEQ_MASK):
                gid = make_gid(shard, seq)
                assert gid_shard(gid) == shard
                assert gid & GID_SEQ_MASK == seq
                assert gid != 0
                assert gid < 2**32

    def test_shard_zero_is_identity(self):
        """Shard 0's GIDs are the unsharded protocol's 1, 2, 3, …"""
        assert make_gid(0, 1) == 1
        assert make_gid(0, 12345) == 12345
        assert gid_shard(1) == 0

    def test_gid_zero_belongs_to_no_shard(self):
        assert gid_shard(0) == 0  # routes harmlessly; clients never send it


class TestShardRouter:
    def test_single_shard_routes_everything_to_zero(self):
        router = ShardRouter(1)
        assert all(
            router.shard_for_key(f"k{i}".encode()) == 0 for i in range(100)
        )

    def test_deterministic_across_instances(self):
        a, b = ShardRouter(SHARDS), ShardRouter(SHARDS)
        keys = [f"key-{i}".encode() for i in range(200)]
        assert [a.shard_for_key(k) for k in keys] == [b.shard_for_key(k) for k in keys]

    def test_reasonably_balanced(self):
        router = ShardRouter(SHARDS)
        counts = [0] * SHARDS
        for i in range(2000):
            counts[router.shard_for_key(f"key-{i}".encode())] += 1
        assert min(counts) > 0
        assert max(counts) < 2000 * 0.6  # no shard owns the ring

    def test_shard_count_bounds(self):
        with pytest.raises(TaintMapError):
            ShardRouter(0)
        with pytest.raises(TaintMapError):
            ShardRouter(MAX_SHARDS + 1)


@pytest.fixture()
def sharded():
    kernel = SimKernel("shard-test")
    kernel.register_node(TAINT_MAP_IP)
    fs = SimFileSystem()
    service = ShardedTaintMapService(
        kernel, TAINT_MAP_IP, TAINT_MAP_PORT, SHARDS
    ).start()
    n1 = SimNode("node1", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
    n2 = SimNode("node2", kernel.register_node("10.0.0.2"), 2, kernel, fs, Mode.DISTA)
    c1 = TaintMapClient(n1, service.addresses)
    c2 = TaintMapClient(n2, service.addresses)
    yield service, n1, n2, c1, c2
    c1.close()
    c2.close()
    service.stop()


def _taint_on_shard(node, router, shard, prefix="t"):
    """A fresh taint whose key the ring routes to ``shard``."""
    for i in range(10000):
        taint = node.tree.taint_for_tag(f"{prefix}-{shard}-{i}")
        if router.shard_for_key(taint_key(taint.tags)) == shard:
            return taint
    raise AssertionError(f"no key found for shard {shard}")


class TestShardedService:
    def test_gid_carries_owning_shard(self, sharded):
        service, n1, _, c1, _ = sharded
        router = ShardRouter(SHARDS)
        for shard in range(SHARDS):
            taint = _taint_on_shard(n1, router, shard)
            gid = c1.gid_for(taint)
            assert gid_shard(gid) == shard
            assert service.servers[shard].global_taint_count() >= 1

    def test_empty_taint_stays_gid_zero(self, sharded):
        _, n1, _, c1, _ = sharded
        assert c1.gid_for(None) == 0
        assert c1.gid_for(n1.tree.empty) == 0
        assert c1.taint_for(0) is None

    def test_register_idempotent_across_nodes(self, sharded):
        service, n1, n2, c1, c2 = sharded
        taint1 = n1.tree.taint_for_tag("shared")
        tag = next(iter(taint1.tags))
        taint2 = n2.tree.taint_for_tags([tag])
        assert c1.gid_for(taint1) == c2.gid_for(taint2)
        assert service.global_taint_count() == 1

    def test_lookup_routes_by_gid_bits(self, sharded):
        service, n1, n2, c1, c2 = sharded
        router = ShardRouter(SHARDS)
        for shard in range(SHARDS):
            taint = _taint_on_shard(n1, router, shard, prefix="lk")
            gid = c1.gid_for(taint)
            resolved = c2.taint_for(gid)
            assert resolved.tree is n2.tree
            assert {t.tag for t in resolved.tags} == {t.tag for t in taint.tags}

    def test_batch_spans_shards_one_request_per_shard(self, sharded):
        service, n1, _, c1, _ = sharded
        router = ShardRouter(SHARDS)
        taints = [
            _taint_on_shard(n1, router, shard, prefix="batch")
            for shard in range(SHARDS)
        ]
        before = c1.requests_sent
        gids = c1.gids_for(taints * 3)  # duplicates dedup client-side
        assert c1.requests_sent - before == SHARDS  # one batch per shard
        assert len(set(gids)) == SHARDS
        assert [gid_shard(g) for g in gids[:SHARDS]] == list(range(SHARDS))
        snapshot = service.stats_snapshot()
        assert snapshot["register_requests"] == SHARDS
        # Resend: everything cached, zero requests (Fig. 9 step ②).
        assert c1.gids_for(taints) == gids[:SHARDS]
        assert c1.requests_sent - before == SHARDS

    def test_batch_lookup_spans_shards(self, sharded):
        service, n1, n2, c1, c2 = sharded
        router = ShardRouter(SHARDS)
        taints = [
            _taint_on_shard(n1, router, shard, prefix="blk")
            for shard in range(SHARDS)
        ]
        gids = c1.gids_for(taints)
        before = c2.requests_sent
        resolved = c2.taints_for(gids + [0])
        assert c2.requests_sent - before == SHARDS
        assert resolved[-1] is None
        for taint, local in zip(taints, resolved):
            assert {t.tag for t in local.tags} == {t.tag for t in taint.tags}

    def test_misrouted_register_rejected(self, sharded):
        """A register the ring owns elsewhere is refused, not served —
        otherwise one taint could get two GIDs from two shards.  Since
        the elastic protocol, the refusal is ``STATUS_STALE_RING`` and
        carries the server's current ring so the client can re-route."""
        service, n1, _, _, _ = sharded
        router = ShardRouter(SHARDS)
        taint = _taint_on_shard(n1, router, 1, prefix="stray")
        wrong = n1.kernel.connect(n1.ip, service.servers[0].address)
        payload = serialize_tags(taint.tags)
        wrong.send_all(bytes([OP_REGISTER]) + struct.pack(">I", len(payload)) + payload)
        status = _recv_exact(wrong, 1)[0]
        assert status == STATUS_STALE_RING
        (length,) = struct.unpack(">I", _recv_exact(wrong, 4))
        ring = ShardRing.decode(_recv_exact(wrong, length))
        assert ring == service.ring
        assert ring.epoch == 0 and ring.shard_count == SHARDS
        wrong.close()

    def test_unknown_shard_gid_rejected_client_side(self, sharded):
        _, _, _, c1, _ = sharded
        foreign = make_gid(SHARDS + 1, 7)  # shard index beyond deployment
        with pytest.raises(TaintMapError, match="shard"):
            c1.taint_for(foreign)

    def test_shard_count_capped(self, sharded):
        _, n1, _, _, _ = sharded
        with pytest.raises(TaintMapError, match="shard"):
            TaintMapClient(n1, [("10.0.255.1", 7000 + i) for i in range(MAX_SHARDS + 1)])


class TestSingleShardByteIdentity:
    """Single-shard mode emits byte-identical frames to the unsharded
    protocol (the acceptance criterion's wire-compatibility half)."""

    def _boot(self):
        kernel = SimKernel("golden")
        kernel.register_node(TAINT_MAP_IP)
        fs = SimFileSystem()
        service = ShardedTaintMapService(
            kernel, TAINT_MAP_IP, TAINT_MAP_PORT, 1
        ).start()
        node = SimNode("n", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
        return kernel, service, node

    def test_register_response_bytes(self):
        kernel, service, node = self._boot()
        taint = node.tree.taint_for_tag("golden")
        payload = serialize_tags(taint.tags)
        raw = kernel.connect(node.ip, service.servers[0].address)
        raw.send_all(bytes([OP_REGISTER]) + struct.pack(">I", len(payload)) + payload)
        # PR-1 golden frame: STATUS_OK, 4-byte length, GID 1.
        assert _recv_exact(raw, 9) == b"\x00" + struct.pack(">I", 4) + struct.pack(">I", 1)
        raw.close()
        service.stop()

    def test_batch_register_response_bytes(self):
        kernel, service, node = self._boot()
        entries = [
            serialize_tags(node.tree.taint_for_tag(f"g{i}").tags) for i in range(3)
        ]
        payload = _pack_batch_register(entries)
        raw = kernel.connect(node.ip, service.servers[0].address)
        raw.send_all(
            bytes([OP_REGISTER_MANY]) + struct.pack(">I", len(payload)) + payload
        )
        expected = b"\x00" + struct.pack(">I", 12) + struct.pack(">3I", 1, 2, 3)
        assert _recv_exact(raw, len(expected)) == expected
        raw.close()
        service.stop()


class TestConcurrentSharding:
    def test_many_threads_fresh_taints(self, sharded):
        """Satellite: many threads registering fresh taints concurrently
        through one shared client — GID uniqueness, full round-trip,
        race-free counters."""
        service, n1, n2, c1, c2 = sharded
        threads_n, per_thread = 8, 24
        results: list[list[tuple]] = [[] for _ in range(threads_n)]
        taints = [
            [n1.tree.taint_for_tag(f"cc-{t}-{i}") for i in range(per_thread)]
            for t in range(threads_n)
        ]
        barrier = threading.Barrier(threads_n)

        def worker(t):
            barrier.wait()
            for taint in taints[t]:
                results[t].append((c1.gid_for(taint), taint))

        workers = [
            threading.Thread(target=worker, args=(t,)) for t in range(threads_n)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(30)
        flat = [entry for bucket in results for entry in bucket]
        total = threads_n * per_thread
        assert len(flat) == total
        gids = [gid for gid, _ in flat]
        # Distinct taints ⇒ globally unique GIDs, across all shards.
        assert len(set(gids)) == total
        assert service.global_taint_count() == total
        # Counters are race-free: every fresh taint travels exactly once
        # (concurrent misses may share a coalesced request), and the
        # per-shard server counters sum to exactly the client's sends.
        snapshot = service.stats_snapshot()
        assert 0 < c1.requests_sent <= total
        assert snapshot["register_requests"] == c1.requests_sent
        assert snapshot["register_entries"] == total
        assert snapshot["global_taints"] == total
        client_stats = c1.stats.snapshot()
        assert client_stats["cache_misses"] == total
        assert client_stats["cache_evictions"] == 0  # unbounded default
        # Full round-trip: every taint resolves from another node.
        for gid, taint in flat:
            resolved = c2.taint_for(gid)
            assert {t.tag for t in resolved.tags} == {t.tag for t in taint.tags}


class TestBoundedCaches:
    def _client(self, capacity):
        kernel = SimKernel("lru")
        kernel.register_node(TAINT_MAP_IP)
        fs = SimFileSystem()
        service = ShardedTaintMapService(
            kernel, TAINT_MAP_IP, TAINT_MAP_PORT, 1
        ).start()
        node = SimNode("n", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
        return service, node, TaintMapClient(node, service.addresses, cache_capacity=capacity)

    def test_lru_evicts_and_counts(self):
        service, node, client = self._client(capacity=2)
        t1, t2, t3 = (node.tree.taint_for_tag(f"lru{i}") for i in range(3))
        g1 = client.gid_for(t1)
        client.gid_for(t2)
        client.gid_for(t3)  # evicts t1 from the bounded gid cache
        assert client.requests_sent == 3
        assert client.gid_for(t1) == g1  # evicted ⇒ re-registers
        assert client.requests_sent == 4
        assert client.gid_for(t1) == g1  # now cached again ⇒ free
        assert client.requests_sent == 4
        snapshot = client.stats.snapshot()
        assert snapshot["cache_hits"] == 1
        assert snapshot["cache_misses"] == 4
        assert snapshot["cache_evictions"] > 0
        assert len(client._gid_cache) <= 2
        assert len(client._taint_cache) <= 2
        service.stop()

    def test_unbounded_default_never_evicts(self):
        service, node, client = self._client(capacity=None)
        taints = [node.tree.taint_for_tag(f"u{i}") for i in range(64)]
        gids = [client.gid_for(t) for t in taints]
        assert client.requests_sent == 64
        assert [client.gid_for(t) for t in taints] == gids
        assert client.requests_sent == 64  # Fig. 9 semantics preserved
        assert client.stats.snapshot()["cache_evictions"] == 0
        service.stop()

    def test_not_full_keeps_every_entry(self):
        cache = _LruCache(8, TaintMapStats())
        for i in range(8):
            cache.put(f"k{i}", i)
        assert all(cache.get(f"k{i}") == i for i in range(8))
        assert len(cache) == 8

    def test_read_and_update_refresh_recency(self):
        stats = TaintMapStats()
        cache = _LruCache(2, stats)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # a is now the most recent
        cache.put("c", 3)  # evicts b, the least recently used
        assert cache.get("b") is None
        cache.put("a", 10)  # an update, not an insert: nothing evicted
        cache.setdefault("a", 99)  # secondary fills never overwrite
        cache.put("d", 4)  # evicts c
        assert cache.get("c") is None
        assert (cache.get("a"), cache.get("d")) == (10, 4)
        assert stats.snapshot()["cache_evictions"] == 2

    def test_unbounded_lookup_is_the_lock_free_dict_get(self):
        stats = TaintMapStats()
        unbounded = _LruCache(None, stats)
        assert unbounded.lookup == unbounded._entries.get
        bounded = _LruCache(4, stats)
        assert bounded.lookup == bounded.get

    def test_bounded_client_round_trips_past_capacity(self):
        service, node, client = self._client(capacity=32)
        taints = [node.tree.taint_for_tag(f"t{i}") for i in range(48)]
        gids = [client.gid_for(t) for t in taints]
        assert len(set(gids)) == 48
        assert len(client._gid_cache) == len(client._taint_cache) == 32
        # The evicted first GID resolves again through the map.
        assert {t.tag for t in client.taint_for(gids[0]).tags} == {"t0"}
        client.close()
        service.stop()

    def test_bad_capacity_rejected(self):
        kernel = SimKernel("lru-bad")
        kernel.register_node(TAINT_MAP_IP)
        fs = SimFileSystem()
        node = SimNode("n", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
        with pytest.raises(TaintMapError, match="capacity"):
            TaintMapClient(node, (TAINT_MAP_IP, TAINT_MAP_PORT), cache_capacity=0)


class TestPoisonedConnectionReset:
    def test_mid_frame_failure_resets_transport(self):
        """Satellite bugfix: a server dying mid-frame must not leave a
        half-read connection behind — the next request gets a fresh
        connection and clean framing."""
        kernel = SimKernel("poison")
        kernel.register_node(TAINT_MAP_IP)
        fs = SimFileSystem()
        node = SimNode("n", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
        client = TaintMapClient(node, (TAINT_MAP_IP, TAINT_MAP_PORT))

        listener = kernel.listen(TAINT_MAP_IP, TAINT_MAP_PORT)

        def evil():
            endpoint = listener.accept(timeout=10)
            endpoint.recv(5)  # swallow the request head
            # Claim an 8-byte response but deliver only half, then die.
            endpoint.send_all(b"\x00" + struct.pack(">I", 8) + b"\x00\x00\x00\x2a")
            endpoint.close()
            listener.close()

        evil_thread = threading.Thread(target=evil, daemon=True)
        evil_thread.start()
        with pytest.raises(PipeClosed):
            client.gid_for(node.tree.taint_for_tag("victim"))
        evil_thread.join(10)  # the address must be free before rebinding
        # The poisoned connection was closed and discarded.
        assert client.transport._shards[0].conn is None
        assert client.transport._conns == []

        # A real server takes over the address; the client recovers with
        # no framing desync from the half-read response.
        service = ShardedTaintMapService(
            kernel, TAINT_MAP_IP, TAINT_MAP_PORT, 1
        ).start()
        gid = client.gid_for(node.tree.taint_for_tag("victim"))
        assert gid == 1
        resolved = client.taint_for(make_gid(0, 1))
        assert {t.tag for t in resolved.tags} == {"victim"}
        service.stop()

    def test_stale_connection_retries_fresh(self):
        """A connection that went stale while idle (server restart) is
        replaced transparently — no manual reset needed."""
        kernel = SimKernel("stale")
        kernel.register_node(TAINT_MAP_IP)
        fs = SimFileSystem()
        service = ShardedTaintMapService(
            kernel, TAINT_MAP_IP, TAINT_MAP_PORT, 1
        ).start()
        node = SimNode("n", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
        client = TaintMapClient(node, service.addresses, cache_enabled=False)
        client.gid_for(node.tree.taint_for_tag("first"))
        service.stop()
        service2 = ShardedTaintMapService(
            kernel, TAINT_MAP_IP, TAINT_MAP_PORT, 1
        ).start()
        # The client still holds the dead connection; the request
        # redials once instead of failing or desyncing.
        gid = client.gid_for(node.tree.taint_for_tag("second"))
        assert gid == 1
        service2.stop()


class TestClusterSharding:
    def test_dista_cluster_with_shards_end_to_end(self):
        from repro.jre import ServerSocket, Socket
        from repro.taint.values import TBytes

        cluster = Cluster(Mode.DISTA, taint_map_shards=2)
        n1 = cluster.add_node("n1")
        n2 = cluster.add_node("n2")
        with cluster:
            assert len(cluster.taint_map_service.servers) == 2
            assert n1.taintmap.shard_count == 2
            server = ServerSocket(n2, 9700)
            sock = Socket.connect(n1, (n2.ip, 9700))
            conn = server.accept()
            taints = [n1.tree.taint_for_tag(f"s{i}") for i in range(8)]
            for i, taint in enumerate(taints):
                sock.get_output_stream().write(
                    TBytes.tainted(f"m{i}".encode(), taint)
                )
            received = conn.get_input_stream().read_fully(16)
            assert received == b"".join(f"m{i}".encode() for i in range(8))
            assert received.overall_taint() is not None
            assert cluster.global_taint_count() == 8
            # Both shards excluded from workload wire accounting.
            assert len(cluster.taint_map_addresses) == 2

    def test_single_shard_default_unchanged(self):
        cluster = Cluster(Mode.DISTA)
        cluster.add_node("n1")
        with cluster:
            assert cluster.taint_map_shards == 1
            assert cluster.taint_map_server is cluster.taint_map_service.servers[0]
            assert cluster.taint_map_server.address == (TAINT_MAP_IP, TAINT_MAP_PORT)
