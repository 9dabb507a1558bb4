"""Elastic Taint Map tests (PR 8): versioned rings, GID-preserving live
migration, the control-plane wire protocol, epoch-flip races, handoff
failover, and the never-scaled differential frame-identity guarantee."""

import hashlib
import struct
import threading

import pytest

from repro.core.elastic import RingCoordinator
from repro.core.ha import FailoverTaintMapClient
from repro.core.taintmap import (
    OP_HANDOFF_BEGIN,
    OP_HANDOFF_CHUNK,
    OP_HANDOFF_END,
    OP_MUX_HELLO,
    OP_REGISTER,
    OP_REGISTER_MANY,
    OP_RING_UPDATE,
    STATUS_BAD_REQUEST,
    STATUS_OK,
    ShardedTaintMapService,
    ShardRing,
    ShardRouter,
    TaintMapClient,
    TaintMapServer,
    _pack_handoff_chunk,
    _recv_exact,
    _split_handoff_chunk,
    gid_shard,
    make_gid,
    serialize_tags,
    taint_key,
)
from repro.errors import PipeClosed, TaintMapError, TaintMapStaleRingError
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT, Cluster
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode


def _boot(shards=1, name="elastic"):
    kernel = SimKernel(name)
    kernel.register_node(TAINT_MAP_IP)
    fs = SimFileSystem()
    service = ShardedTaintMapService(
        kernel, TAINT_MAP_IP, TAINT_MAP_PORT, shards
    ).start()
    node = SimNode("n1", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
    return kernel, fs, service, node


def _request(kernel, source_ip, address, op, payload):
    """One raw control-plane request/response over a fresh connection."""
    endpoint = kernel.connect(source_ip, address)
    try:
        endpoint.send_all(bytes([op]) + struct.pack(">I", len(payload)) + payload)
        status = _recv_exact(endpoint, 1)[0]
        (length,) = struct.unpack(">I", _recv_exact(endpoint, 4))
        response = _recv_exact(endpoint, length) if length else b""
        return status, response
    finally:
        endpoint.close()


class TestRingWireGolden:
    """Golden byte layouts of the new control-plane encodings."""

    def test_ring_encoding_golden_bytes(self):
        ring = ShardRing(1, [("10.0.255.1", 7170), ("10.0.255.1", 7171)])
        ip = b"10.0.255.1"
        expected = (
            struct.pack(">IH", 1, 2)
            + bytes([len(ip)]) + ip + struct.pack(">H", 7170)
            + bytes([len(ip)]) + ip + struct.pack(">H", 7171)
        )
        assert ring.encode() == expected
        assert ShardRing.decode(expected) == ring

    def test_handoff_chunk_golden_bytes(self):
        entries = [(make_gid(0, 7), b"\x01\x02\x03"), (make_gid(2, 1), b"")]
        expected = (
            struct.pack(">H", 2)
            + struct.pack(">II", make_gid(0, 7), 3) + b"\x01\x02\x03"
            + struct.pack(">II", make_gid(2, 1), 0)
        )
        assert _pack_handoff_chunk(entries) == expected
        assert _split_handoff_chunk(expected) == entries

    def test_malformed_ring_rejected(self):
        good = ShardRing(0, [("10.0.255.1", 7170)]).encode()
        with pytest.raises(TaintMapError, match="ring"):
            ShardRing.decode(good[:-1])  # truncated
        with pytest.raises(TaintMapError, match="trailing"):
            ShardRing.decode(good + b"\x00")

    def test_malformed_handoff_chunk_rejected(self):
        good = _pack_handoff_chunk([(5, b"abc")])
        with pytest.raises(TaintMapError, match="trailing"):
            _split_handoff_chunk(good + b"\x00")


class TestRouterMemo:
    """Satellite 1: the ring memo is keyed on (shard count, epoch)."""

    def test_memo_shared_within_key_invalidated_across_epochs(self):
        a, b = ShardRouter(4, 0), ShardRouter(4, 0)
        assert a._hashes is b._hashes  # same key → one cached ring
        c = ShardRouter(4, 1)
        assert c._hashes is not a._hashes  # epoch bump → fresh ring
        assert (4, 0) in ShardRouter._RING_CACHE
        assert (4, 1) in ShardRouter._RING_CACHE

    def test_epoch_actually_rebalances_keys(self):
        """A scaled ring must not replay the day-one layout: the same
        shard count under a different epoch routes differently."""
        old, new = ShardRouter(4, 0), ShardRouter(4, 1)
        keys = [f"rebalance-{i}".encode() for i in range(400)]
        assert [old.shard_for_key(k) for k in keys] != [
            new.shard_for_key(k) for k in keys
        ]

    def test_epoch_zero_labels_match_pre_elastic_ring(self):
        """Differential guard: epoch 0 must hash the exact unsalted
        ``shard:<s>:<v>`` labels of the pre-elastic router, or a mixed
        fleet would disagree on key ownership."""
        router = ShardRouter(3, 0)
        points = []
        for shard in range(3):
            for vnode in range(ShardRouter.VNODES):
                digest = hashlib.sha256(f"shard:{shard}:{vnode}".encode()).digest()
                points.append((int.from_bytes(digest[:8], "big"), shard))
        points.sort()
        assert router._hashes == tuple(h for h, _ in points)
        assert router._shards == tuple(s for _, s in points)

    def test_ring_growth_preserves_addresses(self):
        ring = ShardRing(0, [(TAINT_MAP_IP, 7170), (TAINT_MAP_IP, 7171)])
        grown = ring.grow([(TAINT_MAP_IP, 7172)])
        assert grown.epoch == 1
        assert grown.shard_count == 3
        assert grown.addresses[:2] == ring.addresses
        assert grown.router().epoch == 1


class TestControlOpsOnTheWire:
    """The new opcodes, exercised as raw frames against a live shard."""

    def test_handoff_session_frames(self):
        kernel, _, service, node = _boot(shards=2)
        try:
            target = service.servers[1].address
            taint = node.tree.taint_for_tag("migrant")
            serialized = serialize_tags(taint.tags)
            foreign_gid = make_gid(0, 9)

            status, response = _request(
                kernel, node.ip, target, OP_HANDOFF_BEGIN, struct.pack(">I", 1)
            )
            assert (status, response) == (STATUS_OK, b"")

            chunk = _pack_handoff_chunk([(foreign_gid, serialized)])
            status, response = _request(
                kernel, node.ip, target, OP_HANDOFF_CHUNK, chunk
            )
            assert status == STATUS_OK
            assert response == struct.pack(">I", 1)  # one entry adopted

            # Replay (coordinator failover redelivers): idempotent.
            status, response = _request(
                kernel, node.ip, target, OP_HANDOFF_CHUNK, chunk
            )
            assert status == STATUS_OK
            assert response == struct.pack(">I", 0)

            status, response = _request(
                kernel, node.ip, target, OP_HANDOFF_END, struct.pack(">I", 1)
            )
            assert status == STATUS_OK
            assert response == struct.pack(">I", 1)  # cumulative adopted

            # The migrated key now dedups on its new owner.
            assert service.servers[1]._by_key[taint_key(taint.tags)] == foreign_gid
            assert service.servers[1].stats.snapshot()["handoff_entries"] == 1
        finally:
            service.stop()

    def test_ring_update_flips_epoch_and_rejects_regressions(self):
        kernel, _, service, node = _boot(shards=2)
        try:
            target = service.servers[0].address
            new_ring = service.ring.grow([(TAINT_MAP_IP, TAINT_MAP_PORT + 2)])

            status, response = _request(
                kernel, node.ip, target, OP_RING_UPDATE, new_ring.encode()
            )
            assert status == STATUS_OK
            assert response == struct.pack(">I", 1)
            assert service.servers[0].ring_epoch == 1
            assert service.servers[0].shard_count == 3

            # Replaying the old epoch-0 ring is a no-op, not a downgrade.
            status, response = _request(
                kernel, node.ip, target, OP_RING_UPDATE, service.ring.encode()
            )
            assert status == STATUS_OK
            assert response == struct.pack(">I", 1)

            # A handoff session pinned to a pre-flip epoch is refused.
            status, _ = _request(
                kernel, node.ip, target, OP_HANDOFF_BEGIN, struct.pack(">I", 0)
            )
            assert status == STATUS_BAD_REQUEST

            status, _ = _request(kernel, node.ip, target, OP_RING_UPDATE, b"junk")
            assert status == STATUS_BAD_REQUEST
        finally:
            service.stop()


class TestLiveScaleOut:
    """Tentpole correctness: zero failed lookups, zero renumbered GIDs,
    lazy client re-routing."""

    def test_scale_1_to_4_preserves_every_gid(self):
        kernel, fs, service, node = _boot()
        old_client = TaintMapClient(node, service.addresses)
        taints = [node.tree.taint_for_tag(f"pre-{i}") for i in range(120)]
        gids = [old_client.gid_for(t) for t in taints]
        assert all(gid_shard(g) == 0 for g in gids)

        coordinator = RingCoordinator(service)
        ring = coordinator.scale_to(4)
        assert ring.epoch == 1 and ring.shard_count == 4
        assert coordinator.handoff_entries_sent > 0
        assert len(service.servers) == 4
        assert all(s.ring_epoch == 1 for s in service.servers)

        # The pre-scale client discovers the ring through STALE_RING and
        # keeps working; fresh registrations now span all four shards.
        new_taints = [node.tree.taint_for_tag(f"post-{i}") for i in range(120)]
        new_gids = [old_client.gid_for(t) for t in new_taints]
        assert {gid_shard(g) for g in new_gids} == {0, 1, 2, 3}
        assert old_client.ring.epoch == 1
        assert old_client.stats.snapshot()["stale_ring_retries"] >= 1

        # Zero renumbered GIDs: a cache-free client re-registering every
        # pre-scale taint gets the original IDs back (dedup state
        # migrated to the keys' new owners).
        node2 = SimNode(
            "n2", kernel.register_node("10.0.0.2"), 2, kernel, fs, Mode.DISTA
        )
        fresh = TaintMapClient(node2, service.addresses, cache_enabled=False)
        fresh.adopt_ring(ring)
        assert [fresh.gid_for(t) for t in taints] == gids

        # Zero failed lookups: every GID ever issued still resolves.
        for gid, taint in zip(gids + new_gids, taints + new_taints):
            resolved = fresh.taint_for(gid)
            assert {t.tag for t in resolved.tags} == {t.tag for t in taint.tags}

        # Telemetry: epoch gauge and handoff counter on the shards.
        snapshot = service.servers[0].metrics.snapshot()
        assert snapshot["dista_ring_epoch"]["samples"][0]["value"] == 1
        migrated = sum(
            s.stats.snapshot()["handoff_entries"] for s in service.servers
        )
        assert migrated == coordinator.handoff_entries_sent

        fresh.close()
        old_client.close()
        service.stop()

    def test_scale_must_grow(self):
        _, _, service, _ = _boot(shards=2)
        try:
            with pytest.raises(TaintMapError, match="not larger"):
                RingCoordinator(service).scale_to(2)
        finally:
            service.stop()

    def test_stale_ring_error_is_not_a_connection_error(self):
        """HA must never rotate replicas on a routing-epoch miss."""
        assert not issubclass(TaintMapStaleRingError, ConnectionError)

    def test_repeated_scale_outs_compose(self):
        """1 → 2 → 4: entries adopted in the first migration are re-homed
        by their allocating shard in the second; originals never move."""
        kernel, _, service, node = _boot()
        client = TaintMapClient(node, service.addresses, cache_enabled=False)
        taints = [node.tree.taint_for_tag(f"twice-{i}") for i in range(80)]
        gids = [client.gid_for(t) for t in taints]

        RingCoordinator(service).scale_to(2)
        ring = RingCoordinator(service).scale_to(4)
        assert ring.epoch == 2

        client.adopt_ring(ring)
        assert [client.gid_for(t) for t in taints] == gids
        for gid in gids:
            assert client.taint_for(gid) is not None
        client.close()
        service.stop()


class TestEpochFlipRaceAsync:
    """Tentpole (3): the async transport re-homes coalescing windows
    mid-flight — registrations racing the flip never fail."""

    def test_concurrent_registrations_during_scale_out(self):
        kernel, fs, service, node = _boot(name="elastic-race")
        client = TaintMapClient(node, service.addresses)
        pre = [node.tree.taint_for_tag(f"pre-{i}") for i in range(50)]
        pre_gids = client.gids_for(pre)

        churn_taints: list = []
        errors: list = []
        stop = threading.Event()

        def churn(worker):
            batch_index = 0
            while not stop.is_set():
                batch = [
                    node.tree.taint_for_tag(f"churn-{worker}-{batch_index}-{i}")
                    for i in range(8)
                ]
                batch_index += 1
                try:
                    client.gids_for(batch)
                except Exception as exc:  # noqa: BLE001 - the assertion
                    errors.append(exc)
                    return
                churn_taints.extend(batch)

        workers = [
            threading.Thread(target=churn, args=(w,), daemon=True) for w in range(4)
        ]
        for w in workers:
            w.start()
        ring = RingCoordinator(service).scale_to(4)
        stop.set()
        for w in workers:
            w.join(30)

        assert errors == []
        assert client.ring.epoch == 1
        assert client.shard_count == 4

        # Every registration that raced the flip resolves, under the
        # original GID (registering again returns the same ID).
        node2 = SimNode(
            "n2", kernel.register_node("10.0.0.2"), 2, kernel, fs, Mode.DISTA
        )
        checker = TaintMapClient(node2, service.addresses, cache_enabled=False)
        checker.adopt_ring(ring)
        assert checker.gids_for(pre) == pre_gids
        for taint in churn_taints:
            gid = checker.gid_for(taint)
            assert checker.taint_for(gid) is not None

        checker.close()
        client.close()
        service.stop()


class _CrashOnHandoff(TaintMapServer):
    """A new shard whose primary dies the moment handoff traffic
    arrives — the mid-handoff kill of the failover test."""

    def _handle(self, op, payload):
        if op in (OP_HANDOFF_BEGIN, OP_HANDOFF_CHUNK, OP_HANDOFF_END):
            raise PipeClosed("primary crashed mid-handoff")
        return super()._handle(op, payload)


class TestMidHandoffKillFailover:
    def test_handoff_fails_over_to_standby_and_clients_follow(self):
        kernel, fs, service, node = _boot(name="elastic-kill")
        seed = TaintMapClient(node, service.addresses, cache_enabled=False)
        taints = [node.tree.taint_for_tag(f"hk-{i}") for i in range(80)]
        gids = [seed.gid_for(t) for t in taints]

        # The successor ring scale_to will build, pre-computed so the
        # standby can boot on it before the migration starts.
        new_ring = service.ring.grow([(TAINT_MAP_IP, TAINT_MAP_PORT + 1)])
        standby1 = TaintMapServer(
            kernel, TAINT_MAP_IP, TAINT_MAP_PORT + 501, 1, 2, ring=new_ring
        ).start()
        standby0 = TaintMapServer(
            kernel, TAINT_MAP_IP, TAINT_MAP_PORT + 500, 0, 2, ring=new_ring
        ).start()

        coordinator = RingCoordinator(
            service, standbys={1: [standby1.address]}
        )
        ring = coordinator.scale_to(2, server_factory=_CrashOnHandoff)
        assert ring == new_ring
        assert coordinator.handoff_entries_sent > 0
        # Every migrated entry landed on the standby, not the primary.
        assert standby1.stats.snapshot()["handoff_entries"] == (
            coordinator.handoff_entries_sent
        )
        assert service.servers[1].stats.snapshot()["handoff_entries"] == 0

        # The crashed primary is gone for good; clients with a standby
        # list keep the shard available.
        service.servers[1].stop()
        node2 = SimNode(
            "n2", kernel.register_node("10.0.0.2"), 2, kernel, fs, Mode.DISTA
        )
        client = FailoverTaintMapClient(
            node2,
            list(ring.addresses),
            [standby0.address, standby1.address],
            cache_enabled=False,
        )
        client.adopt_ring(ring)

        # Zero renumbered GIDs even through the kill: migrated dedup
        # state is served by the standby.
        assert [client.gid_for(t) for t in taints] == gids
        # And the shard still allocates: a fresh key owned by shard 1
        # gets a shard-1 GID from the standby.
        router = ring.router()
        for i in range(10000):
            taint = node2.tree.taint_for_tag(f"fresh-{i}")
            if router.shard_for_key(taint_key(taint.tags)) == 1:
                assert gid_shard(client.gid_for(taint)) == 1
                break
        else:
            raise AssertionError("no shard-1 key found")

        client.close()
        seed.close()
        standby0.stop()
        standby1.stop()
        service.stop()


class TestNeverScaledByteIdentity:
    """Satellite 4 differential: a deployment that never scales emits
    frames byte-identical to the seed protocol — the elastic machinery
    is invisible until used."""

    def test_client_register_frame_is_seed_identical(self):
        """The client's register request, once the mux upgrade's 4-byte
        correlation id is stripped, is exactly the sync protocol's frame:
        a lone miss travels as a one-entry ``OP_REGISTER_MANY`` whose
        entry is the seed ``OP_REGISTER`` payload byte for byte."""
        kernel = SimKernel("diff")
        kernel.register_node(TAINT_MAP_IP)
        fs = SimFileSystem()
        node = SimNode(
            "n", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA
        )
        listener = kernel.listen(TAINT_MAP_IP, TAINT_MAP_PORT)
        captured = []

        def read_frame(endpoint):
            head = _recv_exact(endpoint, 1)
            (length,) = struct.unpack(">I", _recv_exact(endpoint, 4))
            payload = _recv_exact(endpoint, length) if length else b""
            return head + struct.pack(">I", length) + payload

        def fake_server():
            endpoint = listener.accept(timeout=10)
            assert read_frame(endpoint) == bytes([OP_MUX_HELLO]) + struct.pack(">I", 0)
            endpoint.send_all(b"\x00" + struct.pack(">I", 0))
            corr = _recv_exact(endpoint, 4)
            captured.append(read_frame(endpoint))
            # The seed server's golden reply (STATUS_OK, len 4, GID 1)
            # behind the request's correlation id.
            endpoint.send_all(
                corr + b"\x00" + struct.pack(">I", 4) + struct.pack(">I", 1)
            )
            endpoint.close()
            listener.close()

        thread = threading.Thread(target=fake_server, daemon=True)
        thread.start()
        client = TaintMapClient(node, (TAINT_MAP_IP, TAINT_MAP_PORT))
        taint = node.tree.taint_for_tag("seed")
        # Serialize before registering: gid_for stamps the allocated GID
        # into the tag, and the on-wire frame carries the pre-stamp form.
        serialized = serialize_tags(taint.tags)
        assert client.gid_for(taint) == 1
        thread.join(10)
        seed_frame = (
            bytes([OP_REGISTER]) + struct.pack(">I", len(serialized)) + serialized
        )
        payload = struct.pack(">H", 1) + seed_frame[1:]
        expected = bytes([OP_REGISTER_MANY]) + struct.pack(">I", len(payload)) + payload
        assert captured == [expected]
        client.close()

    def test_never_scaled_service_allocates_seed_gids(self):
        _, _, service, node = _boot(name="diff-gids")
        client = TaintMapClient(node, service.addresses)
        gids = [
            client.gid_for(node.tree.taint_for_tag(f"g{i}")) for i in range(5)
        ]
        assert gids == [1, 2, 3, 4, 5]  # unsharded protocol's 1, 2, 3, …
        assert service.ring.epoch == 0
        client.close()
        service.stop()


class TestClusterScaleOut:
    """Cluster.scale_taint_map plus the taintMapMaxShards guardrail."""

    def test_scale_taint_map_pushes_ring_to_every_node(self):
        cluster = Cluster(Mode.DISTA, taint_map_shards=1, taint_map_max_shards=8)
        n1 = cluster.add_node("n1")
        n2 = cluster.add_node("n2")
        with cluster:
            taints = [n1.tree.taint_for_tag(f"c-{i}") for i in range(40)]
            gids = [n1.taintmap.gid_for(t) for t in taints]
            ring = cluster.scale_taint_map(4)
            assert cluster.taint_map_shards == 4
            assert len(cluster.taint_map_addresses) == 4
            assert n1.taintmap.ring.epoch == 1
            assert n2.taintmap.ring.epoch == 1
            # Nodes attached after the scale-out get the live ring too.
            n3 = cluster.add_node("n3")
            assert n3.taintmap.ring.epoch == 1
            assert n3.taintmap.shard_count == 4
            # No GID renumbered, all lookups resolve from a late node.
            checker = TaintMapClient(
                n3, cluster.taint_map_addresses, cache_enabled=False
            )
            checker.adopt_ring(ring)
            assert [checker.gid_for(t) for t in taints] == gids
            checker.close()
            assert cluster.last_scale_coordinator.handoff_entries_sent >= 0

    def test_max_shards_guardrail(self):
        cluster = Cluster(Mode.DISTA, taint_map_shards=1, taint_map_max_shards=2)
        cluster.add_node("n1")
        with cluster:
            from repro.errors import ReproError

            with pytest.raises(ReproError, match="taint_map_max_shards"):
                cluster.scale_taint_map(4)
            cluster.scale_taint_map(2)
            assert cluster.taint_map_shards == 2

    def test_max_below_min_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="below"):
            Cluster(Mode.DISTA, taint_map_shards=4, taint_map_max_shards=2)

    def test_scale_requires_dista_mode(self):
        from repro.errors import ReproError

        cluster = Cluster(Mode.ORIGINAL)
        cluster.add_node("n1")
        with cluster:
            with pytest.raises(ReproError, match="DISTA"):
                cluster.scale_taint_map(2)
