"""Durable Taint Map tests (PR 10): WAL + snapshot recovery, scale-in
draining with GID tombstone forwarding, crash edge cases, and the
stats/exhaustion bugfix regressions."""

import struct
import zlib

import pytest

from repro.core import durability
from repro.core.durability import (
    WAL_ENTRY,
    WAL_RING,
    FileTaintMapStore,
    MemoryTaintMapStore,
    iter_records,
    pack_record,
)
from repro.core.elastic import RingCoordinator
from repro.core.taintmap import (
    GID_SEQ_MASK,
    OP_REGISTER,
    STATUS_GID_EXHAUSTED,
    ShardedTaintMapService,
    ShardRing,
    TaintMapClient,
    TaintMapServer,
    gid_shard,
    make_gid,
    serialize_tags,
)
from repro.errors import TaintMapError, TaintMapExhaustedError
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT, Cluster
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode


def _boot(shards=1, name="durability", store_factory=None, snapshot_every=None):
    kernel = SimKernel(name)
    kernel.register_node(TAINT_MAP_IP)
    fs = SimFileSystem()
    service = ShardedTaintMapService(
        kernel,
        TAINT_MAP_IP,
        TAINT_MAP_PORT,
        shards,
        store_factory=store_factory,
        snapshot_every=snapshot_every,
    ).start()
    node = SimNode("n1", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
    return kernel, fs, service, node


def _memory_stores():
    stores = {}

    def factory(index):
        return stores.setdefault(index, MemoryTaintMapStore())

    return stores, factory


class TestWalCodec:
    """Record framing: self-delimiting, checksummed, torn-tail safe."""

    def test_record_golden_bytes(self):
        payload = struct.pack(">I", make_gid(0, 1)) + b"tags"
        record = pack_record(WAL_ENTRY, payload)
        expected = (
            struct.pack(">BI", WAL_ENTRY, len(payload))
            + payload
            + struct.pack(">I", zlib.crc32(bytes([WAL_ENTRY]) + payload))
        )
        assert record == expected
        records, torn = iter_records(record + pack_record(WAL_RING, b"ring"))
        assert records == [(WAL_ENTRY, payload), (WAL_RING, b"ring")]
        assert torn == 0

    def test_torn_tail_detected_and_prefix_kept(self):
        good = pack_record(WAL_ENTRY, b"first")
        torn_log = good + pack_record(WAL_ENTRY, b"second")[:-3]
        records, torn = iter_records(torn_log)
        assert records == [(WAL_ENTRY, b"first")]
        assert torn == 1

    def test_corrupt_crc_stops_replay(self):
        record = bytearray(pack_record(WAL_ENTRY, b"payload"))
        record[-1] ^= 0xFF
        records, torn = iter_records(bytes(record))
        assert records == []
        assert torn == 1

    def test_snapshot_roundtrip(self):
        ring = ShardRing(2, [("10.0.255.1", 7170), ("10.0.255.1", 7171)], {1})
        gid_entries = [(make_gid(0, 1), b"a"), (make_gid(1, 9), b"bb")]
        key_entries = [(b"key-a", make_gid(0, 1)), (b"key-b", make_gid(1, 9))]
        raw = durability.encode_snapshot(42, ring.encode(), gid_entries, key_entries)
        next_gid, ring_bytes, gids, keys = durability.decode_snapshot(raw)
        assert next_gid == 42
        assert ShardRing.decode(ring_bytes) == ring
        assert gids == gid_entries
        assert keys == key_entries


class TestRestartRecovery:
    """Tentpole: a restarted shard replays snapshot+WAL and resumes its
    GID sequence — no GID is ever renumbered."""

    def test_restart_resumes_gid_sequence(self):
        stores, factory = _memory_stores()
        kernel, fs, service, node = _boot(store_factory=factory)
        client = TaintMapClient(node, service.addresses, cache_enabled=False)
        taints = [node.tree.taint_for_tag(f"dur-{i}") for i in range(40)]
        gids = [client.gid_for(t) for t in taints]
        watermark = service.servers[0].next_seq

        server = service.restart_shard(0)
        assert server.next_seq == watermark  # sequence resumed, not reset
        assert server.stats.snapshot()["global_taints"] == 40
        assert server.stats.snapshot()["wal_replayed"] == 40

        fresh = TaintMapClient(node, service.addresses, cache_enabled=False)
        # Zero renumbered GIDs: re-registering returns the original IDs.
        assert [fresh.gid_for(t) for t in taints] == gids
        # Zero failed lookups: every pre-crash GID still resolves.
        for gid, taint in zip(gids, taints):
            resolved = fresh.taint_for(gid)
            assert {t.tag for t in resolved.tags} == {t.tag for t in taint.tags}
        # And the allocator moved past the recovered high-water mark.
        post = fresh.gid_for(node.tree.taint_for_tag("post-restart"))
        assert post not in gids
        client.close()
        fresh.close()
        service.stop()

    def test_snapshot_compacts_wal(self):
        stores, factory = _memory_stores()
        kernel, fs, service, node = _boot(store_factory=factory, snapshot_every=10)
        client = TaintMapClient(node, service.addresses, cache_enabled=False)
        for i in range(25):
            client.gid_for(node.tree.taint_for_tag(f"snap-{i}"))
        server = service.servers[0]
        assert server.stats.snapshot()["wal_snapshots"] >= 2
        assert stores[0].snapshot is not None
        # The log only holds the tail since the last compaction.
        records, torn = iter_records(stores[0].read_log())
        assert torn == 0
        assert len(records) < 25
        restarted = service.restart_shard(0)
        assert restarted.stats.snapshot()["global_taints"] == 25
        client.close()
        service.stop()

    def test_torn_wal_record_ignored(self):
        stores, factory = _memory_stores()
        kernel, fs, service, node = _boot(store_factory=factory)
        client = TaintMapClient(node, service.addresses, cache_enabled=False)
        gids = [
            client.gid_for(node.tree.taint_for_tag(f"torn-{i}")) for i in range(5)
        ]
        # Crash mid-append: the last record loses its checksum tail.
        stores[0].log = stores[0].log[:-3]
        server = service.restart_shard(0)
        snap = server.stats.snapshot()
        assert snap["wal_torn_records"] == 1
        assert snap["global_taints"] == 4  # the torn entry was never acked
        fresh = TaintMapClient(node, service.addresses, cache_enabled=False)
        for gid in gids[:-1]:
            assert fresh.taint_for(gid) is not None
        client.close()
        fresh.close()
        service.stop()

    def test_kill_between_snapshot_and_truncate_replays_idempotently(self):
        stores, factory = _memory_stores()
        kernel, fs, service, node = _boot(store_factory=factory)
        client = TaintMapClient(node, service.addresses, cache_enabled=False)
        taints = [node.tree.taint_for_tag(f"idem-{i}") for i in range(8)]
        gids = [client.gid_for(t) for t in taints]
        pre_snapshot_log = stores[0].read_log()
        service.servers[0].snapshot_now()
        # The crash window: snapshot written, truncate lost — the full
        # pre-snapshot WAL is still on disk next to the snapshot.
        stores[0].log = pre_snapshot_log
        server = service.restart_shard(0)
        assert server.stats.snapshot()["global_taints"] == 8  # not 16
        assert server.next_seq == max(g & GID_SEQ_MASK for g in gids) + 1
        fresh = TaintMapClient(node, service.addresses, cache_enabled=False)
        assert [fresh.gid_for(t) for t in taints] == gids
        client.close()
        fresh.close()
        service.stop()

    def test_file_store_persists_through_sim_fs(self):
        fs = SimFileSystem()
        store = FileTaintMapStore(fs, "/var/dista/taintmap", 3)
        assert store.read_log() == b""
        assert store.read_snapshot() is None
        store.append_log(pack_record(WAL_ENTRY, b"x"))
        store.append_log(pack_record(WAL_ENTRY, b"y"))
        records, torn = iter_records(store.read_log())
        assert [p for _, p in records] == [b"x", b"y"] and torn == 0
        store.write_snapshot(b"snap")
        assert store.read_snapshot() == b"snap"
        store.truncate_log()
        assert store.read_log() == b""
        assert fs.exists("/var/dista/taintmap/shard-3/wal")


class TestMidHandoffCrashResume:
    """Tentpole: recovery composes with the PR 8 coordinator — restart
    the crashed shard, then resume() re-drives the migration."""

    def test_restart_mid_scale_out_then_resume(self):
        stores, factory = _memory_stores()
        kernel, fs, service, node = _boot(store_factory=factory)
        client = TaintMapClient(node, service.addresses, cache_enabled=False)
        taints = [node.tree.taint_for_tag(f"mh-{i}") for i in range(60)]
        gids = [client.gid_for(t) for t in taints]

        coordinator = RingCoordinator(service, standbys=None)
        # Crash the migration at the epoch flip: the bulk pass has run,
        # shard 0 has adopted (and WAL-logged) the successor ring, but
        # the delta pass and the service flip never happen.
        original_deliver = coordinator._deliver
        state = {"flips": 0}

        def crashing_deliver(ring, shard, frames, addresses=None):
            original_deliver(ring, shard, frames, addresses=addresses)
            if any(op == 7 for op, _ in frames):  # OP_RING_UPDATE
                state["flips"] += 1
                raise TaintMapError("coordinator crashed after the flip")

        coordinator._deliver = crashing_deliver
        with pytest.raises(TaintMapError, match="crashed"):
            coordinator.scale_to(2)
        assert state["flips"] == 1
        assert service.ring.epoch == 0  # service never flipped

        # The flipped shard now crashes too; recovery restores the
        # adopted epoch from the WAL, so it keeps serving OP_HANDOFF_*
        # for the in-flight migration.
        restarted = service.restart_shard(0)
        assert restarted.ring_epoch == 1

        coordinator._deliver = original_deliver
        ring = coordinator.resume()
        assert ring is not None and ring.epoch == 1
        assert service.ring.epoch == 1
        assert coordinator.resume() is None  # nothing left in flight

        checker = TaintMapClient(node, service.addresses, cache_enabled=False)
        checker.adopt_ring(ring)
        assert [checker.gid_for(t) for t in taints] == gids
        for gid in gids:
            assert checker.taint_for(gid) is not None
        client.close()
        checker.close()
        service.stop()


class TestDrain:
    """Tentpole: scale-in hands entries to the survivors and leaves the
    retired slot forwarding, so every GID ever allocated keeps
    resolving."""

    def _fill(self, node, client, count, prefix):
        taints = [node.tree.taint_for_tag(f"{prefix}-{i}") for i in range(count)]
        return taints, [client.gid_for(t) for t in taints]

    def test_ring_drain_encoding_and_forwarding(self):
        ring = ShardRing(
            1,
            [("10.0.255.1", 7170), ("10.0.255.1", 7171), ("10.0.255.1", 7172)],
        )
        drained = ring.drain(2)
        assert drained.epoch == 2
        assert drained.retired == frozenset({2})
        assert drained.active_shards == [0, 1]
        # The retired slot advertises the forward (lowest-active) address.
        assert drained.addresses[2] == ring.addresses[0]
        assert ShardRing.decode(drained.encode()) == drained
        # Never-drained rings still encode byte-identically to PR 8.
        assert ShardRing.decode(ring.encode()).retired == frozenset()
        # Chained drains collapse forwarding to one hop.
        chained = drained.drain(0, forward=1)
        assert chained.addresses[2] == ring.addresses[1]
        assert chained.addresses[0] == ring.addresses[1]
        with pytest.raises(TaintMapError, match="not an active shard"):
            drained.drain(2)

    def test_drain_keeps_every_gid_resolvable(self):
        kernel, fs, service, node = _boot(shards=3, name="drain")
        client = TaintMapClient(node, service.addresses, cache_enabled=False)
        taints, gids = self._fill(node, client, 120, "drain")
        assert {gid_shard(g) for g in gids} == {0, 1, 2}

        coordinator = RingCoordinator(service)
        ring = coordinator.drain(2)
        assert ring.retired == frozenset({2})
        assert coordinator.drain_entries_sent > 0
        assert service.servers[2].retired

        checker = TaintMapClient(node, service.addresses, cache_enabled=False)
        checker.adopt_ring(ring)
        # Post-drain lookup success over every GID ever allocated: 100%,
        # including shard 2's GIDs — now served via the forwarding slot,
        # even with the drained process gone.
        service.servers[2].stop()
        for gid, taint in zip(gids, taints):
            resolved = checker.taint_for(gid)
            assert {t.tag for t in resolved.tags} == {t.tag for t in taint.tags}
        # Zero renumbered GIDs: re-registration returns the originals.
        assert [checker.gid_for(t) for t in taints] == gids
        # New registrations land only on survivors.
        fresh_gid = checker.gid_for(node.tree.taint_for_tag("post-drain"))
        assert gid_shard(fresh_gid) in (0, 1)
        client.close()
        checker.close()
        service.stop()

    def test_drain_of_shard_holding_adopted_foreign_entries(self):
        kernel, fs, service, node = _boot(shards=2, name="drain-foreign")
        client = TaintMapClient(node, service.addresses, cache_enabled=False)
        taints, gids = self._fill(node, client, 80, "df")

        coordinator = RingCoordinator(service)
        # Scale out 2→3: shard 2 adopts entries allocated by shards 0/1.
        ring = coordinator.scale_to(3)
        client.adopt_ring(ring)
        more, more_gids = self._fill(node, client, 40, "df-post")
        adopted_foreign = [
            gid
            for gid in service.servers[2]._by_gid
            if gid_shard(gid) != 2
        ]
        assert adopted_foreign  # the drain target holds foreign entries

        # Drain shard 2: its own allocations AND the adopted foreign
        # entries must keep resolving through the forwarding slot.
        ring = coordinator.drain(2)
        checker = TaintMapClient(node, service.addresses, cache_enabled=False)
        checker.adopt_ring(ring)
        service.servers[2].stop()
        all_taints = taints + more
        all_gids = gids + more_gids
        for gid, taint in zip(all_gids, all_taints):
            resolved = checker.taint_for(gid)
            assert {t.tag for t in resolved.tags} == {t.tag for t in taint.tags}
        assert [checker.gid_for(t) for t in all_taints] == all_gids
        client.close()
        checker.close()
        service.stop()

    def test_cluster_scale_in_with_async_clients(self):
        cluster = Cluster(Mode.DISTA, name="scale-in", taint_map_shards=3)
        with cluster:
            node = cluster.add_node("n1")
            taints = [node.tree.taint_for_tag(f"ci-{i}") for i in range(90)]
            gids = node.taintmap.gids_for(taints)
            assert {gid_shard(g) for g in gids} == {0, 1, 2}

            ring = cluster.scale_taint_map(2)
            assert ring.retired == frozenset({2})
            assert len(cluster.taint_map_service.ring.active_shards) == 2
            # The drained process is stopped after the ring push...
            assert not cluster.taint_map_service.servers[2]._running
            # ...and the attached async client still resolves everything
            # (its shard-2 channel was readdressed to the forward shard).
            assert node.taintmap.gids_for(taints) == gids
            for gid in gids:
                assert node.taintmap.taint_for(gid) is not None
            # The slot's advertised address is the forwarding address.
            assert cluster.taint_map_addresses[2] == cluster.taint_map_addresses[0]

            # Scale back out: retired indices are never reused.
            ring = cluster.scale_taint_map(3)
            assert ring.shard_count == 4
            assert ring.retired == frozenset({2})
            assert node.taintmap.gids_for(taints) == gids


class TestAdoptEntryRegression:
    """Satellite: adopt-side stats must be idempotent under replay."""

    def test_replayed_chunk_does_not_double_count(self):
        kernel = SimKernel("adopt-replay")
        kernel.register_node(TAINT_MAP_IP)
        server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT)
        node = SimNode(
            "n1",
            kernel.register_node("10.0.0.1"),
            1,
            kernel,
            SimFileSystem(),
            Mode.DISTA,
        )
        taint = node.tree.taint_for_tag("adopted")
        serialized = serialize_tags(taint.tags)
        foreign_gid = make_gid(2, 7)
        assert server._adopt_entry(foreign_gid, serialized) is True
        assert server.stats.snapshot()["global_taints"] == 1
        # The key is re-registered locally under a new local GID while a
        # coordinator retry replays the same chunk: the gid map already
        # has the foreign GID, so the replay must be a stats no-op.
        del server._by_key[next(iter(server._by_key))]
        server._adopt_entry(foreign_gid, serialized)
        assert server.stats.snapshot()["global_taints"] == 1  # was 2 pre-fix

    def test_adopt_installs_gid_even_when_key_is_taken(self):
        """Drain forwarding depends on the GID landing regardless of the
        key-dedup outcome: the forward shard may already own the key
        under its own GID, but the drained shard's GID must resolve."""
        kernel = SimKernel("adopt-gid")
        kernel.register_node(TAINT_MAP_IP)
        server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT)
        node = SimNode(
            "n1",
            kernel.register_node("10.0.0.1"),
            1,
            kernel,
            SimFileSystem(),
            Mode.DISTA,
        )
        taint = node.tree.taint_for_tag("dup")
        serialized = serialize_tags(taint.tags)
        local_gid = server._register(frozenset(taint.tags), serialized)
        foreign_gid = make_gid(3, 1)
        server._adopt_entry(foreign_gid, serialized)
        with server._lock:
            assert server._by_gid[foreign_gid] == serialized
            assert server._by_key[next(iter(server._by_key))] == local_gid
        assert server.stats.snapshot()["global_taints"] == 2


class TestGidExhaustion:
    """Satellite: exhaustion is a structured, non-retried error with a
    headroom gauge in front of it."""

    def _exhaust(self, server):
        with server._lock:
            server._next_gid = GID_SEQ_MASK + 1

    def test_headroom_gauge_tracks_allocations(self):
        kernel, fs, service, node = _boot(name="headroom")
        server = service.servers[0]
        start = server.gid_headroom
        assert start == GID_SEQ_MASK
        client = TaintMapClient(node, service.addresses, cache_enabled=False)
        client.gid_for(node.tree.taint_for_tag("one"))
        assert server.gid_headroom == start - 1
        samples = server.metrics.snapshot()["dista_gid_headroom"]["samples"]
        assert samples[0]["value"] == start - 1
        client.close()
        service.stop()

    def test_pooled_client_surfaces_structured_error(self):
        # The per-request leg: coalescing pinned off, the cache off, so
        # the exhausted status comes straight back on a lone frame.
        kernel, fs, service, node = _boot(name="exhaust-pooled")
        self._exhaust(service.servers[0])
        client = TaintMapClient(
            node, service.addresses, cache_enabled=False, coalesce_window_us=0
        )
        with pytest.raises(TaintMapExhaustedError):
            client.gid_for(node.tree.taint_for_tag("over"))
        # Not a ConnectionError: failover must never rotate on it.
        assert not issubclass(TaintMapExhaustedError, ConnectionError)
        client.close()
        service.stop()

    def test_async_client_does_not_burn_a_failover(self):
        kernel, fs, service, node = _boot(name="exhaust-async")
        self._exhaust(service.servers[0])
        client = TaintMapClient(node, service.addresses)
        with pytest.raises(TaintMapExhaustedError):
            client.gid_for(node.tree.taint_for_tag("over-async"))
        # The replica was never rotated: the shard is healthy, it just
        # has nothing to allocate (pre-fix this burned a failover).
        assert client._active[0] == 0
        # The connection survives: lookups on the same channel still work.
        gid = make_gid(0, 1)
        with service.servers[0]._lock:
            service.servers[0]._by_gid[gid] = serialize_tags(
                node.tree.taint_for_tag("seed").tags
            )
        assert client.taint_for(gid) is not None
        client.close()
        service.stop()

    def test_exhausted_status_on_the_wire(self):
        kernel, fs, service, node = _boot(name="exhaust-wire")
        self._exhaust(service.servers[0])
        payload = serialize_tags(node.tree.taint_for_tag("wire").tags)
        status, response = service.servers[0]._handle(OP_REGISTER, payload)
        assert status == STATUS_GID_EXHAUSTED
        assert response == b""
        service.stop()
