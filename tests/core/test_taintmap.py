"""Tests for the Taint Map service, protocol, and caching (Fig. 9)."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.taintmap import (
    TaintMapClient,
    TaintMapServer,
    deserialize_tags,
    serialize_tags,
    taint_key,
)
from repro.errors import TaintMapError
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode
from repro.taint import LocalId, TaintTag, TaintTree


class TestTagSerialization:
    def test_roundtrip_str_tag(self):
        tag = TaintTag("a_tag", LocalId("10.0.0.1", 77), global_id=5)
        (out,) = deserialize_tags(serialize_tags(frozenset([tag])))
        assert out.tag == "a_tag"
        assert out.local_id == LocalId("10.0.0.1", 77)
        assert out.global_id == 5

    def test_roundtrip_int_and_bytes_tags(self):
        tags = frozenset(
            [
                TaintTag(42, LocalId("10.0.0.1", 1)),
                TaintTag(b"\x00\xff", LocalId("10.0.0.2", 2)),
            ]
        )
        out = frozenset(deserialize_tags(serialize_tags(tags)))
        assert out == tags

    def test_canonical_regardless_of_order(self):
        a = TaintTag("a", LocalId("10.0.0.1", 1))
        b = TaintTag("b", LocalId("10.0.0.1", 1))
        assert serialize_tags(frozenset([a, b])) == serialize_tags(frozenset([b, a]))

    def test_taint_key_ignores_global_id(self):
        a1 = TaintTag("a", LocalId("10.0.0.1", 1), global_id=0)
        a2 = TaintTag("a", LocalId("10.0.0.1", 1), global_id=9)
        assert taint_key(frozenset([a1])) == taint_key(frozenset([a2]))

    def test_unserializable_tag_rejected(self):
        tag = TaintTag(object(), LocalId("10.0.0.1", 1))
        with pytest.raises(TaintMapError):
            serialize_tags(frozenset([tag]))

    @settings(max_examples=30)
    @given(
        st.frozensets(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.sampled_from(["10.0.0.1", "10.0.0.2"]),
                st.integers(min_value=1, max_value=3),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_roundtrip_property(self, raw):
        tags = frozenset(TaintTag(t, LocalId(ip, pid)) for t, ip, pid in raw)
        assert frozenset(deserialize_tags(serialize_tags(tags))) == tags


@pytest.fixture()
def service():
    kernel = SimKernel("tm-test")
    kernel.register_node(TAINT_MAP_IP)
    fs = SimFileSystem()
    server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT).start()
    n1 = SimNode("node1", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
    n2 = SimNode("node2", kernel.register_node("10.0.0.2"), 2, kernel, fs, Mode.DISTA)
    c1 = TaintMapClient(n1, server.address)
    c2 = TaintMapClient(n2, server.address)
    yield server, n1, n2, c1, c2
    server.stop()


class TestTaintMapService:
    def test_empty_taint_never_contacts_the_map(self, service):
        server, n1, _, c1, _ = service
        assert c1.gid_for(None) == 0
        assert c1.gid_for(n1.tree.empty) == 0
        assert c1.taint_for(0) is None
        assert server.stats.snapshot()["register_requests"] == 0

    def test_register_allocates_positive_unique_gids(self, service):
        server, n1, _, c1, _ = service
        g1 = c1.gid_for(n1.tree.taint_for_tag("a"))
        g2 = c1.gid_for(n1.tree.taint_for_tag("b"))
        assert g1 > 0 and g2 > 0 and g1 != g2

    def test_register_is_idempotent_across_nodes(self, service):
        """Same taint (same tag + LocalID) from two nodes ⇒ one GID."""
        server, n1, n2, c1, c2 = service
        taint1 = n1.tree.taint_for_tag("x")
        tag = next(iter(taint1.tags))
        taint2 = n2.tree.taint_for_tags([tag])
        assert c1.gid_for(taint1) == c2.gid_for(taint2)
        assert server.global_taint_count() == 1

    def test_lookup_resolves_into_local_tree(self, service):
        server, n1, n2, c1, c2 = service
        taint = n1.tree.taint_for_tag("vote")
        gid = c1.gid_for(taint)
        resolved = c2.taint_for(gid)
        assert resolved.tree is n2.tree
        assert {t.tag for t in resolved.tags} == {"vote"}
        # LocalID preserved: the tag is known to originate on node1.
        assert next(iter(resolved.tags)).local_id.ip == "10.0.0.1"

    def test_lookup_unknown_gid_raises(self, service):
        _, _, _, _, c2 = service
        with pytest.raises(TaintMapError, match="unknown Global ID"):
            c2.taint_for(424242)

    def test_figure9_five_steps(self, service):
        """Fig. 9: two tainted bytes, one transferred; the second byte's
        identical taint does not trigger a second register request."""
        server, n1, n2, c1, c2 = service
        t1 = n1.tree.taint_for_tag("t1")
        # Steps 1-2: node1 registers t1 once, stores the Global ID.
        gid_b1 = c1.gid_for(t1)
        gid_b2 = c1.gid_for(t1)  # b2 has the same taint: no new request
        assert gid_b1 == gid_b2 == 1
        assert server.stats.snapshot()["register_requests"] == 1
        # Step 3 is the wire transfer (tested in the wrapper suite).
        # Steps 4-5: node2 resolves the Global ID once, then caches.
        r1 = c2.taint_for(gid_b1)
        r2 = c2.taint_for(gid_b1)
        assert r1 is r2
        assert server.stats.snapshot()["lookup_requests"] == 1

    def test_tag_global_id_assigned_on_first_transfer(self, service):
        """§III-D.1: GlobalID is 0 at generation, set when transferred."""
        _, n1, _, c1, _ = service
        taint = n1.tree.taint_for_tag("fresh")
        tag = next(iter(taint.tags))
        assert tag.global_id == 0
        gid = c1.gid_for(taint)
        assert tag.global_id == gid

    def test_multi_tag_taint_roundtrip(self, service):
        server, n1, n2, c1, c2 = service
        combined = n1.tree.taint_for_tag("a").union(n1.tree.taint_for_tag("b"))
        gid = c1.gid_for(combined)
        resolved = c2.taint_for(gid)
        assert {t.tag for t in resolved.tags} == {"a", "b"}

    def test_cache_disabled_reregisters(self, service):
        server, n1, _, _, _ = service
        client = TaintMapClient(n1, server.address, cache_enabled=False)
        taint = n1.tree.taint_for_tag("nc")
        g1 = client.gid_for(taint)
        g2 = client.gid_for(taint)
        assert g1 == g2  # server-side idempotence still holds
        assert server.stats.snapshot()["register_requests"] == 2

    def test_concurrent_registration(self, service):
        server, n1, n2, c1, c2 = service
        taints = [n1.tree.taint_for_tag(f"c{i}") for i in range(16)]
        gids: list[list[int]] = [[], []]

        def worker(client, out, tree):
            for t in taints:
                local = tree.taint_for_tags(t.tags) if tree is not n1.tree else t
                out.append(client.gid_for(local))

        threads = [
            threading.Thread(target=worker, args=(c1, gids[0], n1.tree)),
            threading.Thread(target=worker, args=(c2, gids[1], n2.tree)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert gids[0] == gids[1]
        assert server.global_taint_count() == 16

    def test_closed_connections_leave_the_server(self, service):
        """A long-lived shard keeps no endpoint for a client that closed:
        each connection leaves the server's set when its thread exits."""
        server, n1, _, _, _ = service
        before = set(threading.enumerate())
        for index in range(50):
            client = TaintMapClient(n1, server.address)
            assert client.gid_for(n1.tree.taint_for_tag(f"once{index}")) > 0
            client.close()
        for thread in set(threading.enumerate()) - before:
            if thread.name == "taintmap-conn":
                thread.join(10)
                assert not thread.is_alive()
        assert server.stats.snapshot()["register_requests"] == 50
        assert len(server._connections) == 0


class TestLockFreeCacheHits:
    """The unbounded caches answer hits with no lock; the hit and miss
    counters are added once per call and must stay exact."""

    def test_concurrent_hits_and_first_misses_stay_consistent(self, service):
        server, n1, n2, _, c2 = service
        client = TaintMapClient(n1, server.address)
        warm = [n1.tree.taint_for_tag(f"warm{i}") for i in range(16)]
        warm_gids = client.gids_for(warm)
        # GIDs this client has never seen: its taint cache misses on them.
        remote = [n2.tree.taint_for_tag(f"remote{i}") for i in range(32)]
        remote_gids = c2.gids_for(remote)
        expected_tags = {
            gid: frozenset(t.tag for t in taint.tags)
            for gid, taint in zip(warm_gids + remote_gids, warm + remote)
        }
        # Fresh taints: some shared by every thread, some per thread, so
        # first-time misses race on the same keys and on distinct ones.
        shared = [n1.tree.taint_for_tag(f"shared{i}") for i in range(8)]
        threads_n, rounds = 8, 150
        own = [
            [n1.tree.taint_for_tag(f"own{w}.{i}") for i in range(8)]
            for w in range(threads_n)
        ]
        seen_gids: dict = {}
        probed = [0] * threads_n
        errors: list = []
        before = client.stats.snapshot()

        def worker(index):
            rng = random.Random(index)
            try:
                for _ in range(rounds):
                    taints = rng.sample(warm, 3) + [
                        rng.choice(shared),
                        rng.choice(own[index]),
                        None,
                    ]
                    gids = client.gids_for(taints)
                    probed[index] += 5
                    assert gids[:3] == [warm_gids[warm.index(t)] for t in taints[:3]]
                    assert gids[5] == 0
                    for taint, gid in zip(taints[3:5], gids[3:5]):
                        assert seen_gids.setdefault(id(taint.node), gid) == gid
                    asked = rng.sample(warm_gids, 2) + rng.sample(remote_gids, 2) + [0]
                    resolved = client.taints_for(asked)
                    probed[index] += 4
                    assert resolved[4] is None
                    for gid, taint in zip(asked, resolved[:4]):
                        assert frozenset(t.tag for t in taint.tags) == expected_tags[gid]
                        assert client.gid_for(taint) == gid
                        probed[index] += 1
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        workers = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(threads_n)
        ]
        try:
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in workers)
        assert errors == []
        after = client.stats.snapshot()
        hits = after["cache_hits"] - before["cache_hits"]
        misses = after["cache_misses"] - before["cache_misses"]
        assert hits + misses == sum(probed)
        # Every fresh key and remote GID missed at least once (the seeded
        # draws probe them all), and none more than once per thread.
        fresh = len(shared) + sum(len(keys) for keys in own) + len(remote_gids)
        assert fresh <= misses <= fresh * threads_n
        client.close()


class TestForeignTaintRegistration:
    def test_gid_cache_does_not_collide_across_trees(self, service):
        """Regression: the client's GID cache must key on taint identity,
        not the per-tree node rank — two different taints from different
        trees can share a rank."""
        server, n1, n2, c1, c2 = service
        mine = n1.tree.taint_for_tag("mine")
        foreign = n2.tree.taint_for_tag("theirs")
        # Same tree rank is plausible (both are the first child); the
        # GIDs must still differ.
        gid_mine = c1.gid_for(mine)
        gid_foreign = c1.gid_for(foreign)
        assert gid_mine != gid_foreign
        resolved = c2.taint_for(gid_foreign)
        assert {t.tag for t in resolved.tags} == {"theirs"}


class TestStatsMerge:
    def test_merge_sums_keywise(self):
        from repro.core.taintmap import TaintMapStats

        a, b = TaintMapStats(), TaintMapStats()
        a.bump("register_requests", 3)
        a.bump("global_taints", 2)
        b.bump("register_requests", 4)
        b.bump("cache_hits", 5)
        merged = TaintMapStats.merge(a.snapshot(), b.snapshot())
        assert merged["register_requests"] == 7
        assert merged["global_taints"] == 2
        assert merged["cache_hits"] == 5

    def test_merge_of_nothing_is_empty(self):
        from repro.core.taintmap import TaintMapStats

        assert TaintMapStats.merge() == {}
