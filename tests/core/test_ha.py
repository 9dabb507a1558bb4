"""Tests for the replicated Taint Map and failover client (paper §VI)."""

import struct
import threading

import pytest

from repro.core.ha import (
    OP_SYNC,
    FailoverTaintMapClient,
    ReplicatedTaintMapServer,
    StandbyTaintMapServer,
)
from repro.core.taintmap import TaintMapClient, serialize_tags
from repro.errors import TaintMapError
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode

PRIMARY = ("10.0.255.1", 7170)
STANDBY = ("10.0.255.2", 7170)


@pytest.fixture()
def ha_setup():
    kernel = SimKernel("ha")
    kernel.register_node(PRIMARY[0])
    kernel.register_node(STANDBY[0])
    fs = SimFileSystem()
    standby = StandbyTaintMapServer(kernel, *STANDBY).start()
    primary = ReplicatedTaintMapServer(kernel, *PRIMARY, standby=STANDBY).start()
    node = SimNode("n1", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
    yield kernel, node, primary, standby
    primary.stop()
    standby.stop()


class TestReplication:
    def test_allocations_replicate_with_same_gid(self, ha_setup):
        kernel, node, primary, standby = ha_setup
        client = TaintMapClient(node, PRIMARY)
        gid = client.gid_for(node.tree.taint_for_tag("replicated"))
        assert primary.replicated == 1
        assert standby.global_taint_count() == 1
        # The standby resolves the same GID to the same tags.
        standby_client = TaintMapClient(node, STANDBY)
        resolved = standby_client.taint_for(gid)
        assert {t.tag for t in resolved.tags} == {"replicated"}

    def test_promoted_standby_reports_stats_parity(self, ha_setup):
        """Regression: OP_SYNC used to install entries without bumping
        ``TaintMapStats.global_taints``, so a promoted standby reported
        population 0 and poisoned every telemetry/autoscaling consumer."""
        kernel, node, primary, standby = ha_setup
        client = TaintMapClient(node, PRIMARY)
        taints = [node.tree.taint_for_tag(f"parity{i}") for i in range(5)]
        client.gids_for(taints)
        assert primary.stats.snapshot()["global_taints"] == 5
        assert standby.stats.snapshot()["global_taints"] == 5
        # A replayed OP_SYNC (same GID again) must not double-count.
        gid = client.gid_for(taints[0])
        payload = struct.pack(">I", gid) + serialize_tags(taints[0].tags)
        standby._handle(OP_SYNC, payload)
        assert standby.stats.snapshot()["global_taints"] == 5

    def test_batched_register_replicates_every_entry(self, ha_setup):
        """OP_REGISTER_MANY goes through the same per-taint _register hook,
        so the standby sees each batch entry individually."""
        kernel, node, primary, standby = ha_setup
        client = TaintMapClient(node, PRIMARY)
        taints = [node.tree.taint_for_tag(f"batch{i}") for i in range(4)]
        gids = client.gids_for(taints)
        assert primary.replicated == 4
        assert standby.global_taint_count() == 4
        standby_client = TaintMapClient(node, STANDBY)
        assert standby_client.taints_for(gids)[2].tags == taints[2].tags

    def test_failover_client_batches_through_failover(self, ha_setup):
        kernel, node, primary, standby = ha_setup
        client = FailoverTaintMapClient(node, PRIMARY, STANDBY)
        warm = client.gids_for([node.tree.taint_for_tag("warm")])
        primary.stop()
        taints = [node.tree.taint_for_tag(f"fo{i}") for i in range(3)]
        gids = client.gids_for(taints)
        assert len(set(gids)) == 3
        assert all(g > warm[0] for g in gids)

    def test_primary_survives_standby_outage(self, ha_setup):
        kernel, node, primary, standby = ha_setup
        standby.stop()
        client = TaintMapClient(node, PRIMARY)
        gid = client.gid_for(node.tree.taint_for_tag("lonely"))
        assert gid > 0
        assert primary.replication_failures >= 1

    def test_standby_numbering_continues_after_failover_promotion(self, ha_setup):
        kernel, node, primary, standby = ha_setup
        client = TaintMapClient(node, PRIMARY)
        g1 = client.gid_for(node.tree.taint_for_tag("before"))
        primary.stop()
        # Clients now talk to the standby directly; fresh taints must not
        # collide with replicated GIDs.
        standby_client = TaintMapClient(node, STANDBY)
        g2 = standby_client.gid_for(node.tree.taint_for_tag("after"))
        assert g2 > g1


class TestStandbyStreamLifecycle:
    """The primary's OP_SYNC connection to the standby is closed on
    stop() and on a failed replication, so no standby thread keeps
    serving a dead primary."""

    def test_stop_closes_the_standby_stream(self, ha_setup):
        kernel, node, primary, standby = ha_setup
        before = set(threading.enumerate())
        client = TaintMapClient(node, PRIMARY)
        client.gid_for(node.tree.taint_for_tag("synced"))
        assert primary.replicated == 1
        endpoint = primary._standby_endpoint
        started = set(threading.enumerate()) - before
        assert started  # the primary's client handler and the standby's sync handler
        client.close()
        primary.stop()
        assert endpoint.closed
        for thread in started:
            thread.join(5)
        assert not [thread.name for thread in started if thread.is_alive()]

    def test_failed_replication_closes_the_standby_stream(self, ha_setup):
        kernel, node, primary, standby = ha_setup
        client = TaintMapClient(node, PRIMARY)
        client.gid_for(node.tree.taint_for_tag("first"))
        endpoint = primary._standby_endpoint
        standby.stop()
        assert client.gid_for(node.tree.taint_for_tag("second")) > 0
        assert primary.replication_failures == 1
        assert endpoint.closed
        assert primary._standby_endpoint is None
        client.close()


class TestFailoverClient:
    def test_transparent_failover(self, ha_setup):
        kernel, node, primary, standby = ha_setup
        client = FailoverTaintMapClient(node, PRIMARY, STANDBY)
        g1 = client.gid_for(node.tree.taint_for_tag("pre-failover"))
        assert client.active_address == PRIMARY
        primary.stop()
        g2 = client.gid_for(node.tree.taint_for_tag("post-failover"))
        assert client.active_address == STANDBY
        assert g2 != g1
        # Lookups of pre-failover taints still resolve (replicated).
        uncached = FailoverTaintMapClient(node, PRIMARY, STANDBY)
        resolved = uncached.taint_for(g1)
        assert {t.tag for t in resolved.tags} == {"pre-failover"}

    def test_both_replicas_down_raises(self, ha_setup):
        kernel, node, primary, standby = ha_setup
        primary.stop()
        standby.stop()
        client = FailoverTaintMapClient(node, PRIMARY, STANDBY)
        with pytest.raises(TaintMapError, match="unreachable"):
            client.gid_for(node.tree.taint_for_tag("nowhere"))

    def test_semantic_errors_do_not_trigger_failover(self, ha_setup):
        kernel, node, primary, standby = ha_setup
        client = FailoverTaintMapClient(node, PRIMARY, STANDBY)
        with pytest.raises(TaintMapError, match="unknown"):
            client.taint_for(777777)
        assert client.active_address == PRIMARY  # still on the primary
