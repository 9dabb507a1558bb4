"""Flow lineage: cross-node provenance trees, store semantics, exports.

The golden test drives the acceptance scenario end to end under both
coalescing policies: a source on n1, two TCP hops (n1 -> n2 -> n3), a
sink on n3 — and asserts the store reconstructs it as ONE tree with
correct hop ordering, byte counts and disposition labels, while the
wire stays byte-identical with lineage on and off.
"""

import inspect
import json

import pytest

from repro.core.trace import Crossing
from repro.jre import ServerSocket, Socket
from repro.jre.http import http_get
from repro.obs.lineage import (
    IMPLICIT,
    SAMPLED_OUT,
    TRACED,
    TRACKED,
    UNCORRELATED,
    LineageRecorder,
    LineageStore,
    NullLineageRecorder,
)
from repro.runtime.cluster import Cluster
from repro.runtime.modes import Mode
from repro.taint.tags import TaintTag
from repro.taint.values import TBytes
from tests.obs import COALESCE_WINDOWS

SOURCE_DESCRIPTOR = "app.ConfigReader#read"
SINK_DESCRIPTOR = "app.AuditLog#write"
PAYLOAD = b"pii-record-0001"


def run_relay(policy: str, lineage: bool):
    """The golden scenario: source on n1, n1->n2->n3 over TCP, sink on n3.

    Returns ``(cluster_wire_bytes, received_payloads, store)`` — the
    store is ``None`` when lineage is off.
    """
    cluster = Cluster(
        Mode.DISTA, coalesce_window_us=COALESCE_WINDOWS[policy], lineage=lineage
    )
    n1 = cluster.add_node("n1")
    n2 = cluster.add_node("n2")
    n3 = cluster.add_node("n3")
    n1.registry.add_source(SOURCE_DESCRIPTOR)
    n3.registry.add_sink(SINK_DESCRIPTOR)
    with cluster:
        value = n1.registry.source(
            SOURCE_DESCRIPTOR, TBytes.raw(PAYLOAD), tag_value="pii"
        )
        # Hop 1: n1 -> n2.
        server2 = ServerSocket(n2, 9210)
        client1 = Socket.connect(n1, (n2.ip, 9210))
        conn2 = server2.accept()
        client1.get_output_stream().write(value)
        at_n2 = conn2.get_input_stream().read_fully(len(PAYLOAD))
        # Hop 2: n2 -> n3 (relay the received value unchanged).
        server3 = ServerSocket(n3, 9211)
        client2 = Socket.connect(n2, (n3.ip, 9211))
        conn3 = server3.accept()
        client2.get_output_stream().write(at_n2)
        at_n3 = conn3.get_input_stream().read_fully(len(PAYLOAD))
        n3.registry.sink(SINK_DESCRIPTOR, at_n3)
        wire = cluster.wire_bytes()
        received = (bytes(at_n2.data), bytes(at_n3.data))
    return wire, received, cluster.lineage_store


@pytest.fixture(params=COALESCE_WINDOWS)
def relay_store(request):
    _, received, store = run_relay(request.param, lineage=True)
    assert received == (PAYLOAD, PAYLOAD)
    return store


class TestGoldenThreeHopFlow:
    def test_single_completed_tree(self, relay_store):
        flows = relay_store.flows()
        assert len(flows) == 1
        flow = flows[0]
        assert flow.tag_value == "pii"
        assert flow.completed
        assert not flow.partial
        assert relay_store.evicted == 0
        assert relay_store.completed_total == 1

    def test_root_is_the_tracked_source(self, relay_store):
        root = relay_store.flows()[0].root
        assert root.disposition == TRACKED
        assert root.node == "n1"
        assert root.descriptor == SOURCE_DESCRIPTOR

    def test_hop_ordering_and_byte_counts(self, relay_store):
        flow = relay_store.flows()[0]
        hops = flow.hops
        assert [(h.sender, h.receiver) for h in hops] == [
            ("n1", "n2"),
            ("n2", "n3"),
        ]
        for hop in hops:
            assert hop.disposition == TRACED
            assert hop.complete
            assert hop.sent_bytes == len(PAYLOAD)
            assert hop.received_bytes == len(PAYLOAD)
            assert hop.latency is not None and hop.latency >= 0.0

    def test_hops_chain_not_fan_out(self, relay_store):
        """Hop 2 must nest UNDER hop 1 (the relay continued the flow),
        not fork as a sibling off the root."""
        flow = relay_store.flows()[0]
        assert flow.max_depth == 3
        assert flow.sink_depth == 4
        depths = [n.depth for n in flow.hop_nodes]
        assert depths == [2, 3]
        assert flow.root_node.children[0].children[0] is flow.hop_nodes[1]

    def test_timestamps_are_monotonic_along_the_chain(self, relay_store):
        hop1, hop2 = relay_store.flows()[0].hops
        assert hop1.send_timestamp <= hop1.receive_timestamp
        assert hop1.receive_timestamp <= hop2.send_timestamp
        assert hop2.send_timestamp <= hop2.receive_timestamp

    def test_sink_arrival_recorded(self, relay_store):
        flow = relay_store.flows()[0]
        assert [(s.node, s.descriptor) for s in flow.sinks] == [
            ("n3", SINK_DESCRIPTOR)
        ]

    def test_query_api(self, relay_store):
        flow = relay_store.flows()[0]
        assert flow.gid > 0, "flow never captured its Taint Map GlobalID"
        assert relay_store.lineage_of(flow.gid) == [flow]
        assert relay_store.lineage_of(0) == []
        assert relay_store.flows_between("n1", "n3") == [flow]
        assert relay_store.flows_between("n2", "n3") == []
        assert relay_store.hops("pii") is flow
        assert relay_store.hops("absent") is None
        assert relay_store.completed_flows() == [flow]
        assert relay_store.open_flows() == []

    def test_render_walks_the_tree(self, relay_store):
        text = relay_store.flows()[0].render()
        assert "flow 'pii'" in text
        assert "source n1" in text and f"[{TRACKED}]" in text
        assert "n1->n2" in text and "n2->n3" in text
        assert f"{len(PAYLOAD)}B/{len(PAYLOAD)}B" in text
        assert "sink n3" in text
        # Nesting: the second hop renders deeper than the first.
        lines = text.splitlines()
        hop_lines = [l for l in lines if "└─" in l]
        assert len(hop_lines) == 2
        indent = [len(l) - len(l.lstrip()) for l in hop_lines]
        assert indent[1] > indent[0]


class TestWireIdentity:
    @pytest.mark.parametrize("policy", COALESCE_WINDOWS)
    def test_lineage_adds_zero_wire_bytes(self, policy):
        """Lineage context rides existing span ids — the kernel must
        carry the identical byte total with lineage on and off, and the
        delivered payloads must match byte for byte."""
        wire_off, received_off, store = run_relay(policy, lineage=False)
        wire_on, received_on, _ = run_relay(policy, lineage=True)
        assert store is None
        assert received_off == received_on == (PAYLOAD, PAYLOAD)
        assert wire_off == wire_on


class TestStoreBound:
    def _tag(self, value):
        return TaintTag(value, 1)

    def test_eviction_prefers_completed_flows(self):
        store = LineageStore(max_flows=2)
        done = self._tag("done")
        store.record_source("n1", "src", done)
        store.record_sink("n2", "snk", [done])
        store.record_source("n1", "src", self._tag("open-1"))
        assert store.evicted == 0
        store.record_source("n1", "src", self._tag("open-2"))
        # The completed flow went first; both open flows survive.
        assert store.evicted == 1
        assert store.hops("done") is None
        assert store.hops("open-1") is not None
        assert store.hops("open-2") is not None
        # Counted, never silent: describe/render both say so.
        assert "1 evicted" in store.describe()
        assert "!!! incomplete: 1 flow(s) evicted" in store.render()

    def test_eviction_falls_back_to_oldest_open(self):
        store = LineageStore(max_flows=2)
        for name in ("a", "b", "c"):
            store.record_source("n1", "src", self._tag(name))
        assert store.evicted == 1
        assert store.hops("a") is None
        assert [f.tag_value for f in store.flows()] == ["b", "c"]

    def test_max_flows_validated(self):
        with pytest.raises(ValueError):
            LineageStore(max_flows=0)


class TestExplicitPartialTrees:
    def test_sampled_out_flow_is_a_marked_stub(self):
        cluster = Cluster(Mode.DISTA, lineage=True)
        node = cluster.add_node("n1")
        node.registry.add_source(SOURCE_DESCRIPTOR)
        cluster.configure_sample_every(2)
        with cluster:
            node.registry.source(SOURCE_DESCRIPTOR, TBytes.raw(b"one"))
            node.registry.source(SOURCE_DESCRIPTOR, TBytes.raw(b"two"))
        store = cluster.lineage_store
        dispositions = sorted(f.root.disposition for f in store.flows())
        assert dispositions == [SAMPLED_OUT, TRACKED]
        stub = next(
            f for f in store.flows() if f.root.disposition == SAMPLED_OUT
        )
        assert stub.partial
        assert not stub.completed
        assert stub.root.node == "n1"
        assert stub.root.descriptor == SOURCE_DESCRIPTOR
        assert f"[{SAMPLED_OUT}]" in stub.render()

    def test_uncorrelated_receive_attaches_under_root(self):
        store = LineageStore()
        tag = TaintTag("stray", 1)
        crossing = Crossing(
            sequence=1,
            node="n2",
            direction="receive",
            method="java.net.SocketInputStream#read",
            data_bytes=5,
            tags=frozenset({tag}),
            span=99,
            timestamp=1.0,
        )
        store.record_crossing(crossing)
        flow = store.hops("stray")
        assert flow.root.disposition == IMPLICIT
        (hop,) = flow.hops
        assert hop.disposition == UNCORRELATED
        assert hop.sender is None and hop.receiver == "n2"
        assert flow.partial
        assert "[uncorrelated]" in flow.render()


class TestExports:
    def test_ndjson_round_trips(self, relay_store):
        lines = relay_store.export_ndjson().splitlines()
        assert len(lines) == 1
        flow = json.loads(lines[0])
        assert flow["tag"] == "pii"
        assert flow["completed"] is True
        assert [h["sender"] for h in flow["hops"]] == ["n1", "n2"]
        assert [h["depth"] for h in flow["hops"]] == [2, 3]

    def test_chrome_trace_round_trips(self, relay_store):
        trace = relay_store.export_chrome_trace()
        parsed = json.loads(json.dumps(trace))
        events = parsed["traceEvents"]
        phases = {e["ph"] for e in events}
        # Metadata, complete spans, flow links, and instants all present.
        assert {"M", "X", "s", "f", "i"} <= phases
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"n1", "n2", "n3"}
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == 2
        for span in spans:
            assert span["dur"] >= 1.0
            assert span["args"]["disposition"] == TRACED
        # Every flow link ("s") has a matching finish ("f") on the
        # receiving node's track.
        starts = {e["id"] for e in events if e["ph"] == "s"}
        finishes = {e["id"] for e in events if e["ph"] == "f"}
        assert starts == finishes and len(starts) == 2

    def test_as_dict_counts(self, relay_store):
        payload = relay_store.as_dict()
        assert payload["open"] == 0
        assert payload["completed_total"] == 1
        assert payload["evicted"] == 0
        assert len(payload["flows"]) == 1


class TestLineageTelemetryAndEndpoint:
    @pytest.fixture()
    def served(self):
        cluster = Cluster(Mode.DISTA, lineage=True)
        n1 = cluster.add_node("n1")
        n2 = cluster.add_node("n2")
        n1.registry.add_source(SOURCE_DESCRIPTOR)
        n2.registry.add_sink(SINK_DESCRIPTOR)
        with cluster:
            value = n1.registry.source(
                SOURCE_DESCRIPTOR, TBytes.raw(PAYLOAD), tag_value="pii"
            )
            server = ServerSocket(n2, 9410)
            client = Socket.connect(n1, (n2.ip, 9410))
            conn = server.accept()
            client.get_output_stream().write(value)
            received = conn.get_input_stream().read_fully(len(PAYLOAD))
            n2.registry.sink(SINK_DESCRIPTOR, received)
            metrics = cluster.start_metrics_server("n1", cluster_wide=True)
            try:
                yield cluster, n2, metrics
            finally:
                metrics.stop()

    def test_lineage_families_on_metrics(self, served):
        from repro.obs.registry import snapshot_total

        cluster, _, _ = served
        snap = cluster.telemetry_snapshot()
        assert snapshot_total(snap, "dista_lineage_flows_completed_total") == 1
        assert snapshot_total(snap, "dista_lineage_flows_open") == 0
        assert snapshot_total(snap, "dista_lineage_flows_evicted_total") == 0
        assert snap["dista_lineage_tree_depth"]["type"] == "histogram"
        assert snap["dista_lineage_hop_seconds"]["type"] == "histogram"
        sites = {
            s["labels"]["site"]
            for s in snap["dista_lineage_hop_seconds"]["samples"]
        }
        assert sites, "no per-site hop latency samples"

    def test_lineage_endpoint_renders_text(self, served):
        _, n2, metrics = served
        response = http_get(n2, metrics.address, "/lineage")
        assert response.status == 200
        assert response.headers["content-type"].startswith("text/plain")
        text = response.body.data.decode("utf-8")
        assert "Flow lineage" in text
        assert "flow 'pii'" in text
        assert "n1->n2" in text

    def test_lineage_json_endpoint(self, served):
        _, n2, metrics = served
        response = http_get(n2, metrics.address, "/lineage.json")
        assert response.status == 200
        assert response.headers["content-type"].startswith("application/json")
        payload = json.loads(response.body.data.decode("utf-8"))
        assert payload["completed_total"] == 1
        assert payload["flows"][0]["tag"] == "pii"

    def test_lineage_404_when_disabled(self):
        cluster = Cluster(Mode.DISTA)
        cluster.add_node("n1")
        n2 = cluster.add_node("n2")
        with cluster:
            metrics = cluster.start_metrics_server("n1")
            try:
                assert http_get(n2, metrics.address, "/lineage").status == 404
                assert http_get(n2, metrics.address, "/lineage.json").status == 404
            finally:
                metrics.stop()


class TestRecorderParity:
    def _public_api(self, cls):
        return {
            name: getattr(cls, name)
            for name in dir(cls)
            if not name.startswith("_")
        }

    def test_null_recorder_mirrors_live_recorder(self):
        live = self._public_api(LineageRecorder)
        null = self._public_api(NullLineageRecorder)
        live_methods = {n for n, v in live.items() if inspect.isfunction(v)}
        null_methods = {n for n, v in null.items() if inspect.isfunction(v)}
        assert live_methods == null_methods
        for name in live_methods:
            assert inspect.signature(live[name]) == inspect.signature(
                null[name]
            ), f"{name}: signature drift"
        assert LineageRecorder.enabled is True
        assert NullLineageRecorder.enabled is False

    def test_null_recorder_hooks_are_inert(self):
        null = NullLineageRecorder()
        assert null.source_event("d", object()) is None
        assert null.sampled_out_event("d") is None
        assert null.sink_event("d", [object()]) is None
