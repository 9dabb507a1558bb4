"""Causal span correlation across a two-node cluster, under both
coalescing policies."""

import pytest

from repro.core.trace import CrossingTrace
from repro.jre import ServerSocket, Socket
from repro.report import render_crossing_timeline
from repro.runtime.cluster import Cluster
from repro.runtime.modes import Mode
from repro.taint.values import TBytes
from tests.obs import COALESCE_WINDOWS


@pytest.fixture(params=COALESCE_WINDOWS)
def traced_pair(request):
    trace = CrossingTrace()
    cluster = Cluster(
        Mode.DISTA,
        agent_options={"trace": trace},
        coalesce_window_us=COALESCE_WINDOWS[request.param],
    )
    n1 = cluster.add_node("n1")
    n2 = cluster.add_node("n2")
    with cluster:
        yield cluster, n1, n2, trace


def _connect(n1, n2, port):
    server = ServerSocket(n2, port)
    client = Socket.connect(n1, (n2.ip, port))
    return client, server.accept()


class TestSpanCorrelation:
    def test_send_and_receive_share_a_span(self, traced_pair):
        cluster, n1, n2, trace = traced_pair
        client, conn = _connect(n1, n2, 9300)
        taint = n1.tree.taint_for_tag("hop")
        client.get_output_stream().write(TBytes.tainted(b"payload", taint))
        conn.get_input_stream().read_fully(7)

        send, receive = trace.for_tag("hop")
        assert send.direction == "send" and receive.direction == "receive"
        assert send.span == receive.span != 0
        assert trace.for_span(send.span) == [send, receive]
        pairs = trace.span_pairs("hop")
        assert pairs == [(send, receive)]

    def test_timestamps_order_both_ends(self, traced_pair):
        cluster, n1, n2, trace = traced_pair
        client, conn = _connect(n1, n2, 9301)
        taint = n1.tree.taint_for_tag("clock")
        client.get_output_stream().write(TBytes.tainted(b"t", taint))
        conn.get_input_stream().read_fully(1)
        send, receive = trace.for_tag("clock")
        assert send.timestamp > 0
        assert receive.timestamp >= send.timestamp

    def test_fifo_ordering_over_multiple_messages(self, traced_pair):
        """Two sends down one connection pair with their receives in order."""
        cluster, n1, n2, trace = traced_pair
        client, conn = _connect(n1, n2, 9302)
        out = client.get_output_stream()
        stream = conn.get_input_stream()
        first = n1.tree.taint_for_tag("msg-1")
        second = n1.tree.taint_for_tag("msg-2")
        out.write(TBytes.tainted(b"aaaa", first))
        stream.read_fully(4)
        out.write(TBytes.tainted(b"bbbb", second))
        stream.read_fully(4)

        (send1, recv1), = trace.span_pairs("msg-1")
        (send2, recv2), = trace.span_pairs("msg-2")
        assert send1.span == recv1.span
        assert send2.span == recv2.span
        assert send1.span != send2.span

    def test_split_read_keeps_the_span(self, traced_pair):
        """One 6-byte send drained by two 3-byte reads: both receives
        belong to the send's span."""
        cluster, n1, n2, trace = traced_pair
        client, conn = _connect(n1, n2, 9303)
        taint = n1.tree.taint_for_tag("split")
        client.get_output_stream().write(TBytes.tainted(b"abcdef", taint))
        stream = conn.get_input_stream()
        stream.read_fully(3)
        stream.read_fully(3)

        crossings = trace.for_tag("split")
        assert [c.direction for c in crossings] == ["send", "receive", "receive"]
        assert len({c.span for c in crossings}) == 1
        # one pair per receive, both anchored to the same send
        pairs = trace.span_pairs("split")
        assert len(pairs) == 2
        assert pairs[0][0] is pairs[1][0]


class TestTimeline:
    def test_timeline_renders_hops(self, traced_pair):
        cluster, n1, n2, trace = traced_pair
        client, conn = _connect(n1, n2, 9304)
        taint = n1.tree.taint_for_tag("tl")
        client.get_output_stream().write(TBytes.tainted(b"x", taint))
        conn.get_input_stream().read_fully(1)
        out = render_crossing_timeline(trace, "tl", title="hops")
        assert "=== hops ===" in out
        assert "n1 --1B--> n2" in out
        assert "1 hop(s), 0 unpaired" in out
        assert "WARNING" not in out

    def test_timeline_warns_when_incomplete(self):
        from repro.taint import LocalId, TaintTree

        trace = CrossingTrace(capacity=1)
        tree = TaintTree(LocalId("1.1.1.1", 1))
        data = TBytes.tainted(b"x", tree.taint_for_tag("t"))
        for _ in range(3):
            trace.record("n", "send", "m", data)
        out = render_crossing_timeline(trace)
        assert "WARNING: timeline incomplete" in out
        assert "2 crossing(s) dropped" in out
