"""Tests for the §VI extension interface: custom native methods.

Models a distributed system shipping its own native transport library
(the paper's example of methods "in which the taint cannot be directly
tracked by DisTA" out of the box): the system registers the methods with
the JNI table, and the user supplies ExtensionPoints so the agent wraps
them like the built-in 23.
"""

import pytest

from repro.core import wire
from repro.core.agent import DisTAAgent
from repro.core.extensions import ExtensionPoint, WrapperType
from repro.errors import InstrumentationError
from repro.jre.jni import EOF
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT, Cluster
from repro.runtime.modes import Mode
from repro.taint.values import TByteArray, TBytes


def _register_custom_transport(node) -> None:
    """A vendor 'RDMA-ish' transport: stream semantics over a raw fd."""

    def rdma_send0(fd, data: TBytes) -> None:
        node.jni.calls.hit("vendor.Rdma#send0")
        fd.send_all(data.data)

    def rdma_recv0(fd, buf: TByteArray, offset: int, length: int) -> int:
        node.jni.calls.hit("vendor.Rdma#recv0")
        chunk = fd.recv(min(length, len(buf) - offset))
        if not chunk:
            return EOF
        buf.write(offset, TBytes.raw(chunk))
        return len(chunk)

    node.jni.register_extension("rdma_send0", rdma_send0)
    node.jni.register_extension("rdma_recv0", rdma_recv0)


EXTENSIONS = (
    ExtensionPoint("rdma_send0", WrapperType.STREAM, direction="send"),
    ExtensionPoint("rdma_recv0", WrapperType.STREAM, direction="receive"),
)


@pytest.fixture()
def custom_cluster():
    cluster = Cluster(Mode.DISTA, agent_options={"extensions": EXTENSIONS})
    n1 = cluster.add_node("n1")
    n2 = cluster.add_node("n2")
    _register_custom_transport(n1)
    _register_custom_transport(n2)
    with cluster:
        yield cluster, n1, n2


class TestRegistration:
    def test_extension_becomes_callable(self):
        cluster = Cluster(Mode.ORIGINAL)
        node = cluster.add_node("n")
        _register_custom_transport(node)
        assert callable(node.jni.rdma_send0)

    def test_duplicate_name_rejected(self):
        cluster = Cluster(Mode.ORIGINAL)
        node = cluster.add_node("n")
        with pytest.raises(InstrumentationError, match="already exists"):
            node.jni.register_extension("socket_read0", lambda: None)

    def test_unregistered_name_not_patchable(self):
        cluster = Cluster(Mode.ORIGINAL)
        node = cluster.add_node("n")
        with pytest.raises(InstrumentationError, match="not a JNI instrumentation point"):
            node.jni.patch("made_up_method", lambda orig: orig)

    def test_custom_type_requires_factory(self):
        point = ExtensionPoint("x", WrapperType.CUSTOM)
        with pytest.raises(InstrumentationError, match="factory"):
            point.build(runtime=None)


class TestCustomTransportTracking:
    def test_taint_flows_through_custom_methods(self, custom_cluster):
        """The headline: a transport DisTA has never seen becomes fully
        tracked by registering two ExtensionPoints."""
        cluster, n1, n2 = custom_cluster
        listener = n1.kernel.listen(n2.ip, 7900)
        client_fd = n1.kernel.connect(n1.ip, (n2.ip, 7900))
        server_fd = listener.accept()

        taint = n1.tree.taint_for_tag("rdma-secret")
        n1.jni.rdma_send0(client_fd, TBytes.tainted(b"zero-copy!", taint))
        buf = TByteArray(10)
        count = n2.jni.rdma_recv0(server_fd, buf, 0, 10)
        assert count == 10
        received = buf.read(0, 10)
        assert received == b"zero-copy!"
        assert {t.tag for t in received.overall_taint().tags} == {"rdma-secret"}

    def test_byte_precision_preserved(self, custom_cluster):
        cluster, n1, n2 = custom_cluster
        listener = n1.kernel.listen(n2.ip, 7901)
        client_fd = n1.kernel.connect(n1.ip, (n2.ip, 7901))
        server_fd = listener.accept()
        taint = n1.tree.taint_for_tag("half")
        n1.jni.rdma_send0(client_fd, TBytes.tainted(b"XX", taint) + TBytes(b".."))
        buf = TByteArray(4)
        while buf.read(0, 4).data != b"XX..":
            if n2.jni.rdma_recv0(server_fd, buf, 0, 4) == EOF:
                break
        received = buf.read(0, 4)
        front_taint = received[:2].overall_taint()
        assert front_taint is not None
        assert {t.tag for t in front_taint.tags} == {"half"}
        assert received[2:].overall_taint() is None

    def test_without_extension_point_taint_is_lost(self):
        """Registering the methods alone is not enough — the agent only
        wraps what an ExtensionPoint names (the paper's 'users can ...
        extend our instrumentation interfaces')."""
        cluster = Cluster(Mode.DISTA)  # no extensions configured
        n1 = cluster.add_node("n1")
        n2 = cluster.add_node("n2")
        _register_custom_transport(n1)
        _register_custom_transport(n2)
        with cluster:
            listener = n1.kernel.listen(n2.ip, 7902)
            client_fd = n1.kernel.connect(n1.ip, (n2.ip, 7902))
            server_fd = listener.accept()
            taint = n1.tree.taint_for_tag("lost")
            n1.jni.rdma_send0(client_fd, TBytes.tainted(b"data", taint))
            buf = TByteArray(4)
            n2.jni.rdma_recv0(server_fd, buf, 0, 4)
            assert buf.read(0, 4).overall_taint() is None


class CountingResolver(wire.LabelResolver):
    """Wraps a runtime's resolver and counts calls per direction, the
    way any facade swapped into ``DisTARuntime.resolver`` sees them."""

    def __init__(self, base: wire.LabelResolver):
        self.calls = {"encode": 0, "decode": 0}

        def counted(fn, direction):
            def call(arg):
                self.calls[direction] += 1
                return fn(arg)

            return call

        super().__init__(
            counted(base.gid_for, "encode"),
            counted(base.taint_for, "decode"),
            counted(base.gids_for, "encode"),
            counted(base.taints_for, "decode"),
        )


class TestResolverRouting:
    def test_extension_wrappers_resolve_through_runtime_resolver(self, custom_cluster):
        """Extension wrappers must go through ``runtime.resolver`` like the
        built-in ones, so a resolver swapped into the runtime sees their
        registration and lookup calls."""
        cluster, n1, n2 = custom_cluster
        agent = DisTAAgent(cluster.taint_map_addresses, extensions=EXTENSIONS)
        resolvers = {}
        for node in (n1, n2):
            # Re-attach by hand to hold the runtime (the cluster's own
            # attach discards it).
            agent.detach(node)
            runtime = agent.attach(node)
            runtime.resolver = resolvers[node.name] = CountingResolver(
                runtime.resolver
            )

        listener = n1.kernel.listen(n2.ip, 7903)
        client_fd = n1.kernel.connect(n1.ip, (n2.ip, 7903))
        server_fd = listener.accept()
        taint = n1.tree.taint_for_tag("routed")
        n1.jni.rdma_send0(client_fd, TBytes.tainted(b"metered", taint))
        buf = TByteArray(7)
        assert n2.jni.rdma_recv0(server_fd, buf, 0, 7) == 7
        assert {t.tag for t in buf.read(0, 7).overall_taint().tags} == {"routed"}
        assert resolvers["n1"].calls["encode"] == 1
        assert resolvers["n2"].calls["decode"] == 1


class TestPacketExtension:
    def test_packet_type_extension(self):
        """A datagram-style vendor method wrapped with Type 2."""
        points = (
            ExtensionPoint("vendor_dgram_send", WrapperType.PACKET, "send"),
            ExtensionPoint("vendor_dgram_recv", WrapperType.PACKET, "receive"),
        )
        cluster = Cluster(Mode.DISTA, agent_options={"extensions": points})
        n1 = cluster.add_node("n1")
        n2 = cluster.add_node("n2")

        for node in (n1, n2):
            node.jni.register_extension(
                "vendor_dgram_send", lambda fd, data, dst: fd.sendto(data.data, dst)
            )
            node.jni.register_extension(
                "vendor_dgram_recv", lambda fd: (lambda d, s: (TBytes.raw(d), s))(*fd.recvfrom())
            )
        with cluster:
            a = n1.kernel.udp_bind(n1.ip, 7950)
            b = n2.kernel.udp_bind(n2.ip, 7950)
            taint = n1.tree.taint_for_tag("vendor-udp")
            n1.jni.vendor_dgram_send(a, TBytes.tainted(b"packet", taint), (n2.ip, 7950))
            data, source = n2.jni.vendor_dgram_recv(b)
            assert data == b"packet"
            assert {t.tag for t in data.overall_taint().tags} == {"vendor-udp"}
            assert source == (n1.ip, 7950)
