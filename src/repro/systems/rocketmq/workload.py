"""The RocketMQ evaluation workload: long-text message distribution.

Three peer nodes (Table III): node 1 hosts the name server plus a
broker, nodes 2 and 3 host brokers; a client node runs the producer and
pull consumer.  All transport rides on the Netty stack.
"""

from __future__ import annotations

from repro.core.config import TaintSpec
from repro.runtime.cluster import Cluster
from repro.runtime.modes import Mode
from repro.netty import NioEventLoopGroup
from repro.systems import common
from repro.systems.common import SDT, SIM, SystemInfo, WorkloadResult, run_system_workload
from repro.systems.rocketmq.broker import (
    CONSUME_MESSAGE_DESCRIPTOR,
    MESSAGE_INIT_DESCRIPTOR,
    Message,
    NameServer,
    RocketBroker,
    write_default_conf,
)
from repro.systems.rocketmq.client import DefaultMQProducer, DefaultMQPullConsumer
from repro.taint.values import TStr

SYSTEM = SystemInfo(
    name="RocketMQ",
    kind="Message middleware",
    protocols=("Netty", "NIO"),
    workload="Long text message distribution",
    cluster_setting="3 peer nodes (namesrv + brokers) (+ client)",
)

TOPIC = "BenchmarkTopic"
MESSAGE_LENGTH = 64 * 1024


def sdt_spec() -> TaintSpec:
    return TaintSpec(sources=[MESSAGE_INIT_DESCRIPTOR], sinks=[CONSUME_MESSAGE_DESCRIPTOR])


def sim_spec(
    source_fraction: float = 1.0,
    sample_every: int | None = None,
) -> TaintSpec:
    return common.sim_spec(source_fraction, sample_every)


def deploy_and_distribute(cluster: Cluster, message_length: int = MESSAGE_LENGTH) -> dict:
    nodes = [cluster.add_node(f"rmq{i}") for i in (1, 2, 3)]
    client_node = cluster.add_node("client")
    write_default_conf(cluster.fs)
    group = NioEventLoopGroup(3, name="rocketmq")
    namesrv = NameServer(nodes[0], group)
    brokers = [
        RocketBroker(node, f"broker-{chr(ord('a') + i)}", nodes[0].ip, group)
        for i, node in enumerate(nodes)
    ]
    producer = consumer = None
    try:
        for broker in brokers:
            broker.register_topic(TOPIC)
        producer = DefaultMQProducer(client_node, nodes[0].ip, group)
        consumer = DefaultMQPullConsumer(client_node, nodes[0].ip, group)
        # The long text is read from data files (SIM sources fire here).
        common.seed_data_files(cluster.fs, "/data/outbox", 32, message_length // 32)
        body = common.read_data_files(client_node, "/data/outbox").decode("utf-8")[:message_length]
        # The SDT source point: the Message variable on the producer.
        message = client_node.registry.source(
            MESSAGE_INIT_DESCRIPTOR, Message(TStr(TOPIC), body), tag_value="rocketmq-message-1"
        )
        # Produce to broker-b (node 2), consume from the same route entry.
        producer.send(message, broker_index=1)
        received = consumer.pull(TOPIC, offset=0, broker_index=1)
        assert received, "consumer pulled no messages"
        assert received[0].body.value == body.value
        return {
            "broker": received[0].broker_name.value,
            "offset": received[0].queue_offset.value,
            "length": len(received[0].body),
        }
    finally:
        if producer is not None:
            producer.close()
        if consumer is not None:
            consumer.close()
        for broker in brokers:
            broker.stop()
        namesrv.stop()
        group.shutdown_gracefully()


def run_workload(
    mode: Mode,
    scenario: str | None = None,
    source_fraction: float = 1.0,
    sample_every: int | None = None,
    lineage: bool = False,
) -> WorkloadResult:
    spec = None
    if scenario == SDT:
        spec = sdt_spec()
    elif scenario == SIM:
        spec = sim_spec(source_fraction, sample_every)
    return run_system_workload(
        "RocketMQ", mode, scenario, spec, deploy_and_distribute, lineage=lineage
    )
