"""The HBase evaluation workload: get data from a table (Table III).

Cluster setting per the paper: 1 HMaster + 2 HRegionServers, each node
also running a ZooKeeper process, plus a client — so the workload spans
**two systems** (the cross-system taint-tracking scenario).
"""

from __future__ import annotations

from repro.core.config import TaintSpec
from repro.runtime.cluster import Cluster
from repro.runtime.modes import Mode
from repro.systems import common
from repro.systems.common import SDT, SIM, SystemInfo, WorkloadResult, run_system_workload
from repro.systems.hbase.model import (
    RESULT_DESCRIPTOR,
    TABLE_NAME_DESCRIPTOR,
    Get,
    Put,
    TableName,
    write_default_conf,
)
from repro.systems.hbase.servers import HMaster, HRegionServer, HTable
from repro.systems.zookeeper.election import QuorumPeer
from repro.systems.zookeeper.ensemble import ZNODE_PORT, ZooKeeperServer
from repro.systems.zookeeper.messages import LEADING
from repro.systems.zookeeper.txnlog import write_txn_logs
from repro.taint.values import TStr

SYSTEM = SystemInfo(
    name="HBase+ZooKeeper",
    kind="Distributed database (cross-system)",
    protocols=("JRE NIO", "protobuf RPC", "JRE TCP (ZooKeeper)"),
    workload="Get data from a table",
    cluster_setting="1 HMaster + 2 HRegionServers, each with a ZooKeeper process (+ client)",
)

TABLE = "bench"


def sdt_spec() -> TaintSpec:
    """Table IV: TableName → Result."""
    return TaintSpec(sources=[TABLE_NAME_DESCRIPTOR], sinks=[RESULT_DESCRIPTOR])


def sim_spec(
    source_fraction: float = 1.0,
    sample_every: int | None = None,
) -> TaintSpec:
    return common.sim_spec(source_fraction, sample_every)


def _boot_zookeeper(cluster: Cluster, nodes: list, timeout: float = 30.0):
    """Run a co-located ZK ensemble on the three HBase nodes."""
    for index, node in enumerate(nodes, start=1):
        write_txn_logs(cluster.fs, node.name, [100 * (4 - index)])
    addresses = {sid: nodes[sid - 1].ip for sid in (1, 2, 3)}
    peers = [QuorumPeer(nodes[sid - 1], sid, addresses) for sid in (1, 2, 3)]
    for peer in peers:
        peer.start()
    for peer in peers:
        if not peer.decided.wait(timeout):
            raise TimeoutError(f"zk sid {peer.sid} never decided")
    leader_sid = next(p.sid for p in peers if p.state == LEADING)
    servers = [
        ZooKeeperServer(nodes[sid - 1], sid, lambda: leader_sid, addresses)
        for sid in (1, 2, 3)
    ]
    return peers, servers


def deploy_and_get(cluster: Cluster) -> dict:
    master_node = cluster.add_node("hmaster")
    rs1_node = cluster.add_node("rs1")
    rs2_node = cluster.add_node("rs2")
    client_node = cluster.add_node("client")
    write_default_conf(cluster.fs)

    peers, zk_servers = _boot_zookeeper(cluster, [master_node, rs1_node, rs2_node])
    zk_address = (master_node.ip, ZNODE_PORT)
    # Region servers register ephemeral liveness znodes, as real HBase does.
    rs1 = HRegionServer(rs1_node, "rs1", zk_address=(rs1_node.ip, ZNODE_PORT))
    rs2 = HRegionServer(rs2_node, "rs2", zk_address=(rs2_node.ip, ZNODE_PORT))
    master = HMaster(master_node, zk_address, [rs1_node.ip, rs2_node.ip])
    table = None
    try:
        # The SDT source point: the TableName created on the client.
        table_name = client_node.registry.source(
            TABLE_NAME_DESCRIPTOR, TableName(TStr(TABLE)), tag_value="tablename-bench"
        )
        from repro.systems.mapreduce.rpc import RpcClient
        from repro.systems.hbase.servers import MASTER_PORT

        admin = RpcClient(client_node, (master_node.ip, MASTER_PORT))
        try:
            admin.call("createTable", table_name, TStr("m"))
        finally:
            admin.close()

        # Connect via ZooKeeper (second system) and read back a row.
        table = HTable(client_node, (rs2_node.ip, ZNODE_PORT))
        # Row contents come from import files (SIM sources fire here).
        common.seed_data_files(cluster.fs, "/import", 16, 1024)
        cell = common.read_data_files(client_node, "/import")
        from repro.taint.values import TBytes

        table.put(Put(table_name, "alpha", TBytes(b"alpha-") + cell))
        table.put(Put(table_name, "zulu", TBytes(b"zulu-") + cell))
        result = table.get(Get(table_name, "zulu"))
        from repro.appmodel import app_process

        app_process(result.value)  # the client's work over the row
        # The SDT sink point: the Result variable containing data rows.
        client_node.registry.sink(RESULT_DESCRIPTOR, result, detail=f"row={result.row.value}")
        assert result.value.data.startswith(b"zulu-")
        return {"row": result.row.value, "region": result.region.value}
    finally:
        if table is not None:
            table.close()
        master.stop()
        rs1.stop()
        rs2.stop()
        for server in zk_servers:
            server.shutdown()
        for peer in peers:
            peer.shutdown()


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
        "HBase+ZooKeeper", mode, scenario, spec, deploy_and_get, lineage=lineage
    )
