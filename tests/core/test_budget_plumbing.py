"""Static flow-sampling plumbing and determinism.

The flow-sampling period travels three routes into a node: the
``TaintSpec.sample_every`` field, the ``Cluster(taint_sample_every=)``
argument and the ``taintSampleEvery=`` launch extra.  These tests pin
each route, plus the behavioural contract the benchmark leans on:
**sampling is deterministic** — the same workload admits the same flow
set whether Taint Map requests coalesce or go out one by one, and
sampled-out flows reach the sink untainted, not missing.
"""

import pytest

from repro.core.config import TaintSpec
from repro.core.launch import launch_cluster
from repro.errors import InstrumentationError, ReproError
from repro.jre import ServerSocket, Socket
from repro.runtime.cluster import Cluster
from repro.runtime.fs import FILE_READ_DESCRIPTOR
from repro.runtime.logger import LOG_INFO_DESCRIPTOR
from repro.runtime.modes import Mode


class TestKnobPlumbing:
    def test_taint_spec_carries_sample_every(self):
        cluster = Cluster(Mode.DISTA)
        spec = TaintSpec(
            sources=[FILE_READ_DESCRIPTOR],
            sinks=[LOG_INFO_DESCRIPTOR],
            sample_every=4,
        )
        spec.apply(cluster)
        assert cluster.agent_options["sample_every"] == 4
        # Nodes added later inherit the sampling period.
        node = cluster.add_node("n1")
        assert node.registry.sample_every == 4

    def test_cluster_constructor_knobs(self):
        cluster = Cluster(Mode.DISTA, taint_sample_every=2)
        assert cluster.agent_options["sample_every"] == 2
        assert cluster.add_node("n1").registry.sample_every == 2

    def test_launch_extras(self):
        cluster = launch_cluster(Mode.DISTA, "taintSampleEvery=3")
        assert cluster.agent_options["sample_every"] == 3

    def test_configure_sample_every_rewrites_existing_nodes(self):
        cluster = Cluster(Mode.DISTA)
        node = cluster.add_node("n1")
        cluster.configure_sample_every(5)
        assert node.registry.sample_every == 5
        with pytest.raises(ReproError):
            cluster.configure_sample_every(0)

    def test_agent_rejects_bad_sample_every(self):
        cluster = Cluster(Mode.DISTA, taint_sample_every=0)
        cluster.add_node("n1")
        with pytest.raises(InstrumentationError):
            cluster.start()
        cluster.shutdown()


# -- behavioural contracts ---------------------------------------------- #

FILES = 12
PAYLOAD = 8


def run_transfer(coalesce_window_us=None, sample_every=None, agent_argument=None):
    """A deterministic mini workload: n1 reads FILES files (each read a
    SIM source), streams each over TCP to n2, which logs it (the sink).
    ``agent_argument`` builds the cluster through :func:`launch_cluster`
    instead.  Returns what the taint layer saw."""
    if agent_argument is not None:
        cluster = launch_cluster(Mode.DISTA, agent_argument, name="sampling-transfer")
    else:
        cluster = Cluster(
            Mode.DISTA,
            name="sampling-transfer",
            coalesce_window_us=coalesce_window_us,
            taint_sample_every=sample_every,
        )
    cluster.configure_sources([FILE_READ_DESCRIPTOR])
    cluster.configure_sinks([LOG_INFO_DESCRIPTOR])
    n1 = cluster.add_node("n1")
    n2 = cluster.add_node("n2")
    for index in range(FILES):
        cluster.fs.write_file(
            f"/data/part-{index:02d}", bytes([65 + index]) * PAYLOAD
        )
    with cluster:
        server = ServerSocket(n2, 9100)
        client = Socket.connect(n1, ("10.0.0.2", 9100))
        conn = server.accept()
        out, inp = client.get_output_stream(), conn.get_input_stream()
        tainted_indices = []
        for index in range(FILES):
            data = n1.files.read(f"/data/part-{index:02d}")
            out.write(data)
            received = inp.read_fully(PAYLOAD)
            n2.log.info("part {}", received)
            if received.overall_taint() is not None:
                tainted_indices.append(index)
        return {
            "tainted_indices": tainted_indices,
            "generated_tags": frozenset(
                event.tag for event in n1.registry.source_events
            ),
            "observed_tags": frozenset(
                tag for obs in n2.registry.observations for tag in obs.tags
            ),
            "tainted_observations": sum(
                1 for obs in n2.registry.observations if obs.tainted
            ),
            "admitted": n1.registry.admitted,
            "sampled_out": n1.registry.sampled_out,
            "global_taints": cluster.taint_map_server.stats.register_entries,
        }


class TestSamplingDeterminism:
    def test_identical_flow_set_under_both_coalescing_policies(self):
        coalesced = run_transfer(sample_every=3)
        one_by_one = run_transfer(coalesce_window_us=0, sample_every=3)
        # Admission is counted at source registration, independent of
        # transport timing: the two runs track the identical flows and
        # generate the identical tags.
        assert coalesced["tainted_indices"] == [0, 3, 6, 9]
        assert one_by_one["tainted_indices"] == coalesced["tainted_indices"]
        assert one_by_one["generated_tags"] == coalesced["generated_tags"]
        assert one_by_one["observed_tags"] == coalesced["observed_tags"]
        assert coalesced["admitted"] == one_by_one["admitted"] == 4
        assert coalesced["sampled_out"] == one_by_one["sampled_out"] == 8

    def test_sampled_out_flows_reach_the_sink_untainted(self):
        result = run_transfer(sample_every=4)
        # Every file arrives and is logged; only the admitted quarter
        # carries tags.  Sampled-out flows look untainted, not missing.
        assert result["tainted_observations"] == 3
        assert len(result["observed_tags"]) == 3

    def test_launch_extra_admits_every_fourth_firing(self):
        result = run_transfer(agent_argument="taintSampleEvery=4")
        assert result["tainted_indices"] == [0, 4, 8]
        assert result["admitted"] == 3
        assert result["sampled_out"] == 9
