"""Budgeted-tracking plumbing: knobs, no-op equivalence, gate flips.

The overhead budget and flow-sampling period travel four routes into a
node: ``TaintSpec`` fields, ``Cluster`` constructor arguments, launch
extras (``overheadBudget=`` / ``taintSampleEvery=``) and the
``DISTA_OVERHEAD_BUDGET`` environment variable.  These tests pin each
route, plus the two behavioural contracts the benchmark leans on:

* **unlimited is a no-op** — without a budget no controller exists and
  taint results are identical to plain tracking (and a controller with
  astronomical headroom never actuates);
* **sampling is deterministic** — the same workload admits the same
  flow set whether Taint Map requests coalesce or go out one by one;
* **a flipped gate strips labels end to end** — data sent through a
  gated method arrives untainted (the receiver rides the zero-taint
  fast path), while the bytes themselves are untouched.
"""

import pytest

from repro.core.agent import (
    OVERHEAD_BUDGET_ENV,
    DisTAAgent,
    parse_overhead_budget,
    resolve_overhead_budget,
)
from repro.core.config import TaintSpec
from repro.core.launch import launch_cluster
from repro.errors import InstrumentationError, ReproError
from repro.jre import ServerSocket, Socket
from repro.runtime.cluster import Cluster
from repro.runtime.fs import FILE_READ_DESCRIPTOR
from repro.runtime.logger import LOG_INFO_DESCRIPTOR
from repro.runtime.modes import Mode
from repro.taint.values import TBytes


class TestBudgetParsing:
    def test_none_is_unlimited(self):
        assert parse_overhead_budget(None) is None

    @pytest.mark.parametrize("spelling", ["unlimited", "off", "none", "", " OFF "])
    def test_unlimited_spellings(self, spelling):
        assert parse_overhead_budget(spelling) is None

    def test_zero_and_negative_disable(self):
        assert parse_overhead_budget(0) is None
        assert parse_overhead_budget("-1") is None

    def test_numeric_spellings(self):
        assert parse_overhead_budget("1.05") == 1.05
        assert parse_overhead_budget(1.2) == 1.2

    def test_sub_one_ratio_rejected(self):
        with pytest.raises(InstrumentationError, match="ratio over baseline"):
            parse_overhead_budget(0.5)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(OVERHEAD_BUDGET_ENV, "1.07")
        assert resolve_overhead_budget() == 1.07
        # An explicit argument wins over the environment.
        assert resolve_overhead_budget(1.2) == 1.2
        monkeypatch.setenv(OVERHEAD_BUDGET_ENV, "unlimited")
        assert resolve_overhead_budget() is None
        monkeypatch.delenv(OVERHEAD_BUDGET_ENV)
        assert resolve_overhead_budget() is None


class TestKnobPlumbing:
    def test_taint_spec_carries_budget_knobs(self):
        cluster = Cluster(Mode.DISTA)
        spec = TaintSpec(
            sources=[FILE_READ_DESCRIPTOR],
            sinks=[LOG_INFO_DESCRIPTOR],
            overhead_budget=1.2,
            sample_every=4,
        )
        spec.apply(cluster)
        assert cluster.agent_options["overhead_budget"] == 1.2
        assert cluster.agent_options["sample_every"] == 4
        # Nodes added later inherit the sampling period.
        node = cluster.add_node("n1")
        assert node.registry.sample_every == 4

    def test_cluster_constructor_knobs(self):
        cluster = Cluster(Mode.DISTA, overhead_budget=1.1, taint_sample_every=2)
        assert cluster.agent_options["overhead_budget"] == 1.1
        assert cluster.agent_options["sample_every"] == 2
        assert cluster.add_node("n1").registry.sample_every == 2

    def test_launch_extras(self):
        cluster = launch_cluster(
            Mode.DISTA, "overheadBudget=1.08,taintSampleEvery=3"
        )
        assert cluster.agent_options["overhead_budget"] == 1.08
        assert cluster.agent_options["sample_every"] == 3

    def test_launch_extras_unlimited(self):
        cluster = launch_cluster(Mode.DISTA, "overheadBudget=unlimited")
        assert cluster.agent_options["overhead_budget"] is None

    def test_configure_sample_every_rewrites_existing_nodes(self):
        cluster = Cluster(Mode.DISTA)
        node = cluster.add_node("n1")
        cluster.configure_sample_every(5)
        assert node.registry.sample_every == 5
        with pytest.raises(ReproError):
            cluster.configure_sample_every(0)

    def test_configure_overhead_budget_after_start_raises(self):
        cluster = Cluster(Mode.DISTA)
        cluster.add_node("n1")
        with cluster:
            with pytest.raises(ReproError, match="before cluster start"):
                cluster.configure_overhead_budget(1.05)

    def test_agent_rejects_bad_sample_every(self):
        cluster = Cluster(Mode.DISTA, taint_sample_every=0)
        cluster.add_node("n1")
        with pytest.raises(InstrumentationError):
            cluster.start()
        cluster.shutdown()


# -- behavioural contracts ---------------------------------------------- #

FILES = 12
PAYLOAD = 8


def run_transfer(coalesce_window_us=None, sample_every=None, overhead_budget=None):
    """A deterministic mini workload: n1 reads FILES files (each read a
    SIM source), streams each over TCP to n2, which logs it (the sink).
    Returns what the taint layer saw."""
    kwargs = {}
    if sample_every is not None:
        kwargs["taint_sample_every"] = sample_every
    if overhead_budget is not None:
        kwargs["overhead_budget"] = overhead_budget
    cluster = Cluster(
        Mode.DISTA,
        name="budget-transfer",
        coalesce_window_us=coalesce_window_us,
        **kwargs,
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


class TestUnlimitedBudgetIsANoOp:
    def test_unlimited_env_matches_plain_run(self, monkeypatch):
        plain = run_transfer()
        monkeypatch.setenv(OVERHEAD_BUDGET_ENV, "unlimited")
        unlimited = run_transfer()
        assert unlimited == plain

    def test_vast_headroom_controller_never_actuates(self):
        """Even with a controller attached, a budget it can never breach
        leaves every taint observation identical to the plain run."""
        plain = run_transfer()
        budgeted = run_transfer(overhead_budget=1e9)
        assert budgeted == plain


class TestGateFlip:
    def test_gated_send_method_strips_labels_end_to_end(self):
        cluster = Cluster(Mode.DISTA, overhead_budget=1.05)
        n1 = cluster.add_node("n1")
        n2 = cluster.add_node("n2")
        with cluster:
            # Re-attach by hand to hold the runtime (the cluster's own
            # attach discards it); the controller rides the runtime.
            agent = DisTAAgent(cluster.taint_map_addresses, overhead_budget=1.05)
            agent.detach(n1)
            runtime = agent.attach(n1)
            controller = runtime._budget
            assert controller is not None

            # Synthetic load: an absurd tracking surcharge on a pure
            # send workload forces sampling to its ceiling and then a
            # gate flip on the only traffic-bearing method.
            for _ in range(8):
                if controller.is_gated("socketWrite0"):
                    break
                controller.add_tracking_seconds(10.0)
                controller.account_io("socketWrite0", "send", 4096, 0)
                controller.tick()
            assert controller.is_gated("socketWrite0")

            server = ServerSocket(n2, 9200)
            client = Socket.connect(n1, ("10.0.0.2", 9200))
            conn = server.accept()
            taint = n1.tree.taint_for_tag("secret")
            client.get_output_stream().write(TBytes.tainted(b"payload", taint))
            received = conn.get_input_stream().read_fully(7)
            # Bytes intact, labels stripped at the gate: the receiver
            # sees plain untainted traffic.
            assert received == b"payload"
            assert received.overall_taint() is None


class TestWarmStartPlumbing:
    """budget_warm_start travels the same routes as the budget itself:
    Cluster kwarg, launch extras, and into the controller at attach."""

    def test_cluster_kwarg(self):
        cluster = Cluster(
            Mode.DISTA, overhead_budget=1.05, budget_warm_start="4"
        )
        assert cluster.agent_options["budget_warm_start"] == "4"

    def test_launch_extra(self):
        cluster = launch_cluster(
            Mode.DISTA, "overheadBudget=1.05,budgetWarmStart=4:socketWrite0"
        )
        assert cluster.agent_options["budget_warm_start"] == "4:socketWrite0"

    def test_agent_restores_controller_at_attach(self):
        cluster = Cluster(Mode.DISTA)
        n1 = cluster.add_node("n1")
        with cluster:
            agent = DisTAAgent(
                cluster.taint_map_addresses,
                overhead_budget=1.05,
                budget_warm_start="4:socketWrite0+datagram.send",
            )
            agent.detach(n1)
            runtime = agent.attach(n1)
            controller = runtime._budget
            assert controller.sample_every == 4
            assert controller.gated_methods == ("socketWrite0", "datagram.send")
            assert n1.registry.sample_every == 4

    def test_warm_start_without_budget_is_ignored(self):
        """No budget → no controller → nothing to warm; must not raise."""
        cluster = Cluster(Mode.DISTA, budget_warm_start="4")
        cluster.add_node("n1")
        with cluster:
            pass

    def test_bad_warm_start_surfaces_at_attach(self):
        cluster = Cluster(
            Mode.DISTA, overhead_budget=1.05, budget_warm_start="nope"
        )
        cluster.add_node("n1")
        with pytest.raises(InstrumentationError):
            cluster.start()
        cluster.shutdown()
