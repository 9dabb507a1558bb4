"""The output checks pass real results and flag doctored ones."""

from dataclasses import replace

import pytest

from legs import ALL_MODES, WORKLOADS, check_micro, check_sim_tainted, check_sim_untainted, run_leg
from repro.runtime.modes import Mode


@pytest.fixture(scope="module")
def micro_results():
    run = WORKLOADS["micro-table5"].run
    return {mode: run("socket_bytes_bulk", mode) for mode in ALL_MODES}


@pytest.fixture(scope="module")
def zookeeper_results():
    run = WORKLOADS["sim-tainted"].run
    return {mode: run("ZooKeeper", mode) for mode in (Mode.PHOSPHOR, Mode.DISTA)}


def test_real_micro_results_pass(micro_results):
    for result in micro_results.values():
        assert check_micro(result) is None


def test_dista_micro_result_missing_a_source_tag_fails(micro_results):
    dista = micro_results[Mode.DISTA]
    dropped = frozenset(t for t in dista.observed_tags if t.tag != "data2")
    assert check_micro(replace(dista, observed_tags=dropped)).startswith("DISTA unsound")


def test_dista_micro_result_with_an_extra_tag_fails(micro_results):
    dista = micro_results[Mode.DISTA]
    extra = next(iter(dista.observed_tags))
    stranger = type(extra)("intruder", extra.local_id)
    doctored = replace(dista, observed_tags=dista.observed_tags | {stranger})
    assert check_micro(doctored).startswith("DISTA imprecise")


def test_phosphor_micro_result_seeing_both_tags_fails(micro_results):
    doctored = replace(
        micro_results[Mode.PHOSPHOR],
        observed_tags=micro_results[Mode.DISTA].observed_tags,
    )
    assert check_micro(doctored) == "PHOSPHOR saw both tags across nodes"


def test_corrupted_payload_fails_in_every_mode(micro_results):
    for result in micro_results.values():
        assert check_micro(replace(result, data_ok=False)) == "payload corrupted"


def test_sim_tainted_checks(zookeeper_results):
    phosphor, dista = zookeeper_results[Mode.PHOSPHOR], zookeeper_results[Mode.DISTA]
    assert check_sim_tainted(phosphor) is None
    assert check_sim_tainted(dista) is None
    assert check_sim_tainted(replace(dista, cross_node_tags=frozenset())) == (
        "DISTA saw no cross-node tag"
    )
    assert check_sim_tainted(replace(dista, global_taints=0)) == (
        "DISTA registered no global taints"
    )
    assert check_sim_tainted(replace(phosphor, cross_node_tags=dista.cross_node_tags)) == (
        "PHOSPHOR saw a cross-node tag"
    )
    assert check_sim_tainted(replace(dista, generated_tags=frozenset())) == (
        "a sink observed a tag no source generated"
    )


def test_sim_untainted_flags_taint_map_traffic(zookeeper_results):
    workload = WORKLOADS["sim-untainted"]
    clean = workload.run("ZooKeeper", Mode.DISTA)
    assert check_sim_untainted(clean) is None
    # A tainted run's telemetry carries Taint Map RPCs and taints.
    tainted = zookeeper_results[Mode.DISTA]
    assert check_sim_untainted(replace(clean, telemetry=tainted.telemetry)).endswith(
        "Taint Map RPCs"
    )
    assert check_sim_untainted(replace(clean, global_taints=3)) == "3 global taints"


def test_failed_check_marks_the_leg_failed():
    workload = replace(WORKLOADS["micro-table5"], check=lambda result: "doctored")
    leg = run_leg(workload, "socket_bytes_bulk", Mode.ORIGINAL)
    assert leg.failure == "doctored"


def test_exception_marks_the_leg_failed():
    def explode(item, mode):
        raise RuntimeError("boom")

    leg = run_leg(replace(WORKLOADS["micro-table5"], run=explode), "x", Mode.DISTA)
    assert leg.failure == "RuntimeError: boom"
