"""The benchmark's workloads and the output check applied to every run.

A *leg* is one deployment: one system (or one micro case) under one
mode, run through the repository's public entry points
(``repro.systems.<system>.workload.run_workload`` and
``repro.microbench.workload.run_case``).  A leg fails on an exception,
on a timeout, or when its output check returns a reason; failed legs
stay in the attempted count.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.microbench.cases import CASES_BY_NAME
from repro.microbench.workload import run_case
from repro.obs.registry import snapshot_total
from repro.runtime.modes import Mode
from repro.systems import ALL_SYSTEMS
from repro.systems.common import SIM

#: Data1/Data2 size of the micro workload.  Small enough for a round of
#: all 30 cases × 3 modes to take about a second, large enough that the
#: per-primitive ``DataInputStream`` cases make thousands of crossings.
MICRO_SIZE = 4 * 1024

#: A leg slower than this counts as timed out.  The workloads' own joins
#: and election waits give up after 30 s, which bounds a hung leg.
LEG_TIMEOUT_S = 20.0

#: Systems whose SIM flows reach a sink on another node.  ActiveMQ and
#: RocketMQ consume on the producing node, so they have none.
CROSS_NODE_SYSTEMS = frozenset({"ZooKeeper", "MapReduce/Yarn", "HBase+ZooKeeper"})

#: The tags ``run_case`` puts on Data1 and Data2.
SOURCE_TAGS = frozenset({"data1", "data2"})

ALL_MODES = (Mode.ORIGINAL, Mode.PHOSPHOR, Mode.DISTA)

_SYSTEM_WORKLOADS = {
    name: importlib.import_module(f"{package.__name__}.workload")
    for name, package in ALL_SYSTEMS.items()
}


@dataclass(frozen=True)
class Workload:
    name: str
    #: System names or micro case names; one leg per item and mode of
    #: :data:`ALL_MODES`.
    items: tuple
    run: Callable[[str, Mode], object]
    #: Returns why a leg's result is wrong, or ``None``.
    check: Callable[[object], Optional[str]]


@dataclass
class Leg:
    item: str
    mode: Mode
    #: The run's own timed region (``result.duration``), in seconds.
    duration_s: float
    #: Wall time of the whole call: deployment, run and teardown.
    wall_s: float
    wire_bytes: int
    failure: Optional[str]


def run_leg(workload: Workload, item: str, mode: Mode) -> Leg:
    started = time.perf_counter()
    try:
        result = workload.run(item, mode)
    except Exception as exc:  # a failed leg is counted, not fatal
        wall = time.perf_counter() - started
        return Leg(item, mode, wall, wall, 0, f"{type(exc).__name__}: {exc}")
    wall = time.perf_counter() - started
    failure = workload.check(result)
    if failure is None and result.duration > LEG_TIMEOUT_S:
        failure = f"timeout: {result.duration:.1f}s"
    return Leg(item, mode, result.duration, wall, result.wire_bytes, failure)


def check_micro(result) -> Optional[str]:
    """Table II: DISTA sound and precise, payload intact in every mode,
    and PHOSPHOR blind to the inter-node tags (the Fig. 4 shape)."""
    if not result.data_ok:
        return "payload corrupted"
    seen = {tag.tag for tag in result.observed_tags}
    if result.mode is Mode.DISTA:
        if not (result.sound and seen >= SOURCE_TAGS):
            return "DISTA unsound: a source tag is missing at check()"
        if not (result.precise and seen <= SOURCE_TAGS):
            return "DISTA imprecise: an extra tag reached check()"
    elif result.mode is Mode.PHOSPHOR:
        if result.sound or seen >= SOURCE_TAGS:
            return "PHOSPHOR saw both tags across nodes"
    elif seen:
        return "ORIGINAL observed tags"
    return None


def check_sim_tainted(result) -> Optional[str]:
    if not result.observed_tags <= result.generated_tags:
        return "a sink observed a tag no source generated"
    if result.mode is Mode.ORIGINAL:
        return None
    if not result.generated_tags:
        return "no source generated a tag"
    if result.mode is Mode.PHOSPHOR and result.cross_node_tags:
        return "PHOSPHOR saw a cross-node tag"
    if result.mode is Mode.DISTA:
        if result.global_taints <= 0:
            return "DISTA registered no global taints"
        if result.system in CROSS_NODE_SYSTEMS and not result.cross_node_tags:
            return "DISTA saw no cross-node tag"
    return None


def check_sim_untainted(result) -> Optional[str]:
    if result.global_taints:
        return f"{result.global_taints} global taints"
    if result.generated_tags or result.tainted_observations:
        return "tainted data at a source or sink"
    rpcs = snapshot_total(result.telemetry, "dista_taintmap_requests_total")
    if rpcs:
        return f"{int(rpcs)} Taint Map RPCs"
    return None


def _sim_runner(source_fraction: float):
    def run(system: str, mode: Mode):
        return _SYSTEM_WORKLOADS[system].run_workload(
            mode, SIM, source_fraction=source_fraction
        )

    return run


def _run_micro(case: str, mode: Mode):
    return run_case(CASES_BY_NAME[case], mode, size=MICRO_SIZE)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "sim-tainted",
            tuple(ALL_SYSTEMS),
            _sim_runner(1.0),
            check_sim_tainted,
        ),
        Workload(
            "sim-untainted",
            tuple(ALL_SYSTEMS),
            _sim_runner(0.0),
            check_sim_untainted,
        ),
        Workload(
            "micro-table5",
            tuple(CASES_BY_NAME),
            _run_micro,
            check_micro,
        ),
    )
}
