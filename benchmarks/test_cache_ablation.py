"""Bounded GID-cache ablation: capacity vs re-registration traffic.

PR 2 added an optional LRU bound to the client's GID/taint caches
(``cache_capacity``); the ROADMAP asks what that bound costs.  A SIM
workload re-sends its working set of labels over and over — every cache
miss re-registers an already-known taint with the Taint Map (the Fig. 9
step-② dedup the cache exists to avoid), so the metric that matters is
**register entries reaching the server** as capacity shrinks below the
working set.

Sweep: cache disabled / 1k / 64k / unbounded, working set of 4096
labels, 3 passes.  An unbounded (or working-set-sized) cache pays the
registration traffic once; a 1k cache thrashes; no cache pays it every
pass.  Results land in ``BENCH_PR3_CACHE.json`` at the repository root.

A bounded cache is one plain LRU: past ``cache_capacity`` entries the
least recently used one is evicted and re-registers on next use.
"""

import json
from pathlib import Path

from repro.core.taintmap import ShardedTaintMapService, TaintMapClient
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode

#: Distinct labels the workload keeps re-sending.
WORKING_SET = 4096
PASSES = 3
#: Labels per message (one batched gids_for call).
BATCH = 64

#: capacity sweep: None key = unbounded, 0 = cache disabled.
CAPACITIES = {"disabled": 0, "1k": 1024, "64k": 65536, "unbounded": None}

_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR3_CACHE.json"


def _measure(label: str, capacity) -> dict:
    kernel = SimKernel(f"cache-bench-{label}")
    kernel.register_node(TAINT_MAP_IP)
    fs = SimFileSystem()
    service = ShardedTaintMapService(
        kernel, TAINT_MAP_IP, TAINT_MAP_PORT, 1
    ).start()
    node = SimNode("n", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
    if capacity == 0:
        client = TaintMapClient(node, service.addresses, cache_enabled=False)
    else:
        client = TaintMapClient(node, service.addresses, cache_capacity=capacity)
    try:
        taints = [node.tree.taint_for_tag(f"{label}-{i}") for i in range(WORKING_SET)]
        for _ in range(PASSES):
            for start in range(0, WORKING_SET, BATCH):
                client.gids_for(taints[start : start + BATCH])
        server = service.servers[0]
        snapshot = client.stats.snapshot()
        return {
            "register_entries": server.stats.register_entries,
            "reregistration_entries": server.stats.register_entries - WORKING_SET,
            "roundtrips": client.requests_sent,
            "cache_hits": snapshot["cache_hits"],
            "cache_misses": snapshot["cache_misses"],
            "cache_evictions": snapshot["cache_evictions"],
        }
    finally:
        client.close()
        service.stop()


def test_cache_capacity_vs_reregistration_traffic():
    results = {label: _measure(label, cap) for label, cap in CAPACITIES.items()}

    report = {
        "bench": "cache_ablation",
        "workload": (
            f"{PASSES} passes over {WORKING_SET} distinct labels, "
            f"{BATCH} labels per message (batched gids_for), 1 shard"
        ),
        "capacities": {k: ("off" if v == 0 else v) for k, v in CAPACITIES.items()},
        "results": results,
    }
    _RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")

    # No cache: every pass re-registers the full working set.
    assert results["disabled"]["register_entries"] == PASSES * WORKING_SET
    # A bound >= working set behaves like unbounded: one registration each.
    assert results["64k"]["register_entries"] == WORKING_SET
    assert results["unbounded"]["register_entries"] == WORKING_SET
    assert results["unbounded"]["cache_evictions"] == 0
    # A bound below the working set thrashes: strictly more traffic than
    # the fitting cache, strictly less than no cache at all.
    assert (
        WORKING_SET
        < results["1k"]["register_entries"]
        <= PASSES * WORKING_SET
    )
    assert results["1k"]["cache_evictions"] > 0

