"""Sharded Taint Map throughput: fresh registrations vs shard count.

The paper concedes (§V-F, §VI) that the single-point Taint Map bounds
cluster throughput.  This benchmark measures the fix: N shards, each a
serial single-point service, with one shared client fanning requests
out from 8 sender threads.

The gated measurement pins the client to ``coalesce_window_us=0``, so
every registration is its own request (``requests_sent == total``) and
the sweep isolates what sharding buys.  The default group-commit policy
is measured on the same harness and recorded without a gate: it batches
concurrent misses into far fewer requests, so its absolute throughput
is already high at one shard and its shard speed-up is small.

Each shard models a production deployment on its own node via
``service_time`` — per-request processing cost paid serially *per
shard* (shards overlap with each other, exactly like N independent
machines).  Without it, every shard would contend for this process's
interpreter and the measurement would show scheduler noise, not
queueing behaviour.

Results land in ``BENCH_PR2.json`` at the repository root, asserting
per-request fresh-registration throughput at 4 shards is at least 2x
the 1-shard baseline.
"""

import json
import threading
import time
from pathlib import Path

from repro.core.taintmap import ShardedTaintMapService, TaintMapClient
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode

SHARD_COUNTS = [1, 2, 4]
SENDER_THREADS = 8
OPS_PER_THREAD = 40
#: Per-request shard processing cost (0.5 ms — a LAN round-trip-scale
#: service time, far above sleep-granularity noise).
SERVICE_TIME = 0.0005
REPEATS = 3

_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR2.json"


def _measure_round(
    shard_count: int, namespace: str, window_us=0.0
) -> tuple[float, int]:
    """One timed round: 8 threads push fresh registrations through one
    shared client; returns (registrations per second, requests sent).
    ``window_us=None`` runs the default group-commit policy."""
    kernel = SimKernel(f"shard-bench-{namespace}")
    kernel.register_node(TAINT_MAP_IP)
    fs = SimFileSystem()
    service = ShardedTaintMapService(
        kernel, TAINT_MAP_IP, TAINT_MAP_PORT, shard_count, service_time=SERVICE_TIME
    ).start()
    node = SimNode("n", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
    client = TaintMapClient(node, service.addresses, coalesce_window_us=window_us)
    try:
        taints = [
            [
                node.tree.taint_for_tag(f"{namespace}-{t}-{i}")
                for i in range(OPS_PER_THREAD)
            ]
            for t in range(SENDER_THREADS)
        ]
        barrier = threading.Barrier(SENDER_THREADS + 1)

        def sender(batch):
            barrier.wait()
            for taint in batch:
                client.gid_for(taint)

        threads = [
            threading.Thread(target=sender, args=(batch,), daemon=True)
            for batch in taints
        ]
        for thread in threads:
            thread.start()
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started

        total = SENDER_THREADS * OPS_PER_THREAD
        assert service.global_taint_count() == total
        if window_us == 0.0:
            assert client.requests_sent == total
        return total / elapsed, client.requests_sent
    finally:
        client.close()
        service.stop()


def _sweep(window_us) -> dict:
    """Best-of-REPEATS throughput per shard count, with the requests
    the best round sent."""
    best = {}
    for shard_count in SHARD_COUNTS:
        best[shard_count] = max(
            _measure_round(shard_count, f"w{window_us}s{shard_count}r{repeat}", window_us)
            for repeat in range(REPEATS)
        )
    return {
        str(count): {
            "registrations_per_s": throughput,
            "speedup_vs_1_shard": throughput / best[1][0],
            "requests_sent": requests,
        }
        for count, (throughput, requests) in best.items()
    }


def test_four_shards_double_fresh_registration_throughput():
    results = _sweep(0.0)
    report = {
        "bench": "taintmap_sharding",
        "workload": (
            f"{SENDER_THREADS} threads x {OPS_PER_THREAD} fresh registrations, "
            f"shared client, service_time={SERVICE_TIME}s/shard"
        ),
        "repeats": REPEATS,
        "results": results,
        "results_policy": "coalesce_window_us=0 (one request per registration; gated)",
        "default_policy_results": _sweep(None),
        "default_policy": "group-commit coalescing (recorded, not gated)",
    }
    _RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")

    speedup_at_4 = results["4"]["speedup_vs_1_shard"]
    assert speedup_at_4 >= 2.0, (
        f"4 shards only {speedup_at_4:.2f}x over 1 shard "
        f"({results['4']['registrations_per_s']:.0f} vs "
        f"{results['1']['registrations_per_s']:.0f} registrations/s)"
    )
