"""Cross-message coalescing vs one request per registration on a
many-small-message SIM workload.

The workload: many sender threads, each resolving one fresh taint per
"message" — the pattern of a SIM cluster exchanging lots of small
messages, where every send pays a Taint Map round-trip.  The reference
is the same client pinned to ``coalesce_window_us=0``: one round-trip
per registration.  With a coalescing window the client batches
concurrent registrations per window, so k in-flight messages cost one
round-trip per window.

``service_time`` models each registration round-trip's server-side cost
(0.5 ms, LAN scale).  The acceptance gate is round-trips (robust under
CI scheduling noise, counted via ``TaintMapStats``); throughput is
reported alongside.

Results land in ``BENCH_PR3.json`` at the repository root, asserting the
coalescing window needs at most half the round-trips of the per-request
reference on the same workload.
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

SENDER_THREADS = 16
MESSAGES_PER_THREAD = 25
#: Per-request shard processing cost (0.5 ms — a LAN round-trip-scale
#: service time, far above sleep-granularity noise).
SERVICE_TIME = 0.0005
#: Coalescing window: ~2 service times, so concurrent senders pile into
#: the window opened while the previous flush is being served.
WINDOW_US = 1000.0
REPEATS = 3

_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR3.json"


#: Measured configurations: the per-request reference and the window.
WINDOWS = {"per_request": 0.0, "coalesced": WINDOW_US}


def _measure_round(window_us: float, namespace: str) -> tuple[float, int]:
    """One timed round; returns (messages/s, client round-trips)."""
    kernel = SimKernel(f"aio-bench-{namespace}")
    kernel.register_node(TAINT_MAP_IP)
    fs = SimFileSystem()
    service = ShardedTaintMapService(
        kernel, TAINT_MAP_IP, TAINT_MAP_PORT, 1, service_time=SERVICE_TIME
    ).start()
    node = SimNode("n", kernel.register_node("10.0.0.1"), 1, kernel, fs, Mode.DISTA)
    client = TaintMapClient(node, service.addresses, coalesce_window_us=window_us)
    try:
        taints = [
            [
                node.tree.taint_for_tag(f"{namespace}-{t}-{i}")
                for i in range(MESSAGES_PER_THREAD)
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

        total = SENDER_THREADS * MESSAGES_PER_THREAD
        assert service.global_taint_count() == total
        return total / elapsed, client.requests_sent
    finally:
        client.close()
        service.stop()


def test_async_coalescing_halves_roundtrips():
    best = {}
    for name, window_us in WINDOWS.items():
        best_throughput, fewest_roundtrips = 0.0, None
        for repeat in range(REPEATS):
            throughput, roundtrips = _measure_round(window_us, f"{name}-r{repeat}")
            best_throughput = max(best_throughput, throughput)
            fewest_roundtrips = (
                roundtrips
                if fewest_roundtrips is None
                else min(fewest_roundtrips, roundtrips)
            )
        best[name] = (best_throughput, fewest_roundtrips)

    total = SENDER_THREADS * MESSAGES_PER_THREAD
    report = {
        "bench": "async_transport",
        "workload": (
            f"{SENDER_THREADS} threads x {MESSAGES_PER_THREAD} small messages "
            f"(1 fresh registration each), 1 shard, "
            f"service_time={SERVICE_TIME}s, coalesce_window={WINDOW_US}us"
        ),
        "repeats": REPEATS,
        "results": {
            name: {
                "coalesce_window_us": WINDOWS[name],
                "messages_per_s": throughput,
                "taint_map_roundtrips": roundtrips,
                "messages_per_roundtrip": total / roundtrips,
            }
            for name, (throughput, roundtrips) in best.items()
        },
        "roundtrip_reduction": best["per_request"][1] / best["coalesced"][1],
        "throughput_speedup": best["coalesced"][0] / best["per_request"][0],
    }
    _RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")

    reduction = report["roundtrip_reduction"]
    assert reduction >= 2.0, (
        f"coalescing only cut round-trips {reduction:.2f}x "
        f"({best['per_request'][1]} per-request vs {best['coalesced'][1]} coalesced)"
    )
