"""Interleaved Table V/VI overhead benchmark with a traced per-layer ledger.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-tainted --seed 1 --seconds 30 --trace 0

One process, one deployment at a time, one load-generating thread (a
closed loop).  A *round* runs every item of the workload (the five SIM
systems, or the 30 Table II cases) under ORIGINAL, PHOSPHOR and DISTA,
each item's modes back to back in an order rotated from ``--seed``; the
seed also shuffles the item order.  The first round is a discarded
warm-up, then rounds repeat until ``--seconds`` have passed.  Every leg's
output is checked (see ``legs.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the
traced rounds' DISTA legs plus ``trace.overhead_x`` (traced over
untraced ``dista_ms``).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import statistics
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from legs import ALL_MODES, WORKLOADS, Mode, run_leg  # noqa: E402
from spans import LayerPatch, Tracer  # noqa: E402

#: Variables that change the Taint Map transport or tracking policy
#: under measurement; the benchmark refuses to run when one is set.
PINNED_ENV = (
    "DISTA_TAINTMAP_TRANSPORT",
    "DISTA_COALESCE_WINDOW_US",
    "DISTA_COALESCE_ADAPTIVE",
    "DISTA_TAINTMAP_DEADLINE_S",
    "DISTA_OVERHEAD_BUDGET",
)

#: A run past this many seconds is abandoned with exit code 3.
HARD_LIMIT_S = 170.0

#: ``dista_ms_tail`` is the highest whole percentile with at least this
#: many rounds above it (the median when there are too few rounds).
TAIL_BEYOND = 10

END_TO_END = {
    "dista_ms": "ms",
    "dista_ms_tail": "ms",
    "original_ms": "ms",
    "phosphor_ms": "ms",
    "dista_overhead_x": "x",
    "phosphor_overhead_x": "x",
    "dista_over_phosphor_x": "x",
    "wire_x": "x",
    "setup_s": "s",
    "passed_fraction": "fraction",
}

PER_LAYER = {
    "appmodel.ms": "ms",
    "appmodel.calls": "count",
    "appmodel.original_ms": "ms",
    "appmodel.phosphor_ms": "ms",
    "wire.encode_ms": "ms",
    "wire.decode_ms": "ms",
    "wire.calls": "count",
    "wire.slow_fraction": "fraction",
    "wrappers.record_io_ms": "ms",
    "wrappers.outgoing_ms": "ms",
    "wrappers.crossings": "count",
    "wrappers.tainted_crossings": "count",
    "taintmap.register_ms": "ms",
    "taintmap.lookup_ms": "ms",
    "taintmap.calls": "count",
    "taintmap.rpcs": "count",
    "taintmap.rpc_ms_p50": "ms",
    "taintmap.server_handle_ms": "ms",
    "taintmap.cache_hit_ratio": "fraction",
    "taintmap.entries_per_flush": "count",
    "kernel.app_wire_bytes": "bytes",
    "kernel.taintmap_wire_bytes": "bytes",
    "cluster.start_ms": "ms",
    "cluster.shutdown_ms": "ms",
    "systems.seed_ms": "ms",
    "ledger.attributed_x": "x",
    "trace.overhead_x": "x",
}


def tail(values) -> tuple:
    """(percentile, value) for ``dista_ms_tail``."""
    p = max(50, math.floor(100 * (1 - TAIL_BEYOND / len(values))))
    if len(values) == 1:
        return p, values[0]
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def round_summary(legs) -> dict:
    """End-to-end quantities of one round whose legs all passed."""
    duration = {mode: 0.0 for mode in ALL_MODES}
    wire = {mode: 0 for mode in ALL_MODES}
    setups = []
    for leg in legs:
        duration[leg.mode] += leg.duration_s
        wire[leg.mode] += leg.wire_bytes
        if leg.mode is Mode.DISTA:
            setups.append(leg.wall_s - leg.duration_s)
    original, phosphor, dista = (
        duration[Mode.ORIGINAL],
        duration[Mode.PHOSPHOR],
        duration[Mode.DISTA],
    )
    return {
        "dista_ms": dista * 1e3,
        "original_ms": original * 1e3,
        "phosphor_ms": phosphor * 1e3,
        "dista_overhead_x": dista / original,
        "phosphor_overhead_x": phosphor / original,
        "dista_over_phosphor_x": dista / phosphor,
        "wire_x": wire[Mode.DISTA] / wire[Mode.ORIGINAL],
        "setup_s": statistics.fmean(setups),
    }


def layer_summary(buckets, legs) -> dict:
    """Per-layer quantities of one traced round, from its span ledgers
    (one per mode) and the DISTA legs' telemetry deltas."""
    from repro.obs.registry import merge_snapshots, snapshot_quantile, snapshot_total

    dista = buckets[Mode.DISTA]
    tele = merge_snapshots(*dista.telemetry)

    def ms(ledger, *names):
        return sum(ledger.self_s.get(name, 0.0) for name in names) * 1e3

    def calls(*names):
        return sum(dista.calls.get(name, 0) for name in names)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def histogram_sum(name):
        entry = tele.get(name)
        return sum(s["sum"] for s in entry["samples"]) if entry else 0.0

    fast = snapshot_total(tele, "dista_fastpath_total", {"path": "fast"})
    slow = snapshot_total(tele, "dista_fastpath_total", {"path": "slow"})
    hits = snapshot_total(tele, "dista_cache_events_total", {"event": "hit"})
    misses = snapshot_total(tele, "dista_cache_events_total", {"event": "miss"})
    flushes = snapshot_total(tele, "dista_coalesce_window_entries")
    rpc_p50 = snapshot_quantile(tele, "dista_taintmap_rpc_seconds", 0.5)
    dista_wall = sum(leg.wall_s for leg in legs if leg.mode is Mode.DISTA)
    return {
        "appmodel.ms": ms(dista, "appmodel"),
        "appmodel.calls": calls("appmodel"),
        "appmodel.original_ms": ms(buckets[Mode.ORIGINAL], "appmodel"),
        "appmodel.phosphor_ms": ms(buckets[Mode.PHOSPHOR], "appmodel"),
        "wire.encode_ms": ms(dista, "wire.encode"),
        "wire.decode_ms": ms(dista, "wire.decode"),
        "wire.calls": calls("wire.encode", "wire.decode"),
        "wire.slow_fraction": ratio(slow, fast + slow),
        "wrappers.record_io_ms": ms(dista, "wrappers.record_io"),
        "wrappers.outgoing_ms": ms(dista, "wrappers.outgoing"),
        "wrappers.crossings": calls("wrappers.record_io"),
        "wrappers.tainted_crossings": snapshot_total(tele, "dista_crossings_total"),
        "taintmap.register_ms": ms(dista, "taintmap.register"),
        "taintmap.lookup_ms": ms(dista, "taintmap.lookup"),
        "taintmap.calls": calls("taintmap.register", "taintmap.lookup"),
        "taintmap.rpcs": snapshot_total(tele, "dista_taintmap_requests_total"),
        "taintmap.rpc_ms_p50": (rpc_p50 or 0.0) * 1e3,
        "taintmap.server_handle_ms": histogram_sum(
            "dista_taintmap_server_handle_seconds"
        )
        * 1e3,
        "taintmap.cache_hit_ratio": ratio(hits, hits + misses),
        "taintmap.entries_per_flush": ratio(
            histogram_sum("dista_coalesce_window_entries"), flushes
        ),
        "kernel.app_wire_bytes": dista.app_wire_bytes,
        "kernel.taintmap_wire_bytes": dista.taintmap_wire_bytes,
        "cluster.start_ms": ms(dista, "cluster.start"),
        "cluster.shutdown_ms": ms(dista, "cluster.shutdown"),
        "systems.seed_ms": ms(dista, "systems.seed"),
        "ledger.attributed_x": ratio(sum(dista.self_s.values()), dista_wall),
    }


def environment() -> dict:
    import numpy

    from repro.core.agent import resolve_transport

    return {
        "transport": resolve_transport(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


class Bench:
    """One benchmark run: rounds of legs, their checks and their metrics."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.rng = random.Random(seed)
        self.rotation = self.rng.randrange(len(ALL_MODES))
        self.rounds = 0
        self.attempted = 0
        self.failures: list = []

    def run_round(self, tracer=None) -> list:
        """Run one round; returns its legs, or ``[]`` if any leg failed."""
        shift = (self.rotation + self.rounds) % len(ALL_MODES)
        modes = ALL_MODES[shift:] + ALL_MODES[:shift]
        items = list(self.workload.items)
        self.rng.shuffle(items)
        self.rounds += 1
        legs = []
        for item in items:
            for mode in modes:
                # Collect the previous leg's garbage now, so no collection
                # of it lands inside this leg.
                gc.collect()
                if tracer is not None:
                    tracer.select(mode)
                legs.append(run_leg(self.workload, item, mode))
        self.attempted += len(legs)
        failed = [leg for leg in legs if leg.failure is not None]
        self.failures.extend(failed)
        return [] if failed else legs


def run(workload_name: str, seed: int, seconds: float, trace: bool):
    """Run the benchmark and return the result object (the JSON line),
    or ``None`` when no round passed its checks."""
    bench = Bench(WORKLOADS[workload_name], seed)
    bench.run_round()  # warm-up, discarded
    # Move everything alive after warm-up (modules, caches) out of the
    # collector's reach, so the per-leg collections scan only new objects.
    gc.collect()
    gc.freeze()
    untraced, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not untraced or (trace and not traced):
        if trace and len(traced) < len(untraced):
            tracer = Tracer()
            patch = LayerPatch(tracer)
            try:
                legs = bench.run_round(tracer)
            finally:
                patch.remove()
            if legs:
                traced.append(round_summary(legs))
                layers.append(layer_summary(tracer.buckets, legs))
        else:
            legs = bench.run_round()
            if legs:
                untraced.append(round_summary(legs))
        if bench.failures and time.perf_counter() >= deadline:
            break  # failing rounds never end the loop by passing

    for leg in bench.failures:
        print(f"FAILED {leg.item} {leg.mode.value}: {leg.failure}")
    if not untraced or (trace and not traced):
        return None
    metrics = {}
    if trace:
        for name in PER_LAYER:
            if name != "trace.overhead_x":
                metrics[name] = statistics.median(r[name] for r in layers)
        metrics["trace.overhead_x"] = statistics.median(
            r["dista_ms"] for r in traced
        ) / statistics.median(r["dista_ms"] for r in untraced)
        units = PER_LAYER
        print(f"# {len(layers)} traced rounds, {len(untraced)} untraced")
    else:
        for name in END_TO_END:
            if name in untraced[0]:
                metrics[name] = statistics.median(r[name] for r in untraced)
        p, metrics["dista_ms_tail"] = tail([r["dista_ms"] for r in untraced])
        metrics["passed_fraction"] = 1 - len(bench.failures) / bench.attempted
        units = END_TO_END
        print(
            f"# {len(untraced)} rounds; dista_ms_tail is p{p} of "
            f"{len(untraced)} rounds"
        )
    for name, value in metrics.items():
        print(f"{name:<28} {value:14.6g} {units[name]}")
    print("# env " + json.dumps(environment()))
    return {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pinned = [name for name in PINNED_ENV if name in os.environ]
    if pinned:
        print(f"refusing to run with {', '.join(pinned)} set", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {list(WORKLOADS)}")
    watchdog = threading.Timer(HARD_LIMIT_S, os._exit, args=(3,))
    watchdog.daemon = True
    watchdog.start()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        watchdog.cancel()
    if result is None:
        print("no round passed its output checks", file=sys.stderr)
        return 1
    if not all(math.isfinite(m["value"]) for m in result["metrics"].values()):
        print("a metric is not finite", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
