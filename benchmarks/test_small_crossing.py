"""A small tainted crossing end to end vs the path it replaced.

The reference below is a frozen, self-contained copy of the previous
production path for a one-run frame:

* encode built the GID column through the generic run loop
  (``unique_labels``, a label → unit dict, the ``runs`` list);
* decode viewed every frame through a numpy structured dtype, found the
  one run from the GID column, and built it with the normalizing
  ``LabelRuns`` constructor;
* every client cache hit took the cache lock, then the stats lock, and
  bumped its counter with ``getattr``/``setattr``.

It is kept here so the comparison survives the production code moving
on — do not "optimize" it.  The production path builds a one-run column
from one repeated unit, decodes a small one-run frame with bytes ops
only, and answers unbounded-cache hits with one dict probe, adding the
hit count once per call.

Both sides resolve through one real, warm ``TaintMapClient`` (the
reference reads a frozen copy of its caches), so every resolution is a
cache hit and no RPC is timed.  The sequence timed is one 4 B one-run
value encoded, decoded by a fresh decoder, and resolved on both ends —
what every tainted ``write_int``/``read_int`` pair of the Table V micro
cases does.  Per-stage rows and 4 B untainted / 64 B one-run sequences
are reported alongside.  Results land in ``BENCH_PR16.json`` at the
repository root.  Gate: the 4 B one-run sequence is at least 1.3×
faster than the reference.
"""

import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Optional

import numpy as np

from benchmarks.test_cell_codec import BATCH_S, REPEATS, _paired_min
from repro.core import wire
from repro.core.taintmap import TaintMapClient, TaintMapServer, TaintMapStats
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode
from repro.taint.values import LabelRuns, TBytes

#: The sequence reads 1.52–1.59× on a 2-vCPU x86-64 VM; the bound sits
#: well below that so a different CPU or a busy runner does not trip it.
SMALL_SEQUENCE_MIN_SPEEDUP = 1.3

_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR16.json"


# --------------------------------------------------------------------- #
# Frozen reference: the previous small-crossing path — do not "optimize"
# --------------------------------------------------------------------- #

_GID_BE = np.dtype(">u4")
_CELL_DTYPE = np.dtype([("data", np.uint8), ("gid", _GID_BE)])


class _ReferenceCache:
    """The unbounded cache read: lock, segment checks, a counted hit."""

    def __init__(self, entries: dict, stats: TaintMapStats):
        self._stats = stats
        self._lock = threading.Lock()
        self._probation = OrderedDict(entries)
        self._protected: OrderedDict = OrderedDict()
        self._sketch = None
        self._capacity = None

    def get(self, key):
        with self._lock:
            if self._sketch is not None:
                self._sketch.record(key)
            if key in self._protected:
                self._protected.move_to_end(key)
                self._stats.bump("cache_hits")
                return self._protected[key]
            if key not in self._probation:
                self._stats.bump("cache_misses")
                return None
            self._stats.bump("cache_hits")
            if self._capacity is None:
                return self._probation[key]
            raise AssertionError("bounded caches are not part of this reference")


class _ReferenceClient:
    """The client's batched resolvers on their hit path.

    A miss would have gone to the Taint Map; the benchmark warms every
    key first, so one here is a set-up error."""

    def __init__(self, client: TaintMapClient):
        self.stats = TaintMapStats()
        self._gid_cache = _ReferenceCache(client._gid_cache._entries, self.stats)
        self._taint_cache = _ReferenceCache(client._taint_cache._entries, self.stats)
        self._cache_enabled = True

    def gids_for(self, taints) -> list:
        gids: list = [None] * len(taints)
        misses: dict = {}
        for i, taint in enumerate(taints):
            if taint is None or taint.is_empty:
                gids[i] = 0
                continue
            key = id(taint.node)
            if self._cache_enabled:
                cached = self._gid_cache.get(key)
                if cached is not None:
                    gids[i] = cached[0]
                    continue
            if key in misses:
                misses[key][1].append(i)
            else:
                misses[key] = (taint, [i])
        assert not misses, "reference client missed its warm cache"
        return gids

    def taints_for(self, gids) -> list:
        taints: list = [None] * len(gids)
        misses: dict = {}
        for i, gid in enumerate(gids):
            if gid == 0:
                continue
            if self._cache_enabled:
                cached = self._taint_cache.get(gid)
                if cached is not None:
                    taints[i] = cached
                    continue
            misses.setdefault(gid, []).append(i)
        assert not misses, "reference client missed its warm cache"
        return taints


def _reference_encode_cells(data: TBytes, resolver: wire.LabelResolver) -> bytes:
    column = bytearray(wire.CELL_WIDTH * len(data))
    labels = data.labels
    runs = labels.runs if labels is not None else ()
    if runs:
        unique = labels.unique_labels()
        units = {
            id(label): b"\0" + gid.to_bytes(wire.GID_WIDTH, "big")
            for label, gid in zip(unique, resolver.gids_for(unique))
        }
        for start, end, label in runs:
            column[start * wire.CELL_WIDTH : end * wire.CELL_WIDTH] = units[
                id(label)
            ] * (end - start)
    column[0 :: wire.CELL_WIDTH] = data.data
    return bytes(column)


def _reference_label_runs(gids, taints_for) -> Optional[LabelRuns]:
    n = len(gids)
    first = gids[0] if n else 0
    if not first and not gids.any():
        return None
    if first == gids[-1]:
        column = gids.tobytes()
        if column == column[: wire.GID_WIDTH] * n:
            (taint,) = taints_for([int(first)])
            return LabelRuns(n, ((0, n, taint),) if taint is not None else ())
    boundaries = (np.flatnonzero(gids[1:] != gids[:-1]) + 1).tolist()
    starts = [0] + boundaries
    ends = boundaries + [n]
    run_gids = [int(gids[s]) for s in starts]
    unique = sorted({g for g in run_gids if g})
    mapping = dict(zip(unique, taints_for(unique)))
    return LabelRuns(
        n, ((s, e, mapping[g]) for s, e, g in zip(starts, ends, run_gids) if g)
    )


class _ReferenceDecoder:
    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, wire_bytes: bytes, resolver: wire.LabelResolver) -> TBytes:
        buffered = bool(self._buffer)
        if buffered:
            self._buffer += wire_bytes
            stream = self._buffer
        else:
            stream = wire_bytes
        cells = len(stream) // wire.CELL_WIDTH
        if cells == 0:
            if not buffered:
                self._buffer += wire_bytes
            return TBytes.empty()
        body = np.frombuffer(stream, dtype=_CELL_DTYPE, count=cells)
        data = body["data"].tobytes()
        labels = _reference_label_runs(body["gid"], resolver.taints_for)
        consumed = cells * wire.CELL_WIDTH
        del body
        if buffered:
            del self._buffer[:consumed]
        elif consumed < len(wire_bytes):
            self._buffer += wire_bytes[consumed:]
        if labels is None:
            return TBytes.raw(data)
        return TBytes(data, labels)


# --------------------------------------------------------------------- #
# A real warm client, and the measurement
# --------------------------------------------------------------------- #


def _warm_client():
    kernel = SimKernel("small-crossing")
    kernel.register_node(TAINT_MAP_IP)
    server = TaintMapServer(kernel, TAINT_MAP_IP, TAINT_MAP_PORT).start()
    node = SimNode(
        "n1", kernel.register_node("10.0.0.1"), 1, kernel, SimFileSystem(), Mode.DISTA
    )
    return server, node, TaintMapClient(node, server.address)


def _row(shape, stage, reference, candidate) -> dict:
    ref_s, new_s = _paired_min(reference, candidate)
    return {
        "shape": shape,
        "stage": stage,
        "reference_us": ref_s * 1e6,
        "small_crossing_us": new_s * 1e6,
        "speedup": ref_s / new_s,
    }


def test_small_tainted_crossing_against_previous_path():
    server, node, client = _warm_client()
    try:
        taint = node.tree.taint_for_tag("secret")
        resolver = wire.LabelResolver.for_client(client)
        shapes = {
            "4 B one-run": TBytes.tainted(b"\x00\x00\x00\x2a", taint),
            "4 B untainted": TBytes(b"\x00\x00\x00\x2a"),
            "64 B one-run": TBytes.tainted(bytes(range(64)), taint),
        }
        # Warm both caches: register the taint and decode its frame.
        wire.CellDecoder().feed(wire.encode_cells(shapes["4 B one-run"], resolver), resolver)
        reference = _ReferenceClient(client)
        ref_resolver = wire.LabelResolver(
            client.gid_for, client.taint_for, reference.gids_for, reference.taints_for
        )
        rpcs = client.requests_sent

        rows = []
        for shape, value in shapes.items():
            cells = _reference_encode_cells(value, ref_resolver)
            assert wire.encode_cells(value, resolver) == cells, shape
            decoded = wire.CellDecoder().feed(cells, resolver)
            assert decoded.data == value.data, shape
            assert decoded.labels == _ReferenceDecoder().feed(cells, ref_resolver).labels
            assert decoded.labels == value.labels, shape

            def ref_sequence():
                frame = _reference_encode_cells(value, ref_resolver)
                return _ReferenceDecoder().feed(frame, ref_resolver)

            def new_sequence():
                frame = wire.encode_cells(value, resolver)
                return wire.CellDecoder().feed(frame, resolver)

            rows.append(_row(shape, "sequence", ref_sequence, new_sequence))
            rows.append(
                _row(
                    shape,
                    "encode",
                    lambda: _reference_encode_cells(value, ref_resolver),
                    lambda: wire.encode_cells(value, resolver),
                )
            )
            rows.append(
                _row(
                    shape,
                    "decode",
                    lambda: _ReferenceDecoder().feed(cells, ref_resolver),
                    lambda: wire.CellDecoder().feed(cells, resolver),
                )
            )
        rows.append(
            _row(
                "4 B one-run",
                "cache_hit",
                lambda: reference.gids_for([taint]),
                lambda: client.gids_for([taint]),
            )
        )
        # Every resolution after the warm-up registration (the one miss;
        # registering also fills the GID -> taint cache) was a hit.
        assert client.requests_sent == rpcs
        assert client.stats.snapshot()["cache_misses"] == 1
        ref_stats = reference.stats.snapshot()
        assert ref_stats["cache_misses"] == 0 and ref_stats["cache_hits"] > 0
    finally:
        client.close()
        server.stop()

    gate = next(r for r in rows if r["shape"] == "4 B one-run" and r["stage"] == "sequence")
    report = {
        "bench": "small_tainted_crossing",
        "reference": "generic-run encode, numpy decode, locked and "
        "per-hit-counted client cache reads",
        "repeats": REPEATS,
        "batch_s": BATCH_S,
        "gates": {
            "small_sequence_speedup": gate["speedup"],
            "small_sequence_min_speedup": SMALL_SEQUENCE_MIN_SPEEDUP,
        },
        "rows": rows,
    }
    _RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")

    assert gate["speedup"] >= SMALL_SEQUENCE_MIN_SPEEDUP, report["gates"]
