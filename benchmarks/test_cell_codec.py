"""Run-shaped cell codec vs the numpy cell codec it replaced, per shape.

The reference below is a frozen, self-contained copy of the previous
production codec: encode built a per-byte big-endian GID array with
numpy and scattered it into a zeroed ``(n, 5)`` cell grid (with a
separate zero-taint branch), and decode scanned every frame for GID
change points before building its runs.  It is kept here so the
comparison survives the production code moving on — do not "optimize"
it.  The production codec builds frames run by run with bytes ops and
decodes a frame with no GID change point straight into one run.

Every shape in {4 B, 1 KiB, 64 KiB, 128 KiB} × {untainted, 1 run,
2 runs, 49 runs} is timed for encode and decode (a fresh decoder per
frame), as the minimum over repeated batches of paired calls.  Results land in
``BENCH_PR14.json`` at the repository root.  Gates:

1. the 4 B one-run encode + decode — the dominant frame of the Table V
   micro cases — is at least 1.5× faster than the reference;
2. no shape is more than 1.15× slower than the reference.
"""

import gc
import json
import time
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core import wire
from repro.taint import LocalId, TaintTree
from repro.taint.values import LabelRuns, TBytes

SIZES = (4, 1024, 64 * 1024, 128 * 1024)
RUN_COUNTS = (0, 1, 2, 49)
REPEATS = 21
#: Each timed batch repeats one call for about this long.
BATCH_S = 0.005
SMALL_ONE_RUN_MIN_SPEEDUP = 1.5
MAX_SLOWDOWN = 1.15

_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR14.json"


# --------------------------------------------------------------------- #
# Frozen reference: the numpy cell codec — do not "optimize"
# --------------------------------------------------------------------- #

_GID_BE = np.dtype(">u4")
_CELL_DTYPE = np.dtype([("data", np.uint8), ("gid", _GID_BE)])


def _reference_gid_array(length, labels, gids_for):
    gids = np.zeros(length, dtype=_GID_BE)
    unique = labels.unique_labels()
    mapping = {id(label): gid for label, gid in zip(unique, gids_for(unique))}
    for start, end, label in labels.runs:
        gid = mapping[id(label)]
        if gid:
            gids[start:end] = gid
    return gids


def _reference_label_runs(gids, taints_for) -> Optional[LabelRuns]:
    if not gids.any():
        return None
    n = int(gids.shape[0])
    boundaries = (np.flatnonzero(gids[1:] != gids[:-1]) + 1).tolist()
    starts = [0] + boundaries
    ends = boundaries + [n]
    run_gids = [int(gids[s]) for s in starts]
    unique = sorted({g for g in run_gids if g})
    mapping = dict(zip(unique, taints_for(unique)))
    return LabelRuns(
        n, ((s, e, mapping[g]) for s, e, g in zip(starts, ends, run_gids) if g)
    )


def _reference_encode_cells(data, gid_for, gids_for=None) -> bytes:
    if isinstance(gid_for, wire.LabelResolver):
        gids_for = gid_for.gids_for
    length = len(data)
    if length == 0:
        return b""
    labels = data.labels
    if labels is None or not labels.has_labels():
        out = np.zeros((length, wire.CELL_WIDTH), dtype=np.uint8)
        out[:, 0] = np.frombuffer(data.data, dtype=np.uint8)
        return out.tobytes()
    out = np.empty((length, wire.CELL_WIDTH), dtype=np.uint8)
    out[:, 0] = np.frombuffer(data.data, dtype=np.uint8)
    out[:, 1:] = (
        _reference_gid_array(length, labels, gids_for)
        .view(np.uint8)
        .reshape(length, wire.GID_WIDTH)
    )
    return out.tobytes()


class _ReferenceDecoder:
    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, wire_bytes: bytes, taint_for, taints_for=None) -> TBytes:
        if isinstance(taint_for, wire.LabelResolver):
            taint_for, taints_for = taint_for.taint_for, taint_for.taints_for
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
        labels = _reference_label_runs(body["gid"], taints_for)
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
# Shapes and measurement
# --------------------------------------------------------------------- #


def _resolver(taints) -> wire.LabelResolver:
    gid_of = {id(t): 0x10000001 + i for i, t in enumerate(taints)}
    taint_of = {gid_of[id(t)]: t for t in taints}
    return wire.LabelResolver(
        lambda label: gid_of[id(label)],
        taint_of.__getitem__,
        lambda labels: [gid_of[id(label)] for label in labels],
        lambda gids: [taint_of[gid] for gid in gids],
    )


def _value(size: int, runs: int, taints) -> TBytes:
    """``runs`` contiguous runs covering the payload, neighbours distinct."""
    payload = bytes(range(256)) * (size // 256) + bytes(range(size % 256))
    step = size // max(runs, 1)
    bounds = [i * step for i in range(runs)] + [size]
    return TBytes(
        payload,
        LabelRuns(
            size,
            [(bounds[i], bounds[i + 1], taints[i % len(taints)]) for i in range(runs)],
        ),
    )


def _paired_min(reference, candidate):
    """Per-call seconds of each side: min over batches of paired calls.

    Within a batch the two sides alternate call by call, so both see
    the same allocator and cache state, and every frame stays alive
    until the batch ends, as a sent frame does.  Freeing each frame at
    once instead puts the 64 KiB and 128 KiB buffers at the mercy of
    the heap-trim threshold, which flips between runs.
    """
    clock = time.perf_counter
    started = clock()
    reference()
    candidate()
    inner = max(1, int(BATCH_S / max(clock() - started, 1e-7)))
    best_ref = best_new = float("inf")
    frames = []
    gc.collect()
    gc.disable()
    try:
        for repeat in range(REPEATS):
            first, second = (
                (reference, candidate) if repeat % 2 else (candidate, reference)
            )
            spent_first = spent_second = 0.0
            for _ in range(inner):
                t0 = clock()
                frames.append(first())
                t1 = clock()
                frames.append(second())
                t2 = clock()
                spent_first += t1 - t0
                spent_second += t2 - t1
            frames.clear()
            if first is reference:
                spent_ref, spent_new = spent_first, spent_second
            else:
                spent_ref, spent_new = spent_second, spent_first
            best_ref = min(best_ref, spent_ref / inner)
            best_new = min(best_new, spent_new / inner)
    finally:
        gc.enable()
    return best_ref, best_new


def test_run_codec_per_shape_against_numpy_reference():
    tree = TaintTree(LocalId("10.0.0.1", 1))
    taints = [tree.taint_for_tag(f"t{i}") for i in range(7)]
    resolver = _resolver(taints)

    rows = []
    for size in SIZES:
        for runs in RUN_COUNTS:
            if runs > size:
                continue
            value = _value(size, runs, taints)
            cells = _reference_encode_cells(value, resolver)
            assert wire.encode_cells(value, resolver) == cells, (size, runs)
            decoded = wire.CellDecoder().feed(cells, resolver)
            assert decoded.labels == _ReferenceDecoder().feed(cells, resolver).labels
            for op, reference, candidate in (
                (
                    "encode",
                    lambda: _reference_encode_cells(value, resolver),
                    lambda: wire.encode_cells(value, resolver),
                ),
                (
                    "decode",
                    lambda: _ReferenceDecoder().feed(cells, resolver),
                    lambda: wire.CellDecoder().feed(cells, resolver),
                ),
            ):
                ref_s, new_s = _paired_min(reference, candidate)
                rows.append(
                    {
                        "size": size,
                        "runs": runs,
                        "op": op,
                        "reference_us": ref_s * 1e6,
                        "run_codec_us": new_s * 1e6,
                        "speedup": ref_s / new_s,
                    }
                )

    small = [r for r in rows if r["size"] == 4 and r["runs"] == 1]
    small_speedup = sum(r["reference_us"] for r in small) / sum(
        r["run_codec_us"] for r in small
    )
    worst = min(rows, key=lambda r: r["speedup"])
    report = {
        "bench": "cell_codec_shapes",
        "reference": "numpy cell codec (per-byte GID array encode, "
        "boundary-scan decode)",
        "repeats": REPEATS,
        "batch_s": BATCH_S,
        "gates": {
            "small_one_run_speedup": small_speedup,
            "small_one_run_min_speedup": SMALL_ONE_RUN_MIN_SPEEDUP,
            "worst_slowdown": 1 / worst["speedup"],
            "worst_shape": f"{worst['size']} B, {worst['runs']} runs, {worst['op']}",
            "max_slowdown": MAX_SLOWDOWN,
        },
        "shapes": rows,
    }
    _RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")

    assert small_speedup >= SMALL_ONE_RUN_MIN_SPEEDUP, report["gates"]
    for row in rows:
        assert row["run_codec_us"] <= MAX_SLOWDOWN * row["reference_us"], row
