"""Shadow ops on the receive path vs the re-normalizing ops they replaced.

The reference below is a frozen, self-contained copy of the previous
production code: ``LabelRuns.__setitem__`` always rebuilt the shadow as
``slice(0, start) + patch + slice(stop, len)`` (two concats, each
re-normalizing every run), ``TByteArray.read`` sliced even when asked for
the whole buffer, and ``TBytes.concat`` re-based every run of every part
even when there was only one.  It is kept here so the comparison survives
the production code moving on — do not "optimize" it.  The production
ops shift the patch's runs straight into an empty shadow, copy the
shadow on a whole-buffer read, and return the part of a one-part concat.

Every shape in {4 B, 4 KiB, 64 KiB} × {empty, 1-run, 49-run buffer} is
timed for a full-range splice of a one-run patch, a whole-buffer read and
a one-part concat, as the minimum over repeated batches of paired calls.
Results land in ``BENCH_PR15.json`` at the repository root.  Gates:

1. the 4 B receive sequence — write a one-run value into a fresh buffer,
   read the whole buffer, concat the one part (what every tainted
   ``read_int`` of the Table V micro cases does) — is at least 2× faster
   than the reference;
2. no shape is more than 1.15× slower than the reference.
"""

import gc
import json
import time
from pathlib import Path

from repro.taint import LocalId, TaintTree
from repro.taint.values import LabelRuns, TByteArray, TBytes, as_tbytes

SIZES = (4, 4 * 1024, 64 * 1024)
RUN_COUNTS = (0, 1, 49)
REPEATS = 21
#: Each timed batch repeats one call for about this long.
BATCH_S = 0.005
SMALL_RECEIVE_MIN_SPEEDUP = 2.0
MAX_SLOWDOWN = 1.15

_RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_PR15.json"


# --------------------------------------------------------------------- #
# Frozen reference: the re-normalizing shadow ops — do not "optimize"
# --------------------------------------------------------------------- #


def _reference_setitem(shadow: LabelRuns, item: slice, value) -> None:
    start, stop, step = item.indices(shadow.length)
    if step != 1:
        raise ValueError("label runs support unit-step slices only")
    runs = value if isinstance(value, LabelRuns) else LabelRuns.from_list(value)
    if runs.length != stop - start:
        raise ValueError(
            f"splice of {runs.length} labels into a {stop - start}-byte range"
        )
    spliced = shadow.slice(0, start).concat(runs).concat(
        shadow.slice(stop, shadow.length)
    )
    shadow._starts = spliced._starts
    shadow._ends = spliced._ends
    shadow._labels = spliced._labels


def _reference_write(buf: TByteArray, offset: int, source: TBytes) -> None:
    end = offset + len(source)
    if end > len(buf.data):
        raise IndexError(f"write [{offset}:{end}) exceeds buffer size {len(buf.data)}")
    buf.data[offset:end] = source.data
    if source.labels is not None:
        _reference_setitem(buf._ensure_labels(), slice(offset, end), source.labels)
    elif buf.labels is not None:
        _reference_setitem(buf.labels, slice(offset, end), LabelRuns(len(source)))


def _reference_read(buf: TByteArray, offset: int, length: int) -> TBytes:
    end = offset + length
    labels = buf.labels.slice(offset, end) if buf.labels is not None else None
    return TBytes(bytes(buf.data[offset:end]), labels)


def _reference_concat(parts) -> TBytes:
    parts = [as_tbytes(p) for p in parts]
    data = b"".join(p.data for p in parts)
    if all(p.labels is None for p in parts):
        return TBytes(data)
    runs: list = []
    offset = 0
    for p in parts:
        if p.labels is not None:
            runs.extend((s + offset, e + offset, label) for s, e, label in p.labels.runs)
        offset += len(p.data)
    return TBytes(data, LabelRuns(len(data), runs))


# --------------------------------------------------------------------- #
# Shapes and measurement
# --------------------------------------------------------------------- #


def _shadow(size: int, runs: int, taints) -> LabelRuns:
    """``runs`` contiguous runs covering ``size`` bytes, neighbours distinct."""
    step = size // max(runs, 1)
    bounds = [i * step for i in range(runs)] + [size]
    return LabelRuns(
        size, [(bounds[i], bounds[i + 1], taints[i % len(taints)]) for i in range(runs)]
    )


def _buffer(size: int, shadow: LabelRuns) -> TByteArray:
    """A buffer holding ``shadow`` (``labels is None`` when it has no runs)."""
    buf = TByteArray(bytes(range(256)) * (size // 256) + bytes(range(size % 256)))
    buf.labels = shadow.copy() if shadow.has_labels() else None
    return buf


def _paired_min(reference, candidate):
    """Per-call seconds of each side: min over batches of paired calls.

    Within a batch the two sides alternate call by call, so both see
    the same allocator and cache state, and every result stays alive
    until the batch ends.
    """
    clock = time.perf_counter
    started = clock()
    reference()
    candidate()
    inner = max(1, int(BATCH_S / max(clock() - started, 1e-7)))
    best_ref = best_new = float("inf")
    results = []
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
                results.append(first())
                t1 = clock()
                results.append(second())
                t2 = clock()
                spent_first += t1 - t0
                spent_second += t2 - t1
            results.clear()
            if first is reference:
                spent_ref, spent_new = spent_first, spent_second
            else:
                spent_ref, spent_new = spent_second, spent_first
            best_ref = min(best_ref, spent_ref / inner)
            best_new = min(best_new, spent_new / inner)
    finally:
        gc.enable()
    return best_ref, best_new


def _row(size, runs, op, reference, candidate) -> dict:
    ref_s, new_s = _paired_min(reference, candidate)
    return {
        "size": size,
        "runs": runs,
        "op": op,
        "reference_us": ref_s * 1e6,
        "shadow_ops_us": new_s * 1e6,
        "speedup": ref_s / new_s,
    }


def test_shadow_ops_per_shape_against_renormalizing_reference():
    tree = TaintTree(LocalId("10.0.0.1", 1))
    taints = [tree.taint_for_tag(f"t{i}") for i in range(7)]

    rows = []
    for size in SIZES:
        patch = LabelRuns.filled(size, taints[-1])
        for runs in RUN_COUNTS:
            if runs > size:
                continue
            shadow = _shadow(size, runs, taints)
            buf = _buffer(size, shadow)
            value = buf.read(0, size)

            def ref_splice():
                out = shadow.copy()
                _reference_setitem(out, slice(0, size), patch)
                return out

            def new_splice():
                out = shadow.copy()
                out[0:size] = patch
                return out

            assert ref_splice() == new_splice()
            assert _reference_read(buf, 0, size).labels == value.labels
            assert _reference_concat([value]).labels == TBytes.concat([value]).labels
            rows.append(_row(size, runs, "splice", ref_splice, new_splice))
            rows.append(
                _row(
                    size,
                    runs,
                    "whole_read",
                    lambda: _reference_read(buf, 0, size),
                    lambda: buf.read(0, size),
                )
            )
            rows.append(
                _row(
                    size,
                    runs,
                    "one_part_concat",
                    lambda: _reference_concat([value]),
                    lambda: TBytes.concat([value]),
                )
            )

    received = TBytes.tainted(b"\x00\x00\x00\x2a", taints[0])

    def ref_receive():
        buf = TByteArray(4)
        _reference_write(buf, 0, received)
        return _reference_concat([_reference_read(buf, 0, 4)])

    def new_receive():
        buf = TByteArray(4)
        buf.write(0, received)
        return TBytes.concat([buf.read(0, 4)])

    assert ref_receive().labels == new_receive().labels == received.labels
    receive = _row(4, 1, "receive_sequence", ref_receive, new_receive)
    rows.append(receive)

    worst = min(rows, key=lambda r: r["speedup"])
    report = {
        "bench": "shadow_op_shapes",
        "reference": "re-normalizing shadow ops (slice/concat/concat splice, "
        "slicing whole read, multi-part one-part concat)",
        "repeats": REPEATS,
        "batch_s": BATCH_S,
        "gates": {
            "small_receive_speedup": receive["speedup"],
            "small_receive_min_speedup": SMALL_RECEIVE_MIN_SPEEDUP,
            "worst_slowdown": 1 / worst["speedup"],
            "worst_shape": f"{worst['size']} B, {worst['runs']} runs, {worst['op']}",
            "max_slowdown": MAX_SLOWDOWN,
        },
        "shapes": rows,
    }
    _RESULTS_PATH.write_text(json.dumps(report, indent=2) + "\n")

    assert receive["speedup"] >= SMALL_RECEIVE_MIN_SPEEDUP, report["gates"]
    for row in rows:
        assert row["shadow_ops_us"] <= MAX_SLOWDOWN * row["reference_us"], row
