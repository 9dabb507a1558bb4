"""DisTA's wire formats (paper §III-C/D).

Two encodings, matching the instrumentation types:

* **Cell stream** (Type 1 streams and Type 3 TCP dispatchers): every data
  byte is followed by its taint's 4-byte Global ID — the fixed-length
  design that solves the "mismatched serialized taint length" problem
  (§III-D): a receiver can consume any prefix of the stream at 5-byte
  cell granularity, so partially received messages still deserialize.
  It also pins network overhead at exactly 5× (§V-F).

* **Packet envelope** (Type 2 datagrams and the datagram-channel
  methods): datagrams are atomic, so the taints ride in a trailer —
  ``MAGIC | version | data_len | data | gid * data_len``.  A receiver
  whose buffer is smaller than the payload keeps the taints aligned
  because the envelope always arrives whole (UDP preserves boundaries).

Global ID 0 is the empty taint and never touches the Taint Map.

Implementation note: shadows are run-length encoded
(:class:`~repro.taint.values.LabelRuns`), and the codecs work directly
on runs, so the Python-level cost is O(runs) and the per-byte work runs
in C, the way DisTA's JIT-compiled instrumentation amortizes it.
Encoding is pure bytes ops: each run repeats one ``gid`` unit into a
zeroed column and the data column lands in one strided slice
assignment; a payload that one run covers end to end is its single
unit repeated, with no label table.  Decoding a cell stream has two
paths, chosen by frame length (datagram envelopes take the second):

* a frame of at most :data:`BYTES_PATH_MAX_CELLS` cells (about 2 KiB of
  data, the measured crossover) is first checked for a single Global ID
  with bytes ops only — rebuild ``(b"\\0" + gid) * cells``, stride the
  data in, compare.  A match, GID 0 included, resolves straight into
  one run (or none) without touching numpy.  This is the common frame:
  one primitive or one small message with one taint.
* any other frame, and a small one with a change point, is viewed
  through a numpy structured dtype, and runs are found at GID change
  points.

When the caller supplies the batched resolvers (``gids_for``/
``taints_for``, see :class:`~repro.core.taintmap.TaintMapClient`), all
of a message's distinct labels resolve in a single Taint Map
round-trip.
"""

from __future__ import annotations

import struct
from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.errors import WireFormatError
from repro.taint.values import LabelRuns, TBytes

#: Width of a Global ID on the wire ("4 bytes in default", §V-F).
GID_WIDTH = 4

#: One data byte + one Global ID.
CELL_WIDTH = 1 + GID_WIDTH

#: Envelope magic for packet-oriented methods.
PACKET_MAGIC = b"\xd7\x5a"
PACKET_VERSION = 1
PACKET_HEADER = len(PACKET_MAGIC) + 1 + 4

#: Frames of at most this many cells are first checked for a single
#: Global ID with bytes ops (:func:`_decode_one_run`) before numpy is
#: touched.  The crossover is measured (EXPERIMENTS.md): the bytes check
#: skips numpy's fixed cost of a few µs, but its strided copies cost
#: more per byte, so past about 2 KiB of data a one-run frame decodes
#: faster through numpy (untainted frames break even near 6 KiB).
BYTES_PATH_MAX_CELLS = 2048

#: ``gid_for(label)`` maps a Taint (or None) to its Global ID.
GidFor = Callable[[Optional[object]], int]
#: ``taint_for(gid)`` maps a Global ID back to a local Taint (or None).
TaintFor = Callable[[int], Optional[object]]
#: Batched variants: one call resolves every distinct label of a message.
GidsFor = Callable[[Sequence], list]
TaintsFor = Callable[[Sequence[int]], list]

class LabelResolver:
    """The codec-facing slice of a Taint Map client: the four label ↔
    Global-ID resolvers bundled as one value.

    The wrappers hand this to the codecs instead of individual
    callables, so the whole resolution path — including the transport
    behind it, whose calling threads coalesce their requests across
    messages (:mod:`repro.core.aio_transport`) — is swappable in one
    place.  Every codec below also still accepts the bare callables for
    backwards compatibility.
    """

    __slots__ = ("gid_for", "gids_for", "taint_for", "taints_for")

    def __init__(
        self,
        gid_for: GidFor,
        taint_for: TaintFor,
        gids_for: Optional[GidsFor] = None,
        taints_for: Optional[TaintsFor] = None,
    ):
        self.gid_for = gid_for
        self.taint_for = taint_for
        self.gids_for = gids_for
        self.taints_for = taints_for

    @classmethod
    def for_client(cls, client) -> "LabelResolver":
        """Resolvers bound to a Taint Map client's batched methods."""
        return cls(
            client.gid_for, client.taint_for, client.gids_for, client.taints_for
        )


def _gids(labels: list, gid_for, gids_for) -> list:
    """Global IDs of distinct labels, in one batched call when possible."""
    if isinstance(gid_for, LabelResolver):
        gid_for, gids_for = gid_for.gid_for, gid_for.gids_for
    if gids_for is not None:
        return gids_for(labels)
    return [gid_for(label) for label in labels]


def _taints(gids: list, taint_for, taints_for) -> list:
    """Taints of distinct Global IDs, in one batched call when possible."""
    if isinstance(taint_for, LabelResolver):
        taint_for, taints_for = taint_for.taint_for, taint_for.taints_for
    if taints_for is not None:
        return taints_for(gids)
    return [taint_for(gid) for gid in gids]


_GID_BE = np.dtype(">u4")
#: One wire cell as a structured scalar: decoding views the byte stream
#: through this dtype directly — a single contiguous read, no
#: reshape/copy/view dance.
_CELL_DTYPE = np.dtype([("data", np.uint8), ("gid", _GID_BE)])
assert _CELL_DTYPE.itemsize == CELL_WIDTH
_GID_ZERO = bytes(GID_WIDTH)


def _gid_column(data: TBytes, gid_for, gids_for, slot: bytes) -> bytearray:
    """``data``'s Global IDs as one column, built run by run.

    Every byte gets ``slot`` followed by its big-endian GID:
    ``slot=b"\\0"`` reserves each cell's data byte for the caller to
    fill, ``slot=b""`` yields a packet trailer.  The column starts
    zeroed (GID 0 is the empty taint), and each run is one repeated
    ``slot + gid`` unit spliced over its range.  An untainted payload
    has no runs, so it costs one zeroed allocation and no resolver call.
    """
    width = len(slot) + GID_WIDTH
    labels = data.labels
    if labels is None:
        return bytearray(width * len(data))
    only = labels.only_run()
    if only is not None and only[0] == 0 and only[1] == len(data):
        # One run over the whole payload: one resolver call, one
        # repeated unit, no label table.
        (gid,) = _gids([only[2]], gid_for, gids_for)
        return bytearray(slot + gid.to_bytes(GID_WIDTH, "big")) * len(data)
    column = bytearray(width * len(data))
    runs = labels.runs
    if runs:
        unique = labels.unique_labels()
        units = {
            id(label): slot + gid.to_bytes(GID_WIDTH, "big")
            for label, gid in zip(unique, _gids(unique, gid_for, gids_for))
        }
        for start, end, label in runs:
            column[start * width : end * width] = units[id(label)] * (end - start)
    return column


def _label_runs(gids: np.ndarray, taint_for, taints_for) -> Optional[LabelRuns]:
    """Shadow runs from a per-byte GID array.

    Run boundaries come from GID changes; each distinct GID resolves
    once (one batched round-trip when ``taints_for`` is supplied).
    Returns ``None`` when every GID is 0 (untainted payload).  A column
    with no change point is one run over the whole frame and resolves
    straight into :meth:`LabelRuns.filled`.
    """
    n = len(gids)
    first = gids[0] if n else 0
    # A frame that opens tainted skips the all-zero test; one that opens
    # untainted pays exactly the one ``any`` pass.
    if not first and not gids.any():
        return None
    if first == gids[-1]:
        column = gids.tobytes()
        if column == column[:GID_WIDTH] * n:
            (taint,) = _taints([int(first)], taint_for, taints_for)
            return LabelRuns.filled(n, taint)
    boundaries = (np.flatnonzero(gids[1:] != gids[:-1]) + 1).tolist()
    starts = [0] + boundaries
    ends = boundaries + [n]
    run_gids = [int(gids[s]) for s in starts]
    unique = sorted({g for g in run_gids if g})
    mapping = dict(zip(unique, _taints(unique, taint_for, taints_for)))
    return LabelRuns(
        n, ((s, e, mapping[g]) for s, e, g in zip(starts, ends, run_gids) if g)
    )


def _decode_one_run(
    stream: Union[bytes, bytearray], cells: int, taint_for, taints_for
) -> Optional[TBytes]:
    """The first ``cells`` cells as one run, with bytes ops only.

    Rebuilds the frame a single GID would give — the first cell's GID
    repeated, the data bytes strided in — and compares it with the
    stream.  Returns ``None`` when some GID differs, leaving the frame
    to :func:`_decode_runs`; a frame whose last GID differs from its
    first is turned away before anything is built.
    """
    gid = stream[1:CELL_WIDTH]
    end = cells * CELL_WIDTH
    if stream[end - GID_WIDTH : end] != gid:
        return None
    data = stream[0:end:CELL_WIDTH]
    frame = bytearray(b"\0" + gid) * cells
    frame[0::CELL_WIDTH] = data
    if not stream.startswith(frame):
        return None
    value = TBytes.raw(data)
    if gid != _GID_ZERO:
        (taint,) = _taints([int.from_bytes(gid, "big")], taint_for, taints_for)
        if taint is not None:
            value.labels = LabelRuns.filled(len(value.data), taint)
    return value


def _decode_runs(
    stream: Union[bytes, bytearray], cells: int, taint_for, taints_for
) -> TBytes:
    """The first ``cells`` cells, runs found at GID change points."""
    body = np.frombuffer(stream, dtype=_CELL_DTYPE, count=cells)
    data = body["data"].tobytes()
    # All-zero GID columns mean an untainted payload: _label_runs
    # returns None and no taint resolution happens (the decode-side
    # zero-taint fast path).  The numpy view is released on return, so
    # a buffered stream can shrink afterwards.
    labels = _label_runs(body["gid"], taint_for, taints_for)
    if labels is None:
        return TBytes.raw(data)
    return TBytes(data, labels)


def encode_cells(
    data: TBytes, gid_for: Union[GidFor, LabelResolver], gids_for: Optional[GidsFor] = None
) -> bytes:
    """Serialize data + per-byte labels into a 5-byte cell stream.

    ``gid_for`` may be a :class:`LabelResolver` in place of the bare
    callables (the wrapper-facing form)."""
    out = _gid_column(data, gid_for, gids_for, b"\0")
    out[0::CELL_WIDTH] = data.data
    return bytes(out)


class CellDecoder:
    """Stateful cell-stream decoder: tolerates arbitrary read boundaries.

    The kernel delivers whatever byte counts it likes; whole cells are
    decoded and partial trailing cells are kept as residue for the next
    ``feed`` — this is DisTA's receiver-side answer to partial reads.
    """

    def __init__(self) -> None:
        #: Partial-cell bytes pending completion.  A mutable buffer so a
        #: feed with residue appends in amortized O(1) and trims in
        #: place, instead of re-copying ``residue + wire`` into a fresh
        #: bytes object on every call while a partial cell is pending.
        self._buffer = bytearray()

    def feed(
        self,
        wire: Union[bytes, bytearray],
        taint_for: Union[TaintFor, LabelResolver],
        taints_for: Optional[TaintsFor] = None,
    ) -> TBytes:
        """Decode every complete cell in ``residue + wire``.

        ``taint_for`` may be a :class:`LabelResolver`."""
        buffered = bool(self._buffer)
        if buffered:
            self._buffer += wire
            stream: Union[bytes, bytearray] = self._buffer
        else:
            stream = wire
        cells = len(stream) // CELL_WIDTH
        if cells == 0:
            if not buffered:
                self._buffer += wire
            return TBytes.empty()
        decoded = None
        if cells <= BYTES_PATH_MAX_CELLS:
            decoded = _decode_one_run(stream, cells, taint_for, taints_for)
        if decoded is None:
            decoded = _decode_runs(stream, cells, taint_for, taints_for)
        consumed = cells * CELL_WIDTH
        if buffered:
            del self._buffer[:consumed]
        elif consumed < len(wire):
            self._buffer += wire[consumed:]
        return decoded

    @property
    def residue_len(self) -> int:
        return len(self._buffer)

    def check_clean_eof(self) -> None:
        """EOF with a partial cell buffered means a truncated stream."""
        if self._buffer:
            raise WireFormatError(
                f"stream ended inside a cell ({len(self._buffer)} residual bytes)"
            )


def wire_length(data_length: int) -> int:
    """Wire bytes needed to carry ``data_length`` data bytes as cells."""
    return data_length * CELL_WIDTH


def max_data_for_wire(wire_budget: int) -> int:
    """Data bytes representable within ``wire_budget`` wire bytes."""
    return wire_budget // CELL_WIDTH


def encode_packet(
    data: TBytes, gid_for: Union[GidFor, LabelResolver], gids_for: Optional[GidsFor] = None
) -> bytes:
    """Serialize one datagram payload + taints into an envelope.

    ``gid_for`` may be a :class:`LabelResolver`."""
    header = PACKET_MAGIC + bytes([PACKET_VERSION]) + struct.pack(">I", len(data))
    return header + data.data + _gid_column(data, gid_for, gids_for, b"")


def is_enveloped(raw: bytes) -> bool:
    return raw[: len(PACKET_MAGIC)] == PACKET_MAGIC


def decode_packet(
    raw: bytes,
    taint_for: Union[TaintFor, LabelResolver],
    taints_for: Optional[TaintsFor] = None,
) -> TBytes:
    """Parse an envelope back into labelled bytes.

    ``taint_for`` may be a :class:`LabelResolver`.  Raises
    :class:`WireFormatError` on malformed envelopes; callers that
    want uninstrumented-sender interop should check :func:`is_enveloped`
    first and fall back to treating the payload as plain data.
    """
    if not is_enveloped(raw):
        raise WireFormatError("datagram payload lacks the DisTA envelope magic")
    if len(raw) < PACKET_HEADER:
        raise WireFormatError(
            f"envelope header truncated: {len(raw)} of {PACKET_HEADER} bytes"
        )
    version = raw[len(PACKET_MAGIC)]
    if version != PACKET_VERSION:
        raise WireFormatError(f"unsupported envelope version {version}")
    (length,) = struct.unpack(">I", raw[len(PACKET_MAGIC) + 1 : PACKET_HEADER])
    expected = PACKET_HEADER + length * CELL_WIDTH
    if len(raw) < expected:
        raise WireFormatError(
            f"envelope truncated: {len(raw)} bytes, header promises {expected}"
        )
    data = raw[PACKET_HEADER : PACKET_HEADER + length]
    gids = np.frombuffer(raw, dtype=_GID_BE, count=length, offset=PACKET_HEADER + length)
    labels = _label_runs(gids, taint_for, taints_for)
    if labels is None:
        return TBytes.raw(data)
    return TBytes(data, labels)


def envelope_length(data_length: int) -> int:
    return PACKET_HEADER + data_length * CELL_WIDTH
