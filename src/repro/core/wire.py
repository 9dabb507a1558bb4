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
on runs — encoding fills one GID region per run and decoding rebuilds
runs from GID boundaries, so the Python-level cost is O(runs) and the
per-byte work is vectorized numpy, the way DisTA's JIT-compiled
instrumentation amortizes it.  When the caller supplies the batched
resolvers (``gids_for``/``taints_for``, see
:class:`~repro.core.taintmap.TaintMapClient`), all of a message's
distinct labels resolve in a single Taint Map round-trip.
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
    behind it (pooled threads, or the multiplexed client whose calling
    threads coalesce their requests across messages,
    :mod:`repro.core.aio_transport`) — is swappable in one place.  Every codec below also still accepts the
    bare callables for backwards compatibility.
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


def _gid_resolvers(gid_for, gids_for):
    if isinstance(gid_for, LabelResolver):
        return gid_for.gid_for, gid_for.gids_for
    return gid_for, gids_for


def _taint_resolvers(taint_for, taints_for):
    if isinstance(taint_for, LabelResolver):
        return taint_for.taint_for, taint_for.taints_for
    return taint_for, taints_for


_GID_BE = np.dtype(">u4")
#: One wire cell as a structured scalar: decoding views the byte stream
#: through this dtype directly — a single contiguous read, no
#: reshape/copy/view dance.
_CELL_DTYPE = np.dtype([("data", np.uint8), ("gid", _GID_BE)])
assert _CELL_DTYPE.itemsize == CELL_WIDTH


def _coerce_runs(length: int, labels) -> Optional[LabelRuns]:
    if labels is None or isinstance(labels, LabelRuns):
        return labels
    return LabelRuns.from_list(labels)


def _resolve_gids(labels: LabelRuns, gid_for: GidFor, gids_for: Optional[GidsFor]) -> dict:
    """Map each distinct run label (by identity) to its Global ID."""
    unique = labels.unique_labels()
    if gids_for is not None:
        gids = gids_for(unique)
    else:
        gids = [gid_for(label) for label in unique]
    return {id(label): gid for label, gid in zip(unique, gids)}


def _gid_array(
    length: int, labels, gid_for: GidFor, gids_for: Optional[GidsFor] = None
) -> np.ndarray:
    """Per-byte Global IDs as a big-endian u32 array, filled per run."""
    gids = np.zeros(length, dtype=_GID_BE)
    labels = _coerce_runs(length, labels)
    if labels is None or not labels.has_labels():
        return gids
    mapping = _resolve_gids(labels, gid_for, gids_for)
    for start, end, label in labels.runs:
        gid = mapping[id(label)]
        if gid:
            gids[start:end] = gid
    return gids


def _label_runs(
    gids: np.ndarray, taint_for: TaintFor, taints_for: Optional[TaintsFor] = None
) -> Optional[LabelRuns]:
    """Shadow runs from a per-byte GID array.

    Run boundaries come from GID changes; each distinct GID resolves
    once (one batched round-trip when ``taints_for`` is supplied).
    Returns ``None`` when every GID is 0 (untainted payload).
    """
    if not gids.any():
        return None
    n = int(gids.shape[0])
    boundaries = (np.flatnonzero(gids[1:] != gids[:-1]) + 1).tolist()
    starts = [0] + boundaries
    ends = boundaries + [n]
    run_gids = [int(gids[s]) for s in starts]
    unique = sorted({g for g in run_gids if g})
    if taints_for is not None:
        mapping = dict(zip(unique, taints_for(unique)))
    else:
        mapping = {g: taint_for(g) for g in unique}
    return LabelRuns(
        n, ((s, e, mapping[g]) for s, e, g in zip(starts, ends, run_gids) if g)
    )


def encode_cells(
    data: TBytes, gid_for: Union[GidFor, LabelResolver], gids_for: Optional[GidsFor] = None
) -> bytes:
    """Serialize data + per-byte labels into a 5-byte cell stream.

    ``gid_for`` may be a :class:`LabelResolver` in place of the bare
    callables (the wrapper-facing form)."""
    gid_for, gids_for = _gid_resolvers(gid_for, gids_for)
    length = len(data)
    if length == 0:
        return b""
    labels = _coerce_runs(length, data.labels)
    if labels is None or not labels.has_labels():
        # Zero-taint fast path: every GID is 0, so the frame is just the
        # data column scattered into a zeroed cell grid — no per-byte
        # GID array, no resolver call, no Taint Map round-trip.  The
        # result is byte-identical to the general path below.
        out = np.zeros((length, CELL_WIDTH), dtype=np.uint8)
        out[:, 0] = np.frombuffer(data.data, dtype=np.uint8)
        return out.tobytes()
    out = np.empty((length, CELL_WIDTH), dtype=np.uint8)
    out[:, 0] = np.frombuffer(data.data, dtype=np.uint8)
    out[:, 1:] = (
        _gid_array(length, labels, gid_for, gids_for)
        .view(np.uint8)
        .reshape(length, GID_WIDTH)
    )
    return out.tobytes()


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
        wire: bytes,
        taint_for: Union[TaintFor, LabelResolver],
        taints_for: Optional[TaintsFor] = None,
    ) -> TBytes:
        """Decode every complete cell in ``residue + wire``.

        ``taint_for`` may be a :class:`LabelResolver`."""
        taint_for, taints_for = _taint_resolvers(taint_for, taints_for)
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
        body = np.frombuffer(stream, dtype=_CELL_DTYPE, count=cells)
        data = body["data"].tobytes()
        # All-zero GID columns mean an untainted payload: _label_runs
        # returns None and no taint resolution happens (the decode-side
        # zero-taint fast path).
        labels = _label_runs(body["gid"], taint_for, taints_for)
        consumed = cells * CELL_WIDTH
        # Release the numpy view before resizing: a bytearray refuses to
        # shrink while a buffer export is live.
        del body
        if buffered:
            del self._buffer[:consumed]
        elif consumed < len(wire):
            self._buffer += wire[consumed:]
        if labels is None:
            return TBytes.raw(data)
        return TBytes(data, labels)

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
    gid_for, gids_for = _gid_resolvers(gid_for, gids_for)
    length = len(data)
    header = PACKET_MAGIC + bytes([PACKET_VERSION]) + struct.pack(">I", length)
    labels = _coerce_runs(length, data.labels)
    if labels is None or not labels.has_labels():
        # Zero-taint fast path: the GID trailer is all zeroes — emit it
        # directly, byte-identical to the general path below.
        return header + data.data + bytes(length * GID_WIDTH)
    gids = _gid_array(length, labels, gid_for, gids_for)
    return header + data.data + gids.tobytes()


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
    taint_for, taints_for = _taint_resolvers(taint_for, taints_for)
    if not is_enveloped(raw):
        raise WireFormatError("datagram payload lacks the DisTA envelope magic")
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
    gid_area = raw[PACKET_HEADER + length : expected]
    gids = np.frombuffer(gid_area, dtype=_GID_BE)
    labels = _label_runs(gids, taint_for, taints_for)
    if labels is None:
        return TBytes.raw(data)
    return TBytes(data, labels)


def envelope_length(data_length: int) -> int:
    return PACKET_HEADER + data_length * CELL_WIDTH
