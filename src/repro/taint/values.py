"""Shadow-carrying value types: the output of "instrumentation".

Phosphor rewrites Java bytecode so that every value travels with a shadow
taint (paper §II-B, Fig. 2).  The Python equivalent of that *rewritten*
program is code operating on the types in this module:

* :class:`TBytes` / :class:`TByteArray` — byte data with **one label per
  byte**, the granularity DisTA's inter-node tracking works at (§III-A).
* :class:`TInt`, :class:`TLong`, :class:`TDouble`, :class:`TBool` —
  scalars with a single shadow taint.
* :class:`TStr` — strings with one label per character.
* :class:`TObj` — base class for application objects whose fields are
  shadow-carrying values.

Labels are ``Taint | None`` where ``None`` denotes the empty taint; this
lets untainted values exist without a taint tree in scope.  Shadows are
stored run-length encoded (:class:`LabelRuns`): real messages taint long
byte runs with a single taint, so slice/concat/union on the hot
send/receive paths cost O(runs) rather than O(bytes).  An all-empty
shadow is never materialized: untainted values keep ``labels is None``
through slice/concat/splice (the zero-taint invariant), which is both
the *Original*-baseline representation and the O(1) "any taint?"
summary every crossing's fast path dispatches on.

Implicit (control-flow) taint propagation is deliberately absent: the
paper inherits Phosphor's explicit-flow-only semantics (§VI).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

from repro.taint.policy import shadows_enabled
from repro.taint.tree import Taint

Label = Optional[Taint]
#: Accepted shadow inputs: a per-byte list (legacy), a :class:`LabelRuns`,
#: or ``None`` (no shadow materialized).
LabelArray = Optional[object]

#: One maximal run of identically-labelled bytes: ``(start, end, label)``.
Run = Tuple[int, int, Taint]


def union_labels(a: Label, b: Label) -> Label:
    """Union of two labels, treating ``None`` as the empty taint."""
    if a is None or a.is_empty:
        return None if b is None or b.is_empty else b
    if b is None or b.is_empty:
        return a
    return a.union(b)


def union_all(labels: Iterable[Label]) -> Label:
    """Fold :func:`union_labels` over an iterable of labels.

    Runs of the same label object (the common case: one taint covering a
    whole message) are skipped by identity before paying for a union.
    """
    out: Label = None
    last: Label = None
    for label in labels:
        if label is None or label is last:
            continue
        last = label
        out = label if out is None else union_labels(out, label)
    return out


class LabelRuns:
    """Run-length-encoded per-byte shadow labels.

    The canonical shadow representation: real messages taint long byte
    runs with a single taint (cf. *The Taint Rabbit*'s fast paths over
    identically-labelled data), so shadows are stored as sorted,
    non-overlapping ``(start, end, taint)`` runs over ``[0, length)``.
    Bytes covered by no run carry the empty label (``None``).

    Complexity: point lookup is O(log runs); slice, concat, union and
    splice are O(runs); conversion to/from per-byte lists is lossless
    (:meth:`from_list` / :meth:`to_list`).  Labels within a run compare
    by identity, matching the tree's interned :class:`Taint` handles.

    The type is list-compatible where the codebase historically indexed
    per-byte label lists: ``len``, ``bool``, iteration (per byte),
    integer and unit-step slice ``[]``, slice assignment (splice), and
    ``==`` against per-byte lists.
    """

    __slots__ = ("length", "_starts", "_ends", "_labels")

    def __init__(self, length: int, runs: Iterable[Run] = ()):
        if length < 0:
            raise ValueError(f"negative shadow length {length}")
        self.length = length
        starts: list = []
        ends: list = []
        labels: list = []
        for start, end, label in runs:
            if label is None:
                continue
            start = max(start, 0)
            end = min(end, length)
            if start >= end:
                continue
            if starts and start < ends[-1]:
                raise ValueError("label runs overlap or are unsorted")
            if starts and start == ends[-1] and labels[-1] is label:
                ends[-1] = end
            else:
                starts.append(start)
                ends.append(end)
                labels.append(label)
        self._starts = starts
        self._ends = ends
        self._labels = labels

    # -- constructors -------------------------------------------------- #

    @classmethod
    def filled(cls, length: int, label: Label) -> "LabelRuns":
        """Every byte carries ``label`` (the common source-point case).

        Builds the run lists directly: one run needs no normalizing."""
        if length < 0:
            raise ValueError(f"negative shadow length {length}")
        out = cls.__new__(cls)
        out.length = length
        if label is not None and length:
            out._starts, out._ends, out._labels = [0], [length], [label]
        else:
            out._starts, out._ends, out._labels = [], [], []
        return out

    @classmethod
    def from_list(cls, labels: Sequence[Label]) -> "LabelRuns":
        """Lossless conversion from a per-byte label list."""
        n = len(labels)
        runs: list = []
        i = 0
        while i < n:
            label = labels[i]
            j = i + 1
            while j < n and labels[j] is label:
                j += 1
            if label is not None:
                runs.append((i, j, label))
            i = j
        return cls(n, runs)

    def copy(self) -> "LabelRuns":
        out = LabelRuns.__new__(LabelRuns)
        out.length = self.length
        out._starts = list(self._starts)
        out._ends = list(self._ends)
        out._labels = list(self._labels)
        return out

    # -- run access ----------------------------------------------------- #

    @property
    def runs(self) -> list:
        """The non-empty runs as ``(start, end, taint)`` tuples."""
        return list(zip(self._starts, self._ends, self._labels))

    @property
    def run_count(self) -> int:
        return len(self._starts)

    def iter_runs(self) -> Iterator[Tuple[int, int, Label]]:
        """Maximal runs covering all of ``[0, length)``, gaps as ``None``."""
        pos = 0
        for start, end, label in zip(self._starts, self._ends, self._labels):
            if pos < start:
                yield pos, start, None
            yield start, end, label
            pos = end
        if pos < self.length:
            yield pos, self.length, None

    def only_run(self) -> Optional[Run]:
        """The one run as ``(start, end, taint)``, or ``None`` unless
        there is exactly one — O(1), where :attr:`runs` builds a list."""
        if len(self._starts) != 1:
            return None
        return self._starts[0], self._ends[0], self._labels[0]

    def has_labels(self) -> bool:
        """Whether any byte carries a (possibly empty) taint handle."""
        return bool(self._starts)

    def any_tainted(self) -> bool:
        """O(1) "any taint?" summary in the common case.

        Runs never store ``None`` labels, so a shadow with no runs is
        untainted without scanning; the loop only exists for the rare
        empty-:class:`Taint` handle and terminates on the first real
        label.
        """
        return any(
            label is not None and not getattr(label, "is_empty", False)
            for label in self._labels
        )

    def tainted_byte_count(self) -> int:
        """Bytes carrying a non-empty taint — O(runs), not O(bytes)."""
        # A plain loop, not sum() over a generator: this runs on every
        # tainted crossing, nearly always over one run.
        total = 0
        for start, end, label in zip(self._starts, self._ends, self._labels):
            if label is not None and not getattr(label, "is_empty", False):
                total += end - start
        return total

    def unique_labels(self) -> list:
        """Distinct run labels in first-appearance order (identity dedup)."""
        seen: set = set()
        out: list = []
        for label in self._labels:
            if id(label) not in seen:
                seen.add(id(label))
                out.append(label)
        return out

    def overall(self) -> Label:
        """Union of every byte's label — O(runs), not O(bytes)."""
        return union_all(self._labels)

    # -- point / range operations ---------------------------------------- #

    def label_at(self, index: int) -> Label:
        idx = bisect_right(self._starts, index) - 1
        if idx >= 0 and index < self._ends[idx]:
            return self._labels[idx]
        return None

    def slice(self, start: int, stop: int) -> "LabelRuns":
        start = max(0, min(start, self.length))
        stop = max(start, min(stop, self.length))
        out_runs: list = []
        idx = max(bisect_right(self._starts, start) - 1, 0)
        for k in range(idx, len(self._starts)):
            s, e, label = self._starts[k], self._ends[k], self._labels[k]
            if s >= stop:
                break
            lo, hi = max(s, start), min(e, stop)
            if lo < hi:
                out_runs.append((lo - start, hi - start, label))
        return LabelRuns(stop - start, out_runs)

    def concat(self, other: "LabelRuns") -> "LabelRuns":
        shift = self.length
        runs = list(zip(self._starts, self._ends, self._labels))
        runs.extend(
            (s + shift, e + shift, label)
            for s, e, label in zip(other._starts, other._ends, other._labels)
        )
        return LabelRuns(shift + other.length, runs)

    def union_taint(self, taint: Label) -> "LabelRuns":
        """Every byte's label unioned with ``taint`` (gaps become it)."""
        if taint is None:
            return self.copy()
        return LabelRuns(
            self.length,
            ((s, e, union_labels(label, taint)) for s, e, label in self.iter_runs()),
        )

    # -- list-compatible protocol ----------------------------------------- #

    def __len__(self) -> int:
        return self.length

    def __bool__(self) -> bool:
        return self.length > 0

    def __getitem__(self, item: Union[int, slice]):
        if isinstance(item, slice):
            start, stop, step = item.indices(self.length)
            if step != 1:
                raise ValueError("label runs support unit-step slices only")
            return self.slice(start, stop)
        index = item
        if index < 0:
            index += self.length
        if not 0 <= index < self.length:
            raise IndexError(f"label index {item} out of range [0, {self.length})")
        return self.label_at(index)

    def __setitem__(self, item: slice, value) -> None:
        """Splice ``value`` over a range (the TByteArray/shadow write path)."""
        if not isinstance(item, slice):
            raise TypeError("label runs support slice assignment only")
        start, stop, step = item.indices(self.length)
        if step != 1:
            raise ValueError("label runs support unit-step slices only")
        runs = value if isinstance(value, LabelRuns) else LabelRuns.from_list(value)
        if runs.length != stop - start:
            raise ValueError(
                f"splice of {runs.length} labels into a {stop - start}-byte range"
            )
        if not self._starts:
            # Splice into an empty shadow (a fresh receive buffer): the
            # patch's runs are already normalized and have no neighbours
            # to merge with, so shift them into place as fresh lists.
            self._starts = [s + start for s in runs._starts]
            self._ends = [e + start for e in runs._ends]
            self._labels = list(runs._labels)
            return
        spliced = self.slice(0, start).concat(runs).concat(self.slice(stop, self.length))
        self._starts = spliced._starts
        self._ends = spliced._ends
        self._labels = spliced._labels

    def __iter__(self) -> Iterator[Label]:
        for start, end, label in self.iter_runs():
            for _ in range(start, end):
                yield label

    def __add__(self, other) -> "LabelRuns":
        if isinstance(other, LabelRuns):
            return self.concat(other)
        if isinstance(other, list):
            return self.concat(LabelRuns.from_list(other))
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, list):
            if len(other) != self.length:
                return False
            other = LabelRuns.from_list(other)
        if not isinstance(other, LabelRuns):
            return NotImplemented
        return (
            self.length == other.length
            and self._starts == other._starts
            and self._ends == other._ends
            and all(a is b for a, b in zip(self._labels, other._labels))
        )

    def to_list(self) -> list:
        """Lossless conversion to a per-byte label list."""
        out: list = [None] * self.length
        for start, end, label in zip(self._starts, self._ends, self._labels):
            out[start:end] = [label] * (end - start)
        return out

    def __repr__(self) -> str:
        return f"LabelRuns(len={self.length}, runs={self.run_count})"


def _as_runs(labels: LabelArray, length: int) -> Optional[LabelRuns]:
    """Normalize constructor input to the canonical run representation."""
    if labels is None:
        return None
    if isinstance(labels, LabelRuns):
        if labels.length != length:
            raise ValueError(
                f"label array length {labels.length} != data length {length}"
            )
        return labels
    if len(labels) != length:
        raise ValueError(f"label array length {len(labels)} != data length {length}")
    return LabelRuns.from_list(labels)


def _materialize(length: int, label: Label) -> Optional[LabelRuns]:
    if not shadows_enabled():
        return None
    return LabelRuns.filled(length, label)


class TBytes:
    """Immutable byte string with per-byte taint labels.

    This is the type every network message ultimately becomes; DisTA's
    wire format serializes exactly this (one Global ID per byte).  The
    shadow is held as :class:`LabelRuns`, so slice/concat/union cost
    O(runs) rather than O(bytes); per-byte lists are accepted on input
    and converted losslessly.
    """

    __slots__ = ("data", "labels")

    def __init__(self, data: bytes, labels: LabelArray = None):
        self.data = bytes(data)
        runs = _as_runs(labels, len(self.data))
        if runs is not None and not runs.has_labels():
            # Zero-taint invariant: an all-empty shadow is never
            # materialized.  Untainted values keep ``labels is None``
            # through slice/concat/splice so every downstream crossing
            # can dispatch its fast path on one attribute check.
            runs = None
        self.labels = runs

    # -- constructors -------------------------------------------------- #

    @classmethod
    def untainted(cls, data: bytes) -> "TBytes":
        return cls(data)

    @classmethod
    def raw(cls, data: bytes) -> "TBytes":
        """Untainted bytes *without* shadow materialization.

        For carrier data that lives below the shadow world — e.g. the
        wire cells DisTA's wrappers produce, whose shadow would be
        all-empty by construction.  Application code should use the
        normal constructor.
        """
        out = cls.__new__(cls)
        out.data = bytes(data)
        out.labels = None
        return out

    @classmethod
    def tainted(cls, data: bytes, taint: Label) -> "TBytes":
        """All bytes carry ``taint`` (the common source-point case)."""
        return cls(bytes(data), _materialize(len(data), taint))

    @classmethod
    def empty(cls) -> "TBytes":
        return cls(b"")

    # -- shadow access -------------------------------------------------- #

    def label_at(self, index: int) -> Label:
        if self.labels is None:
            return None
        return self.labels.label_at(index)

    def label_runs(self) -> LabelRuns:
        """The shadow as runs (an all-empty shadow when untracked)."""
        if self.labels is not None:
            return self.labels
        return LabelRuns(len(self.data))

    def tainted_byte_count(self) -> int:
        """How many of these bytes carry a non-empty taint."""
        if self.labels is None:
            return 0
        return self.labels.tainted_byte_count()

    def any_tainted(self) -> bool:
        """O(1) taint summary: ``labels is None`` means untainted."""
        return self.labels is not None and self.labels.any_tainted()

    def effective_labels(self) -> list:
        """Labels as a concrete per-byte list (compatibility accessor)."""
        if self.labels is not None:
            return self.labels.to_list()
        return [None] * len(self.data)

    def overall_taint(self) -> Label:
        """Union of every byte's label (used at sink points) — O(runs)."""
        if self.labels is None:
            return None
        return self.labels.overall()

    def is_tainted(self) -> bool:
        return self.overall_taint() is not None

    # -- operations (each is a taint propagation point) ----------------- #

    def __len__(self) -> int:
        return len(self.data)

    def __bool__(self) -> bool:
        return bool(self.data)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TBytes):
            return self.data == other.data
        if isinstance(other, (bytes, bytearray)):
            return self.data == bytes(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.data)

    def __getitem__(self, item: Union[int, slice]) -> Union["TInt", "TBytes"]:
        if isinstance(item, slice):
            labels = self.labels[item] if self.labels is not None else None
            return TBytes(self.data[item], labels)
        return TInt(self.data[item], self.label_at(item))

    def __add__(self, other: "TBytes") -> "TBytes":
        other = as_tbytes(other)
        if self.labels is None and other.labels is None:
            return TBytes(self.data + other.data)
        return TBytes(
            self.data + other.data,
            self.label_runs().concat(other.label_runs()),
        )

    @classmethod
    def concat(cls, parts: Sequence) -> "TBytes":
        """Concatenate many pieces in one pass (data and label runs)."""
        parts = [as_tbytes(p) for p in parts]
        if len(parts) == 1:
            # TBytes is immutable, so the one part is its own concatenation.
            return parts[0]
        data = b"".join(p.data for p in parts)
        if all(p.labels is None for p in parts):
            return cls(data)
        runs: list = []
        offset = 0
        for p in parts:
            if p.labels is not None:
                runs.extend(
                    (s + offset, e + offset, label) for s, e, label in p.labels.runs
                )
            offset += len(p.data)
        return cls(data, LabelRuns(len(data), runs))

    def __iter__(self):
        for i in range(len(self.data)):
            yield self[i]

    def slice(self, start: int, length: int) -> "TBytes":
        return self[start : start + length]

    def with_taint(self, taint: Label) -> "TBytes":
        """A copy whose every byte additionally carries ``taint``."""
        if taint is None or not shadows_enabled():
            return self
        return TBytes(self.data, self.label_runs().union_taint(taint))

    def decode(self, encoding: str = "utf-8") -> "TStr":
        """Byte→char label transfer; multi-byte chars union their bytes."""
        text = self.data.decode(encoding)
        if self.labels is None:
            return TStr(text)
        if len(text) == len(self.data):
            # Single-byte encoding (the common case): labels map 1:1.
            return TStr(text, self.labels)
        labels = []
        pos = 0
        for ch in text:
            width = len(ch.encode(encoding))
            labels.append(self.labels.slice(pos, pos + width).overall())
            pos += width
        return TStr(text, labels)

    def __repr__(self) -> str:
        preview = self.data[:16]
        suffix = "..." if len(self.data) > 16 else ""
        return f"TBytes({preview!r}{suffix}, len={len(self.data)}, tainted={self.is_tainted()})"


class TByteArray:
    """Mutable byte buffer with per-byte labels.

    Models the ``byte[]`` buffers JRE stream methods read into (e.g. the
    ``data`` parameter of ``socketRead0``).
    """

    __slots__ = ("data", "labels")

    @classmethod
    def raw(cls, size: int) -> "TByteArray":
        """A buffer without shadow materialization (see TBytes.raw)."""
        out = cls.__new__(cls)
        out.data = bytearray(size)
        out.labels = None
        return out

    def __init__(self, size_or_data: Union[int, bytes, TBytes] = 0):
        # Zero-taint invariant (see TBytes): a fresh or untainted buffer
        # keeps ``labels is None``; the shadow is materialized lazily by
        # ``_ensure_labels`` the first time labelled data lands in it.
        if isinstance(size_or_data, int):
            self.data = bytearray(size_or_data)
            self.labels: Optional[LabelRuns] = None
        elif isinstance(size_or_data, TBytes):
            self.data = bytearray(size_or_data.data)
            self.labels = (
                size_or_data.labels.copy() if size_or_data.labels is not None else None
            )
        else:
            self.data = bytearray(size_or_data)
            self.labels = None

    def __len__(self) -> int:
        return len(self.data)

    def _ensure_labels(self) -> LabelRuns:
        if self.labels is None:
            self.labels = LabelRuns(len(self.data))
        return self.labels

    def write(self, offset: int, source: TBytes) -> None:
        """Copy ``source`` (data and label runs) into this buffer."""
        end = offset + len(source)
        if end > len(self.data):
            raise IndexError(f"write [{offset}:{end}) exceeds buffer size {len(self.data)}")
        self.data[offset:end] = source.data
        if source.labels is not None:
            self._ensure_labels()[offset:end] = source.labels
        elif self.labels is not None:
            self.labels[offset:end] = LabelRuns(len(source))
            if not self.labels.has_labels():
                # Keep the zero-taint invariant: no runs left, no shadow.
                self.labels = None

    def read(self, offset: int, length: int) -> TBytes:
        end = offset + length
        labels = self.labels
        if labels is not None:
            whole = offset == 0 and end >= len(self.data)
            labels = labels.copy() if whole else labels.slice(offset, end)
        return TBytes(bytes(self.data[offset:end]), labels)

    def snapshot(self) -> TBytes:
        return self.read(0, len(self.data))

    def overall_taint(self) -> Label:
        if self.labels is None:
            return None
        return self.labels.overall()

    def any_tainted(self) -> bool:
        """O(1) taint summary: ``labels is None`` means untainted."""
        return self.labels is not None and self.labels.any_tainted()


class _TScalar:
    """Common behaviour for tainted scalars (value + one shadow taint)."""

    __slots__ = ("value", "taint")
    _coerce = staticmethod(lambda v: v)

    def __init__(self, value, taint: Label = None):
        if isinstance(value, _TScalar):
            taint = union_labels(taint, value.taint)
            value = value.value
        self.value = self._coerce(value)
        self.taint = taint if shadows_enabled() else None

    # Propagation: arithmetic combines shadows (paper Fig. 2: c_t = a_t ∪ b_t).
    def _binop(self, other, op):
        other_value, other_taint = _unpack(other)
        return type(self)(op(self.value, other_value), union_labels(self.taint, other_taint))

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        other_value, other_taint = _unpack(other)
        return type(self)(other_value - self.value, union_labels(self.taint, other_taint))

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __mod__(self, other):
        return self._binop(other, lambda a, b: a % b)

    def __and__(self, other):
        return self._binop(other, lambda a, b: a & b)

    def __or__(self, other):
        return self._binop(other, lambda a, b: a | b)

    def __xor__(self, other):
        return self._binop(other, lambda a, b: a ^ b)

    def __lshift__(self, other):
        return self._binop(other, lambda a, b: a << b)

    def __rshift__(self, other):
        return self._binop(other, lambda a, b: a >> b)

    # Comparisons yield plain booleans: implicit flows are not tracked (§VI).
    def __eq__(self, other) -> bool:
        other_value, _ = _unpack(other)
        return self.value == other_value

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    def __lt__(self, other) -> bool:
        return self.value < _unpack(other)[0]

    def __le__(self, other) -> bool:
        return self.value <= _unpack(other)[0]

    def __gt__(self, other) -> bool:
        return self.value > _unpack(other)[0]

    def __ge__(self, other) -> bool:
        return self.value >= _unpack(other)[0]

    def __hash__(self) -> int:
        return hash(self.value)

    def __bool__(self) -> bool:
        return bool(self.value)

    def is_tainted(self) -> bool:
        return self.taint is not None and not self.taint.is_empty

    def with_taint(self, taint: Label):
        return type(self)(self.value, union_labels(self.taint, taint))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.value!r}, tainted={self.is_tainted()})"


class TInt(_TScalar):
    """Tainted 32-bit-style integer (range is not enforced)."""

    _coerce = staticmethod(int)

    def __floordiv__(self, other):
        return self._binop(other, lambda a, b: a // b)


class TLong(_TScalar):
    """Tainted 64-bit-style integer."""

    _coerce = staticmethod(int)

    def __floordiv__(self, other):
        return self._binop(other, lambda a, b: a // b)


class TDouble(_TScalar):
    """Tainted floating-point value."""

    _coerce = staticmethod(float)

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        other_value, other_taint = _unpack(other)
        return TDouble(other_value / self.value, union_labels(self.taint, other_taint))


class TBool(_TScalar):
    """Tainted boolean."""

    _coerce = staticmethod(bool)


class TStr:
    """Immutable string with per-character taint labels."""

    __slots__ = ("value", "labels")

    def __init__(self, value: str, labels: LabelArray = None):
        self.value = value
        runs = _as_runs(labels, len(value))
        if runs is not None and not runs.has_labels():
            # Zero-taint invariant (see TBytes): no empty-shadow
            # materialization; untainted strings keep ``labels is None``.
            runs = None
        self.labels = runs

    @classmethod
    def tainted(cls, value: str, taint: Label) -> "TStr":
        return cls(value, _materialize(len(value), taint))

    def label_runs(self) -> LabelRuns:
        """The shadow as runs (an all-empty shadow when untracked)."""
        if self.labels is not None:
            return self.labels
        return LabelRuns(len(self.value))

    def effective_labels(self) -> list:
        if self.labels is not None:
            return self.labels.to_list()
        return [None] * len(self.value)

    def overall_taint(self) -> Label:
        if self.labels is None:
            return None
        return self.labels.overall()

    def any_tainted(self) -> bool:
        """O(1) taint summary: ``labels is None`` means untainted."""
        return self.labels is not None and self.labels.any_tainted()

    def is_tainted(self) -> bool:
        return self.overall_taint() is not None

    def __len__(self) -> int:
        return len(self.value)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TStr):
            return self.value == other.value
        if isinstance(other, str):
            return self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def __add__(self, other: Union["TStr", str]) -> "TStr":
        other = as_tstr(other)
        if self.labels is None and other.labels is None:
            return TStr(self.value + other.value)
        return TStr(
            self.value + other.value,
            self.label_runs().concat(other.label_runs()),
        )

    def __radd__(self, other: str) -> "TStr":
        return as_tstr(other) + self

    def __getitem__(self, item: Union[int, slice]) -> "TStr":
        if isinstance(item, int):
            item = slice(item, item + 1 if item != -1 else None)
        labels = self.labels[item] if self.labels is not None else None
        return TStr(self.value[item], labels)

    def encode(self, encoding: str = "utf-8") -> TBytes:
        """Char→byte label transfer; multi-byte chars replicate the label."""
        raw = self.value.encode(encoding)
        if self.labels is None:
            return TBytes(raw)
        if len(raw) == len(self.value):
            # Single-byte encoding (the common case): labels map 1:1.
            return TBytes(raw, self.labels)
        # Char widths vary: stretch each char run to its byte extent.
        runs: list = []
        pos = 0
        for start, end, label in self.labels.iter_runs():
            width = len(self.value[start:end].encode(encoding))
            if label is not None:
                runs.append((pos, pos + width, label))
            pos += width
        return TBytes(raw, LabelRuns(len(raw), runs))

    def with_taint(self, taint: Label) -> "TStr":
        if taint is None or not shadows_enabled():
            return self
        return TStr(self.value, self.label_runs().union_taint(taint))

    def split(self, sep: str) -> list:
        parts = []
        start = 0
        while True:
            idx = self.value.find(sep, start)
            if idx < 0:
                parts.append(self[start:])
                return parts
            parts.append(self[start:idx])
            start = idx + len(sep)

    def __repr__(self) -> str:
        preview = self.value[:24]
        suffix = "..." if len(self.value) > 24 else ""
        return f"TStr({preview!r}{suffix}, tainted={self.is_tainted()})"


class TObj:
    """Base class for application objects carrying tainted fields.

    Subclasses either rely on the default behaviour (every instance
    attribute participates) or override :meth:`taint_fields`.
    """

    def taint_fields(self) -> dict:
        """Mapping of field name → (possibly tainted) value."""
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}

    def overall_taint(self) -> Label:
        return union_all(taint_of(v) for v in self.taint_fields().values())

    def is_tainted(self) -> bool:
        return self.overall_taint() is not None


# ---------------------------------------------------------------------- #
# Generic helpers
# ---------------------------------------------------------------------- #


def _unpack(value) -> tuple:
    if isinstance(value, _TScalar):
        return value.value, value.taint
    return value, None


def taint_of(value) -> Label:
    """Overall taint of any value (``None`` for plain Python values)."""
    if isinstance(value, _TScalar):
        return value.taint
    if isinstance(value, (TBytes, TStr, TByteArray, TObj)):
        return value.overall_taint()
    if isinstance(value, (list, tuple)):
        return union_all(taint_of(v) for v in value)
    if isinstance(value, dict):
        return union_all(taint_of(v) for v in value.values())
    return None


def with_taint(value, taint: Label):
    """Attach ``taint`` to ``value``, wrapping plain values as needed.

    ``TObj`` instances are tainted in place, field by field (a source
    point on an object variable taints the whole object's state).
    """
    if taint is None:
        return value
    if isinstance(value, (_TScalar, TBytes, TStr)):
        return value.with_taint(taint)
    if isinstance(value, TObj):
        for name, field_value in value.taint_fields().items():
            try:
                setattr(value, name, with_taint(field_value, taint))
            except TypeError:
                continue
        return value
    if isinstance(value, bool):
        return TBool(value, taint)
    if isinstance(value, int):
        return TInt(value, taint)
    if isinstance(value, float):
        return TDouble(value, taint)
    if isinstance(value, str):
        return TStr.tainted(value, taint)
    if isinstance(value, (bytes, bytearray)):
        return TBytes.tainted(bytes(value), taint)
    raise TypeError(f"cannot attach taint to {type(value).__name__}")


def as_tbytes(value: Union[TBytes, bytes, bytearray]) -> TBytes:
    if isinstance(value, TBytes):
        return value
    return TBytes(bytes(value))


def as_tstr(value: Union[TStr, str]) -> TStr:
    if isinstance(value, TStr):
        return value
    return TStr(value)


def plain(value):
    """Strip shadows: the underlying Python value."""
    if isinstance(value, _TScalar):
        return value.value
    if isinstance(value, TBytes):
        return value.data
    if isinstance(value, TStr):
        return value.value
    if isinstance(value, TByteArray):
        return bytes(value.data)
    return value
