"""Differential property tests for the run-shaped cell and packet codecs.

Every example is built from one drawn ``seed`` (plus a length and a
layout shape): the seed alone fixes the run layout, the labels and the
Global IDs they resolve to, so a failing example names the seed that
replays it.  The codecs are compared against the byte-at-a-time
reference encoders of ``test_fastpath`` — the wire format is the
compatibility contract, so any divergence is a bug in the codec.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import wire
from repro.taint import LocalId, TaintTree
from repro.taint.values import LabelRuns, TBytes
from tests.core.test_fastpath import reference_cells, reference_packet

#: Small frames take the bytes-only one-run check, larger ones numpy;
#: the crossover and the cell after it are both drawn.
CROSSOVER = wire.BYTES_PATH_MAX_CELLS
LENGTHS = (0, 1, 2, 5, CROSSOVER, CROSSOVER + 1, 4096)
BIG = 64 * 1024 + 1
MAX_RUNS = 8
#: "one-run" is one nonzero GID over the whole frame, "one-run-zero" one
#: label that resolves to GID 0, and "near" a one-run frame (GID 0 or
#: not) whose first, middle or last cell differs in a single GID byte.
SHAPES = ("runs", "aba", "one-run", "one-run-zero", "near")

_TREE = TaintTree(LocalId("10.0.0.9", 9))
_POOL = [_TREE.taint_for_tag(f"t{i}") for i in range(6)]
#: Shard high bits set (>= 0x10000000) on most of them.
_GID_CHOICES = (1, 7, 0x10000001, 0x2000ABCD, 0x7FFFFFFF, 0xF0000002, 0xFFFFFFFF)


class TableResolver(wire.LabelResolver):
    """A fixed label <-> GID table that counts calls per direction.

    Several labels may resolve to GID 0 (the empty taint); every other
    label has its own nonzero GID, so decoding is the table's inverse.
    """

    def __init__(self, gids: dict):
        self.gid_of = gids
        self.label_of = {gid: label for label, gid in gids.items() if gid}
        self.batched_encodes = self.batched_decodes = self.single_calls = 0
        super().__init__(self._gid, self._taint, self._gids, self._taints)

    def _gid(self, label):
        self.single_calls += 1
        return self.gid_of[label]

    def _taint(self, gid):
        self.single_calls += 1
        return self.label_of[gid]

    def _gids(self, labels):
        self.batched_encodes += 1
        return [self.gid_of[label] for label in labels]

    def _taints(self, gids):
        self.batched_decodes += 1
        return [self.label_of[gid] for gid in gids]


def build(seed: int, length: int, shape: str):
    """(value, resolver, per-byte GIDs, random split points) for a seed."""
    rng = random.Random(seed)
    labels = rng.sample(_POOL, rng.randint(1, len(_POOL)))
    gids = dict(zip(labels, rng.sample(_GID_CHOICES, len(labels))))
    aba = shape == "aba" and length >= 3 and len(labels) >= 2
    # Some labels resolve to the empty taint (never the A and B of "aba").
    for label in labels[2 if aba else 0 :]:
        if rng.random() < 0.15:
            gids[label] = 0
    if shape in ("one-run", "one-run-zero", "near"):
        a, b = rng.sample(_POOL, 2)
        choices = {"one-run": _GID_CHOICES, "one-run-zero": (0,)}
        gids = {a: rng.choice(choices.get(shape, _GID_CHOICES + (0,))), b: 0}
        runs = [(0, length, a)]
        if shape == "near" and length:
            # The odd cell's GID flips bits of one byte (to 0 if the
            # run's GID had only that byte set).
            byte = rng.randrange(wire.GID_WIDTH)
            gids[b] = gids[a] ^ (rng.randrange(1, 256) << (8 * byte))
            at = rng.choice((0, length // 2, length - 1))
            runs = [(0, at, a), (at, at + 1, b), (at + 1, length, a)]
    elif aba:
        # First and last GIDs match, the middle differs: a one-run
        # shortcut that checks only the ends would merge the three.
        a, b = sorted(rng.sample(range(1, length), 2))
        runs = [(0, a, labels[0]), (a, b, labels[1]), (b, length, labels[0])]
    else:
        count = min(rng.randint(0, MAX_RUNS), length)
        cuts = sorted(rng.sample(range(length + 1), min(2 * count, length + 1)))
        runs = [
            (cuts[i], cuts[i + 1], rng.choice(labels))
            for i in range(0, len(cuts) - 1, 2)
        ]
    data = bytes(rng.randrange(256) for _ in range(min(length, 64))) * (
        length // 64 + 1
    )
    value = TBytes(data[:length], LabelRuns(length, runs))
    per_byte = [gids.get(value.label_at(i), 0) for i in range(length)]
    splits = sorted(rng.sample(range(length * wire.CELL_WIDTH + 1), min(4, length)))
    return value, TableResolver(gids), per_byte, splits


def expected_decode(value: TBytes, resolver: TableResolver, length: int) -> TBytes:
    """What a receiver must see: every byte whose GID is 0 is untainted."""
    runs = value.labels.runs if value.labels is not None else []
    return TBytes(
        value.data,
        LabelRuns(length, [(s, e, l) for s, e, l in runs if resolver.gid_of[l]]),
    )


def assert_same(out: TBytes, want: TBytes, context: str) -> None:
    assert out.data == want.data, context
    assert out.labels == want.labels, f"{context}: runs differ"


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    length=st.sampled_from(LENGTHS),
    shape=st.sampled_from(SHAPES),
)
# 64 KiB + 1: five runs over three labels, two of which resolve to
# GID 0; and an A-B-A frame whose GIDs carry shard high bits.
@example(seed=10, length=BIG, shape="runs")
@example(seed=19, length=BIG, shape="aba")
# The bytes path's edge: a last-cell flip at the crossover, and one-run
# frames just past it.
@example(seed=3, length=CROSSOVER, shape="near")
@example(seed=4, length=CROSSOVER + 1, shape="one-run")
@example(seed=5, length=CROSSOVER + 1, shape="one-run-zero")
def test_codec_matches_reference(seed, length, shape):
    value, resolver, per_byte, splits = build(seed, length, shape)
    context = f"seed={seed} length={length} shape={shape}"
    tainted_value = value.labels is not None
    tainted_frame = any(per_byte)
    want = expected_decode(value, resolver, length)

    cells = wire.encode_cells(value, resolver)
    assert cells == reference_cells(value.data, per_byte), context
    envelope = wire.encode_packet(value, resolver)
    assert envelope == reference_packet(value.data, per_byte), context
    # One batched resolver call per tainted encode, none for clean ones.
    assert resolver.batched_encodes == 2 * tainted_value, context

    assert_same(wire.CellDecoder().feed(cells, resolver), want, context)
    assert_same(wire.decode_packet(envelope, resolver), want, context)
    assert resolver.batched_decodes == 2 * tainted_frame, context

    # Arbitrary read boundaries decode to the same value; each piece
    # that carries a nonzero GID costs exactly one batched lookup.
    resolver.batched_decodes = 0
    decoder = wire.CellDecoder()
    bounds = [0, *splits, len(cells)]
    pieces = [
        decoder.feed(cells[lo:hi], resolver) for lo, hi in zip(bounds, bounds[1:])
    ]
    decoder.check_clean_eof()
    assert_same(TBytes.concat(pieces), want, f"{context} splits={splits}")
    assert resolver.batched_decodes == sum(p.labels is not None for p in pieces), context
    assert resolver.single_calls == 0, context


def test_aba_frame_decodes_as_three_runs():
    """A frame whose ends agree but whose middle differs is not one run."""
    a, b = _POOL[0], _POOL[1]
    resolver = TableResolver({a: 0x10000001, b: 2})
    value = TBytes(b"abcdef", LabelRuns(6, [(0, 2, a), (2, 4, b), (4, 6, a)]))
    out = wire.CellDecoder().feed(wire.encode_cells(value, resolver), resolver)
    assert out.labels.runs == [(0, 2, a), (2, 4, b), (4, 6, a)]
    assert resolver.batched_decodes == 1
