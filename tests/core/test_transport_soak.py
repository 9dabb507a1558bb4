"""Seeded concurrency soak for the multiplexed Taint Map transport.

Eight threads on two nodes make random mixes of ``gid_for`` /
``gids_for`` / ``taint_for`` / ``taints_for`` against a 2-shard fleet
whose service time is drawn per seed.  Alongside them, lookup batches
whose replies overflow the kernel pipe run on the same shards, so the
callers must keep replies draining while they write.  Invariants:

* one taint always gets one GID, across all threads;
* lookups return the registered tags;
* every call returns within its deadline.

A failure names its seed; re-run one with ``-k "seed-<n>"``.
"""

import random
import struct
import threading
import time

import pytest

from repro.core.taintmap import (
    OP_LOOKUP_MANY,
    OP_REGISTER_MANY,
    ShardedTaintMapService,
    TaintMapClient,
    _pack_batch_lookup,
    _pack_batch_register,
    _split_batch_lookup_response,
    deserialize_tags,
    gid_shard,
    serialize_tags,
)
from repro.runtime.cluster import TAINT_MAP_IP, TAINT_MAP_PORT
from repro.runtime.fs import SimFileSystem
from repro.runtime.kernel import SimKernel
from repro.runtime.modes import Mode
from repro.runtime.node import SimNode

SEEDS = (11, 23, 47)
SHARDS = 2
THREADS = 8
OPS_PER_THREAD = 100
SMALL_TAGS = 24
DEADLINE_S = 10.0
#: The simulated kernel's default pipe capacity (``SimKernel``).
PIPE_BYTES = 256 * 1024
#: Taints whose serialized form is ~2 KiB, enough of them that each
#: shard's share of one lookup batch overflows the pipe.
BIG_TAGS = 400
BIG_TAG_CHARS = 2000


class _Fleet:
    def __init__(self, seed: int, shards: int = SHARDS):
        self.rng = random.Random(seed)
        self.shards = shards
        self.kernel = SimKernel(f"soak-{seed}")
        self.kernel.register_node(TAINT_MAP_IP)
        fs = SimFileSystem()
        self.service = ShardedTaintMapService(
            self.kernel,
            TAINT_MAP_IP,
            TAINT_MAP_PORT,
            shards,
            service_time=self.rng.uniform(0.0, 0.0005),
        ).start()
        self.nodes = [
            SimNode(f"n{i}", self.kernel.register_node(f"10.0.0.{i + 1}"), i + 1,
                    self.kernel, fs, Mode.DISTA)
            for i in range(2)
        ]
        # Caches off: every call reaches the transport.
        self.clients = [
            TaintMapClient(
                node, self.service.addresses, cache_enabled=False,
                request_deadline_s=DEADLINE_S,
            )
            for node in self.nodes
        ]
        self.lock = threading.Lock()
        #: (node index, tag) → GID; one taint, one GID.
        self.gids: dict[tuple[int, str], int] = {}
        #: GID → tag, for lookups from either node.
        self.tags: dict[int, str] = {}
        self.failures: list[str] = []

    def close(self):
        for client in self.clients:
            client.close()
        self.service.stop()

    def record(self, node_index: int, tag: str, gid: int) -> None:
        with self.lock:
            known = self.gids.setdefault((node_index, tag), gid)
            self.tags.setdefault(gid, tag)
        if known != gid:
            raise AssertionError(f"{tag!r} on node {node_index} got GIDs {known} and {gid}")

    def check_lookup(self, gid: int, taint) -> None:
        with self.lock:
            expected = self.tags[gid]
        got = {tag.tag for tag in taint.tags}
        if got != {expected}:
            raise AssertionError(f"GID {gid} resolved to {got}, registered as {expected!r}")

    def timed(self, what: str, call):
        started = time.monotonic()
        result = call()
        elapsed = time.monotonic() - started
        if elapsed > DEADLINE_S:
            raise AssertionError(f"{what} took {elapsed:.2f}s, past its {DEADLINE_S}s deadline")
        return result


def _small_ops(fleet: _Fleet, worker: int, seed: int) -> None:
    rng = random.Random(seed * 1000 + worker)
    node_index = worker % len(fleet.nodes)
    node, client = fleet.nodes[node_index], fleet.clients[node_index]
    names = [f"s{seed}-{i}" for i in range(SMALL_TAGS)]
    for _ in range(OPS_PER_THREAD):
        with fleet.lock:
            known = list(fleet.tags)
        op = rng.choice(("gid_for", "gids_for", "taint_for", "taints_for"))
        if op in ("taint_for", "taints_for") and not known:
            op = "gid_for"
        if op == "gid_for":
            name = rng.choice(names)
            gid = fleet.timed(op, lambda: client.gid_for(node.tree.taint_for_tag(name)))
            fleet.record(node_index, name, gid)
        elif op == "gids_for":
            batch = [rng.choice(names) for _ in range(rng.randint(1, 8))]
            taints = [node.tree.taint_for_tag(name) for name in batch]
            for name, gid in zip(batch, fleet.timed(op, lambda: client.gids_for(taints))):
                fleet.record(node_index, name, gid)
        elif op == "taint_for":
            gid = rng.choice(known)
            fleet.check_lookup(gid, fleet.timed(op, lambda: client.taint_for(gid)))
        else:
            batch = [rng.choice(known) for _ in range(rng.randint(1, 8))]
            for gid, taint in zip(batch, fleet.timed(op, lambda: client.taints_for(batch))):
                fleet.check_lookup(gid, taint)


def _big_names(prefix: str) -> list[str]:
    return [f"{prefix}-{i}-" + "x" * BIG_TAG_CHARS for i in range(BIG_TAGS)]


def _register_big(fleet: _Fleet, seed: int) -> list[int]:
    """Register the oversized taints (their register frames overflow
    the pipe too) and return their GIDs."""
    node, client = fleet.nodes[0], fleet.clients[0]
    names = _big_names(f"b{seed}")
    taints = [node.tree.taint_for_tag(name) for name in names]
    gids = fleet.timed("big gids_for", lambda: client.gids_for(taints))
    reply_bytes = [0] * fleet.shards
    for name, taint, gid in zip(names, taints, gids):
        fleet.record(0, name, gid)
        reply_bytes[gid_shard(gid)] += 4 + len(serialize_tags(taint.tags))
    assert min(reply_bytes) > PIPE_BYTES, f"seed {seed}: replies {reply_bytes} fit the pipe"
    return gids


def _big_lookups(fleet: _Fleet, gids: list[int], reader: int) -> None:
    client = fleet.clients[reader]
    for _ in range(2):
        taints = fleet.timed("big taints_for", lambda: client.taints_for(gids))
        for gid, taint in zip(gids, taints):
            fleet.check_lookup(gid, taint)


def _run(fleet: _Fleet, jobs) -> None:
    def guarded(job, *args):
        try:
            job(*args)
        except Exception as exc:  # noqa: BLE001 - reported with the seed
            fleet.failures.append(f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=guarded, args=job, daemon=True) for job in jobs]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(DEADLINE_S * 3)
    hung = [thread for thread in threads if thread.is_alive()]
    if hung:
        fleet.failures.append(f"{len(hung)} thread(s) still running")


@pytest.mark.parametrize("seed", SEEDS, ids=[f"seed-{seed}" for seed in SEEDS])
def test_seeded_concurrency_soak(seed):
    print(f"transport soak seed={seed}")
    fleet = _Fleet(seed)
    try:
        big = _register_big(fleet, seed)
        jobs = [(_small_ops, fleet, worker, seed) for worker in range(THREADS)]
        jobs += [(_big_lookups, fleet, big, reader) for reader in range(len(fleet.nodes))]
        _run(fleet, jobs)
        assert not fleet.failures, f"seed {seed}: {fleet.failures}"
        # Both nodes' registrations landed; each taint has one GID.
        assert len(set(fleet.gids.values())) == len(fleet.gids), f"seed {seed}"
    finally:
        fleet.close()


def test_reply_larger_than_the_pipe_completes_alongside_small_requests():
    """The full-pipe case on one shard: one ``submit_many`` sends a
    lookup whose reply overflows the pipe and then a register frame that
    overflows it too.  The server answers the lookup before it reads on,
    so the writing caller must drain that reply while it writes — alone,
    then with small requests and another big lookup on the connection."""
    seed = 5
    fleet = _Fleet(seed, shards=1)
    try:
        big = _register_big(fleet, seed)
        node, client = fleet.nodes[0], fleet.clients[0]
        fresh = _big_names(f"f{seed}")
        payload = [serialize_tags(node.tree.taint_for_tag(name).tags) for name in fresh]
        calls = [
            (0, OP_LOOKUP_MANY, _pack_batch_lookup(big)),
            (0, OP_REGISTER_MANY, _pack_batch_register(payload)),
        ]
        assert len(calls[1][2]) > PIPE_BYTES

        def lookup_then_register():
            lookup, register = fleet.timed(
                "lookup+register submit_many", lambda: client.transport.submit_many(calls)
            )
            for gid, value in zip(big, _split_batch_lookup_response(lookup, len(big))):
                with fleet.lock:
                    expected = fleet.tags[gid]
                assert {tag.tag for tag in deserialize_tags(value)} == {expected}
            for name, gid in zip(fresh, struct.unpack(f">{len(fresh)}I", register)):
                fleet.record(0, name, gid)

        # Alone first: no other caller is waiting to read the reply.
        lookup_then_register()
        jobs = [(lookup_then_register,), (_big_lookups, fleet, big, 0)]
        jobs += [(_small_ops, fleet, worker * 2, seed) for worker in range(3)]
        _run(fleet, jobs)
        assert not fleet.failures, f"seed {seed}: {fleet.failures}"
        assert len({fleet.gids[(0, name)] for name in fresh}) == BIG_TAGS
    finally:
        fleet.close()
