"""High-availability Taint Map (paper §VI).

    "it can be improved by some reliable designs, e.g., adding a standby
    node to handle with the single point failure."

This module implements that suggestion: a primary
:class:`~repro.core.taintmap.TaintMapServer` streams every Global-ID
allocation to a standby replica (``OP_SYNC``), and
:class:`FailoverTaintMapClient` transparently switches to the standby
when the primary becomes unreachable.  GID numbering is preserved across
failover because the standby applies allocations verbatim.

Replication and failover **compose per shard**: a sharded deployment
runs one primary/standby pair per shard, and the failover client keeps
an independent active-replica choice per shard — shard 2 losing its
primary never disturbs shard 0's connections.
"""

from __future__ import annotations

import struct
import threading
from typing import Optional, Sequence, Union

from repro.core import taintmap
from repro.core.taintmap import (
    GID_SEQ_MASK,
    STATUS_OK,
    TaintMapClient,
    TaintMapServer,
    _normalize_addresses,
    _recv_exact,
    _send_frame,
)
from repro.errors import TaintMapError
from repro.runtime.kernel import Address, SimKernel, TcpEndpoint

#: Replication opcode: payload = 4-byte GID + serialized tag set.
OP_SYNC = 3


class StandbyTaintMapServer(TaintMapServer):
    """A replica that accepts verbatim GID allocations from the primary."""

    def _handle(self, op: int, payload: bytes) -> tuple[int, bytes]:
        if op == OP_SYNC:
            (gid,) = struct.unpack(">I", payload[:4])
            serialized = payload[4:]
            key = taintmap.taint_key(frozenset(taintmap.deserialize_tags(serialized)))
            with self._lock:
                new_gid = gid not in self._by_gid
                self._by_key[key] = gid
                self._by_gid[gid] = serialized
                # Continue the shard-local sequence after promotion; the
                # shard index lives in the GID's high bits, not the
                # per-shard counter.  Synced *migrated* entries carry a
                # foreign shard's GID — their sequence numbers must not
                # advance this shard's own counter.
                if taintmap.gid_shard(gid) == self.shard_index:
                    self._next_gid = max(self._next_gid, (gid & GID_SEQ_MASK) + 1)
                if new_gid:
                    self._persist_entry_locked(gid, serialized)
            if new_gid:
                # Keep the population counter in sync with the state the
                # sync stream installs: a promoted standby must report
                # the same global_taints the primary did, not 0.
                with self.stats._lock:
                    self.stats.global_taints += 1
                self._maybe_snapshot()
            return STATUS_OK, b""
        return super()._handle(op, payload)


class ReplicatedTaintMapServer(TaintMapServer):
    """A primary that synchronously replicates allocations to a standby.

    Replication failures are tolerated (the standby may be down); the
    primary keeps serving, which matches the paper's best-effort framing.
    """

    def __init__(
        self,
        kernel: SimKernel,
        ip: str,
        port: int,
        standby: Address,
        shard_index: int = 0,
        shard_count: int = 1,
        service_time: float = 0.0,
        ring: Optional[taintmap.ShardRing] = None,
        store=None,
        snapshot_every: Optional[int] = None,
    ):
        super().__init__(
            kernel,
            ip,
            port,
            shard_index,
            shard_count,
            service_time,
            ring=ring,
            store=store,
            snapshot_every=snapshot_every,
        )
        self._standby_address = standby
        self._standby_lock = threading.Lock()
        self._standby_endpoint: Optional[TcpEndpoint] = None
        #: Set by stop(): a handler still finishing must not redial.
        self._stopped = False
        self.replicated = 0
        self.replication_failures = 0

    def _register(self, tags, serialized: bytes) -> int:
        known = taintmap.taint_key(tags) in self._by_key
        gid = super()._register(tags, serialized)
        if not known:
            self._replicate(gid, serialized)
        return gid

    def _adopt_entry(self, gid: int, serialized: bytes) -> bool:
        # Migrated entries reach the standby through the same OP_SYNC
        # stream as fresh allocations, so a post-handoff promotion
        # resolves and dedups the migrated keys too.
        adopted = super()._adopt_entry(gid, serialized)
        if adopted:
            self._replicate(gid, serialized)
        return adopted

    def _replicate(self, gid: int, serialized: bytes) -> None:
        payload = struct.pack(">I", gid) + serialized
        with self._standby_lock:
            try:
                if self._standby_endpoint is None or self._standby_endpoint.closed:
                    if self._stopped:
                        raise TaintMapError("primary stopped; not redialing the standby")
                    self._standby_endpoint = self._kernel.connect(
                        self.address[0], self._standby_address
                    )
                _send_frame(self._standby_endpoint, bytes([OP_SYNC]), payload)
                status = _recv_exact(self._standby_endpoint, 1)[0]
                (length,) = struct.unpack(">I", _recv_exact(self._standby_endpoint, 4))
                if length:
                    _recv_exact(self._standby_endpoint, length)
                if status == STATUS_OK:
                    self.replicated += 1
                else:
                    self.replication_failures += 1
            except Exception:
                self.replication_failures += 1
                endpoint, self._standby_endpoint = self._standby_endpoint, None
                if endpoint is not None:
                    endpoint.close()

    def stop(self) -> None:
        super().stop()
        self._stopped = True
        # Closing ends the standby's thread serving this stream.  The
        # first close is unlocked so it also wakes a _replicate blocked
        # on a wedged standby; the locked one catches a dial that raced
        # the flag.
        endpoint = self._standby_endpoint
        if endpoint is not None:
            endpoint.close()
        with self._standby_lock:
            if self._standby_endpoint is not None:
                self._standby_endpoint.close()


class FailoverTaintMapClient(TaintMapClient):
    """A client that falls back to the standby when the primary dies.

    ``primary`` and ``standby`` are each one address (single-point
    deployment) or a sequence of per-shard addresses (sharded
    deployment; both sequences in shard order and of equal length).
    Each shard's replica list widens from ``[primary]`` to ``[primary,
    standby]``; the transport rotates a shard to its next replica when
    its connection breaks, and every request in flight on it retries
    there (registration and lookup are idempotent, so the retry is
    safe).  ``standby_factory`` names standbys for shards that appear
    later via ring adoption, so failover keeps composing with elastic
    scale-out.  The remaining keyword options configure the transport
    as on :class:`~repro.core.taintmap.TaintMapClient`.
    """

    def __init__(
        self,
        node,
        primary: Union[Address, Sequence[Address]],
        standby: Union[Address, Sequence[Address]],
        cache_enabled: bool = True,
        cache_capacity: Optional[int] = None,
        standby_factory=None,
        **transport_options,
    ):
        super().__init__(node, primary, cache_enabled, cache_capacity, **transport_options)
        standbys = _normalize_addresses(standby)
        if len(standbys) != len(self._shard_replicas):
            raise TaintMapError(
                f"{len(self._shard_replicas)} primary shard(s) but "
                f"{len(standbys)} standby address(es)"
            )
        for replicas, standby_address in zip(self._shard_replicas, standbys):
            replicas.append(standby_address)
        #: Optional ``standby_factory(shard_index, primary_address) ->
        #: Optional[Address]`` hook: when a ring adoption appends shards,
        #: each new shard's replica list is widened with the factory's
        #: standby (a None return leaves the shard standby-less).
        #: Without it, scaled-out shards simply run with one replica
        #: until the deployment wires a standby in.
        self.standby_factory = standby_factory

    @property
    def active_address(self) -> Address:
        """Shard 0's active replica (the single-shard deployment's one)."""
        return self.active_address_for(0)

    def active_address_for(self, shard: int) -> Address:
        return self._shard_replicas[shard][self._active[shard]]

    def _replicas_for_new_shard(self, index: int, address: Address) -> list[Address]:
        replicas = [address]
        factory = self.standby_factory
        if factory is not None:
            standby = factory(index, address)
            if standby is not None:
                replicas.append(tuple(standby))
        return replicas
