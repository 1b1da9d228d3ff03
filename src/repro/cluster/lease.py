"""Lease files with fencing tokens: who may work on what, provably.

The cluster's unit of mutual exclusion is a **lease file** per resource
(one per job, named by its digest, plus ``finalize``): a single
CRC-guarded JSON record naming the holder node, an absolute expiry time,
and a **fencing token** — a cluster-wide monotonic counter bumped on
every claim.  The protocol is the classic lease/fencing design:

* **Claim**: under the cluster lock, a resource with no lease (or an
  *expired* one) is claimable; the claimant draws the next fencing
  token and atomically writes a fresh lease record.  Claiming over an
  expired lease held by another node is a **migration** — the dead
  node's work moves, checkpoints and all.
* **Renew (heartbeat)**: under the cluster lock, the holder extends its
  expiry — but only while the on-disk token still matches its own.  A
  lease that was claimed away renews ``False``: the old holder has been
  *fenced* and must abandon the job.
* **Fence check**: any commit into shared state (the result store)
  re-reads the lease *inside the store's own inter-process lock* and
  raises :class:`~repro.errors.StaleLeaseError` on token mismatch — so
  a node revived after a pause can never double-commit work that
  migrated while it slept.

Expiry is strict: a lease is expired only when ``clock() > expires_at``,
so a renewal arriving *exactly at* expiry still succeeds (the
cluster-lock serialises it against any competing claim).  The clock is
injectable for tests; production uses ``time.time`` because expiry must
be comparable across machines sharing the directory.

Locking is :func:`repro.durable.file_lock` on a sidecar file, and every
record is written with :func:`repro.durable.atomic_write`.  A SIGKILLed
holder's flock is released by the kernel automatically; its *lease* is
not — that is the point: the lease outliving the process by up to one
TTL is exactly the grace period that distinguishes "slow" from "dead".
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..durable import atomic_write, file_lock, seal_record, unseal_record
from ..errors import StaleLeaseError
from ..obs import runtime as _obs

LEASE_DIR = "leases"
LEASE_SUFFIX = ".lease"
FENCE_NAME = "fence.json"
CLUSTER_LOCK_NAME = "cluster.lock"


@dataclass(frozen=True)
class Lease:
    """One node's claim on one resource, as read from (or written to) disk."""

    resource: str
    node: str
    token: int
    claimed_at: float
    expires_at: float
    renewals: int = 0

    def to_record(self) -> Dict:
        return {
            "kind": "lease", "resource": self.resource, "node": self.node,
            "token": self.token, "claimed_at": self.claimed_at,
            "expires_at": self.expires_at, "renewals": self.renewals,
        }

    @classmethod
    def from_record(cls, record: Dict) -> "Lease":
        return cls(resource=record["resource"], node=record["node"],
                   token=int(record["token"]),
                   claimed_at=float(record["claimed_at"]),
                   expires_at=float(record["expires_at"]),
                   renewals=int(record.get("renewals", 0)))


class LeaseManager:
    """Claim / renew / release leases in a shared cluster directory.

    ``ttl_s`` is the liveness contract: a holder must renew within it or
    its work becomes claimable.  It must comfortably exceed the longest
    gap between heartbeats.  A cluster node renews at the first chunk
    boundary a third of the TTL after its last renewal, so that gap is
    a third of the TTL plus one chunk's wall clock, and a chunk (the
    manifest's mandatory ``checkpoint_every``) must stay under two
    thirds of the TTL.  ``clock`` is injectable for the lease
    lifecycle tests; the journal (when given) receives one CRC-guarded
    line per lifecycle event, in :mod:`repro.resilience` journal format.
    """

    def __init__(self, root: str, node: str, ttl_s: float = 10.0,
                 clock: Callable[[], float] = time.time,
                 journal=None) -> None:
        if ttl_s <= 0:
            raise ValueError("lease ttl_s must be positive")
        self.root = root
        self.node = node
        self.ttl_s = float(ttl_s)
        self.clock = clock
        self.journal = journal
        self.lease_dir = os.path.join(root, LEASE_DIR)
        os.makedirs(self.lease_dir, exist_ok=True)
        self.fence_path = os.path.join(self.lease_dir, FENCE_NAME)
        self.lock_path = os.path.join(root, CLUSTER_LOCK_NAME)

    # -- record plumbing -----------------------------------------------------
    def _path(self, resource: str) -> str:
        return os.path.join(self.lease_dir, resource + LEASE_SUFFIX)

    def read(self, resource: str) -> Optional[Lease]:
        """The current on-disk lease record, valid or expired, or None.

        A damaged record (bit-flip: writes are atomic, so torn files
        cannot occur) is treated as absent — the resource is claimable,
        which errs on the side of progress; the fencing token keeps the
        error from ever becoming a double-commit.
        """
        try:
            with open(self._path(resource), "rb") as handle:
                text = handle.read()
        except FileNotFoundError:
            return None
        try:
            return Lease.from_record(unseal_record(text))
        except (ValueError, KeyError, TypeError) as exc:
            warnings.warn(
                f"cluster lease {resource!r}: damaged record ({exc}); "
                f"treating as expired", RuntimeWarning, stacklevel=2)
            return None

    def expired(self, lease: Lease) -> bool:
        """Strictly past expiry — at exactly ``expires_at`` it still holds."""
        return self.clock() > lease.expires_at

    def _next_token(self, floor: int) -> int:
        """Draw the next fencing token (call only under the lock)."""
        current = 0
        try:
            with open(self.fence_path, "rb") as handle:
                current = int(unseal_record(handle.read())["token"])
        except (FileNotFoundError, ValueError, KeyError, TypeError):
            # recover the watermark from whatever leases survived
            for name in os.listdir(self.lease_dir):
                if not name.endswith(LEASE_SUFFIX):
                    continue
                lease = self.read(name[:-len(LEASE_SUFFIX)])
                if lease is not None:
                    current = max(current, lease.token)
        token = max(current, floor) + 1
        atomic_write(self.fence_path,
                     seal_record({"kind": "fence", "token": token}) + "\n")
        return token

    def _journal(self, op: str, **fields) -> None:
        if self.journal is not None:
            self.journal.append(op, node=self.node, **fields)

    def _count(self, event: str, amount: int = 1) -> None:
        tel = _obs._active
        if tel is not None:
            tel.registry.get("repro_cluster_leases_total") \
                .labels(event).inc(amount)

    # -- lifecycle -----------------------------------------------------------
    def claim(self, resource: str) -> Optional[Lease]:
        """Try to claim ``resource``; None while another holder is live.

        Claiming over an *expired* lease is the migration path: the
        previous holder's token is fenced out (journal op ``takeover``
        and the ``repro_cluster_jobs_migrated_total`` counter record
        it) and any commit it attempts afterwards is rejected at the
        result store.
        """
        with file_lock(self.lock_path):
            now = self.clock()
            current = self.read(resource)
            if current is not None and not self.expired(current):
                return None
            token = self._next_token(current.token if current else 0)
            lease = Lease(resource=resource, node=self.node, token=token,
                          claimed_at=now, expires_at=now + self.ttl_s)
            atomic_write(self._path(resource),
                         seal_record(lease.to_record()) + "\n")
            self._count("claimed")
            if current is not None:
                self._count("expired")
                self._journal("takeover", resource=resource, token=token,
                              previous_node=current.node,
                              previous_token=current.token)
                if current.node != self.node:
                    tel = _obs._active
                    if tel is not None:
                        tel.registry.get(
                            "repro_cluster_jobs_migrated_total").inc()
            else:
                self._journal("claim", resource=resource, token=token)
            return lease

    def renew(self, lease: Lease) -> Optional[Lease]:
        """Heartbeat: extend the holder's expiry; None when fenced.

        Renewal succeeds only while the on-disk token is still the
        holder's.  A ``None`` return means the lease was claimed away
        (or the record vanished): the holder is fenced and must abandon
        the resource immediately — its next commit would be rejected
        anyway, but abandoning early wastes fewer cycles.
        """
        with file_lock(self.lock_path):
            current = self.read(lease.resource)
            if current is None or current.token != lease.token:
                self._count("fenced")
                self._journal("fence_rejected", resource=lease.resource,
                              token=lease.token,
                              holder_token=current.token
                              if current else None)
                return None
            renewed = Lease(resource=lease.resource, node=lease.node,
                            token=lease.token, claimed_at=lease.claimed_at,
                            expires_at=self.clock() + self.ttl_s,
                            renewals=lease.renewals + 1)
            atomic_write(self._path(lease.resource),
                         seal_record(renewed.to_record()) + "\n")
            self._count("renewed")
            return renewed

    def release(self, lease: Lease) -> bool:
        """Drop a lease we still hold; False if it was already fenced."""
        with file_lock(self.lock_path):
            current = self.read(lease.resource)
            if current is None or current.token != lease.token:
                return False
            os.unlink(self._path(lease.resource))
            self._count("released")
            self._journal("release", resource=lease.resource,
                          token=lease.token)
            return True

    # -- fencing -------------------------------------------------------------
    def check(self, lease: Lease) -> None:
        """Raise :class:`StaleLeaseError` unless ``lease`` still holds.

        This is the commit-time fence: the result store calls it inside
        its own inter-process lock (``ResultStore.append(fence=...)``),
        making *verify-then-append* atomic against competing committers.
        A claim by another node always lands either before this check
        (token mismatch → rejected) or after the append completes (the
        new claimant's resume scan, under the same store lock, then sees
        the committed record and skips the job).
        """
        current = self.read(lease.resource)
        if current is None or current.token != lease.token:
            self._count("fenced")
            self._journal("fence_rejected", resource=lease.resource,
                          token=lease.token,
                          holder_token=current.token if current else None)
            raise StaleLeaseError(
                f"lease on {lease.resource!r} is stale: node {lease.node} "
                f"holds token {lease.token}, but the store-side check found "
                f"{'no lease' if current is None else f'token {current.token} (node {current.node})'}"
                f" — the job has migrated, abandoning the commit")

    def fence_for(self, lease: Lease) -> Callable[[], None]:
        """The ``fence=`` callable for ``ResultStore.append``."""
        return lambda: self.check(lease)

    # -- introspection -------------------------------------------------------
    def leases(self) -> List[Lease]:
        """Every readable lease record, sorted by resource."""
        found = []
        for name in sorted(os.listdir(self.lease_dir)):
            if not name.endswith(LEASE_SUFFIX):
                continue
            lease = self.read(name[:-len(LEASE_SUFFIX)])
            if lease is not None:
                found.append(lease)
        return found
