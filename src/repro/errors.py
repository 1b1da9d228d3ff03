"""Unified exception taxonomy for the reproduction.

Every error the model raises deliberately descends from :class:`ReproError`
so callers (the fleet worker above all) can distinguish *model* errors from
arbitrary crashes.  Each class additionally inherits the ad-hoc built-in it
historically replaced (``ValueError`` for configuration mistakes,
``RuntimeError`` for runtime limits), so existing ``except ValueError`` /
``pytest.raises(RuntimeError)`` call sites keep working unchanged.

The ``retryable`` attribute is the contract with the fleet's retry logic:
a deterministic model error (bad configuration, a hard cycle deadline, an
exhausted hardware resource) can never succeed on a retry and is
quarantined immediately, while transient conditions (injected faults,
wall-clock watchdog expiry under host load) are retried
(:func:`repro.fleet.worker.should_retry`).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all deliberate model errors.

    ``retryable`` is a class default; instances may override it (see
    :class:`WatchdogExpired`).  Deterministic by default: re-running the
    same spec reproduces the same error.
    """

    retryable = False


class ConfigurationError(ReproError, ValueError):
    """A spec, parameter, or wiring mistake — deterministic, never retried."""


class FormatError(ReproError, ValueError):
    """An artifact (JSON/CSV export, plan file) failed to parse."""


class ResourceExhaustedError(ReproError, RuntimeError):
    """A finite hardware resource (counter structures, ...) is all in use."""


class TraceOverrunError(ReproError, RuntimeError):
    """The trace path lost messages and the caller asked for strictness."""


class BandwidthExceededError(ReproError, RuntimeError):
    """The tool interface cannot sustain the requested measurement."""


class CounterSaturationError(ReproError, RuntimeError):
    """A counter exceeded its width in ``raise`` overflow mode."""


class KernelEquivalenceError(ReproError, RuntimeError):
    """A strict-equivalence run caught an unsound quiescence claim.

    Raised when a component that promised ``idle_until`` quiescence changed
    observable state (oracle totals or trace bytes) in an audited tick —
    a kernel-scheduler bug, deterministic by construction.
    """


class WatchdogExpired(ReproError, RuntimeError):
    """A bounded run exceeded its cycle or wall-clock deadline.

    A cycle deadline is deterministic (``retryable=False``); a wall-clock
    deadline may just mean a loaded host, so those instances are built
    with ``retryable=True``.
    """

    def __init__(self, message: str, retryable: bool = False) -> None:
        super().__init__(message)
        self.retryable = retryable


class FaultInjected(ReproError, RuntimeError):
    """An injected (drill) fault — transient by construction."""

    retryable = True


class CampaignStopped(ReproError, RuntimeError):
    """A ``should_stop`` callable stopped a campaign at a safe boundary.

    Raised from inside a job or its batch lane when ``should_stop()``
    returns a reason at a checkpoint or stride boundary.  ``reason`` is
    that return value, kept as it is: ``"stopped"`` (a ``STOP`` file in
    the campaign directory; the in-flight job's checkpoint stays on disk
    and, once the file is deleted, a resumed run continues
    byte-identically), ``"deadline"`` (the campaign's wall-clock
    deadline passed: terminal for the submission), or, on a cluster
    node, ``"fenced"`` (the job's lease was lost).  Not a job failure:
    callers turn it into an outcome status or node state, never a
    retry.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class QuotaExceeded(ReproError, RuntimeError):
    """A tenant exceeded an admission quota (rate, queue depth, tokens).

    Carries ``retry_after_s`` so a service front-end can translate it
    into a ``Retry-After`` header; transient by construction.  Strictly
    a *tenant* condition (HTTP 429) — when the *service* cannot accept
    work, raise :class:`ServiceUnavailable` instead.
    """

    retryable = True

    def __init__(self, message: str, retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ServiceUnavailable(ReproError, RuntimeError):
    """The service as a whole cannot accept work right now (HTTP 503).

    Raised for conditions that are nobody's quota: a draining service, a
    tripped circuit breaker shedding admissions during a failure storm.
    Transient by construction — the client should retry after
    ``retry_after_s``, unchanged.
    """

    retryable = True

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class TraceStoreError(ReproError, RuntimeError):
    """A trace-store segment or summary sidecar was rejected.

    Raised for a missing/garbled footer, a column block whose CRC does
    not match, or a sidecar that fails validation.  Deterministic
    (``retryable=False``): the artifact on disk is what it is — the
    caller re-ingests from the source trace rather than re-reading a
    damaged segment and hoping.
    """


class ClusterError(ReproError, RuntimeError):
    """A multi-node coordination artifact was rejected or unusable.

    Raised for a damaged cluster manifest, a manifest another release
    submitted, or a campaign every node left unfinished without a stop
    or a passed deadline.  Deterministic (``retryable=False``): the
    shared directory holds what it holds — an operator has to repair or
    resubmit, retrying cannot.
    """


class StaleLeaseError(ClusterError):
    """A node tried to act on a lease it no longer holds.

    The fencing backbone of ``repro.cluster``: a node that was paused,
    partitioned, or just slow past its lease TTL may revive and try to
    commit work for a batch that has since migrated to another node.
    The commit path re-reads the lease *inside* the result store's
    inter-process lock and raises this instead of appending — a stale
    holder can never double-commit.  ``retryable=False`` for the *lease*:
    the node must abandon the batch (the new holder owns it now), not
    retry the commit.
    """


class CheckpointError(ReproError, RuntimeError):
    """A checkpoint file was rejected (corrupt, truncated, mismatched).

    Always ``retryable``: the simulation itself is fine — the caller falls
    back to an earlier checkpoint (or cycle 0) and re-runs, losing cycles
    rather than the job.  Restore never proceeds on a bad file: a silent
    partially-restored device would break the byte-identity guarantee the
    whole checkpoint subsystem exists to provide.
    """

    retryable = True
