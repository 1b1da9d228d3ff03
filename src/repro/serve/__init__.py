"""repro.serve — always-on asynchronous campaign service.

A long-running HTTP front end over the fleet orchestrator: tenants
submit campaign specs to a priority queue with weighted-fair scheduling
and token-bucket quotas; workers execute them through the ordinary
campaign machinery (checkpointed, resumable, byte-identical); results
and lifecycle events stream back live over Server-Sent Events.

Layering::

    app.py      HTTP/1.1 + SSE framing            (asyncio, stdlib only)
    service.py  admission / scheduling / slots    (the state machine)
    queue.py    priority + start-time fair queue  (pure data structures)
    quota.py    token buckets + tenant policies   (injectable clock)
    stream.py   SSE frames + replayable buffers   (thread -> loop bridge)
    catalog.py  build-time capability catalog     (static artifact)

Durability and overload protection (write-ahead admission journal,
crash recovery on start, circuit-breaker shedding, deadlines) come from
:mod:`repro.resilience` — see ``docs/serve.md`` for the API reference
and scheduling semantics, ``docs/resilience.md`` for the failure story.
"""

from .app import ServeApp, retry_after_header, serve
from .catalog import build_catalog, load_catalog, write_catalog
from .queue import FairQueue, QueueEntry
from .quota import QuotaManager, TenantPolicy, TokenBucket
from .service import Campaign, CampaignService
from .stream import EventBuffer, encode_comment, encode_frame

__all__ = [
    "Campaign",
    "CampaignService",
    "EventBuffer",
    "FairQueue",
    "QueueEntry",
    "QuotaManager",
    "ServeApp",
    "TenantPolicy",
    "TokenBucket",
    "build_catalog",
    "encode_comment",
    "encode_frame",
    "load_catalog",
    "retry_after_header",
    "serve",
    "write_catalog",
]
