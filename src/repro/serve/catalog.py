"""Build-time campaign-spec catalog: what the service can run.

The snippet-1 idiom (SNIPPETS.md): a *build-time* tool compiles a static,
versioned catalog artifact; the *runtime* service only reads it.  The
catalog describes every dimension a campaign spec may vary — workload
domains, device configs, spec fields with their defaults and bounds,
fault-drill modes — so a client can discover what to submit without
reading source, and an operator can pin a deployment to a reviewed
catalog file instead of whatever the code of the day exposes.

``repro catalog --out catalog.json`` builds the artifact;
``repro serve --catalog catalog.json`` serves a pinned copy at
``GET /v1/catalog`` (without the flag the service builds one at startup,
which is the same document by construction).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict

from .. import __version__
from ..errors import FormatError
from ..fleet.api import CampaignSpec
from ..fleet.spec import FAULT_MODES, SCHEMA_VERSION, canonical_json
from ..soc.config import CONFIGS
from ..workloads import SCENARIOS

#: bump when the catalog document layout changes
CATALOG_SCHEMA = 1


def _scenario_entries() -> Dict[str, Dict]:
    entries: Dict[str, Dict] = {}
    for key in sorted(SCENARIOS):
        cls = SCENARIOS[key]
        doc = (cls.__doc__ or "").strip().split("\n")[0]
        entries[key] = {"scenario": cls.__name__, "summary": doc}
    return entries


def _device_entries() -> Dict[str, Dict]:
    entries: Dict[str, Dict] = {}
    for key in sorted(CONFIGS):
        config = CONFIGS[key]()
        entries[key] = {
            "cpu_frequency_mhz": config.cpu.frequency_mhz,
            "issue_width": config.cpu.issue_width,
            "icache_bytes": config.icache.size_bytes,
            "flash_kb": config.flash.size_kb,
        }
    return entries


def _spec_fields() -> Dict[str, Dict]:
    entries: Dict[str, Dict] = {}
    for f in dataclasses.fields(CampaignSpec):
        default = f.default
        if isinstance(default, dataclasses._MISSING_TYPE):
            default = None
        entries[f.name] = {"default": default}
    entries["count"]["max"] = CampaignSpec.MAX_COUNT
    entries["cycles"]["max"] = CampaignSpec.MAX_CYCLES
    entries["jobs"]["note"] = ("explicit CampaignJob dicts; mutually "
                               "exclusive with the generated population")
    return entries


def build_catalog() -> Dict:
    """Compile the catalog document (pure: same code → same bytes)."""
    return {
        "catalog_schema": CATALOG_SCHEMA,
        "package_version": __version__,
        "payload_schema": SCHEMA_VERSION,
        "domains": _scenario_entries(),
        "devices": _device_entries(),
        "spec_fields": _spec_fields(),
        "fault_modes": list(FAULT_MODES),
        "endpoints": {
            "submit": "POST /v1/campaigns",
            "status": "GET /v1/campaigns/{id}",
            "results": "GET /v1/campaigns/{id}/results?offset=N",
            "events": "GET /v1/campaigns/{id}/events  (SSE)",
            "metrics": "GET /metrics",
        },
    }


def write_catalog(path: str) -> str:
    """Write the canonical-JSON catalog artifact; returns the path."""
    with open(path, "w") as handle:
        handle.write(canonical_json(build_catalog()))
        handle.write("\n")
    return path


def load_catalog(path: str) -> Dict:
    """Load and sanity-check a pinned catalog file."""
    try:
        with open(path) as handle:
            body = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot load catalog {path!r}: {exc}")
    if not isinstance(body, dict) or "catalog_schema" not in body:
        raise FormatError(f"{path!r} is not a campaign catalog")
    if body["catalog_schema"] != CATALOG_SCHEMA:
        raise FormatError(
            f"catalog schema {body['catalog_schema']} unsupported "
            f"(this build reads schema {CATALOG_SCHEMA})")
    return body
