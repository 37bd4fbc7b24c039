"""JSON formats: transfer systems, catalogs (JSON-lines), and reports.

A system file is ``{"site": <descriptor>, "edges": [[srcLabel, dstLabel], ...]}``
with reflexive edges implicit; the writer emits edges in canonical order, so
write-then-read is the identity on catalog members.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from .enumeration import TransferSystemCatalog
from .errors import InputFileError, UsageError
from .sites import Site, site_from_descriptor
from .systems import TransferSystem, generate_from_edges


def system_to_dict(ts: TransferSystem) -> dict:
    if ts.site.descriptor is None:
        raise UsageError("cannot serialize a system on a descriptor-less site")
    lab = ts.site.labels
    return {
        "site": ts.site.descriptor,
        "edges": [[lab[a], lab[b]] for a, b in ts.edges()],
    }


def _is_label_pair(edge) -> bool:
    return isinstance(edge, list) and len(edge) == 2 and all(isinstance(x, str) for x in edge)


def system_from_dict(data: dict, site: Optional[Site] = None) -> TransferSystem:
    if not isinstance(data, dict) or "edges" not in data:
        raise InputFileError("system JSON must have an 'edges' field")
    if not isinstance(data["edges"], list) or not all(map(_is_label_pair, data["edges"])):
        raise InputFileError("system JSON 'edges' must be a list of [source, target] labels")
    if site is None:
        if "site" not in data:
            raise InputFileError("system JSON must have a 'site' field")
        site = site_from_descriptor(data["site"])
    edges = [(site.node(src), site.node(dst)) for src, dst in data["edges"]]
    ts = generate_from_edges(site, edges)
    if set(ts.edges()) != set(edges):
        # The listed edges were not closed; being explicit beats silently
        # completing a file that claims to be a transfer system.
        raise UsageError("edge list is not a transfer system (closure adds edges)")
    return ts


def dump_system(ts: TransferSystem) -> str:
    return json.dumps(system_to_dict(ts), indent=2, sort_keys=True) + "\n"


def load_system(text: str, site: Optional[Site] = None) -> TransferSystem:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFileError(f"malformed system JSON: {exc}") from None
    return system_from_dict(data, site)


def read_system(path: str | Path, site: Optional[Site] = None) -> TransferSystem:
    """Load a system JSON file; unreadable or malformed files raise InputFileError."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFileError(f"cannot read system file {path}: {exc}") from None
    return load_system(text, site)


def dump_catalog(catalog: TransferSystemCatalog) -> str:
    """JSON-lines, one system per line in canonical order."""
    return "".join(
        json.dumps(system_to_dict(ts), sort_keys=True) + "\n" for ts in catalog.systems
    )
