"""JSON formats: transfer systems, catalogs (JSON-lines), and reports.

A system file is ``{"site": <descriptor>, "edges": [[srcLabel, dstLabel], ...]}``
with reflexive edges implicit; the writer emits edges in canonical order, so
write-then-read is the identity on catalog members.  Reading checks the
listed edges and never completes them: one dict lookup per label, the
identity with the listed flat indices set in place, and the constructor's
axiom check, which runs once per distinct relation and site.  On a 2-vCPU
VM a line of the C36 catalog reads in about 30-35 us on a fresh site and
15 us when its relation was checked before.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np

from .enumeration import TransferSystemCatalog
from .errors import (CapExceededError, InputFileError, InternalCheckError,
                     MismatchedSitesError, UsageError)
from .groups import DEFAULT_ORDER_CAP, _read_file, build_group, subgroup_lattice
from .sites import Site, _descriptor_parts, site_from_descriptor, site_from_lattice
from .systems import BinaryRelation, TransferSystem, _labeled_edges


def system_to_dict(ts: TransferSystem) -> dict:
    if ts.site.descriptor is None:
        raise UsageError("cannot serialize a system on a descriptor-less site")
    return {
        "site": ts.site.descriptor,
        "edges": [[a, b] for a, b in _labeled_edges(ts.site, ts.rel)],
    }


def system_from_dict(data: dict, site: Optional[Site] = None,
                     order_cap: int = DEFAULT_ORDER_CAP) -> TransferSystem:
    """The transfer system a JSON object lists; the edges are checked, never completed.

    Every entry must be a pair of strings (InputFileError otherwise); the
    labels are looked up in the site's label index once the site is known,
    so a malformed entry anywhere wins over an unknown label.  A miss
    looks every label up again with ``Site.node``, which reads a bare
    index and names the first unknown label.

    The ``site`` field must be a descriptor string.  Without a given site
    it names the site, built under ``order_cap``; with one, an absent field
    means that site, the given site's own descriptor is taken as is, and
    any other descriptor must rebuild it (``_rebuilds``;
    MismatchedSitesError otherwise), so ``poset:./p.poset`` still matches
    ``poset:p.poset``.

    The listed edges plus the identity must already be a transfer system,
    as the constructor's axiom check (run once per distinct relation and
    site) decides; no closure runs.  When that check fails, or a reflexive
    edge is listed (a flat index on the diagonal; the writer never lists
    one), a listed edge outside the
    order is named, and anything else raises "closure adds edges": being
    explicit beats silently completing a file that claims to be a
    transfer system.
    """
    if not isinstance(data, dict) or "edges" not in data:
        raise InputFileError("system JSON must have an 'edges' field")
    if not isinstance(data["edges"], list) or not all(
        isinstance(e, list) and len(e) == 2 and isinstance(e[0], str) and isinstance(e[1], str)
        for e in data["edges"]
    ):
        raise InputFileError("system JSON 'edges' must be a list of [source, target] labels")
    if "site" in data:
        desc = data["site"]
        if not isinstance(desc, str):
            raise InputFileError("system JSON 'site' must be a descriptor string")
        if site is None:
            site = site_from_descriptor(desc, order_cap)
        elif desc != site.descriptor and not _rebuilds(desc, site, order_cap):
            raise MismatchedSitesError(
                f"system JSON site {desc!r} is not the site {site.descriptor!r}"
            )
    elif site is None:
        raise InputFileError("system JSON must have a 'site' field")
    n, index = site.size, site._label_index
    try:
        flat = [index[src] * n + index[dst] for src, dst in data["edges"]]
    except KeyError:  # a bare index, or an unknown label that ``Site.node`` names
        flat = [site.node(src) * n + site.node(dst) for src, dst in data["edges"]]
    rel = np.eye(n, dtype=bool)
    rel.ravel()[flat] = True
    if not any(f % (n + 1) == 0 for f in flat):  # no listed edge is reflexive
        try:
            return TransferSystem(site, rel)
        except InternalCheckError:
            pass
    BinaryRelation(site, rel)  # a non-refining edge is named first
    raise UsageError("edge list is not a transfer system (closure adds edges)")


def _rebuilds(desc: str, site: Site, order_cap: int = DEFAULT_ORDER_CAP) -> bool:
    """Whether the descriptor rebuilds the site, with the same ``Site.key``.

    Every descriptor is rebuilt under one cap: ``order_cap`` (the CLI's
    ``--max-order``), raised to the default cap and, on a group site, to
    the site's group order, so that a site built past the default cap can
    be named.  The cap never falls below the default, because a ``perms:``
    file may use points above its group's order.  A cap error from the
    rebuild means the descriptor names another site.  Against a group
    site, a plain group descriptor (no ``poset:``, no ``|above:``) first
    builds its group alone: one whose sorted element orders (the row sums
    of ``Group.cyclic``) differ from the site's group's cannot rebuild the
    site and is refused before its subgroup lattice is built: S6's takes
    seconds, against C720's as well as C6's.  A poset or interval site can
    share a group site's key, so every other descriptor is rebuilt in full.
    """
    group = site.lattice.group if site.lattice is not None else None
    cap = max(order_cap, DEFAULT_ORDER_CAP, group.order if group is not None else 0)
    base, labels = _descriptor_parts(desc)
    try:
        if group is None or labels or base.startswith("poset:"):
            return site_from_descriptor(desc, cap).key == site.key
        other = build_group(base, cap)
    except CapExceededError:
        return False
    orders = [sorted(g.cyclic.sum(axis=1).tolist()) for g in (other, group)]
    return orders[0] == orders[1] and site_from_lattice(subgroup_lattice(other)).key == site.key


def load_system(text: str, site: Optional[Site] = None,
                order_cap: int = DEFAULT_ORDER_CAP) -> TransferSystem:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFileError(f"malformed system JSON: {exc}") from None
    return system_from_dict(data, site, order_cap)


def read_system(path: str | Path, site: Optional[Site] = None,
                order_cap: int = DEFAULT_ORDER_CAP) -> TransferSystem:
    """Load a system JSON file; unreadable or malformed files raise InputFileError."""
    return load_system(_read_file(path, "system"), site, order_cap)


def dump_catalog(catalog: TransferSystemCatalog) -> str:
    """JSON-lines, one system per line in canonical order."""
    return "".join(
        json.dumps(system_to_dict(ts), sort_keys=True) + "\n" for ts in catalog.systems
    )
