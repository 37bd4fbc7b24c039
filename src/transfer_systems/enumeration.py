"""Exhaustive enumeration of Tr(site), censuses, and the verification harnesses.

Both enumerators run one level-by-level BFS over single-edge additions:
every transfer system is reachable from the trivial one because generation
is monotone and idempotent.  The closure R_e of each added edge e is
precomputed once, so extending a system O by e is one composition closure,
comp(O | R_e), which equals generate(O + e) for a transfer system O.
Generators count only up to their orbit (T(g.e) = T(e) contains e, so
generate(S + g.e) = generate(S + e)), so each level adds orbit
representatives only, and k levels reach exactly the systems generated by
at most k of the edges.

A level runs on stacks.  Its candidates O | R_e, for every frontier system
O and every edge e not in O, frontier-major and edge-minor, are closed in
blocks of ``_STACK_ENTRIES`` bool entries: a step is one stacked closure
per block.  Dedup happens on the canonical bit-string key before anything
is built, in candidate order, so the cap fires at the same count as a
per-candidate loop would.  The level's new systems then pass the full
axiom check in stacked blocks, the check the constructor runs on one
relation.  The catalog order is canonical (edge count, then key bytes),
so runs are reproducible regardless of expansion order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Iterable, Optional

import numpy as np

from .compat import (
    _blocked,
    _conjecture_formula,
    _max_compat_recursive,
    is_compatible,
    max_compat_disklike,
    max_compat_oracle,
    max_compat_recursive,
)
from .errors import CapExceededError, InternalCheckError, UsageError
from .sites import Site
from .systems import (
    _STACK_ENTRIES,
    TransferSystem,
    _comp,
    _edge_closure,
    count_cover_relations,
    generate_from_edges,
    is_disklike,
    is_saturated,
    trivial_ts,
)

DEFAULT_ENUMERATION_CAP = 200_000


@dataclass
class CensusStats:
    total: int
    saturated: int
    disklike: int
    both: int
    self_compatible: int

    def summary(self) -> str:
        return (
            f"total={self.total} saturated={self.saturated} "
            f"disklike={self.disklike} both={self.both}"
        )


@dataclass
class TransferSystemCatalog:
    """Deduplicated, canonically ordered enumeration of Tr(site)."""

    site: Site
    systems: list[TransferSystem]
    _stats: Optional[CensusStats] = field(default=None, repr=False)
    _m_pairing: Optional[list[int]] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.systems)

    @property
    def stats(self) -> CensusStats:
        if self._stats is None:
            self._stats = census(self)
        return self._stats

    @property
    def m_pairing(self) -> list[int]:
        """For each catalog index i, the catalog index of M(systems[i])."""
        if self._m_pairing is None:
            by_key = {s.key: i for i, s in enumerate(self.systems)}
            pairing = []
            for s in self.systems:
                m = max_compat_recursive(s)
                if m.key not in by_key:
                    raise InternalCheckError("M(O) escaped the catalog")
                pairing.append(by_key[m.key])
            self._m_pairing = pairing
        return self._m_pairing


def enumerate_all(site: Site, cap: int = DEFAULT_ENUMERATION_CAP) -> TransferSystemCatalog:
    """Every transfer system on the site, exactly once.

    Expansion adds one orbit representative at a time: a system is
    action-closed, so adding any edge of an orbit closes to the same result.
    """
    systems = _bfs(
        site,
        trivial_ts(site),
        site.orbit_representatives(site.pairs),
        cap,
        "enumeration cap {cap} exceeded (partial count {count})",
    )
    return TransferSystemCatalog(site, systems)


def _bfs(
    site: Site,
    start: TransferSystem,
    edges: list[tuple[int, int]],
    cap: int,
    message: str,
    depth: Optional[int] = None,
) -> list[TransferSystem]:
    """Systems reachable from ``start`` by adding edges, in canonical order.

    With ``depth`` set, at most that many edges are added.  ``message`` is
    formatted with ``cap`` and ``count`` when more than ``cap`` systems
    turn up.
    """
    n = site.size
    closures = np.array([_edge_closure(site, e) for e in edges], dtype=bool).reshape(-1, n, n)
    edge_flat = np.array([k * n + h for k, h in edges], dtype=np.intp)
    as_key = np.dtype((np.void, n * n))  # one row's bytes: .tolist() gives the keys
    step = max(1, _STACK_ENTRIES // (n * n))
    seen = {start.key}
    ranked = [(start.edge_count, start.key, start)]
    frontier = start.rel[None]
    level = 0
    while len(frontier) and (depth is None or level < depth):
        level += 1
        # (system, edge) pairs without the edge, frontier-major and edge-minor
        fi, ei = np.nonzero(~frontier.reshape(len(frontier), n * n)[:, edge_flat])
        found: list[bytes] = []
        for lo in range(0, len(fi), step):
            block = _comp(frontier[fi[lo : lo + step]] | closures[ei[lo : lo + step]])
            keys = block.reshape(len(block), n * n).view(as_key).ravel().tolist()
            # the block's new keys, each once, in candidate order
            new = dict.fromkeys(k for k in keys if k not in seen)
            if len(seen) + len(new) > cap:
                raise CapExceededError(message.format(cap=cap, count=max(cap, len(seen))))
            seen.update(new)
            found += new
        # rows copied out of the keys: no candidate block outlives its step
        frontier = np.frombuffer(b"".join(found), dtype=bool).reshape(-1, n, n)
        counts = np.count_nonzero(frontier.reshape(len(frontier), n * n), axis=1) - n
        ranked += zip(counts.tolist(), found, TransferSystem._from_stack(site, frontier, found))
    # the canonical order: edge count, then key bytes (keys are distinct)
    return [ts for _, _, ts in sorted(ranked)]


def census(catalog: TransferSystemCatalog) -> CensusStats:
    """Counts of saturated / disklike / both / self-compatible systems.

    Saturated and self-compatible counts must agree; a mismatch means a bug,
    so it is raised rather than reported.
    """
    saturated = disklike = both = selfc = 0
    for ts in catalog.systems:
        sat = is_saturated(ts).saturated
        disk = is_disklike(ts)
        saturated += sat
        disklike += disk
        both += sat and disk
        selfc += is_compatible(ts, ts).compatible
    if selfc != saturated:
        raise InternalCheckError(
            f"self-compatible count {selfc} != saturated count {saturated}"
        )
    return CensusStats(len(catalog.systems), saturated, disklike, both, selfc)


# ---------------------------------------------------------------------------
# Cross-method audit


@dataclass
class AuditEntry:
    index: int
    edges: list[tuple[str, str]]
    kind: str  # which methods disagreed
    detail: str


@dataclass
class AuditReport:
    site: str
    total: int
    disklike_total: int
    disagreements: list[AuditEntry]
    max_step_ratio: float  # max over disklike systems of steps / C_O (C_O > 0)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def to_json(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def _labeled_edges(ts: TransferSystem) -> list[tuple[str, str]]:
    lab = ts.site.labels
    return [(lab[a], lab[b]) for a, b in ts.edges()]


def cross_method_audit(catalog: TransferSystemCatalog) -> AuditReport:
    """Agreement of oracle, recursive, and (where disklike) worklist M(O).

    Any disagreement is recorded with a full witness dump; the step counter
    of the disklike algorithm is checked against the cover-relation count.
    """
    disagreements: list[AuditEntry] = []
    max_ratio = 0.0
    disklike_total = 0
    for i, ts in enumerate(catalog.systems):
        oracle = max_compat_oracle(ts)
        recursive = max_compat_recursive(ts)
        if oracle != recursive:
            disagreements.append(
                AuditEntry(
                    i,
                    _labeled_edges(ts),
                    "oracle-vs-recursive",
                    f"oracle={_labeled_edges(oracle)} recursive={_labeled_edges(recursive)}",
                )
            )
        if is_disklike(ts):
            disklike_total += 1
            result = max_compat_disklike(ts)
            if result.system != oracle:
                disagreements.append(
                    AuditEntry(
                        i,
                        _labeled_edges(ts),
                        "algorithm-vs-oracle",
                        f"algorithm={_labeled_edges(result.system)} oracle={_labeled_edges(oracle)}",
                    )
                )
            c_o = count_cover_relations(ts)
            if c_o == 0:
                if result.steps != 0:
                    disagreements.append(
                        AuditEntry(i, _labeled_edges(ts), "steps", f"steps={result.steps} with C_O=0")
                    )
            else:
                max_ratio = max(max_ratio, result.steps / c_o)
    desc = catalog.site.descriptor or f"<site size {catalog.site.size}>"
    return AuditReport(desc, len(catalog.systems), disklike_total, disagreements, max_ratio)


# ---------------------------------------------------------------------------
# Disklike scopes and the conjecture harness


def disklike_systems(
    site: Site,
    max_generators: Optional[int] = None,
    require_bottom_to_top: bool = False,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[TransferSystem]:
    """Disklike transfer systems on the site, deduplicated, canonical order.

    The BFS over top-edge orbit representatives.  With ``max_generators``
    set it runs that many levels from the trivial system, which yields
    exactly the systems generated by at most that many transfers into top
    (complexity at most the bound); otherwise it yields all disklike
    systems.  ``require_bottom_to_top`` keeps only systems containing the
    universal transfer bottom -> top.
    """
    if max_generators is not None and max_generators < 0:
        raise UsageError("complexity bound must be >= 0")
    top = site.top
    top_edges = [(int(h), top) for h in range(site.size) if h != top]
    universal = (site.bottom, top)
    seed = [universal] if require_bottom_to_top and max_generators is None else []
    systems = _bfs(
        site,
        generate_from_edges(site, seed),
        site.orbit_representatives(top_edges),
        cap,
        "disklike enumeration cap {cap} exceeded",
        max_generators,
    )
    if require_bottom_to_top:
        systems = [s for s in systems if s.rel[universal]]
    return systems


@dataclass
class ConjectureCase:
    site: str
    system: list[tuple[str, str]]
    formula_only: list[tuple[str, str]]  # edges the conjectured formula keeps but M drops
    missing: list[tuple[str, str]]  # edges M keeps but the formula drops


@dataclass
class ConjectureReport:
    scopes: list[str]
    systems_checked: int
    counterexamples: list[ConjectureCase]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def verify_conjecture(
    sites: Iterable[Site],
    complexity_bound: Optional[int] = None,
    require_bottom_to_top: bool = False,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> ConjectureReport:
    """Compare the conjectured formula with the recursive M over disklike scopes.

    For each disklike system in scope the conjectured one-shot formula is
    evaluated as a raw edge set and compared with the edge set of the true
    maximal compatible system; every mismatch is reported with both
    directions of the difference.
    """
    scopes: list[str] = []
    checked = 0
    cases: list[ConjectureCase] = []
    for site in sites:
        desc = site.descriptor or f"<site size {site.size}>"
        scopes.append(desc)
        for ts in disklike_systems(site, complexity_bound, require_bottom_to_top, cap):
            checked += 1
            blocked = _blocked(ts)  # shared by the formula and the recursion
            formula = _conjecture_formula(ts, blocked)
            truth = frozenset(_max_compat_recursive(ts, blocked).edges())
            if formula != truth:
                lab = site.labels

                def named(edges: Iterable[tuple[int, int]]) -> list[tuple[str, str]]:
                    return sorted((lab[a], lab[b]) for a, b in edges)

                cases.append(
                    ConjectureCase(
                        desc,
                        named(ts.edges()),
                        named(formula - truth),
                        named(truth - formula),
                    )
                )
    return ConjectureReport(scopes, checked, cases)
