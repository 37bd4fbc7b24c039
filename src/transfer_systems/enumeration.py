"""Exhaustive enumeration of Tr(site), censuses, and the verification harnesses.

Both enumerators run one worklist BFS over single-edge additions: every
transfer system is reachable from the trivial one because generation is
monotone and idempotent.  The closure R_e of each added edge e (orbit
representatives only) is precomputed once, so a step is one composition
closure, comp(O | R_e), which equals generate(O + e) for a transfer system
O.  Dedup happens on the canonical bit-string key before anything is built;
the full axiom check runs once per newly found system.  The catalog order
is canonical (edge count, then key bytes), so runs are reproducible
regardless of expansion order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional

from .compat import (
    conjecture_formula,
    is_compatible,
    max_compat_disklike,
    max_compat_oracle,
    max_compat_recursive,
)
from .errors import CapExceededError, InternalCheckError
from .restriction import restriction_poset
from .sites import Site
from .systems import (
    TransferSystem,
    _comp,
    _edge_closure,
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

    def index_of(self, ts: TransferSystem) -> int:
        key = ts.key
        for i, s in enumerate(self.systems):
            if s.key == key:
                return i
        raise KeyError("system not in catalog")

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
) -> list[TransferSystem]:
    """Systems reachable from ``start`` by adding edges, in canonical order.

    ``message`` is formatted with ``cap`` and ``count`` when more than
    ``cap`` systems turn up.
    """
    closures = [(e, _edge_closure(site, e)) for e in edges]
    seen: dict[bytes, TransferSystem] = {start.key: start}
    queue = deque([start.rel])
    while queue:
        current = queue.popleft()
        for e, r_e in closures:
            if current[e]:
                continue
            rel = _comp(current | r_e)
            key = rel.tobytes()
            if key in seen:
                continue
            if len(seen) >= cap:
                raise CapExceededError(message.format(cap=cap, count=len(seen)))
            seen[key] = TransferSystem(site, rel)
            queue.append(rel)
    return _canonical(seen.values())


def _canonical(systems: Iterable[TransferSystem]) -> list[TransferSystem]:
    return sorted(systems, key=lambda s: (s.edge_count, s.key))


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
        return {
            "site": self.site,
            "total": self.total,
            "disklike_total": self.disklike_total,
            "disagreements": [
                {"index": d.index, "edges": d.edges, "kind": d.kind, "detail": d.detail}
                for d in self.disagreements
            ],
            "max_step_ratio": self.max_step_ratio,
            "ok": self.ok,
        }


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
            c_o = restriction_poset(ts).cover_count
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

    With ``max_generators`` set, candidates are closures of generator sets of
    at most that many transfers into top (such systems have complexity at
    most the bound); otherwise a BFS over single top-edge additions yields
    all disklike systems.  ``require_bottom_to_top`` keeps only systems
    containing the universal transfer bottom -> top.
    """
    top = site.top
    top_edges = [(int(h), top) for h in range(site.size) if h != top]
    universal = (site.bottom, top)
    if max_generators is not None:
        found: dict[bytes, TransferSystem] = {}
        # generator sets that differ by the action generate the same system
        subset_keys: set[tuple] = set()
        for k in range(max_generators + 1):
            for subset in combinations(top_edges, k):
                key = site.subset_orbit_key(subset)
                if key in subset_keys:
                    continue
                subset_keys.add(key)
                ts = generate_from_edges(site, subset)
                found.setdefault(ts.key, ts)
        systems = _canonical(found.values())
    else:
        seed_edges = [universal] if require_bottom_to_top else []
        systems = _bfs(
            site,
            generate_from_edges(site, seed_edges),
            site.orbit_representatives(top_edges),
            cap,
            "disklike enumeration cap {cap} exceeded",
        )
    if require_bottom_to_top:
        systems = [s for s in systems if s.rel[universal]]
    return systems


@dataclass
class ConjectureCase:
    site: str
    system_edges: list[tuple[str, str]]
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
        return {
            "scopes": self.scopes,
            "systems_checked": self.systems_checked,
            "counterexamples": [
                {
                    "site": c.site,
                    "system": c.system_edges,
                    "formula_only": c.formula_only,
                    "missing": c.missing,
                }
                for c in self.counterexamples
            ],
            "ok": self.ok,
        }


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
            formula = conjecture_formula(ts)
            truth = frozenset(max_compat_recursive(ts).edges())
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
