"""Exhaustive enumeration of Tr(site), censuses, and the verification harnesses.

Both enumerators run one level-by-level BFS over single-edge additions:
every transfer system is reachable from the trivial one because generation
is monotone and idempotent.  The closures R_e of the added edges are
precomputed once per call, as one stack from ``systems._edge_closures``, so
extending a system O by e is one composition closure, comp(O | R_e), which
equals generate(O + e) for a transfer system O.
Generators count only up to their orbit (T(g.e) = T(e) contains e, so
generate(S + g.e) = generate(S + e)), so each level adds orbit
representatives only, and k levels reach exactly the systems generated by
at most k of the edges.  The BFS takes its edges as flat indices
``k * n + h``, and the representatives are the least edges of their
orbits, read from the site's one table ``Site.orbit_reps`` in row-major
order: ``np.flatnonzero(site.orbit_reps)`` for the catalog, and the
table's column at top for the disklike scope.  A row-major scan meets
each orbit first at its least edge, so this is the order in which a scan
of the pairs would first meet the orbits.

The levels come from the package's one breadth-first search,
``groups._levels``, which also closes permutation groups; the BFS here
supplies the candidate blocks and ranks what the levels bring.  A level
runs on stacks.  Its candidates O | R_e, for every frontier system O and
every edge e not in O, frontier-major and edge-minor, are closed in
blocks of ``_STACK_ENTRIES`` bool entries, cut by ``systems._block_slices``
as every stack is: a step is one stacked closure per block.  Dedup
happens on the canonical bit-string key (``groups._row_keys``) before
anything is built, in candidate order, so the cap fires at the same count
as a per-candidate loop would.  The level's new systems then pass the
full axiom check in stacked blocks, the check the constructor runs on one
relation, and join the site's memo of checked relations.  The
catalog order is canonical (edge count, then key bytes), so runs are
reproducible regardless of expansion order.

The sweeps over a list of systems (``census``, ``cross_method_audit``,
``TransferSystemCatalog.m_pairing`` and ``verify_conjecture``) read it
through one walk, ``_blocks``, in blocks of ``_STACK_ENTRIES`` bool
entries too, in catalog order.  Per block it yields the index of the
block's first system, the block's systems, their (B, n, n) stack and the
stack's ``blocked``, computed once and shared by every kernel of the
sweep.  Saturation, self-compatibility, the disklike test, the
conjectured formula and the three M(O) methods are each one stacked
kernel per block; the cover-relation algorithm, the independent third
method, runs on the block's disklike rows only.  Every M(O) stack passes
the stacked axiom check, and every disagreement is reported at its
catalog index.  Every edge list in a report is
``systems._labeled_edges`` of a relation: its non-reflexive pairs as
labels, in node order (sorted by label in the conjecture report).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Optional

import numpy as np

from .compat import _blocked, _cover_pass, _formula, _oracle, _recursive
from .errors import CapExceededError, InternalCheckError, UsageError
from .groups import _levels, _row_keys
from .sites import Site
from .systems import (
    TransferSystem,
    _block_disklike,
    _block_slices,
    _check_stack,
    _comp,
    _cover_counts,
    _edge_closures,
    _labeled_edges,
    _unsaturated,
    generate_from_edges,
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

    def __len__(self) -> int:
        return len(self.systems)

    @cached_property
    def stats(self) -> CensusStats:
        return census(self)

    @cached_property
    def m_pairing(self) -> list[int]:
        """For each catalog index i, the catalog index of M(systems[i])."""
        site = self.site
        by_key = {s.key: i for i, s in enumerate(self.systems)}
        pairing = []
        for _, _, rels, blocked in _blocks(site, self.systems):
            maximal = _recursive(site, rels, blocked)
            _check_stack(site, maximal)
            for key in _row_keys(maximal).tolist():
                if key not in by_key:
                    raise InternalCheckError("M(O) escaped the catalog")
                pairing.append(by_key[key])
        return pairing


def enumerate_all(site: Site, cap: int = DEFAULT_ENUMERATION_CAP) -> TransferSystemCatalog:
    """Every transfer system on the site, exactly once.

    Expansion adds one orbit representative at a time: a system is
    action-closed, so adding any edge of an orbit closes to the same result.
    """
    systems = _bfs(
        site,
        trivial_ts(site),
        np.flatnonzero(site.orbit_reps),
        cap,
        "enumeration cap {cap} exceeded (partial count {count})",
    )
    return TransferSystemCatalog(site, systems)


def _bfs(
    site: Site,
    start: TransferSystem,
    edge_flat: np.ndarray,
    cap: int,
    message: str,
    depth: Optional[int] = None,
) -> list[TransferSystem]:
    """Systems reachable from ``start`` by adding edges, in canonical order.

    ``edge_flat`` holds the flat indices ``k * n + h`` of the edges to add,
    in the order the candidates try them.  The levels are those of
    ``groups._levels`` from ``start``: each frontier's candidate blocks
    are the stacked closures comp(O | R_e), and each level's systems are
    built from its stack and keys (``TransferSystem._from_stack``) and
    ranked.  With ``depth`` set, only the first ``depth`` levels run, so
    at most that many edges are added.  ``message`` is formatted with
    ``cap`` and ``count`` when more than ``cap`` systems turn up.
    """
    n = site.size
    closures = _edge_closures(site, edge_flat)

    def expand(frontier: np.ndarray) -> Iterator[np.ndarray]:
        # (system, edge) pairs without the edge, frontier-major and edge-minor
        fi, ei = np.nonzero(~frontier.reshape(len(frontier), n * n)[:, edge_flat])
        for part in _block_slices(site, len(fi)):
            yield _comp(frontier[fi[part]] | closures[ei[part]])

    levels = _levels(start.rel[None], expand, cap,
                     lambda count: CapExceededError(message.format(cap=cap, count=count)))
    ranked = [(start.edge_count, start.key, start)]
    for frontier, keys in islice(levels, depth):
        counts = np.count_nonzero(frontier.reshape(len(frontier), n * n), axis=1) - n
        ranked += zip(counts.tolist(), keys, TransferSystem._from_stack(site, frontier, keys))
    # the canonical order: edge count, then key bytes (keys are distinct)
    return [ts for _, _, ts in sorted(ranked)]


def _blocks(
    site: Site, systems: list[TransferSystem]
) -> Iterator[tuple[int, list[TransferSystem], np.ndarray, np.ndarray]]:
    """The one walk of the sweeps, per block of ``systems._block_slices``.

    Yields (index of the block's first system, the block's systems, their
    (B, n, n) stack, the stack's ``compat._blocked``).
    """
    for part in _block_slices(site, len(systems)):
        block = systems[part]
        rels = np.stack([ts.rel for ts in block])
        yield part.start, block, rels, _blocked(site, rels)


def _none(stack: np.ndarray) -> np.ndarray:
    """none[b]: relation b of a (B, n, n) stack is empty."""
    return ~stack.reshape(len(stack), -1).any(axis=1)


def census(catalog: TransferSystemCatalog) -> CensusStats:
    """Counts of saturated / disklike / both / self-compatible systems.

    Saturated and self-compatible counts must agree; a mismatch means a bug,
    so it is raised rather than reported.
    """
    site = catalog.site
    saturated = disklike = both = selfc = 0
    for _, block, rels, blocked in _blocks(site, catalog.systems):
        sat = _none(_unsaturated(site, rels))
        disk = _block_disklike(site, block, rels)
        saturated += int(sat.sum())
        disklike += int(disk.sum())
        both += int((sat & disk).sum())
        selfc += int(_none(rels & blocked).sum())  # (O, O) compatible
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


def cross_method_audit(catalog: TransferSystemCatalog) -> AuditReport:
    """Agreement of oracle, recursive, and (where disklike) cover-relation M(O).

    Each method is one stacked kernel per block of ``_blocks``; the
    cover-relation algorithm, ``compat._cover_pass``, runs on the block's
    disklike rows, and its stack passes the axiom check like the other two.
    Any disagreement is recorded with a full witness dump; the step counter
    of the disklike algorithm is checked against the cover-relation count
    (``systems._cover_counts``).  A system's findings are collected as
    (kind, detail) pairs, in the order oracle-vs-recursive,
    algorithm-vs-oracle, steps; a disagreement of two methods x and y is
    kind "x-vs-y" with detail "x=<edges> y=<edges>" (``versus``).  The
    pairs become the system's ``AuditEntry`` records in one place, so its
    edge list is built only when something is recorded.
    """
    site = catalog.site
    disagreements: list[AuditEntry] = []
    max_ratio = 0.0
    disklike_total = 0

    def versus(x: str, rx: np.ndarray, y: str, ry: np.ndarray) -> tuple[str, str]:
        return f"{x}-vs-{y}", f"{x}={_labeled_edges(site, rx)} {y}={_labeled_edges(site, ry)}"

    for lo, block, rels, blocked in _blocks(site, catalog.systems):
        oracle = _oracle(site, rels, blocked)
        recursive = _recursive(site, rels, blocked)
        _check_stack(site, oracle)
        _check_stack(site, recursive)
        differ = ~_none(oracle != recursive)
        disk = np.flatnonzero(_block_disklike(site, block, rels))
        disklike_total += len(disk)
        wrong = np.zeros(len(block), dtype=bool)  # the algorithm's M(O) is not the oracle's
        stray = np.zeros(len(block), dtype=np.intp)  # steps taken where C_O = 0
        if len(disk):
            maximal, steps = _cover_pass(site, rels[disk])  # one row per disklike row
            _check_stack(site, maximal)
            wrong[disk] = ~_none(maximal != oracle[disk])
            c_o = _cover_counts(site, rels[disk])
            if c_o.any():
                max_ratio = max(max_ratio, float((steps[c_o > 0] / c_o[c_o > 0]).max()))
            stray[disk] = np.where(c_o == 0, steps, 0)
        for b in np.flatnonzero(differ | wrong | (stray > 0)).tolist():
            found = []  # (kind, detail) per disagreement, in method order
            if differ[b]:
                found.append(versus("oracle", oracle[b], "recursive", recursive[b]))
            if wrong[b]:
                algorithm = maximal[np.searchsorted(disk, b)]  # disk is sorted
                found.append(versus("algorithm", algorithm, "oracle", oracle[b]))
            if stray[b]:
                found.append(("steps", f"steps={int(stray[b])} with C_O=0"))
            edges = _labeled_edges(site, rels[b])
            for kind, detail in found:
                disagreements.append(AuditEntry(lo + b, edges, kind, detail))
    desc = site.descriptor or f"<site size {site.size}>"
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
    n, top = site.size, site.top
    universal = (site.bottom, top)
    seed = [universal] if require_bottom_to_top and max_generators is None else []
    systems = _bfs(
        site,
        generate_from_edges(site, seed),
        np.flatnonzero(site.orbit_reps[:, top]) * n + top,
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
        systems = disklike_systems(site, complexity_bound, require_bottom_to_top, cap)
        for _, _, rels, blocked in _blocks(site, systems):
            checked += len(rels)
            formula = _formula(site, rels, blocked)
            truth = _recursive(site, rels, blocked)
            _check_stack(site, truth)
            for b in np.flatnonzero(~_none(formula != truth)).tolist():
                cases.append(
                    ConjectureCase(
                        desc,
                        sorted(_labeled_edges(site, rels[b])),
                        sorted(_labeled_edges(site, formula[b] & ~truth[b])),
                        sorted(_labeled_edges(site, truth[b] & ~formula[b])),
                    )
                )
    return ConjectureReport(scopes, checked, cases)
