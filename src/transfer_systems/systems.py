"""Transfer systems: validation, closure operators, generation, and structure.

A transfer system on a site is a reflexive, action-closed, restriction-closed,
transitive relation refining the site's order.  Relations and systems are bit
matrices; the canonical row-major byte string doubles as dedup key, so
equality checks stay cheap during enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .errors import InternalCheckError, MismatchedSitesError, UsageError
from .sites import Site, _bmm


class BinaryRelation:
    """A binary relation refining the site order (not yet a transfer system)."""

    def __init__(self, site: Site, rel: np.ndarray):
        if rel.shape != (site.size, site.size):
            raise UsageError("relation matrix has the wrong shape")
        if np.any(rel & ~site.leq):
            k, h = map(int, np.argwhere(rel & ~site.leq)[0])
            raise UsageError(
                f"edge {site.labels[k]} -> {site.labels[h]} does not refine the order"
            )
        self.site = site
        self.rel = rel.astype(bool)
        self.rel.flags.writeable = False

    @staticmethod
    def from_edges(site: Site, edges: Iterable[tuple[int, int]]) -> "BinaryRelation":
        rel = np.zeros((site.size, site.size), dtype=bool)
        for k, h in edges:
            rel[k, h] = True
        return BinaryRelation(site, rel)

    def edges(self) -> list[tuple[int, int]]:
        return list(map(tuple, np.argwhere(self.rel).tolist()))

    def nonreflexive_edges(self) -> list[tuple[int, int]]:
        return [(a, b) for a, b in self.edges() if a != b]


@dataclass(frozen=True)
class ViolationReport:
    """First violated transfer-system axiom plus witness edges.

    The witness is the lexicographically first one in canonical node order:
    for reflexivity a node; for conjugation (edge, automorphism image edge);
    for restriction (edge, restricting node, missing edge); for composition
    (first edge, second edge, missing composite).
    """

    axiom: str
    witness: tuple

    def describe(self, site: Site) -> str:
        lab = site.labels

        def e(edge):
            return f"{lab[edge[0]]} -> {lab[edge[1]]}"

        if self.axiom == "reflexivity":
            return f"missing reflexive edge at {lab[self.witness[0]]}"
        if self.axiom == "conjugation":
            return f"edge {e(self.witness[0])} present but conjugate {e(self.witness[1])} missing"
        if self.axiom == "restriction":
            edge, l, missing = self.witness
            return f"edge {e(edge)} restricted along {lab[l]} needs missing edge {e(missing)}"
        edge1, edge2, missing = self.witness
        return f"edges {e(edge1)} and {e(edge2)} compose to missing edge {e(missing)}"


class TransferSystem:
    """An immutable transfer system on a site.

    Construct through :func:`validate`, :func:`generate`, or the named
    constructors; the constructor itself re-checks that the relation refines
    the order and satisfies all four axioms, and raises InternalCheckError
    on violation.
    """

    __slots__ = ("site", "rel", "key", "_cache")

    def __init__(self, site: Site, rel: np.ndarray):
        rel = rel.astype(bool)
        outside = rel & ~site.leq
        if np.any(outside):
            k, h = map(int, np.argwhere(outside)[0])
            raise InternalCheckError(
                f"relation is not a transfer system: edge {site.labels[k]} -> "
                f"{site.labels[h]} does not refine the order"
            )
        violation = _first_violation(site, rel)
        if violation is not None:
            raise InternalCheckError(
                f"relation is not a transfer system: {violation.describe(site)}"
            )
        self.site = site
        self.rel = rel
        self.rel.flags.writeable = False
        self.key = self.rel.tobytes()
        self._cache: dict = {}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TransferSystem)
            and self.site.key == other.site.key
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((self.site.key, self.key))

    def __repr__(self) -> str:
        names = ", ".join(
            f"{self.site.labels[a]}>{self.site.labels[b]}" for a, b in self.edges()
        )
        return f"TransferSystem({names or 'trivial'})"

    def edges(self) -> list[tuple[int, int]]:
        """Non-reflexive edges in canonical (src, dst) order."""
        return list(map(tuple, np.argwhere(self.rel & ~np.eye(self.site.size, dtype=bool)).tolist()))

    @property
    def edge_count(self) -> int:
        """|O|: the number of non-reflexive transfers."""
        return int(self.rel.sum()) - self.site.size

    def has_edge(self, k: int, h: int) -> bool:
        return bool(self.rel[k, h])

    def le(self, other: "TransferSystem") -> bool:
        """Containment of transfer systems (refinement order)."""
        _require_same_site(self, other)
        return bool(np.all(~self.rel | other.rel))


def _require_same_site(a, b) -> None:
    if a.site.key != b.site.key:
        raise MismatchedSitesError("operands live on different sites")


# ---------------------------------------------------------------------------
# Axiom checking


def _first_violation(site: Site, rel: np.ndarray) -> Optional[ViolationReport]:
    n = site.size
    diag = np.diag(rel)
    if not np.all(diag):
        return ViolationReport("reflexivity", (int(np.flatnonzero(~diag)[0]),))
    if np.any(_conj(site, rel) & ~rel):
        # name the witness the per-permutation scan finds first
        for p in site.action:
            bad = rel & ~rel[np.ix_(p, p)]
            if np.any(bad):
                k, h = map(int, np.argwhere(bad)[0])
                return ViolationReport("conjugation", ((k, h), (int(p[k]), int(p[h]))))
    # lost[K, L]: K /\ L -> L is missing, so no edge K -> H with L <= H may stay
    lost = ~rel[site.meet, np.arange(n)]
    bad = rel & _bmm(lost, site.leq)
    if np.any(bad):
        k, h = map(int, np.argwhere(bad)[0])
        l = int(np.flatnonzero(lost[k] & site.leq[:, h])[0])
        return ViolationReport("restriction", ((k, h), l, (int(site.meet[k, l]), l)))
    bad = _bmm(rel, rel) & ~rel
    if np.any(bad):
        l, h = map(int, np.argwhere(bad)[0])
        k = int(np.flatnonzero(rel[l] & rel[:, h])[0])
        return ViolationReport("composition", ((l, k), (k, h), (l, h)))
    return None


def validate(candidate: BinaryRelation) -> TransferSystem | ViolationReport:
    """Check the four axioms; violations are returned as data, not raised."""
    violation = _first_violation(candidate.site, candidate.rel)
    if violation is not None:
        return violation
    return TransferSystem(candidate.site, candidate.rel)


# ---------------------------------------------------------------------------
# Closure operators


def _refl(site: Site, rel: np.ndarray) -> np.ndarray:
    return rel | np.eye(site.size, dtype=bool)


def _conj(site: Site, rel: np.ndarray) -> np.ndarray:
    """Orbit closure of rel: an edge is hit iff its orbit meets rel.

    Reads the site's orbit table, so the cost is O(n^2) whatever the size
    of the action.
    """
    hit = np.zeros(site.size * site.size, dtype=bool)
    hit[site.edge_rep[rel]] = True
    return hit[site.edge_rep]


def _res(site: Site, rel: np.ndarray) -> np.ndarray:
    out = rel.copy()
    # restricting some edge K -> H of rel along L <= H gives K /\ L -> L
    k, l = np.nonzero(_bmm(rel, site.leq.T))
    out[site.meet[k, l], l] = True
    return out


def _comp(rel: np.ndarray) -> np.ndarray:
    out = rel
    while True:
        new = out | _bmm(out, out)
        # same shape and dtype; bytes compare far faster than np.array_equal
        if new.tobytes() == out.tobytes():
            return new
        out = new


def _edge_closure(site: Site, edge: tuple[int, int]) -> np.ndarray:
    """R_e = res(conj(refl({e}))): what adding e brings before composition."""
    rel = np.zeros((site.size, site.size), dtype=bool)
    rel[edge] = True
    return _res(site, _conj(site, _refl(site, rel)))


def close_refl(b: BinaryRelation) -> BinaryRelation:
    return BinaryRelation(b.site, _refl(b.site, b.rel))


def close_conj(b: BinaryRelation) -> BinaryRelation:
    return BinaryRelation(b.site, _conj(b.site, b.rel))


def close_res(b: BinaryRelation) -> BinaryRelation:
    return BinaryRelation(b.site, _res(b.site, b.rel))


def close_comp(b: BinaryRelation) -> BinaryRelation:
    return BinaryRelation(b.site, _comp(b.rel))


def generate(b: BinaryRelation) -> TransferSystem:
    """Minimal transfer system containing the relation.

    Single pass of composition(restriction(conjugation(reflexive(B)))); the
    constructor asserts the result satisfies all four axioms.  Conjugation
    and restriction distribute over unions, so for a transfer system O and
    an edge e, generate(O + e) = comp(O | R_e) with R_e = res(conj(refl({e})))
    (see ``_edge_closure``); enumeration extends systems this way.
    """
    site = b.site
    rel = _comp(_res(site, _conj(site, _refl(site, b.rel))))
    return TransferSystem(site, rel)


def generate_from_edges(site: Site, edges: Iterable[tuple[int, int]]) -> TransferSystem:
    return generate(BinaryRelation.from_edges(site, edges))


def _edge_system(site: Site, edge: tuple[int, int]) -> np.ndarray:
    """The relation of T(edge), cached on the site once per edge orbit.

    T(e) is action-closed, so every edge of an orbit generates the same
    system; it is built through ``generate_from_edges`` and so passes the
    constructor's axiom check once per (site, orbit).
    """
    cache = site._cache.setdefault("edge_system", {})
    rep = divmod(int(site.edge_rep[edge]), site.size)
    rel = cache.get(rep)
    if rel is None:
        rel = cache[rep] = generate_from_edges(site, [rep]).rel  # read-only
    return rel


# ---------------------------------------------------------------------------
# Lattice structure on Tr(site) and named systems


def meet_ts(a: TransferSystem, b: TransferSystem) -> TransferSystem:
    """Edgewise intersection (already a transfer system)."""
    _require_same_site(a, b)
    return TransferSystem(a.site, a.rel & b.rel)


def join_ts(a: TransferSystem, b: TransferSystem) -> TransferSystem:
    """Generated by the union of the edge sets."""
    _require_same_site(a, b)
    return generate(BinaryRelation(a.site, a.rel | b.rel))


def trivial_ts(site: Site) -> TransferSystem:
    return TransferSystem(site, np.eye(site.size, dtype=bool))


def complete_ts(site: Site) -> TransferSystem:
    return TransferSystem(site, site.leq.copy())


def tulip_ts(site: Site) -> TransferSystem:
    """All transfers among proper subgroups plus the reflexive top."""
    rel = site.leq.copy()
    rel[:, site.top] = False
    rel[site.top, site.top] = True
    return TransferSystem(site, rel)


# ---------------------------------------------------------------------------
# Saturation, hull, disklike, complexity


class SaturationResult(NamedTuple):
    saturated: bool
    witness: Optional[tuple[int, int, int]]  # (L, K, H) with L->H present, K->H missing


def is_saturated(ts: TransferSystem) -> SaturationResult:
    """Check for triples L <= K <= H with L->H present but K->H missing."""
    site, rel = ts.site, ts.rel
    gap = site.leq & ~rel  # K -> H missing
    reach = _bmm(site.leq, gap)  # exists K >= L with gap
    bad = rel & reach
    if not np.any(bad):
        return SaturationResult(True, None)
    for l, h in ((int(a), int(b)) for a, b in np.argwhere(bad)):
        ks = np.flatnonzero(site.leq[l] & gap[:, h])
        if ks.size:
            return SaturationResult(False, (l, int(ks[0]), h))
    raise InternalCheckError("saturation witness extraction failed")  # pragma: no cover


def hull(ts: TransferSystem) -> TransferSystem:
    """Least saturated transfer system containing ts (fixpoint completion)."""
    site = ts.site
    rel = ts.rel
    while True:
        gap = site.leq & ~rel
        # needed[K,H]: some L <= K has L->H, while K->H is missing
        reach = _bmm(site.leq.T, rel)
        needed = gap & reach
        if not np.any(needed):
            out = TransferSystem(site, rel)
            if not is_saturated(out).saturated:
                raise InternalCheckError("hull fixpoint is not saturated")
            return out
        rel = _comp(_res(site, _conj(site, _refl(site, rel | needed))))


def disklike_generators(ts: TransferSystem) -> list[tuple[int, int]]:
    """The maximal candidate generator set: all non-reflexive edges into top."""
    top = ts.site.top
    return [(int(h), top) for h in np.flatnonzero(ts.rel[:, top]) if h != top]


def is_disklike(ts: TransferSystem) -> bool:
    """True iff ts is generated by its transfers into the top node (cached per system)."""
    disklike = ts._cache.get("disklike")
    if disklike is None:
        disklike = generate_from_edges(ts.site, disklike_generators(ts)) == ts
        ts._cache["disklike"] = disklike
    return disklike


def complexity(ts: TransferSystem, bound: int = 4) -> Optional[int]:
    """Minimum size of a generating edge set, or None if it exceeds bound.

    Write T(e) for the system generated by e.  If S generates ts, e is in S
    and T(e) <= T(e') for an edge e' of ts, then S - e + e' still generates
    ts.  So only edges with maximal T(e) are tried, one per class of equal
    T(e) (T(g.e) = T(e), so one edge per orbit is read), in subsets of
    increasing cardinality, each closed as comp of the union of its T(e).
    """
    if bound < 0:
        raise UsageError("complexity bound must be >= 0")
    classes: dict[bytes, tuple] = {}
    for e in ts.site.orbit_representatives(ts.edges()):
        t = _edge_system(ts.site, e)
        classes.setdefault(t.tobytes(), (e, t))
    if not classes:
        return 0
    edges, systems = zip(*classes.values())
    # T(e_i) <= T(e_j) iff e_i lies in T(e_j): T(e_i) is maximal iff no other T holds e_i
    holders = sum(t[tuple(np.array(edges).T)] for t in systems)
    maximal = [t for t, n in zip(systems, holders) if n == 1]
    for k in range(1, bound + 1):
        for subset in combinations(maximal, k):
            if _comp(np.logical_or.reduce(subset)).tobytes() == ts.key:
                return k
    return None


def count_cover_relations(ts: TransferSystem) -> int:
    """C_O: cover relations in the restriction poset of ts."""
    from .restriction import restriction_poset

    return restriction_poset(ts).cover_count
