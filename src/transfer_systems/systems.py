"""Transfer systems: validation, closure operators, generation, and structure.

A transfer system on a site is a reflexive, action-closed, restriction-closed,
transitive relation refining the site's order.  Relations and systems are bit
matrices; the canonical row-major byte string doubles as dedup key, so
equality checks stay cheap during enumeration.  Each site remembers the keys
of the relations that passed the axiom check on it, whichever path checked
them: the constructor, the enumerators' BFS or the T(e) cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .errors import InternalCheckError, MismatchedSitesError, UsageError
from .groups import _count, _row_keys
from .sites import Site, _bmm


class BinaryRelation:
    """A binary relation refining the site order (not yet a transfer system)."""

    def __init__(self, site: Site, rel: np.ndarray):
        if rel.shape != (site.size, site.size):
            raise UsageError("relation matrix has the wrong shape")
        if np.any(rel & ~site.leq):
            raise UsageError(_violation_text(site, rel))  # names the first such edge
        self.site = site
        self.rel = rel.astype(bool)
        self.rel.flags.writeable = False

    @staticmethod
    def from_edges(site: Site, edges: Iterable[tuple[int, int]]) -> "BinaryRelation":
        return BinaryRelation(site, _scatter(site, edges))

    def edges(self) -> list[tuple[int, int]]:
        return list(map(tuple, np.argwhere(self.rel).tolist()))


def _scatter(site: Site, edges: Iterable[tuple[int, int]]) -> np.ndarray:
    """A writable n-by-n bool matrix with exactly the (k, h) entries of ``edges`` set."""
    idx = np.array(list(edges), dtype=np.intp).reshape(-1, 2)
    rel = np.zeros((site.size, site.size), dtype=bool)
    rel[idx[:, 0], idx[:, 1]] = True
    return rel


def _nonreflexive_pairs(rel: np.ndarray) -> list[tuple[int, int]]:
    """The pairs (a, b) with a != b of an n-by-n relation, in node (row-major) order.

    Read off the flat indices of the relation's entries, with no identity
    matrix.  Every edge list the package returns or prints comes from here:
    ``TransferSystem.edges``, ``_labeled_edges`` and
    ``compat.conjecture_formula``.
    """
    a, b = np.divmod(np.flatnonzero(rel), len(rel))
    keep = a != b
    return list(zip(a[keep].tolist(), b[keep].tolist()))


def _labeled_edges(site: Site, rel: np.ndarray) -> list[tuple[str, str]]:
    """``_nonreflexive_pairs`` of an n-by-n relation as (source, target) labels.

    Every printed edge list reads this: the CLI's, a system file's, a
    system's ``repr`` and every report's.
    """
    lab = site.labels
    return [(lab[a], lab[b]) for a, b in _nonreflexive_pairs(rel)]


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
    constructors; the constructor itself checks that the relation refines
    the order and satisfies all four axioms, and raises InternalCheckError
    on violation; a relation of any shape but n-by-n raises UsageError
    first.  The check is ``_check_stack`` on a stack of one, called
    directly and run once per distinct relation on each site object: the
    site keeps the keys of the relations that passed it in
    ``_cache["checked"]``, a key joins only after its check passes, so a
    relation that fails raises on every construction.  The enumerators'
    BFS runs the same check on each level's new systems in blocks
    (``_check_blocks``) and wraps their relations through ``_from_stack``
    instead of one constructor call per system; the T(e) cache checks its
    stack the same way.  Both add their keys to the memo, so constructing
    a system either of them found checks nothing again.
    """

    __slots__ = ("site", "rel", "key", "_cache")

    def __init__(self, site: Site, rel: np.ndarray):
        if rel.shape != (site.size, site.size):  # no other shape may match a key
            raise UsageError("relation matrix has the wrong shape")
        rel = rel.astype(bool)
        key = rel.tobytes()
        checked = site._cache.setdefault("checked", set())
        if key not in checked:
            _check_stack(site, rel[None])
            checked.add(key)
        rel.flags.writeable = False
        self.site = site
        self.rel = rel
        self.key = key
        self._cache: dict = {}

    @classmethod
    def _from_stack(
        cls, site: Site, rels: np.ndarray, keys: list[bytes]
    ) -> list["TransferSystem"]:
        """Systems for the relations of a (B, n, n) bool stack, checked in blocks.

        ``keys[i]`` must be ``rels[i].tobytes()``: the BFS shares its dedup
        keys this way.  ``_check_blocks`` makes the stack read-only, and
        each system's ``rel`` is a view into it.
        """
        _check_blocks(site, rels, keys)
        out = []
        for rel, key in zip(rels, keys):
            ts = cls.__new__(cls)
            ts.site, ts.rel, ts.key, ts._cache = site, rel, key, {}
            out.append(ts)
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TransferSystem)
            and self.site.key == other.site.key
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((self.site.key, self.key))

    def __repr__(self) -> str:
        names = ", ".join(f"{a}>{b}" for a, b in _labeled_edges(self.site, self.rel))
        return f"TransferSystem({names or 'trivial'})"

    def edges(self) -> list[tuple[int, int]]:
        """Non-reflexive edges in canonical (src, dst) order: ``_nonreflexive_pairs`` of ``rel``."""
        return _nonreflexive_pairs(self.rel)

    @property
    def edge_count(self) -> int:
        """|O|: the number of non-reflexive transfers."""
        return int(self.rel.sum()) - self.site.size

    def le(self, other: "TransferSystem") -> bool:
        """Containment of transfer systems (refinement order)."""
        _require_same_site(self.site, other.site)
        return bool(np.all(~self.rel | other.rel))


def _require_same_site(
    a: Site, b: Site, message: str = "operands live on different sites"
) -> None:
    if a.key != b.key:
        raise MismatchedSitesError(message)


# ---------------------------------------------------------------------------
# Axiom checking


# Bool entries per stacked block: the candidates of one enumeration step,
# and the systems of one stacked axiom check.  Timed with NumPy 2.4 on
# OpenBLAS 0.3.31 (2 vCPUs), medians of three runs: 2**15 (404 candidates
# on a 9-node site, 36 on S4's 30 nodes, one on S5's 156) was the fastest
# for the catalog benchmark's pass (0.033 s), S4's enumerate_all (0.78 s)
# and S5's disklike scope at complexity <= 1 (17 ms).  2**13 took 0.050 s
# and 1.39 s; 2**16 and 2**17 took 1.14 and 1.89 s on S4 and 25 and 29 ms
# on S5, whose float32 products then allocate 256 KB and more per call, and
# raised the catalog pass's peak RSS by 0.5 and 2 MB.
_STACK_ENTRIES = 1 << 15


def _block_slices(site: Site, count: int) -> Iterator[slice]:
    """Slices that cut ``count`` stacked n-by-n relations into blocks of ``_STACK_ENTRIES`` entries.

    Every stacked loop, the BFS and the sweeps, blocks its stack this way.
    """
    step = max(1, _STACK_ENTRIES // site.size**2)
    return (slice(lo, lo + step) for lo in range(0, count, step))


def _check_stack(site: Site, rels: np.ndarray) -> None:
    """Raise InternalCheckError unless every relation of the stack is a transfer system.

    ``rels`` is a (B, n, n) bool stack.  Every relation must refine the
    order and satisfy the four axioms; each test runs once on the whole
    stack: reflexivity against the diagonal, conjugation as "constant on
    every orbit" (``flat == take(flat, edge_rep)``), restriction through
    ``meet_flat`` and composition through ``_bmm``.  The order and all but
    reflexivity share one mask, reduced over the whole stack with one ``any``
    (and the diagonal with one ``all``); only after something failed is
    it reduced per relation, so the message names the first failing
    relation's witness, as ``_first_violation`` finds it.
    """
    b, n = len(rels), site.size
    flat = rels.reshape(b, n * n)
    lost = ~flat.take(site.meet_flat, axis=1)  # as in _first_violation, per relation
    bad = (rels > site.leq) | (rels & _bmm(lost, site.leq)) | (_bmm(rels, rels) > rels)
    bad = bad.reshape(b, n * n) | (flat != flat.take(site.edge_rep.ravel(), axis=1))
    if bad.any() or not flat[:, :: n + 1].all():
        failed = bad.any(axis=1) | ~flat[:, :: n + 1].all(axis=1)
        rel = rels[int(failed.argmax())]
        reason = _violation_text(site, rel)
        raise InternalCheckError(f"relation is not a transfer system: {reason}")


def _check_blocks(site: Site, rels: np.ndarray, keys: list[bytes]) -> None:
    """``_check_stack`` per ``_block_slices`` block of a (B, n, n) stack, then remember it passed.

    ``keys[i]`` must be ``rels[i].tobytes()``.  Once every block has
    passed, the stack becomes read-only, so no remembered relation can
    change, and the keys join the site's memo ``_cache["checked"]``.
    The BFS and the T(e) cache check their stacks here; the constructor,
    with a stack of one, calls ``_check_stack`` itself.
    """
    for block in _block_slices(site, len(rels)):
        _check_stack(site, rels[block])
    rels.flags.writeable = False
    site._cache.setdefault("checked", set()).update(keys)


def _first_witness(a: np.ndarray, b: np.ndarray, mask: np.ndarray) -> Optional[tuple[int, int, int]]:
    """The witness (i, k, j) of the first flagged entry of ``mask & (a @ b)``, or None.

    (i, j) is the first flagged entry in row-major order and k the least
    index with ``a[i, k] & b[k, j]``, as an edge-by-edge scan finds them.
    The restriction and composition witnesses of ``_first_violation``,
    ``is_saturated`` and ``compat.is_compatible`` all follow this rule.
    """
    flat = np.flatnonzero(mask & _bmm(a, b))
    if not flat.size:
        return None
    i, j = divmod(int(flat[0]), mask.shape[-1])
    return i, int(np.argmax(a[i] & b[:, j])), j


def _violation_text(site: Site, rel: np.ndarray) -> str:
    outside = rel & ~site.leq
    if np.any(outside):
        k, h = map(int, np.argwhere(outside)[0])
        return f"edge {site.labels[k]} -> {site.labels[h]} does not refine the order"
    return _first_violation(site, rel).describe(site)


def _first_violation(site: Site, rel: np.ndarray) -> Optional[ViolationReport]:
    """The first violated axiom of a relation refining the order, with its witness."""
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
    witness = _first_witness(~rel.ravel()[site.meet_flat], site.leq, rel)  # lost @ leq
    if witness is not None:
        k, l, h = witness
        return ViolationReport("restriction", ((k, h), l, (int(site.meet[k, l]), l)))
    witness = _first_witness(rel, rel, ~rel)
    if witness is not None:
        l, k, h = witness
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
    """Restriction closure of an n-by-n relation, or of each one of a (B, n, n) stack."""
    out = rel.copy()
    # restricting some edge K -> H of rel along L <= H gives K /\ L -> L
    *b, k, l = np.nonzero(_bmm(rel, site.leq.T))
    out[(*b, site.meet[k, l], l)] = True
    return out


def _comp(rel: np.ndarray) -> np.ndarray:
    """Composition closure of an n-by-n relation, or of each one of a (B, n, n) stack.

    Squares until nothing changes.  On a stack, only the relations that
    changed in a round are squared again.
    """
    new = rel | _bmm(rel, rel)
    if new.ndim == 3:
        moved = np.flatnonzero((new != rel).reshape(len(new), -1).any(axis=1))
        if moved.size:
            new[moved] = _comp(new[moved])
        return new
    # same shape and dtype; bytes compare far faster than np.array_equal
    if new.tobytes() == rel.tobytes():
        return new
    return _comp(new)


def _edge_closures(site: Site, flat) -> np.ndarray:
    """R_e = res(conj(refl({e}))), what adding e brings before composition, as a (k, n, n) stack.

    One relation per edge with flat index in ``flat``.  conj(refl({e})) is
    e's orbit, read off ``edge_rep``, plus the diagonal, so the orbit masks
    are built at once; ``_res`` closes them per ``_block_slices`` block.
    """
    out = site.edge_rep == site.edge_rep.ravel()[flat][:, None, None]
    out |= np.eye(site.size, dtype=bool)
    for block in _block_slices(site, len(out)):
        out[block] = _res(site, out[block])
    return out


def close_refl(b: BinaryRelation) -> BinaryRelation:
    return BinaryRelation(b.site, _refl(b.site, b.rel))


def close_conj(b: BinaryRelation) -> BinaryRelation:
    return BinaryRelation(b.site, _conj(b.site, b.rel))


def close_res(b: BinaryRelation) -> BinaryRelation:
    return BinaryRelation(b.site, _res(b.site, b.rel))


def close_comp(b: BinaryRelation) -> BinaryRelation:
    return BinaryRelation(b.site, _comp(b.rel))


def _close(site: Site, rel: np.ndarray) -> np.ndarray:
    """composition(restriction(conjugation(reflexive(rel)))): one pass closes rel."""
    return _comp(_res(site, _conj(site, _refl(site, rel))))


def generate(b: BinaryRelation) -> TransferSystem:
    """Minimal transfer system containing the relation.

    Single pass of ``_close``; the constructor asserts the result satisfies
    all four axioms.  Conjugation and restriction distribute over unions,
    so for a transfer system O and an edge e, generate(O + e) =
    comp(O | R_e) with R_e = res(conj(refl({e}))) (see ``_edge_closures``);
    enumeration extends systems this way.
    """
    return TransferSystem(b.site, _close(b.site, b.rel))


def generate_from_edges(site: Site, edges: Iterable[tuple[int, int]]) -> TransferSystem:
    return generate(BinaryRelation.from_edges(site, edges))


def _edge_systems(site: Site, flat) -> np.ndarray:
    """T(e) for the edges with flat indices ``flat``, as a (k, n, n) bool stack.

    T(e) is action-closed, so every edge of an orbit generates the same
    system.  The site caches one read-only relation per edge orbit, keyed
    by the orbit's least flat index (``edge_rep``) and filled on first use:
    the orbits a call is missing are closed together as ``_comp`` of their
    ``_edge_closures`` stack, per ``_block_slices`` block, and pass
    ``_check_blocks``, so each T(e) is checked once per (site, orbit) and
    joins the site's memo of checked relations.  The disklike test,
    ``complexity`` and the M(O) oracle all read T(e) here.
    """
    cache = site._cache.setdefault("edge_systems", {})
    reps = site.edge_rep.ravel()[flat].tolist()
    missing = [r for r in dict.fromkeys(reps) if r not in cache]
    if missing:
        rels = _edge_closures(site, missing)
        for block in _block_slices(site, len(missing)):
            rels[block] = _comp(rels[block])
        _check_blocks(site, rels, _row_keys(rels).tolist())  # which makes them read-only
        cache.update(zip(missing, rels))
    return np.array([cache[r] for r in reps], dtype=bool).reshape(-1, site.size, site.size)


# ---------------------------------------------------------------------------
# Lattice structure on Tr(site) and named systems


def meet_ts(a: TransferSystem, b: TransferSystem) -> TransferSystem:
    """Edgewise intersection (already a transfer system)."""
    _require_same_site(a.site, b.site)
    return TransferSystem(a.site, a.rel & b.rel)


def join_ts(a: TransferSystem, b: TransferSystem) -> TransferSystem:
    """Generated by the union of the edge sets."""
    _require_same_site(a.site, b.site)
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


def _unsaturated(site: Site, rels: np.ndarray) -> np.ndarray:
    """bad[b, L, H]: L -> H is in relation b, and some K >= L below H misses K -> H.

    ``rels`` is a (B, n, n) stack; relation b is saturated iff ``bad[b]``
    is empty.  One stacked product through ``_bmm``.
    """
    return rels & _bmm(site.leq, site.leq & ~rels)


def is_saturated(ts: TransferSystem) -> SaturationResult:
    """Check for triples L <= K <= H with L->H present but K->H missing."""
    # the first flagged L -> H, then the least K
    witness = _first_witness(ts.site.leq, ts.site.leq & ~ts.rel, ts.rel)
    return SaturationResult(witness is None, witness)


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
        rel = _close(site, rel | needed)


def _disklike(site: Site, rels: np.ndarray) -> np.ndarray:
    """disklike[b]: system b of a (B, n, n) stack is generated by its transfers into top.

    The system those transfers generate is comp of the union of their
    T(h -> top), as in ``complexity``.  A system holds whole edge orbits
    and T(g.e) = T(e), so only the least source h of each orbit of top
    edges, the column ``site.orbit_reps[:, top]``, is read: one boolean
    product of the stack's columns at those h -> top with their
    T(h -> top) ORs each T into the relations holding h -> top, and one
    stacked ``_comp`` closes every union.
    """
    n, top = site.size, site.top
    # the sources h < top held somewhere in the stack and least in their orbit
    hs = np.flatnonzero(rels[:, :, top].any(axis=0) & site.orbit_reps[:, top])
    t = _edge_systems(site, hs * n + top).reshape(len(hs), n * n)
    union = _bmm(rels[:, hs, top], t).reshape(rels.shape) | np.eye(n, dtype=bool)
    return (_comp(union) == rels).reshape(len(rels), n * n).all(axis=1)


def _block_disklike(site: Site, systems: list[TransferSystem], rels: np.ndarray) -> np.ndarray:
    """``_disklike`` of ``rels``, the stacked relations of ``systems``, kept in their caches."""
    disklike = _disklike(site, rels)
    for ts, disk in zip(systems, disklike.tolist()):
        ts._cache["disklike"] = disk
    return disklike


def is_disklike(ts: TransferSystem) -> bool:
    """True iff ts is generated by its transfers into the top node (cached per system)."""
    disklike = ts._cache.get("disklike")
    if disklike is None:
        disklike = bool(_block_disklike(ts.site, [ts], ts.rel[None])[0])
    return disklike


def complexity(ts: TransferSystem, bound: int = 4) -> Optional[int]:
    """Minimum size of a generating edge set, or None if it exceeds bound.

    Write T(e) for the system generated by e.  If S generates ts, e is in S
    and T(e) <= T(e') for an edge e' of ts, then S - e + e' still generates
    ts.  So only edges with maximal T(e) are tried, one per class of equal
    T(e) (T(g.e) = T(e), so one edge per orbit is read), in subsets of
    increasing cardinality, each closed as comp of the union of its T(e).
    The edges read are the least of each orbit of ts (``Site.orbit_reps``),
    by flat index.
    """
    if bound < 0:
        raise UsageError("complexity bound must be >= 0")
    site = ts.site
    flat = np.flatnonzero(ts.rel & site.orbit_reps)
    classes: dict[bytes, tuple] = {}
    for e, t in zip(flat.tolist(), _edge_systems(site, flat)):
        classes.setdefault(t.tobytes(), (e, t))
    if not classes:
        return 0
    edges, systems = zip(*classes.values())
    # T(e_i) <= T(e_j) iff e_i lies in T(e_j): T(e_i) is maximal iff no other T holds e_i
    holders = sum(t.ravel()[list(edges)] for t in systems)
    maximal = [t for t, n in zip(systems, holders) if n == 1]
    for k in range(1, bound + 1):
        for subset in combinations(maximal, k):
            if _comp(np.logical_or.reduce(subset)).tobytes() == ts.key:
                return k
    return None


def count_cover_relations(ts: TransferSystem) -> int:
    """C_O: cover relations in the restriction poset of ts.

    The down-set of a node e = K -> H is {K /\\ J -> J : J <= H, J not <= K},
    ordered like the J's, so the covers of e are the K /\\ J -> J with J
    covered by H in the site and J not <= K.  C_O is thus the sum over the
    edges of ts of ``count[K, H] = #{J covered by H : J not <= K}`` (zero on
    the diagonal), a per-site table from one exact count, ``groups._count``.
    """
    return int(_cover_counts(ts.site, ts.rel[None])[0])


def _cover_counts(site: Site, rels: np.ndarray) -> np.ndarray:
    """C_O for each relation of a (B, n, n) stack: one product with the site's cached count table."""
    count = site._cache.get("cover_count")
    if count is None:
        count = _count(~site.leq.T, site.covers).astype(np.intp).ravel()
        count.flags.writeable = False
        site._cache["cover_count"] = count
    return rels.reshape(len(rels), -1).astype(np.intp) @ count
