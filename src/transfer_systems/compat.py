"""Compatible pairs and the maximal compatible transfer system M(O).

Compatibility runs on whole matrices, and on stacks of them.  For an
additive system O put

    hyp[K, J] = O[K /\\ J, K]    and    gap[J, H] = (J <= H) and not O[J, H];

then ``blocked = hyp @ gap`` (a boolean product, run by ``sites._bmm``
on BLAS for sites of 20 nodes or more) marks exactly the
multiplicative edges K -> H that break condition (2) against O: some J <= H
has K /\\ J -> K additive while J -> H is missing.  Reflexive entries are
never blocked (hyp[H, J] = O[J, H] for J <= H), so (O, O_m) is compatible
iff ``O_m.rel & blocked`` is empty.  ``hyp`` is one flat gather through the
site's ``meet_flat`` table.  ``_blocked`` computes it for a whole (B, n, n)
stack of systems at once.

The methods for M(O) are written in the restriction poset of O: its nodes
are the non-reflexive edges of O, and e = K -> H restricts along J <= H
onto r = K /\\ J -> J, a pair annotated a failure iff O[K /\\ J, K] holds
and O[J, H] does not.  No method builds that m-by-m poset; two facts put
everything on the site's n-by-n matrices.

* The down-set of e is {K /\\ J -> J : J <= H, J not <= K}, ordered like
  the J's: a restriction of a restriction is the restriction along the
  smaller node, and J <= J' with J not <= K gives J' not <= K.  So the
  covers of e are the K /\\ J -> J with J covered by H in the site and
  J not <= K, and |down(e)| = #{J <= H : J not <= K}.
* e has a failing strict restriction iff ``blocked[e]``: J = H never fails,
  and J <= K cannot fail, since O[J, K] and O[K, H] give O[J, H] by
  composition.

Three independent computations of M(O) are provided:

* ``max_compat_oracle`` keeps each edge e whose generated system T(e) forms a
  compatible pair with O (the definitional set expression).  T(e) is
  action-closed, so T(p.e) = T(e): T(e) comes from the site's one cache
  (``systems._edge_systems``, one relation per edge orbit, shared with the
  disklike test and ``complexity``; the orbits it lacks are filled as one
  stacked closure of their ``_edge_closures``, checked in blocks), read
  at the strict pairs once per orbit in use, and every orbit is decided by
  one product of those rows with ``blocked``.  Every O is action-closed,
  so the orbits a stack uses are the least edges (``Site.orbit_reps``)
  that some O of it holds, and each edge takes its orbit's verdict
  through ``edge_rep``;
* ``max_compat_recursive`` evaluates the recursion over the restriction
  poset (e is kept iff every strict restriction r < e is kept and
  annotates a success) in unrolled form: e is dropped iff some r <= e is
  blocked, one product over the site order;
* ``max_compat_disklike`` is the cover-relation algorithm for disklike
  systems: one pass over the poset nodes in order of the site's |down(H)|
  at each node's target (covers come first), deciding each conjugacy class
  of edges at its least edge (``Site.orbit_reps``) and counting cover
  inspections.  It reads each node's covers from the site's cover
  relation, and each edge of O takes its class's verdict through
  ``edge_rep``.

All three are kernels over a (B, n, n) stack of systems: ``_oracle`` and
``_recursive`` share the stack's ``blocked`` and return the stack of
M(O); ``_cover_pass`` returns the stack of M(O) and the vector of
inspection counts, and reads ``success`` off the stack itself, not
``blocked``, so it stays an independent check.  Its site-level tables
(``_cover_tables``) are built once per site.  The public functions run
the kernels on a stack of one, and the sweeps in ``enumeration`` on
blocks of a list of systems, with the ``blocked`` that the sweeps' one
walk, ``enumeration._blocks``, computes once per block.  Every M(O)
passes the axiom check ``systems._check_stack`` before it is used: a
public function's one result through the ``TransferSystem`` constructor,
a sweep's stack directly.

``conjecture_formula`` evaluates the conjectured one-shot simplification
(keep e iff all strict restrictions are successes, i.e. e is not blocked)
and deliberately returns a raw edge set rather than a validated system.
Its stacked kernel, ``_formula``, is ``rels & ~blocked``: it keeps the
diagonal, since ``blocked`` is never reflexive, so a sweep compares it
with the stack of M(O) as it is, and only ``conjecture_formula`` drops
the diagonal from its edge set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DisklikeRequiredError
from .sites import Site, _bmm
from .systems import (
    TransferSystem,
    _edge_systems,
    _first_witness,
    _nonreflexive_pairs,
    _require_same_site,
    is_disklike,
)


@dataclass(frozen=True)
class CompatReport:
    """Outcome of a compatibility check.

    The witness, present iff incompatible, is the first (K, J, H) in
    canonical scan order such that K -> H is multiplicative, K /\\ J -> K is
    additive, and the required additive edge J -> H is missing.
    """

    compatible: bool
    witness: Optional[tuple[int, int, int]] = None


def _blocked(site: Site, rels: np.ndarray) -> np.ndarray:
    """blocked[b, K, H]: a multiplicative K -> H would break condition (2) against system b.

    ``rels`` is a (B, n, n) stack of additive systems.  ``hyp`` is one
    gather through ``meet_flat`` per relation; then one stacked product
    through ``sites._bmm``.
    """
    b, n = len(rels), site.size
    hyp = np.take(rels.reshape(b, n * n), site.meet_flat.T, axis=1)  # hyp[b, K, J] = K /\ J -> K
    return _bmm(hyp, site.leq & ~rels)


def _oracle(site: Site, rels: np.ndarray, blocked: np.ndarray) -> np.ndarray:
    """The (B, n, n) stack of M(O) by the set expression, for a stack of O and their ``blocked``.

    Edge e of O is kept iff T(e) meets no blocked pair of O.  Every O is
    action-closed, so the orbits in use are the least edges
    (``Site.orbit_reps``) that some O of the stack holds.  T(e) is read
    from the site's cache once per such orbit, at the strict pairs only,
    one product of those rows with the (B, P) blocked pairs decides every
    orbit, and each edge takes its orbit's verdict through ``edge_rep``.
    """
    b, n = len(rels), site.size
    orbits = np.flatnonzero(rels.any(axis=0) & site.orbit_reps)  # least edges in use
    pairs = np.flatnonzero(site.leq & ~np.eye(n, dtype=bool))
    rows = _edge_systems(site, orbits).reshape(len(orbits), n * n)[:, pairs]
    hit = _bmm(rows, blocked.reshape(b, n * n)[:, pairs].T)  # T(orbits[i]) meets blocked[b]
    dropped = np.zeros((b, n * n), dtype=bool)
    dropped[:, orbits] = hit.T
    return rels & ~dropped[:, site.edge_rep]


def _recursive(site: Site, rels: np.ndarray, blocked: np.ndarray) -> np.ndarray:
    """The (B, n, n) stack of M(O) by the recursion, for a stack of O and their ``blocked``.

    The recursion keeps e iff every strict restriction r < e is kept and
    annotates a success.  Unrolled: e is dropped iff some r <= e has a
    failing strict restriction (induction along any linear extension).
    An edge has a failing strict restriction iff it is blocked (see the
    module docstring), and the restrictions of K -> H are the K /\\ J -> J
    for J <= H.  So with F[K, J] = blocked[K /\\ J, J], e is dropped iff
    ``(F @ leq)[e]``: one gather and one stacked product.
    """
    b, n = len(rels), site.size
    below = np.take(blocked.reshape(b, n * n), site.meet_flat, axis=1)  # blocked[K /\ J, J]
    return np.eye(n, dtype=bool) | (rels & ~_bmm(below, site.leq))


def _maximal(o: TransferSystem, method) -> TransferSystem:
    """M(O) by a stacked method, on a stack of one, checked by the constructor."""
    rels = o.rel[None]
    return TransferSystem(o.site, method(o.site, rels, _blocked(o.site, rels))[0])


def is_compatible(o_a: TransferSystem, o_m: TransferSystem) -> CompatReport:
    """Check that (o_a, o_m) is a compatible pair.

    Condition (2) for every multiplicative edge at once: the pair is
    compatible iff ``o_m.rel & blocked`` is empty (see the module
    docstring).  The containment o_m <= o_a is subsumed (take J = K).  The
    witness is ``systems._first_witness`` of hyp @ gap under o_m: the first
    flagged K -> H in row-major order and the least J <= H that breaks it,
    as an edge-by-edge scan would find.
    """
    _require_same_site(o_a.site, o_m.site)
    site = o_a.site
    rel = o_a.rel
    # hyp[K, J] = K /\ J -> K, the gather _blocked makes, and gap = leq & ~rel
    witness = _first_witness(np.take(rel.ravel(), site.meet_flat.T), site.leq & ~rel, o_m.rel)
    return CompatReport(witness is None, witness)


def max_compat_oracle(o: TransferSystem) -> TransferSystem:
    """M(O) via the set expression: e is kept iff (O, T(e)) is compatible.

    ``blocked`` is computed once for O; e is kept iff T(e), read from the
    site's cache at the strict pairs, meets no blocked entry.  One product
    decides every edge of O.
    """
    return _maximal(o, _oracle)


def max_compat_recursive(o: TransferSystem) -> TransferSystem:
    """M(O) via the recursion over the restriction poset, on n-by-n matrices.

    e is dropped iff some restriction of e has a failing strict
    restriction: one gather of ``blocked`` and one product over the site
    order (see ``_recursive``).
    """
    return _maximal(o, _recursive)


class DisklikeResult(NamedTuple):
    system: TransferSystem
    steps: int  # cover-relation inspections performed


def _cover_tables(site: Site) -> tuple:
    """The site's tables for ``_cover_pass``, built on first use and cached.

    (least, cover_class, hyp, gap, levels).  ``least`` lists the least edge
    of each strict class (``Site.orbit_reps``) by flat index, in node
    order.  The pairs (class x = K -> H at its least edge, cover
    K /\\ J -> J of x) are listed by the site's |down(H)|, then by class,
    then by cover in node order: per pair, the cover's class and the flat
    indices of K /\\ J -> K and J -> H, whose presence in O decides the
    pair's annotation.  A class's covers end at nodes J < H, so every cover
    lies at a smaller |down(H)|.  ``levels`` cuts the pairs by |down(H)|:
    per level, its slice ``lo:hi`` of the pairs, the offsets of its
    classes' first pairs within the slice, those classes, and per pair its
    class's number of covers and its own place among them, from one.
    """
    tables = site._cache.get("cover_pass")
    if tables is None:
        n = site.size
        least = np.flatnonzero(site.orbit_reps)
        ks, hs = np.divmod(least, n)
        down = site.leq.sum(axis=0)[hs]  # |down(H)| in the site
        # the pairs (x, J): covers[J, H] and J not <= K, from the sparse cover list
        h_of, j_of = np.nonzero(site.covers.T)  # the covers J of each node H, by H
        start = np.searchsorted(h_of, np.arange(n + 1))
        count = np.diff(start)[hs]  # per class, the covers of its H
        x = np.repeat(np.arange(len(least)), count)
        j = j_of[np.arange(len(x)) + np.repeat(start[hs] - np.cumsum(count) + count, count)]
        keep = ~site.leq[j, ks[x]]
        x, j = x[keep], j[keep]
        cover = site.meet_flat[ks[x], j]
        order = np.lexsort((cover, x, down[x]))
        x, j, cover = x[order], j[order], cover[order]
        first = np.flatnonzero(np.diff(x, prepend=-1))  # each class's first pair
        size = np.diff(first, append=len(x))  # each class's number of covers
        length = np.repeat(size, size)
        rank = np.arange(len(x)) - np.repeat(first, size) + 1
        cut = np.append(np.unique(down[x], return_index=True)[1], len(x)).tolist()
        levels = []
        for lo, hi in zip(cut, cut[1:]):
            starts = first[(lo <= first) & (first < hi)]
            levels.append((lo, hi, starts - lo, x[starts], length[lo:hi], rank[lo:hi]))
        cover_class = np.searchsorted(least, site.edge_rep.ravel()[cover])  # least is sorted
        tables = (least, cover_class, site.meet_flat[j, ks[x]], j * n + hs[x], levels)
        site._cache["cover_pass"] = tables
    return tables


def _cover_pass(site: Site, rels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cover-relation algorithm on a (B, n, n) stack of disklike O: (stack of M(O), steps).

    One pass over the site's strict classes (``_cover_tables``), a level
    of equal |down(H)| at a time, which decides every cover before the
    classes above it.  Only two arrays depend on the stack: ``success``,
    each pair's annotation in each O, and ``has``, the classes each O
    holds.  A class is kept where O holds it and each of its covers is
    kept and a success; a class with no cover keeps its presence.  Where
    O holds a class, ``steps`` adds the covers inspected up to the first
    that fails: the least rank of a failing cover, or all of them on a
    pass.  Each edge takes its class's verdict through ``edge_rep``.
    """
    least, cover_class, hyp, gap, levels = _cover_tables(site)
    b, n = len(rels), site.size
    flat = rels.reshape(b, n * n)
    success = ~(flat[:, hyp] & ~flat[:, gap])
    has = flat[:, least]
    kept = has.copy()  # by class; final for a class with no cover
    steps = np.zeros(b, dtype=np.intp)
    for lo, hi, starts, classes, length, rank in levels:
        ok = kept[:, cover_class[lo:hi]] & success[:, lo:hi]
        held = has[:, classes]
        kept[:, classes] = np.logical_and.reduceat(ok, starts, axis=1) & held
        inspected = np.minimum.reduceat(np.where(ok, length, rank), starts, axis=1)
        steps += (inspected * held).sum(axis=1)
    out = np.zeros((b, n * n), dtype=bool)
    out[:, least] = kept
    return out[:, site.edge_rep] | np.eye(n, dtype=bool), steps


def max_compat_disklike(o: TransferSystem) -> DisklikeResult:
    """M(O) for disklike O by the cover-relation algorithm.

    e is kept iff each cover r of e is kept and annotates a success.  The
    covers are inspected in node order up to the first that fails;
    ``steps`` counts the inspections.

    By the identity in the module docstring, the covers of e = K -> H are
    the K /\\ J -> J for the site covers J of H with J not <= K.  So every
    cover of e ends at a node J strictly below H, and one pass that visits
    the edges by the site's |down(H)| decides every cover before the edge
    above it.  Conjugation is a poset automorphism that keeps annotations,
    and conjugate edges have conjugate targets, so each conjugacy class of
    edges is decided once, at its least edge, as a worklist that always
    takes the least ready node would decide it.  The pass is the stacked
    kernel ``_cover_pass``, on a stack of one; its result passes the
    constructor's axiom check.
    """
    if not is_disklike(o):
        raise DisklikeRequiredError("the cover-relation algorithm requires a disklike system")
    maximal, steps = _cover_pass(o.site, o.rel[None])
    return DisklikeResult(TransferSystem(o.site, maximal[0]), int(steps[0]))


def conjecture_formula(o: TransferSystem) -> frozenset[tuple[int, int]]:
    """Edges e whose strict restrictions are all compatibility successes.

    A strict restriction of e fails iff e is blocked (module docstring), so
    these are the non-reflexive edges of O outside ``blocked``.  Returned as
    a raw edge set: on inputs outside the conjecture's scope it can fail the
    transfer-system axioms, so no validation is attempted.
    """
    rels = o.rel[None]
    return frozenset(_nonreflexive_pairs(_formula(o.site, rels, _blocked(o.site, rels))[0]))


def _formula(site: Site, rels: np.ndarray, blocked: np.ndarray) -> np.ndarray:
    """The conjectured formula's relations, as a (B, n, n) stack with the diagonal.

    ``blocked`` is never reflexive, so the stack compares with the stack of
    M(O) as it is.
    """
    return rels & ~blocked
