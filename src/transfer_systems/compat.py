"""Compatible pairs and the maximal compatible transfer system M(O).

Compatibility runs on whole matrices.  For an additive system O put

    hyp[K, J] = O[K /\\ J, K]    and    gap[J, H] = (J <= H) and not O[J, H];

then ``blocked = hyp @ gap`` (a boolean product, run by ``sites._bmm``
on BLAS for sites of 20 nodes or more) marks exactly the
multiplicative edges K -> H that break condition (2) against O: some J <= H
has K /\\ J -> K additive while J -> H is missing.  Reflexive entries are
never blocked (hyp[H, J] = O[J, H] for J <= H), so (O, O_m) is compatible
iff ``O_m.rel & blocked`` is empty.  ``hyp`` is one flat gather through the
site's ``meet_flat`` table.

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
  action-closed, so T(p.e) = T(e): each site keeps a table of T(e) over
  its strict pairs, one row per edge orbit filled on first use, and every
  edge of O is decided by one product of its rows with ``blocked``;
* ``max_compat_recursive`` evaluates the recursion over the restriction
  poset (e is kept iff every strict restriction r < e is kept and
  annotates a success) in unrolled form: e is dropped iff some r <= e is
  blocked, one product over the site order;
* ``max_compat_disklike`` is the cover-relation algorithm for disklike
  systems: one pass over the poset nodes in order of the site's |down(H)|
  at each node's target (covers come first), deciding each conjugacy class
  of edges at its least edge and counting cover inspections.  It reads each node's covers from the
  site's cover relation.

Each hands ``_wrap`` a boolean mask over O's edges in node order.

``conjecture_formula`` evaluates the conjectured one-shot simplification
(keep e iff all strict restrictions are successes, i.e. e is not blocked)
and deliberately returns a raw edge set rather than a validated system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DisklikeRequiredError
from .sites import Site, _bmm
from .systems import (
    TransferSystem,
    _orbit_table,
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

    def to_json(self, site: Site) -> dict:
        out: dict = {"compatible": self.compatible}
        if self.witness is not None:
            k, j, h = self.witness
            out["witness"] = {
                "K": site.labels[k],
                "J": site.labels[j],
                "H": site.labels[h],
                "missing": [site.labels[j], site.labels[h]],
            }
        return out


def _blocked(o_a: TransferSystem) -> np.ndarray:
    """blocked[K, H]: a multiplicative K -> H would break condition (2) against o_a.

    One n-by-n boolean product through ``sites._bmm``.
    """
    site = o_a.site
    rel = o_a.rel
    hyp = rel.ravel()[site.meet_flat].T  # hyp[K, J] = K /\ J -> K
    gap = site.leq & ~rel
    return _bmm(hyp, gap)


def is_compatible(o_a: TransferSystem, o_m: TransferSystem) -> CompatReport:
    """Check that (o_a, o_m) is a compatible pair.

    Condition (2) for every multiplicative edge at once: the pair is
    compatible iff ``o_m.rel & blocked`` is empty (see the module
    docstring).  The containment o_m <= o_a is subsumed (take J = K).  The
    witness is the first flagged K -> H in row-major order and the least
    J <= H that breaks it, as an edge-by-edge scan would find.
    """
    _require_same_site(o_a.site, o_m.site)
    flat = np.flatnonzero(o_m.rel & _blocked(o_a))
    if flat.size == 0:
        return CompatReport(True)
    site = o_a.site
    rel = o_a.rel
    k, h = divmod(int(flat[0]), site.size)
    hyp = rel[site.meet[k], k]
    gap = site.leq[:, h] & ~rel[:, h]
    j = int(np.flatnonzero(hyp & gap)[0])
    return CompatReport(False, (k, j, h))


def max_compat_oracle(o: TransferSystem) -> TransferSystem:
    """M(O) via the set expression: e is kept iff (O, T(e)) is compatible.

    ``blocked`` is computed once for O; e is kept iff T(e), read as its
    orbit's row of the site's table over the strict pairs, meets no
    blocked entry.  One product decides every edge of O.
    """
    site = o.site
    table = _orbit_table(site)
    rows = table.lookup(site, np.flatnonzero(o.rel & ~np.eye(site.size, dtype=bool)))
    hit = _bmm(table.rows[rows], _blocked(o).ravel()[table.pair_flat])
    return _wrap(o, ~hit)


def max_compat_recursive(o: TransferSystem) -> TransferSystem:
    """M(O) via the recursion over the restriction poset, on n-by-n matrices.

    The recursion keeps e iff every strict restriction r < e is kept and
    annotates a success.  Unrolled: e is dropped iff some r <= e has a
    failing strict restriction (induction along any linear extension).
    An edge has a failing strict restriction iff it is blocked (see the
    module docstring), and the restrictions of K -> H are the K /\\ J -> J
    for J <= H.  So with F[K, J] = blocked[K /\\ J, J], e is dropped iff
    ``(F @ leq)[e]``: one gather and one product through ``sites._bmm``.
    """
    return _max_compat_recursive(o, _blocked(o))


def _max_compat_recursive(o: TransferSystem, blocked: np.ndarray) -> TransferSystem:
    site = o.site
    below = blocked.ravel()[site.meet_flat]  # below[K, J] = blocked[K /\ J, J]
    dropped = _bmm(below, site.leq)
    return _wrap(o, ~dropped[o.rel & ~np.eye(site.size, dtype=bool)])


class DisklikeResult(NamedTuple):
    system: TransferSystem
    steps: int  # cover-relation inspections performed


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
    takes the least ready node would decide it.  The covers of every
    class's least edge are listed at once, from n-by-m masks, before the
    pass.
    """
    if not is_disklike(o):
        raise DisklikeRequiredError("the cover-relation algorithm requires a disklike system")
    site = o.site
    n = site.size
    rel = o.rel
    edge_rep = site.edge_rep.ravel()
    nodes = np.flatnonzero(rel & ~np.eye(n, dtype=bool))  # flat indices, node order
    least = nodes[edge_rep[nodes] == nodes]  # the least edge of each class
    ks, hs = np.divmod(least, n)
    outside = ~site.leq[:, ks]  # outside[J, i]: J not <= K
    down = site.leq.sum(axis=0)[hs]  # |down(H)| in the site
    # every pair (least edge i = K -> H, cover K /\ J -> J), each i's covers in node order
    i, j = np.nonzero((site.covers[:, hs] & outside).T)
    cover = site.meet_flat[ks[i], j]
    order = np.lexsort((cover, i))
    i, j, cover = i[order], j[order], cover[order]
    success = ~(rel.ravel()[site.meet_flat[j, ks[i]]] & ~rel[j, hs[i]])
    cover_class = edge_rep[cover]
    bounds = np.searchsorted(i, np.arange(len(least) + 1)).tolist()
    kept = np.zeros(n * n, dtype=bool)  # by class, at the flat index of its least edge
    steps = 0
    for x in np.argsort(down, kind="stable").tolist():
        lo, hi = bounds[x], bounds[x + 1]
        ok = kept[cover_class[lo:hi]] & success[lo:hi]
        verdict = bool(ok.all())
        steps += hi - lo if verdict else int(ok.argmin()) + 1
        kept[least[x]] = verdict
    return DisklikeResult(_wrap(o, kept[edge_rep[nodes]]), steps)


def conjecture_formula(o: TransferSystem) -> frozenset[tuple[int, int]]:
    """Edges e whose strict restrictions are all compatibility successes.

    A strict restriction of e fails iff e is blocked (module docstring), so
    these are the non-reflexive edges of O outside ``blocked``.  Returned as
    a raw edge set: on inputs outside the conjecture's scope it can fail the
    transfer-system axioms, so no validation is attempted.
    """
    return _conjecture_formula(o, _blocked(o))


def _conjecture_formula(o: TransferSystem, blocked: np.ndarray) -> frozenset[tuple[int, int]]:
    kept = o.rel & ~blocked & ~np.eye(o.site.size, dtype=bool)
    return frozenset(map(tuple, np.argwhere(kept).tolist()))


def _wrap(o: TransferSystem, keep) -> TransferSystem:
    """The subsystem of O keeping the non-reflexive edges that ``keep`` marks, in node order."""
    rel = np.eye(o.site.size, dtype=bool)
    rel[o.rel & ~rel] = keep
    return TransferSystem(o.site, rel)  # constructor asserts the axioms
