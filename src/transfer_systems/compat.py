"""Compatible pairs and the maximal compatible transfer system M(O).

Compatibility runs on whole matrices.  For an additive system O put

    hyp[K, J] = O[K /\\ J, K]    and    gap[J, H] = (J <= H) and not O[J, H];

then ``blocked = hyp @ gap`` (a boolean product) marks exactly the
multiplicative edges K -> H that break condition (2) against O: some J <= H
has K /\\ J -> K additive while J -> H is missing.  Reflexive entries are
never blocked (hyp[H, J] = O[J, H] for J <= H), so (O, O_m) is compatible
iff ``O_m.rel & blocked`` is empty.

Three independent computations of M(O) are provided:

* ``max_compat_oracle`` keeps each edge e whose generated system T(e) forms a
  compatible pair with O (the definitional set expression).  T(e) is
  action-closed, so T(p.e) = T(e): each site caches T(e) once per edge orbit,
  and the test is one masked ``any`` against ``blocked``;
* ``max_compat_recursive`` evaluates the recursion over the full restriction
  poset (e is kept iff every strict restriction r < e is kept and annotates
  a compatibility success) in unrolled form: e is dropped iff some r <= e
  has a failing strict restriction;
* ``max_compat_disklike`` is the cover-relation worklist for disklike
  systems, processing conjugacy classes of minimal queue elements and
  counting cover inspections.

``conjecture_formula`` evaluates the conjectured one-shot simplification
(keep e iff all strict restrictions are successes) and deliberately returns
a raw edge set rather than a validated system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DisklikeRequiredError
from .restriction import FAILURE, restriction_poset
from .sites import Site
from .systems import (
    TransferSystem,
    _edge_system,
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
    """blocked[K, H]: a multiplicative K -> H would break condition (2) against o_a."""
    site = o_a.site
    rel = o_a.rel
    hyp = rel[site.meet, np.arange(site.size)[:, None]]  # hyp[K, J] = K /\ J -> K
    gap = site.leq & ~rel
    return hyp @ gap


def is_compatible(o_a: TransferSystem, o_m: TransferSystem) -> CompatReport:
    """Check that (o_a, o_m) is a compatible pair.

    Condition (2) for every multiplicative edge at once: the pair is
    compatible iff ``o_m.rel & blocked`` is empty (see the module
    docstring).  The containment o_m <= o_a is subsumed (take J = K).  The
    witness is the first flagged K -> H in row-major order and the least
    J <= H that breaks it, as an edge-by-edge scan would find.
    """
    _require_same_site(o_a, o_m)
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

    ``blocked`` is computed once for O; e is kept iff T(e), read from the
    site's per-orbit cache, meets no blocked entry.
    """
    blocked = _blocked(o)
    keep = [e for e in o.edges() if not (_edge_system(o.site, e) & blocked).any()]
    return _wrap(o.site, keep)


def max_compat_recursive(o: TransferSystem) -> TransferSystem:
    """M(O) via the recursion over the full restriction poset.

    The recursion keeps e iff every strict restriction r < e is kept and
    annotates a success.  Unrolled: e is dropped iff some r <= e has a
    failing strict restriction (induction along any linear extension), so
    one boolean vector-matrix product over ``leq`` decides every node.
    """
    poset = restriction_poset(o)
    fails = (poset.annotation == FAILURE).any(axis=0)  # some strict restriction fails
    dropped = fails @ poset.leq
    keep = [e for e, d in zip(poset.nodes, dropped) if not d]
    return _wrap(o.site, keep)


class DisklikeResult(NamedTuple):
    system: TransferSystem
    steps: int  # cover-relation inspections performed


def max_compat_disklike(o: TransferSystem) -> DisklikeResult:
    """M(O) for disklike O by the worklist over cover relations.

    Starts from the minimal elements of the restriction poset, repeatedly
    takes the minimal queue element (lowest canonical index on ties) and
    decides its whole conjugacy class at once.  The step counter records
    how many cover relations were inspected.
    """
    if not is_disklike(o):
        raise DisklikeRequiredError("the cover-relation algorithm requires a disklike system")
    poset = restriction_poset(o)
    site = o.site
    node_reps = site.edge_rep[o.rel & ~np.eye(site.size, dtype=bool)]  # in node order
    decided: dict[int, bool] = {}
    for i in poset.minimal():
        decided[i] = True
    queue = sorted(set(range(len(poset))) - decided.keys())
    steps = 0
    while queue:
        queue_set = set(queue)
        # Minimal queue element under the restriction order; ties break by
        # lowest canonical edge index since queue stays sorted.
        m = next(j for j in queue if not any(i in queue_set for i in poset.strict_below(j)))
        verdict = True
        for i in poset.covers_below(m):
            steps += 1
            if not (decided.get(i, False) and poset.is_success(i, m)):
                verdict = False
                break
        orbit = set(np.flatnonzero(node_reps == node_reps[m]).tolist())  # m's orbit within O
        for j in orbit:
            decided[j] = verdict
        queue = [j for j in queue if j not in orbit]
    keep = [e for j, e in enumerate(poset.nodes) if decided.get(j, False)]
    return DisklikeResult(_wrap(site, keep), steps)


def conjecture_formula(o: TransferSystem) -> frozenset[tuple[int, int]]:
    """Edges e whose strict restrictions are all compatibility successes.

    Returned as a raw edge set: on inputs outside the conjecture's scope it
    can fail the transfer-system axioms, so no validation is attempted.
    """
    poset = restriction_poset(o)
    fails = (poset.annotation == FAILURE).any(axis=0)
    return frozenset(e for e, f in zip(poset.nodes, fails) if not f)


def _wrap(site: Site, edges: list[tuple[int, int]]) -> TransferSystem:
    rel = np.eye(site.size, dtype=bool)
    for k, h in edges:
        rel[k, h] = True
    return TransferSystem(site, rel)  # constructor asserts the axioms
