"""Compatible pairs and the maximal compatible transfer system M(O).

Compatibility runs on whole matrices.  For an additive system O put

    hyp[K, J] = O[K /\\ J, K]    and    gap[J, H] = (J <= H) and not O[J, H];

then ``blocked = hyp @ gap`` (a boolean product, run by ``sites._bmm``
on BLAS for sites of ``_BMM_BLAS_MIN`` nodes or more) marks exactly the
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
* ``max_compat_disklike`` is the cover-relation algorithm for disklike
  systems: one pass over the poset nodes in order of down-set size (covers
  come first), deciding each conjugacy class of edges at its least edge
  and counting cover inspections.

Each hands ``_wrap`` a boolean mask over O's edges in node order.

``conjecture_formula`` evaluates the conjectured one-shot simplification
(keep e iff all strict restrictions are successes) and deliberately returns
a raw edge set rather than a validated system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DisklikeRequiredError
from .restriction import FAILURE, SUCCESS, restriction_poset
from .sites import Site, _bmm
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
    """blocked[K, H]: a multiplicative K -> H would break condition (2) against o_a.

    One n-by-n boolean product through ``sites._bmm``.
    """
    site = o_a.site
    rel = o_a.rel
    hyp = rel[site.meet, np.arange(site.size)[:, None]]  # hyp[K, J] = K /\ J -> K
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
    return _wrap(o, [not (_edge_system(o.site, e) & blocked).any() for e in o.edges()])


def max_compat_recursive(o: TransferSystem) -> TransferSystem:
    """M(O) via the recursion over the full restriction poset.

    The recursion keeps e iff every strict restriction r < e is kept and
    annotates a success.  Unrolled: e is dropped iff some r <= e has a
    failing strict restriction (induction along any linear extension), so
    one boolean vector-matrix product over ``leq`` decides every node.  It
    stays a bool ``@`` rather than ``sites._bmm``: the float32 copy of the
    m-by-m ``leq`` raised the ``conjecture`` benchmark's peak RSS from 49.2
    to 50.6 MB (three runs each) and saved no time.
    """
    poset = restriction_poset(o)
    fails = (poset.annotation == FAILURE).any(axis=0)  # some strict restriction fails
    return _wrap(o, ~(fails @ poset.leq))


class DisklikeResult(NamedTuple):
    system: TransferSystem
    steps: int  # cover-relation inspections performed


def max_compat_disklike(o: TransferSystem) -> DisklikeResult:
    """M(O) for disklike O by the cover-relation algorithm.

    e is kept iff each cover r of e is kept and annotates a success.  The
    covers are inspected in node order up to the first that fails;
    ``steps`` counts the inspections.

    One pass visits the nodes by down-set size: a strict restriction has a
    smaller down-set, so every cover is decided before the node above it.
    Conjugation is a poset automorphism that keeps annotations, and
    conjugate edges have equal down-sets, so each conjugacy class of edges
    is decided once, at its least edge, as a worklist that always takes the
    least ready node would decide it.
    """
    if not is_disklike(o):
        raise DisklikeRequiredError("the cover-relation algorithm requires a disklike system")
    poset = restriction_poset(o)
    site = o.site
    nodes = np.flatnonzero(o.rel & ~np.eye(site.size, dtype=bool))  # flat indices, node order
    reps = site.edge_rep.ravel()[nodes]
    kept = np.zeros(len(nodes), dtype=bool)
    steps = 0
    for j in np.argsort(poset.leq.sum(axis=0), kind="stable"):
        if reps[j] != nodes[j]:
            continue  # decided with the least edge of its class
        below = np.flatnonzero(poset.covers[:, j])
        ok = kept[below] & (poset.annotation[below, j] == SUCCESS)
        verdict = bool(ok.all())
        steps += below.size if verdict else int(ok.argmin()) + 1
        kept[reps == reps[j]] = verdict
    return DisklikeResult(_wrap(o, kept), steps)


def conjecture_formula(o: TransferSystem) -> frozenset[tuple[int, int]]:
    """Edges e whose strict restrictions are all compatibility successes.

    Returned as a raw edge set: on inputs outside the conjecture's scope it
    can fail the transfer-system axioms, so no validation is attempted.
    """
    poset = restriction_poset(o)
    fails = (poset.annotation == FAILURE).any(axis=0)
    return frozenset(e for e, f in zip(poset.nodes, fails) if not f)


def _wrap(o: TransferSystem, keep) -> TransferSystem:
    """The subsystem of O keeping the non-reflexive edges that ``keep`` marks, in node order."""
    rel = np.eye(o.site.size, dtype=bool)
    rel[o.rel & ~rel] = keep
    return TransferSystem(o.site, rel)  # constructor asserts the axioms
