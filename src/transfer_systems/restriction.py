"""The restriction poset of a transfer system, with compatibility annotations.

Nodes are the non-reflexive transfers of a system O.  For e: K -> H and
r: K' -> J, r <= e iff J <= H and K' = K /\\ J (e "restricts onto" r); such
an r is automatically in O.  Each comparable pair is annotated as a
compatibility success or failure:

    failure  iff  K /\\ J -> K is in O and J -> H is not,

and exactly one of the two holds.  The poset is built from the site's meet
table in whole arrays: every (node e, J <= H) pair is listed at once, its
restriction K /\\ J -> J is looked up in an n-by-n node-index table, and
``leq`` and ``annotation`` are filled by one fancy-index assignment each.
The poset keeps only these arrays; callers read them directly (a node's
strict restrictions are column j of ``leq`` off the diagonal).  It is
computed once per system and cached.

With m = |O| reaching about 940 on S5, the m-by-m poset is built only where
its order itself is read: by the disklike M(O), which walks its covers, and
by the cover count C_O (``count_cover_relations``, the audit's step ratio).
The recursive M(O), the oracle and the conjecture formula decide the same
annotations from the site's n-by-n matrices instead (see ``compat``).  The
cover relation costs a boolean m-by-m product, so it is computed on first
use.  ``cover_relation`` is the one cover-relation helper; the renderers use
it on the site order too.  Its m-by-m product stays a NumPy bool ``@`` (see
``cover_relation``), while the site-sized products elsewhere run through
``sites._bmm``.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .systems import TransferSystem

NOT_COMPARABLE = 0
SUCCESS = 1
FAILURE = 2


def cover_relation(leq: np.ndarray) -> np.ndarray:
    """``covers[i, j]``: i < j in the order ``leq`` with nothing strictly between.

    The product stays a bool ``@`` rather than ``sites._bmm``: m reaches
    ~940 on S5, and there float32 operands raised the ``conjecture``
    benchmark's peak RSS by 8.8%, near its 10% bound.
    """
    strict = leq & ~np.eye(leq.shape[0], dtype=bool)
    return strict & ~(strict @ strict)


class RestrictionPoset:
    """Poset (<=, covers) over the non-reflexive edges of one system.

    Attributes:
        owner: the system whose edges are the nodes.
        nodes: edges in canonical (src, dst) order.
        leq: boolean matrix, ``leq[i, j]`` iff nodes[j] restricts onto nodes[i].
        annotation: int8 matrix over comparable pairs (SUCCESS / FAILURE),
            NOT_COMPARABLE elsewhere.
        covers: cover relation of ``leq``, computed on first access and
            then cached.

    All matrices are read-only.
    """

    def __init__(self, ts: "TransferSystem"):
        site = ts.site
        self.owner = ts
        self.nodes = ts.edges()
        m = len(self.nodes)
        rel = ts.rel
        ks, hs = np.nonzero(rel & ~np.eye(site.size, dtype=bool))  # nodes, in order
        node_of = np.full((site.size, site.size), -1, dtype=np.intp)
        node_of[ks, hs] = np.arange(m)
        # every (node j = K -> H, J <= H) restricts onto r = K /\ J -> J
        j, jj = np.nonzero(site.leq[:, hs].T)
        src = site.meet[ks[j], jj]
        i = node_of[src, jj]
        proper = i >= 0  # a reflexive restriction is not a poset node
        i, j, jj, src = i[proper], j[proper], jj[proper], src[proper]
        failed = rel[src, ks[j]] & ~rel[jj, hs[j]]
        self.leq = np.eye(m, dtype=bool)
        self.leq[i, j] = True
        self.annotation = np.zeros((m, m), dtype=np.int8)
        self.annotation[i, j] = np.where(failed, FAILURE, SUCCESS)
        self.leq.flags.writeable = False
        self.annotation.flags.writeable = False

    @cached_property
    def covers(self) -> np.ndarray:
        covers = cover_relation(self.leq)
        covers.flags.writeable = False
        return covers

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def cover_count(self) -> int:
        return int(self.covers.sum())


def restriction_poset(ts: "TransferSystem") -> RestrictionPoset:
    """The (cached) restriction poset of a transfer system."""
    poset = ts._cache.get("restriction_poset")
    if poset is None:
        poset = RestrictionPoset(ts)
        ts._cache["restriction_poset"] = poset
    return poset
