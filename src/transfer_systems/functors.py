"""Inflation along a quotient, N-fixed points, and the universal-transfer reduction.

For a normal subgroup N of G the subgroup lattice of G/N is identified with
the interval [N, G] inside Sub(G), a plain site (``interval_above``) that a
:class:`QuotientContext` records with the parent; ``quotient_context`` is
the one way to build a context, and builds its tables.  Inflation pulls a
transfer system on the interval back to G via the membership test

    K -> H  is inflated  iff  KN -> HN is an interval transfer and K = KN /\\ H,

which matches the restriction closure of the preimage (the closure route is
kept as a test oracle since it costs a full generation pass).  Everything
in the test but the interval transfer depends only on (G, N), so the parent
caches it per N: inflation and the fixed points are one gather each through
those tables, and each result still passes the constructor's axiom check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .compat import _blocked, _recursive, is_compatible, max_compat_recursive
from .errors import (
    DisklikeRequiredError,
    GroupSiteRequiredError,
    InternalCheckError,
)
from .sites import Site, interval_above
from .systems import TransferSystem, _require_same_site, is_disklike, is_saturated


@dataclass(frozen=True, eq=False)
class QuotientContext:
    """The one record of G -> G/N, built only by ``quotient_context``: the
    parent, the interval site [N, G], and two read-only arrays:
    ``to_parent``, the parent index of each interval node in increasing
    order, and int32 ``kn``, where ``kn[k]`` is the parent index of the
    product KN (the join, N being normal).

    Three private read-only tables, which depend only on (G, N), serve
    ``fixed_points`` and ``inflate``: ``_fix`` (m-by-m intp) is the parent
    flat index of each interval pair; ``_lift`` (n-by-n intp) is, for each
    parent pair K, H, the interval flat index of KN -> HN; ``_mask``
    (n-by-n bool) is ``K == KN /\\ H``, which implies K <= H.  The parent
    caches everything but the record itself, which would refer back to the
    parent and keep it alive until a full garbage collection.  Equality and
    hashing are by identity, as a ``Site``'s.
    """

    parent: Site
    interval_site: Site
    to_parent: np.ndarray
    kn: np.ndarray
    _fix: np.ndarray = field(repr=False)
    _lift: np.ndarray = field(repr=False)
    _mask: np.ndarray = field(repr=False)


def quotient_context(parent: Site, n: int) -> QuotientContext:
    """The context of G -> G/N for the normal subgroup at node n.

    Refuses a poset site, then (through ``interval_above``) a node the
    action does not fix, before any table is built.  The parent caches,
    per normal subgroup, the interval site, ``to_parent``, ``kn`` and the
    ``fix``, ``lift`` and ``mask`` tables, in that order, with no
    reference back to it: so repeated reductions share one interval site
    and one set of tables, and a parent no one holds is freed at once.
    The tables take, per N, one n-by-n intp index table and one n-by-n
    bool mask, and one m-by-m intp table for the m interval nodes.
    """
    if parent.lattice is None:
        raise GroupSiteRequiredError("quotient contexts require a group subgroup lattice")
    cache = parent._cache.setdefault("quotient_context", {})
    parts = cache.get(n)
    if parts is None:
        interval_site = interval_above(parent, n)
        to_parent = np.flatnonzero(parent.leq[n])
        # KN is the join.  Subgroups are sorted by order, and every common
        # upper bound of K and N contains the join, so the first one is it.
        kn = (parent.leq & parent.leq[n]).argmax(axis=1).astype(np.int32)
        sub_of = np.searchsorted(to_parent, kn)  # interval index of KN
        fix = to_parent[:, None] * parent.size + to_parent
        lift = sub_of[:, None] * len(to_parent) + sub_of
        mask = parent.meet[kn, :] == np.arange(parent.size)[:, None]
        arrays = (to_parent, kn, fix, lift, mask)
        for array in arrays:
            array.flags.writeable = False
        parts = cache[n] = (interval_site, *arrays)
    return QuotientContext(parent, *parts)


def inflate(ctx: QuotientContext, o_bar: TransferSystem) -> TransferSystem:
    """Pull a transfer system on [N, G] back to G.

    Refuses a system from any site but the context's interval site.  K -> H
    is kept iff the context's mask holds (K == KN /\\ H, so K <= H) and
    O-bar holds KN -> HN: one gather of O-bar through ``lift``.
    """
    message = "inflate input must live on the interval site of the context"
    _require_same_site(o_bar.site, ctx.interval_site, message)
    lifted = o_bar.rel.take(ctx._lift)  # KN -> HN is an interval transfer
    return TransferSystem(ctx.parent, ctx._mask & lifted)  # constructor asserts validity


def fixed_points(ctx: QuotientContext, o: TransferSystem) -> TransferSystem:
    """Restrict a G-transfer system to the interval [N, G]: one gather through ``fix``."""
    _require_same_site(o.site, ctx.parent, "fixed_points input must live on the parent site")
    return TransferSystem(ctx.interval_site, o.rel.take(ctx._fix))


def minimal_transferring_subgroup(o: TransferSystem) -> int:
    """N_O: the meet of all sources of transfers into the top node.

    Equals top when the only such transfer is reflexive.  For every
    transfer system the result transfers to top and is fixed by the site
    action (normal, for group sites), and both are asserted:

    * the sources into top are closed under meets: h1 -> top restricted
      along h2 gives h1 /\\ h2 -> h2, and composing with h2 -> top gives
      h1 /\\ h2 -> top; so their meet is itself a source;
    * the sources form an action-stable set, since O is action-closed and
      the action fixes top; so their meet is fixed too.
    """
    site = o.site
    top = site.top
    meet = site.meet
    n = top
    for h in o.rel[:, top].nonzero()[0].tolist():
        n = int(meet[n, h])
    if not o.rel[n, top]:
        raise InternalCheckError("minimal transferring subgroup lost its top transfer")
    if set(site.action[:, n].tolist()) != {n}:
        raise InternalCheckError("minimal transferring subgroup is not action-fixed")
    return n


def universal_reduction(o: TransferSystem) -> TransferSystem:
    """M(O) for disklike O, computed on the quotient by N_O and inflated back.

    M(O) = Inf_N M(Fix_N O) with N = N_O: the fixed points and the inflation
    each read the parent's per-N tables.  The result is checked against an
    independent direct computation, the recursive kernel ``_recursive`` of
    ``compat`` on a stack of one, byte for byte against the result's key.

    Refused on abstract sites: the reduction is specific to group
    quotients and is known to fail for categorical transfer systems.
    """
    site = o.site
    if site.lattice is None:
        raise GroupSiteRequiredError(
            "universal reduction is only valid over a group subgroup lattice"
        )
    if not is_disklike(o):
        raise DisklikeRequiredError("universal reduction requires a disklike system")
    ctx = quotient_context(site, minimal_transferring_subgroup(o))
    result = inflate(ctx, max_compat_recursive(fixed_points(ctx, o)))
    rels = o.rel[None]
    if _recursive(site, rels, _blocked(site, rels))[0].tobytes() != result.key:
        raise InternalCheckError("universal reduction disagrees with the direct computation")
    return result


def check_preservation(
    ctx: QuotientContext, o_bar: TransferSystem, om_bar: TransferSystem
) -> tuple[bool, bool, bool, bool]:
    """Evaluate the four inflation-preservation implications concretely.

    Returns one boolean per statement, each True iff (hypothesis implies
    conclusion) holds for these inputs: disklike, saturated, compatibility,
    and maximal compatibility are preserved by inflation.  A system from
    another site is refused by ``inflate``, with its message.
    """
    p_o = inflate(ctx, o_bar)
    p_om = inflate(ctx, om_bar)

    def implies(a: bool, b: bool) -> bool:
        return (not a) or b

    return (
        implies(is_disklike(o_bar), is_disklike(p_o)),
        implies(is_saturated(o_bar).saturated, is_saturated(p_o).saturated),
        implies(is_compatible(o_bar, om_bar).compatible, is_compatible(p_o, p_om).compatible),
        implies(om_bar == max_compat_recursive(o_bar), p_om == max_compat_recursive(p_o)),
    )
