"""Inflation along a quotient, N-fixed points, and the universal-transfer reduction.

For a normal subgroup N of G the subgroup lattice of G/N is identified with
the interval [N, G] inside Sub(G), a plain site (``interval_above``) that a
:class:`QuotientContext` records with the parent.  Inflation pulls a
transfer system on the interval back to G via the membership test

    K -> H  is inflated  iff  KN -> HN is an interval transfer and K = KN /\\ H,

which matches the restriction closure of the preimage (the closure route is
kept as a test oracle since it costs a full generation pass).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compat import is_compatible, max_compat_recursive
from .errors import (
    DisklikeRequiredError,
    GroupSiteRequiredError,
    InternalCheckError,
)
from .sites import Site, interval_above
from .systems import TransferSystem, _require_same_site, is_disklike, is_saturated


@dataclass(frozen=True, eq=False)
class QuotientContext:
    """The one record of G -> G/N: the parent, the interval site [N, G], and
    two read-only arrays: ``to_parent``, the parent index of each interval
    node in increasing order, and int32 ``kn``, where ``kn[k]`` is the parent
    index of the product KN (the join, N being normal).  The parent caches
    the last three and never the record itself, which would refer back to
    the parent and keep it alive until a full garbage collection.
    Equality and hashing are by identity, as a ``Site``'s.
    """

    parent: Site
    interval_site: Site
    to_parent: np.ndarray
    kn: np.ndarray


def quotient_context(parent: Site, n: int) -> QuotientContext:
    """The context of G -> G/N for the normal subgroup at node n.

    The interval site and both arrays are cached on the parent per normal
    subgroup, with no reference back to it, so repeated reductions share
    one interval site and a parent no one holds is freed at once.
    """
    if parent.lattice is None:
        raise GroupSiteRequiredError("quotient contexts require a group subgroup lattice")
    cache = parent._cache.setdefault("quotient_context", {})
    parts = cache.get(n)
    if parts is None:
        to_parent = np.flatnonzero(parent.leq[n])
        to_parent.flags.writeable = False
        # KN is the join.  Subgroups are sorted by order, and every common
        # upper bound of K and N contains the join, so the first one is it.
        kn = (parent.leq & parent.leq[n]).argmax(axis=1).astype(np.int32)
        kn.flags.writeable = False
        parts = cache[n] = (interval_above(parent, n), to_parent, kn)
    return QuotientContext(parent, *parts)


def _require_interval_system(ctx: QuotientContext, ts: TransferSystem, what: str) -> None:
    message = f"{what} must live on the interval site of the context"
    _require_same_site(ts.site, ctx.interval_site, message)


def inflate(ctx: QuotientContext, o_bar: TransferSystem) -> TransferSystem:
    """Pull a transfer system on [N, G] back to G."""
    _require_interval_system(ctx, o_bar, "inflate input")
    parent = ctx.parent
    sub_of = np.searchsorted(ctx.to_parent, ctx.kn)  # interval index of KN
    lifted = o_bar.rel[sub_of[:, None], sub_of]  # KN -> HN is an interval transfer
    anchored = parent.meet[ctx.kn, :] == np.arange(parent.size)[:, None]  # K == KN /\ H
    rel = parent.leq & lifted & anchored
    return TransferSystem(parent, rel)  # constructor asserts validity


def fixed_points(ctx: QuotientContext, o: TransferSystem) -> TransferSystem:
    """Restrict a G-transfer system to the interval [N, G]."""
    _require_same_site(o.site, ctx.parent, "fixed_points input must live on the parent site")
    idx = ctx.to_parent
    return TransferSystem(ctx.interval_site, o.rel[idx[:, None], idx])


def minimal_transferring_subgroup(o: TransferSystem) -> int:
    """N_O: the meet of all sources of transfers into the top node.

    Equals top when the only such transfer is reflexive.  For disklike
    systems the result is asserted to transfer to top and to be fixed by
    the site action (normal, for group sites).
    """
    site = o.site
    n = site.top
    for h in np.flatnonzero(o.rel[:, site.top]):
        n = int(site.meet[n, int(h)])
    if is_disklike(o):
        if not o.rel[n, site.top]:
            raise InternalCheckError("minimal transferring subgroup lost its top transfer")
        if not (site.action[:, n] == n).all():
            raise InternalCheckError("minimal transferring subgroup is not action-fixed")
    return n


def universal_reduction(o: TransferSystem) -> TransferSystem:
    """M(O) for disklike O, computed on the quotient by N_O and inflated back.

    Refused on abstract sites: the reduction is specific to group
    quotients and is known to fail for categorical transfer systems.
    """
    if o.site.lattice is None:
        raise GroupSiteRequiredError(
            "universal reduction is only valid over a group subgroup lattice"
        )
    if not is_disklike(o):
        raise DisklikeRequiredError("universal reduction requires a disklike system")
    n = minimal_transferring_subgroup(o)
    ctx = quotient_context(o.site, n)
    m_bar = max_compat_recursive(fixed_points(ctx, o))
    result = inflate(ctx, m_bar)
    if result != max_compat_recursive(o):
        raise InternalCheckError("universal reduction disagrees with the direct computation")
    return result


def check_preservation(
    ctx: QuotientContext, o_bar: TransferSystem, om_bar: TransferSystem
) -> tuple[bool, bool, bool, bool]:
    """Evaluate the four inflation-preservation implications concretely.

    Returns one boolean per statement, each True iff (hypothesis implies
    conclusion) holds for these inputs: disklike, saturated, compatibility,
    and maximal compatibility are preserved by inflation.
    """
    _require_interval_system(ctx, o_bar, "check_preservation o_bar")
    _require_interval_system(ctx, om_bar, "check_preservation om_bar")
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
