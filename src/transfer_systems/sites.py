"""Sites: finite bounded lattices carrying an automorphism action.

A :class:`Site` is the common habitat for transfer systems.  Group subgroup
lattices become sites whose action is conjugation; abstract posets read from
files become sites with a trivial (or user-declared) action.  All transfer
system machinery downstream runs identically on both kinds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DescriptorError,
    InputFileError,
    InternalCheckError,
    NotNormalError,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    SubgroupLattice,
    _permutation_group,
    build_group,
    subgroup_lattice,
)

# Inner dimension from which _bmm runs on BLAS.  Timed with NumPy 2.4 on
# OpenBLAS 0.3.31 (2 vCPUs), random n-by-n operands of density 0.05 to 0.5,
# bool @ against float32 @ plus > 0: bool is faster up to n = 12 (by 1.3 to
# 2.5x), the two cross between n = 16 and 24, and float32 is faster by 1.1
# to 2.1x at n = 24, 1.3 to 6.7x at n = 40 and 8.8x at n = 156 (S5).
_BMM_BLAS_MIN = 24


def _bmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The boolean matrix product ``a @ b`` of two bool arrays.

    NumPy's bool ``@`` does not use BLAS.  From an inner dimension
    ``len(b)`` of ``_BMM_BLAS_MIN`` up the product runs in float32 and is
    compared with 0.  This is exact: each entry is a sum of ``len(b)`` terms
    equal to 0 or 1, which float32 holds exactly below 2**24 whatever the
    summation order or thread count, so the result does not depend on the
    BLAS build.
    """
    if len(b) < _BMM_BLAS_MIN:  # len() is cheaper than .shape on hot small calls
        return a @ b
    return np.matmul(a, b, dtype=np.float32) > 0


class Site:
    """A finite bounded lattice plus a set of lattice automorphisms.

    Attributes:
        size: number of nodes.
        leq: boolean partial-order matrix with unique bottom and top.
        meet: greatest-lower-bound table, an int32 array derived from
            ``leq``; deriving it is also the lattice check.
        action: tuple of node permutations forming a group: it contains the
            identity and is closed under composition (hence under inverse,
            being finite).  ``_check`` enforces both.
        edge_rep: n-by-n int table; ``edge_rep[K, H]`` is the flat index
            ``k * n + h`` of the lexicographically least edge (k, h) in the
            action orbit of (K, H).  Orbit questions read this table instead
            of looping over the action; it is exact because the action is a
            group, so orbits partition the pairs.
        labels: display names, unique per node.
        kind: ``"group"`` for conjugation sites, ``"abstract"`` otherwise.
        lattice: the source SubgroupLattice for plain group sites, else None.
        descriptor: string that rebuilds this site, if available.

    Derived data that depends on the site alone (such as the generated
    systems T(e) the compatibility oracle reuses) is cached in ``_cache``;
    it lives and dies with this object.
    """

    def __init__(
        self,
        leq: np.ndarray,
        action: tuple[np.ndarray, ...],
        labels: tuple[str, ...],
        kind: str,
        lattice: SubgroupLattice | None = None,
        descriptor: str | None = None,
    ):
        self.size = int(leq.shape[0])
        self.leq = leq
        self.action = action
        self.labels = labels
        self.kind = kind
        self.lattice = lattice
        self.descriptor = descriptor
        self._action_array = np.stack(action)  # |G| x n, row g is action[g]
        self._check()
        self.leq.flags.writeable = False
        self.meet.flags.writeable = False
        for p in self.action:
            p.flags.writeable = False
        self._action_array.flags.writeable = False
        n = self.size
        rep = np.arange(n * n).reshape(n, n)
        for p in self.action:
            np.minimum(rep, p[:, None] * n + p[None, :], out=rep)
        self.edge_rep = rep
        self.edge_rep.flags.writeable = False
        self.bottom = int(np.flatnonzero(leq[:, :].all(axis=1))[0])
        self.top = int(np.flatnonzero(leq[:, :].all(axis=0))[0])
        self.pairs = tuple(map(tuple, np.argwhere(leq & ~np.eye(n, dtype=bool)).tolist()))
        self._label_index = {lab: i for i, lab in enumerate(labels)}
        raw = leq.tobytes() + b"|" + b",".join(p.tobytes() for p in self.action)
        self.key = hashlib.sha256(raw).digest()
        self._cache: dict = {}

    def _check(self) -> None:
        n = self.size
        leq = self.leq
        if not np.all(np.diag(leq)):
            raise InputFileError("order is not reflexive")
        if np.any(leq & leq.T & ~np.eye(n, dtype=bool)):
            raise InputFileError("cycle detected: order is not antisymmetric")
        if np.any(_bmm(leq, leq) & ~leq):
            raise InputFileError("order is not transitive")
        if int(leq.all(axis=1).sum()) != 1:
            raise InputFileError("no unique bottom element")
        if int(leq.all(axis=0).sum()) != 1:
            raise InputFileError("no unique top element")
        self.meet = _derive_meet(leq, self.labels)
        if len(self.labels) != n or len(set(self.labels)) != n:
            raise InternalCheckError("labels must be unique, one per node")
        if not any(np.array_equal(p, np.arange(n)) for p in self.action):
            raise InternalCheckError("action must contain the identity")
        known = {p.tobytes() for p in self.action}
        for p in self.action:
            if not all(q.tobytes() in known for q in p[self._action_array]):
                raise InternalCheckError("action must be closed under composition")
        for p in self.action:
            if not np.array_equal(leq[np.ix_(p, p)], leq):
                raise InputFileError("declared automorphism does not preserve the order")

    def node(self, label: str) -> int:
        """Node index for a display label (or a bare numeric index)."""
        if label in self._label_index:
            return self._label_index[label]
        if label.isdigit():
            i = int(label)
            if 0 <= i < self.size:
                return i
        raise DescriptorError(
            f"unknown node {label!r}; run the `lattice` subcommand to list labels"
        )

    def orbit(self, edge: tuple[int, int]) -> frozenset[tuple[int, int]]:
        """Orbit of an edge under the action."""
        ks, hs = np.nonzero(self.edge_rep == self.edge_rep[edge])
        return frozenset(zip(ks.tolist(), hs.tolist()))

    def orbit_representatives(self, edges) -> list[tuple[int, int]]:
        """Lexicographically least member of each edge orbit, in order.

        Generated transfer systems depend on a generator edge only through
        its orbit, so enumerations may expand representatives only.
        """
        edges = list(edges)
        if not edges:
            return []
        reps = self.edge_rep[tuple(np.array(edges).T)]
        _, first = np.unique(reps, return_index=True)
        return [divmod(int(r), self.size) for r in reps[np.sort(first)]]

    def subset_orbit_key(self, edges) -> tuple:
        """Canonical key of an edge set under the simultaneous action.

        The lexicographically least sorted image of the edge set over the
        action: images are flat edge indices, one sorted row per
        permutation, and the key is the least row.
        """
        edges = list(edges)
        if not edges:
            return ()
        ks, hs = np.array(edges).T
        images = self._action_array[:, ks] * self.size + self._action_array[:, hs]
        images.sort(axis=1)
        least = images[np.lexsort(images.T[::-1])[0]]
        return tuple(divmod(int(f), self.size) for f in least)


def _derive_meet(leq: np.ndarray, labels: tuple[str, ...]) -> np.ndarray:
    """The meet table of a bounded order, or an error naming a pair without one.

    A common lower bound m of a and b is their meet iff down(m) equals
    down(a) & down(b), i.e. iff the two sets have the same size.  The common
    lower bound with the largest down-set is the only candidate, so each row
    takes the first one in that order; the first pair a <= b (by index)
    whose candidate fails the count is named.
    """
    n = leq.shape[0]
    f = leq.astype(np.float32)
    down = f.sum(axis=0)  # |down(x)|
    common = f.T @ f  # |down(a) & down(b)|, exact below 2**24 nodes
    rank = np.argsort(-down, kind="stable")
    below = leq.T[:, rank]  # row a is down(a), largest down-sets first
    meet = np.empty((n, n), dtype=np.int32)
    for a in range(n):
        meet[a] = rank[(below & below[a]).argmax(axis=1)]
    bad = np.triu(down[meet] != common)
    if bad.any():
        a, b = np.argwhere(bad)[0]
        raise InputFileError(f"not a lattice: {labels[a]} and {labels[b]} have no meet")
    return meet


def site_from_lattice(latt: SubgroupLattice) -> Site:
    """The site of a subgroup lattice with its conjugation action."""
    # The distinct conjugation permutations in lexicographic order.  (Not
    # np.unique(axis=0): its row sort has a transient peak of ~1 MB on S5.)
    rows = latt.conj_action[np.lexsort(latt.conj_action.T[::-1])]
    action = tuple(rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]])
    return Site(
        leq=latt.leq.copy(),
        action=action,
        labels=latt.labels,
        kind="group",
        lattice=latt,
        descriptor=latt.group.descriptor,
    )


@dataclass(frozen=True)
class IntervalView:
    """The sub-site on {H : N <= H <= top} with index maps to the parent."""

    site: Site
    parent: Site
    normal_index: int
    to_parent: tuple[int, ...]
    from_parent: dict[int, int] = field(hash=False)


def interval_above(latt_or_site, n: int) -> IntervalView:
    """Induced site on the subgroups containing a normal subgroup n."""
    if isinstance(latt_or_site, SubgroupLattice):
        parent = site_from_lattice(latt_or_site)
    else:
        parent = latt_or_site
    if not all(int(p[n]) == n for p in parent.action):
        raise NotNormalError(f"node {parent.labels[n]} is not fixed by the action")
    if parent.kind == "group" and parent.lattice is not None:
        if not parent.lattice.normal[n]:
            raise NotNormalError(f"subgroup {parent.labels[n]} is not normal")
    nodes = [int(i) for i in np.flatnonzero(parent.leq[n])]
    from_parent = {p: i for i, p in enumerate(nodes)}
    idx = np.array(nodes)
    leq = parent.leq[np.ix_(idx, idx)].copy()
    perms = sorted({tuple(from_parent[int(p[v])] for v in nodes) for p in parent.action})
    action = tuple(np.array(p, dtype=np.int32) for p in perms)
    labels = tuple(parent.labels[v] for v in nodes)
    descriptor = None
    if parent.descriptor is not None:
        descriptor = f"{parent.descriptor}|above:{parent.labels[n]}"
    site = Site(leq, action, labels, kind=parent.kind, lattice=None, descriptor=descriptor)
    return IntervalView(site, parent, n, tuple(nodes), from_parent)


# ---------------------------------------------------------------------------
# Poset files

POSET_FORMAT = """\
Poset file format: one `nodes:` line then `cover:` lines, e.g.

    nodes: bot a b top
    cover: bot a
    cover: bot b
    cover: a top
    cover: b top
    auto: bot b a top    # optional automorphism (images in `nodes:` order)
"""


def parse_poset_text(text: str, descriptor: str | None = None) -> Site:
    names: list[str] = []
    covers: list[tuple[str, str]] = []
    autos: list[list[str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        parts = rest.split()
        if key == "nodes":
            if names:
                raise InputFileError(f"line {lineno}: duplicate nodes: line")
            names = parts
        elif key == "cover":
            if len(parts) != 2:
                raise InputFileError(f"line {lineno}: cover needs exactly two node names")
            covers.append((parts[0], parts[1]))
        elif key == "auto":
            autos.append(parts)
        else:
            raise InputFileError(f"line {lineno}: unknown directive {key!r}")
    if not names:
        raise InputFileError("missing nodes: line")
    if len(set(names)) != len(names):
        raise InputFileError("duplicate node names")
    index = {nm: i for i, nm in enumerate(names)}
    n = len(names)
    leq = np.eye(n, dtype=bool)
    for a, b in covers:
        if a not in index or b not in index:
            raise InputFileError(f"cover references unknown node in {a!r} {b!r}")
        leq[index[a], index[b]] = True
    # transitive closure
    for k in range(n):
        leq |= np.outer(leq[:, k], leq[k, :])
    perms = []
    for parts in autos:
        if sorted(parts) != sorted(names):
            raise InputFileError(f"auto: line must permute all node names: {parts}")
        perms.append(tuple(index[p] for p in parts))
    closed = _permutation_group(perms, n, DEFAULT_ORDER_CAP, "auto: lines")
    action = tuple(np.array(p, dtype=np.int32) for p in closed)
    return Site(leq, action, tuple(names), kind="abstract", descriptor=descriptor)


def site_from_poset_file(path: str | Path) -> Site:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputFileError(f"cannot read poset file {path}: {exc}") from None
    return parse_poset_text(text, descriptor=f"poset:{path}")


def site_from_descriptor(descriptor: str, order_cap: int = 1000) -> Site:
    """Rebuild a site from its descriptor string.

    Understands group descriptors, ``poset:FILE``, and interval descriptors
    of the form ``<parent>|above:<label>``.
    """
    descriptor = descriptor.strip()
    if "|above:" in descriptor:
        parent_desc, _, label = descriptor.rpartition("|above:")
        parent = site_from_descriptor(parent_desc, order_cap)
        return interval_above(parent, parent.node(label)).site
    if descriptor.startswith("poset:"):
        return site_from_poset_file(descriptor[len("poset:") :])
    return site_from_lattice(subgroup_lattice(build_group(descriptor, order_cap)))
