"""Sites: finite bounded lattices carrying an automorphism action.

A :class:`Site` is the common habitat for transfer systems.  Group subgroup
lattices become sites whose action is conjugation; abstract posets read from
files become sites with a trivial (or user-declared) action.  All transfer
system machinery downstream runs identically on both kinds.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    CapExceededError,
    DescriptorError,
    InputFileError,
    InternalCheckError,
    NotNormalError,
    UsageError,
)
from .groups import (
    _BLOCK_ENTRIES,
    DEFAULT_ORDER_CAP,
    DEFAULT_SUBGROUP_CAP,
    SubgroupLattice,
    _content_lines,
    _count,
    _greedy_generators,
    _permutation_group,
    _product_table,
    _read_file,
    _row_finder,
    _sorted_rows,
    build_group,
    parse_group_descriptor,
    subgroup_lattice,
)

# Multiply-adds from which _bmm runs on BLAS.  Timed with NumPy 2.4 on
# OpenBLAS 0.3.31 (2 vCPUs), random bool operands of density 0.3: for
# matrices and (B, n, n) stacks of every n from 5 to 24 and B from 1 to 64,
# bool @ is faster below about 6,000 multiply-adds (2.5x at 125) and float32
# @ plus > 0 from about 8,000 (1.2x at 8,000, 3.5x at 16,000, 8 to 35x on
# stacks of 32 or more).  A single n-by-n product thus switches at n = 20.
_BMM_BLAS_WORK = 8000


def _bmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The boolean matrix product ``a @ b`` of two bool arrays.

    ``a`` is a matrix, a vector or a (B, n, k) stack; ``b`` is a matrix, a
    vector, or a (B, k, p) stack under a matrix ``a`` or one as long as
    ``a`` (``np.matmul`` broadcasting).  NumPy's bool ``@`` does not use
    BLAS, and on stacks its cost grows much faster than the work.  So from
    ``_BMM_BLAS_WORK`` multiply-adds up (``a.size * b.shape[-1]``, times B
    for a stack ``b`` under a matrix ``a``), the product is the exact
    float32 count of ``groups._count`` compared with 0.  A vector ``b``, or
    a ``b`` of one column, always takes bool ``@``: a bool matrix-vector
    product outruns the cast (6 us against 440 us at 1000 x 1000, and
    3.7 against 7.9 ms at 1500 x 2500).
    """
    work = a.size * b.shape[-1] * (len(b) if b.ndim > a.ndim == 2 else 1)
    if b.ndim == 1 or b.shape[-1] == 1 or work < _BMM_BLAS_WORK:
        return a @ b
    return _count(a, b) > 0


class Site:
    """A finite bounded lattice plus a set of lattice automorphisms.

    Attributes:
        size: number of nodes.
        leq: boolean partial-order matrix with unique bottom and top.
        bottom, top: the indices of the least and the greatest node.
        meet: greatest-lower-bound table, an int32 array derived from
            ``leq`` and ``covers`` in one pass over the nodes by down-set
            size (``_derive_meet``); deriving it is also the lattice check.
        meet_flat: intp table ``meet_flat[K, L] = meet[K, L] * n + L``, so
            that ``rel.ravel()[meet_flat]`` gathers ``rel[K /\\ L, L]`` of an
            n-by-n ``rel`` in one flat take (its ``.T`` is ``rel[K /\\ L, K]``).
        action: read-only int32 array of node permutations, one per row:
            the distinct rows of the ``action`` given (any stack, repeats
            allowed) in lexicographic order (``groups._sorted_rows``, the
            order of a permutation group's elements too), so the identity
            is row 0.  ``_check`` enforces that each row is a permutation,
            that the identity is present, that the rows are closed under
            composition (hence under inverse, being finite), checked over
            the greedy generating set of ``groups._greedy_generators``
            (``_generators``, one ``groups._product_table`` column per
            generator), and that every row preserves the order, read off
            ``edge_rep``: ``leq`` must be a union of its orbits.
        covers: read-only cover relation of ``leq``: ``covers[J, H]`` iff
            J < H with nothing strictly between.
        edge_rep: n-by-n int table; ``edge_rep[K, H]`` is the flat index
            ``k * n + h`` of the lexicographically least edge (k, h) in the
            action orbit of (K, H).  Orbit questions read this table instead
            of looping over the action; it is exact because the action is a
            group, so orbits partition the pairs.
        orbit_reps: read-only n-by-n bool table, computed on first use:
            ``orbit_reps[K, H]`` iff K < H and (K, H) is the least edge of
            its orbit (``edge_rep[K, H] == K * n + H``).  Transfer systems
            are action-closed, so T(g.e) = T(e), and every selection of
            one edge per orbit in the library reads this table by flat
            edge index: ``np.flatnonzero(rel & orbit_reps)`` lists the
            orbits a relation holds, each at its least edge, in row-major
            order, which is the order a row-major scan meets the orbits.
        labels: display names, unique per node.
        lattice: the source SubgroupLattice for plain group sites, else
            None; ``lattice is not None`` is the test for a group site.
        descriptor: string that rebuilds this site, if available.

    Derived data that depends on the site alone is cached in ``_cache``;
    it lives and dies with this object, so a second site built from the
    same descriptor starts empty.  One such entry is the T(e) cache of
    ``systems._edge_systems``: one read-only relation per edge orbit, which
    the disklike test, ``complexity`` and the M(O) oracle share.  Another
    is ``"checked"``, the set of keys of the relations that passed the
    axiom check on this site (``systems._check_stack``, run by the
    ``TransferSystem`` constructor, and through ``_check_blocks`` by the
    enumerators' BFS and the T(e) cache), so each distinct relation is
    checked once.
    """

    def __init__(
        self,
        leq: np.ndarray,
        action: np.ndarray | Sequence,
        labels: tuple[str, ...],
        lattice: SubgroupLattice | None = None,
        descriptor: str | None = None,
    ):
        self.size = int(leq.shape[0])
        self.leq = leq
        self.action = _sorted_rows(np.asarray(action, dtype=np.int32))
        self.labels = labels
        self.lattice = lattice
        self.descriptor = descriptor
        self._check()
        self.meet_flat = self.meet.astype(np.intp) * self.size + np.arange(self.size)
        for a in (self.leq, self.meet, self.meet_flat, self.covers, self.action, self.edge_rep):
            a.flags.writeable = False
        self._label_index = {lab: i for i, lab in enumerate(labels)}
        # leq, "|" and the action rows joined by ",", fed piece by piece
        key = hashlib.sha256(np.ascontiguousarray(leq))
        for i, p in enumerate(self.action):
            key.update(b"," if i else b"|")
            key.update(p)
        self.key = key.digest()
        self._cache: dict = {}

    def _check(self) -> None:
        """Set ``covers``, ``bottom``, ``top``, ``meet`` and ``edge_rep``, or raise.

        The rules are checked in this order, and the first one broken
        raises: unique labels, reflexive, antisymmetric, transitive, a
        unique bottom and top, meets, an action of permutations holding
        the identity and closed under composition, and order preservation.
        Each check reads a table the site keeps or builds anyway.  The
        chain counts ``c[K, H] = |{J : K <= J <= H}|`` give antisymmetry
        (``c[K, K] > 1`` iff some J != K has K <= J <= K), transitivity
        (``c > 0`` only where ``leq``) and the covers (``c == 2``).  Order
        preservation reads ``edge_rep``: the order is a union of edge
        orbits iff ``leq.ravel()[edge_rep] == leq``, iff every generator,
        and so every row, maps the order onto itself.
        """
        n = self.size
        leq = self.leq
        if len(self.labels) != n or len(set(self.labels)) != n:
            raise InternalCheckError("labels must be unique, one per node")
        if not np.all(np.diag(leq)):
            raise InputFileError("order is not reflexive")
        chains = _count(leq, leq)
        if (np.diag(chains) > 1).any():
            raise InputFileError("cycle detected: order is not antisymmetric")
        if np.any((chains > 0) & ~leq):
            raise InputFileError("order is not transitive")
        self.covers = chains == 2
        del chains
        bottoms, tops = np.flatnonzero(leq.all(axis=1)), np.flatnonzero(leq.all(axis=0))
        if len(bottoms) != 1:
            raise InputFileError("no unique bottom element")
        if len(tops) != 1:
            raise InputFileError("no unique top element")
        self.bottom, self.top = int(bottoms[0]), int(tops[0])
        self.meet = _derive_meet(leq, self.covers, self.labels)
        acts = self.action
        if acts.shape[1:] != (n,) or not (np.sort(acts, axis=1) == np.arange(n)).all():
            raise InternalCheckError("action must consist of permutations of the nodes")
        if not len(acts) or not (acts[0] == np.arange(n)).all():  # the least row
            raise InternalCheckError("action must contain the identity")
        self.edge_rep = _edge_rep(acts[_generators(acts)], n)
        if not (leq.ravel()[self.edge_rep] == leq).all():
            raise InputFileError("declared automorphism does not preserve the order")

    @cached_property
    def orbit_reps(self) -> np.ndarray:
        n = self.size
        least = self.leq & (self.edge_rep == np.arange(n * n).reshape(n, n))
        np.fill_diagonal(least, False)
        least.flags.writeable = False
        return least

    def node(self, label: str) -> int:
        """Node index for a display label (or a bare index in ASCII digits)."""
        if label in self._label_index:
            return self._label_index[label]
        if label.isascii() and label.isdigit():  # "²" and "١" are digits too
            i = int(label)
            if 0 <= i < self.size:
                return i
        raise DescriptorError(
            f"unknown node {label!r}; run the `lattice` subcommand to list labels"
        )

    def orbit_representatives(self, edges) -> list[tuple[int, int]]:
        """Lexicographically least member of each edge orbit, in order of first appearance.

        The library selects orbit representatives from the ``orbit_reps``
        table by flat index and does not call this; it takes any edges as
        (k, h) pairs, and the tests and the bench's tracing use it.
        """
        n = self.size
        reps = self.edge_rep.ravel()[[k * n + h for k, h in edges]].tolist()
        return [divmod(r, n) for r in dict.fromkeys(reps)]

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
        images = self.action[:, ks] * self.size + self.action[:, hs]
        images.sort(axis=1)
        least = images[np.lexsort(images.T[::-1])[0]]
        return tuple(divmod(int(f), self.size) for f in least)


def _generators(acts: np.ndarray) -> list[int]:
    """Indices of a generating set of the distinct rows, the identity first.

    The greedy span of ``groups._greedy_generators`` over the rows, with
    right multiplication as the move.  For a candidate g, every row times g
    is looked up among the rows: g's column of ``groups._product_table``,
    with one ``groups._row_finder`` shared by all candidates.  A product
    that is not a row raises.  The column r -> rg is a permutation of the
    rows, and its inverse (its argsort) is g's gather, since
    (span g)[y] = span[y g^-1].  Then every row is a product of generators
    and every row times a generator is a row, so the rows are closed under
    composition: p(g1...gk) = (...(p g1)...) gk.
    """
    find = _row_finder(acts)

    def move(g: int) -> np.ndarray:
        column = _product_table(acts, acts[g][None], find)[:, 0]
        if (column < 0).any():
            raise InternalCheckError("action must be closed under composition")
        return np.argsort(column)

    return _greedy_generators(len(acts), range(len(acts)), move)


def _edge_rep(gens: np.ndarray, n: int) -> np.ndarray:
    """``Site.edge_rep`` of the group the rows ``gens`` generate.

    Each entry starts as its own flat index and takes the minimum with
    ``rep[g(K), g(H)]`` for each generator g until a round changes
    nothing.  Then rep is constant on each orbit (an inverse is a power),
    so it holds the orbit's least index.  Rows are updated in place, a
    block at a time, with no copy of the table.
    """
    rep = np.arange(n * n).reshape(n, n)
    step = max(1, _BLOCK_ENTRIES // n)
    gens = gens.astype(np.intp)  # gathers by intp skip a cast
    total = rep.sum()  # entries only fall: a round changed one iff the sum fell
    while len(gens):
        for p in gens:
            for lo in range(0, n, step):
                block = rep[lo : lo + step]
                np.minimum(block, rep[p[lo : lo + step]].take(p, axis=1), out=block)
        total, last = rep.sum(), total
        if total == last:
            break
    return rep


def _derive_meet(leq: np.ndarray, covers: np.ndarray, labels: tuple[str, ...]) -> np.ndarray:
    """The meet table of a bounded order, or an error naming a pair without one.

    A common lower bound m of a and b is their meet iff down(m) equals
    down(a) & down(b), i.e. iff the two sets have the same size.  Nodes b
    are visited one at a time by |down(b)|, so each after its lower covers.
    The candidate for a and b is b where b <= a, else the one with the
    largest down-set among the candidates for a and b's lower covers.  It
    is a common lower bound, and the meet wherever one exists: the meet m
    of a and b lies below a lower cover c of b, and is then the meet of a
    and c too.  So the pairs that fail the count are exactly those without
    a meet, and the first (by index, so a <= b) is named.  ``best[b, a]``
    holds the candidate for a and b as a rank in the visiting order, so
    row b is the elementwise maximum of b's own rank where b <= a (else
    -1) and its lower covers' rows: b's rank exceeds every candidate
    below b, and among the covers' candidates the largest rank has the
    largest down-set.
    """
    down = leq.sum(axis=0, dtype=np.float32)  # |down(x)|
    order = np.argsort(down, kind="stable")
    rank = np.argsort(order).astype(np.int32)
    best = np.where(leq, rank[:, None], np.int32(-1))
    lower = covers.T.copy()  # row b: b and its lower covers
    np.fill_diagonal(lower, True)
    for b in order.tolist():
        best[b] = best[lower[b]].max(axis=0)
    meet = order.astype(np.int32)[best]
    del best
    common = _count(leq.T, leq)  # |down(a) & down(b)|
    bad = down[meet] != common  # symmetric
    if bad.any():
        a, b = np.argwhere(bad)[0]
        raise InputFileError(f"not a lattice: {labels[a]} and {labels[b]} have no meet")
    return meet


def site_from_lattice(latt: SubgroupLattice) -> Site:
    """The site of a subgroup lattice with its conjugation action."""
    return Site(
        leq=latt.leq,
        action=latt.conj_action,
        labels=latt.labels,
        lattice=latt,
        descriptor=latt.group.descriptor,
    )


def interval_above(parent: Site, n: int) -> Site:
    """The site induced on the nodes above n, a node the action fixes (a
    normal subgroup N, making it [N, G] = Sub(G/N)), with the parent's
    labels and action and the descriptor ``<parent>|above:<label>``.
    """
    if not (parent.action[:, n] == n).all():
        raise NotNormalError(f"node {parent.labels[n]} is not fixed by the action")
    nodes = np.flatnonzero(parent.leq[n])
    action = np.searchsorted(nodes, parent.action[:, nodes])  # interval indices
    leq = parent.leq[np.ix_(nodes, nodes)]
    labels = tuple(parent.labels[v] for v in nodes)
    descriptor = None
    if parent.descriptor is not None:
        descriptor = f"{parent.descriptor}|above:{parent.labels[n]}"
    return Site(leq, action, labels, descriptor=descriptor)


# ---------------------------------------------------------------------------
# Poset files

def parse_poset_text(text: str, descriptor: str | None = None,
                     order_cap: int = DEFAULT_ORDER_CAP) -> Site:
    """The site of a poset file's text: one ``nodes:`` line, ``cover:`` and ``auto:`` lines.

    The action is the group the ``auto:`` lines generate, closed by
    ``groups._permutation_group`` under ``order_cap`` (the CLI's
    ``--max-order``).

    More than ``DEFAULT_SUBGROUP_CAP`` nodes, the bound on every group
    site, is refused before any n-by-n array is allocated.
    """
    names: list[str] = []
    covers: list[tuple[int, str, str]] = []
    autos: list[list[str]] = []
    for lineno, line in _content_lines(text.splitlines()):
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
            covers.append((lineno, parts[0], parts[1]))
        elif key == "auto":
            autos.append(parts)
        else:
            raise InputFileError(f"line {lineno}: unknown directive {key!r}")
    if not names:
        raise InputFileError("missing nodes: line")
    if len(names) > DEFAULT_SUBGROUP_CAP:
        raise CapExceededError(f"{len(names)} nodes exceed cap {DEFAULT_SUBGROUP_CAP}")
    if len(set(names)) != len(names):
        raise InputFileError("duplicate node names")
    index = {nm: i for i, nm in enumerate(names)}
    n = len(names)
    leq = np.eye(n, dtype=bool)
    for lineno, a, b in covers:
        for name in (a, b):
            if name not in index:
                raise InputFileError(f"line {lineno}: cover references unknown node {name!r}")
        leq[index[a], index[b]] = True
    # transitive closure
    for k in range(n):
        leq |= np.outer(leq[:, k], leq[k, :])
    perms = []
    for parts in autos:
        if sorted(parts) != sorted(names):
            raise InputFileError(f"auto: line must permute all node names: {parts}")
        perms.append([index[p] for p in parts])
    gens = np.array(perms, dtype=np.int32).reshape(-1, n)
    closed = _permutation_group(gens, order_cap, "auto: lines")
    return Site(leq, closed, tuple(names), descriptor=descriptor)


def site_from_poset_file(path: str | Path, order_cap: int = DEFAULT_ORDER_CAP) -> Site:
    """The site of a poset file, its ``auto:`` lines closed under ``order_cap``.

    Every error past the read names the file.  A read error says ``cannot
    read poset file F: ...``; any other says ``poset:F: ...``, the file's
    descriptor, like a Cayley file's errors.
    """
    desc = f"poset:{Path(path)}"
    text = _read_file(Path(path), "poset")
    try:
        return parse_poset_text(text, desc, order_cap)
    except UsageError as exc:
        raise type(exc)(f"{desc}: {exc}") from None


def _descriptor_parts(descriptor: str) -> tuple[str, list[str]]:
    """A site descriptor's base and its ``|above:`` labels, in order.

    The base is the text before the first ``|above:``: a group descriptor
    or ``poset:FILE``.  Each label keeps its leading spaces.
    """
    base, *labels = descriptor.strip().split("|above:")
    return base.strip(), [label.rstrip() for label in labels]


def check_descriptor(descriptor: str, order_cap: int = DEFAULT_ORDER_CAP) -> None:
    """Refuse a site descriptor whose base cannot build, building nothing.

    A group base is refused as ``parse_group_descriptor`` refuses it; a
    ``poset:FILE`` base whose file does not open, as its read would, with
    the file left unread.  The message is the one the site's build gives.
    The ``|above:`` labels are checked only when the site is built.
    """
    base, _ = _descriptor_parts(descriptor)
    if base.startswith("poset:"):
        _read_file(base[len("poset:") :], "poset", text=False)
    else:
        parse_group_descriptor(base, order_cap)


def site_from_descriptor(descriptor: str, order_cap: int = DEFAULT_ORDER_CAP) -> Site:
    """Rebuild a site from its descriptor string.

    Understands group descriptors, ``poset:FILE``, and interval descriptors
    of the form ``<parent>|above:<label>``: the base's site, then the
    interval above each label in turn.
    """
    base, labels = _descriptor_parts(descriptor)
    if base.startswith("poset:"):
        site = site_from_poset_file(base[len("poset:") :], order_cap)
    else:
        site = site_from_lattice(subgroup_lattice(build_group(base, order_cap)))
    for label in labels:
        site = interval_above(site, site.node(label))
    return site
