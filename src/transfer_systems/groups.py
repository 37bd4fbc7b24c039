"""Finite groups, subgroup enumeration, and the subgroup lattice.

A group is a multiplication table over element indices ``0..order-1`` with
index 0 the identity.  Built-in families cover the cyclic groups, products
of cyclics, symmetric and alternating groups, dihedral and dicyclic groups
(``Q8 == dicyclic(2)``); arbitrary groups can be read from Cayley-table or
permutation-generator files.

Subgroups are enumerated as bool masks over the elements: the cyclic
subgroups seed the search, every new subgroup brings in its whole conjugacy
class, and one member per class is joined with the cyclic seeds it does not
contain.  The order, join and conjugation tables are then whole-array
operations on the membership matrix; the meet table is not built here, as
``sites.Site`` derives it from the order.  The canonical subgroup order is
(order, lexicographic member tuple); every downstream index refers to that
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import CapExceededError, DescriptorError, InputFileError
from .errors import InternalCheckError

DEFAULT_ORDER_CAP = 1000
DEFAULT_SUBGROUP_CAP = 5000


@dataclass(frozen=True)
class Group:
    """A finite group as an explicit multiplication table.

    Attributes:
        order: number of elements.
        mul: ``order x order`` int array, ``mul[a, b]`` = index of a*b.
        inv: int array of inverses.
        descriptor: canonical descriptor string this group was built from.
        name: short display name (used as the label of the full subgroup).
        element_names: per-element display names.
    """

    order: int
    mul: np.ndarray
    inv: np.ndarray
    descriptor: str
    name: str
    element_names: tuple[str, ...]

    def __post_init__(self):
        self.mul.flags.writeable = False
        self.inv.flags.writeable = False

    def conj(self, g: int, h: int) -> int:
        """g h g^-1."""
        return int(self.mul[self.mul[g, h], self.inv[g]])

    def element_order(self, a: int) -> int:
        x, n = a, 1
        while x != 0:
            x = int(self.mul[x, a])
            n += 1
        return n

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def closure(self, generators: Iterable[int]) -> frozenset[int]:
        """Subgroup generated by the given elements."""
        gens = sorted(set(generators) | {0})
        seen = set(gens)
        frontier = list(gens)
        mul = self.mul
        while frontier:
            nxt = []
            for h in frontier:
                for g in gens:
                    y = int(mul[h, g])
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(seen)


def _validate_table(mul: np.ndarray, what: str) -> None:
    n = mul.shape[0]
    if mul.shape != (n, n) or n == 0:
        raise InputFileError(f"{what}: table must be square and non-empty")
    if mul.min() < 0 or mul.max() >= n:
        raise InputFileError(f"{what}: entries must be indices in 0..{n - 1}")
    if not (np.array_equal(mul[0], np.arange(n)) and np.array_equal(mul[:, 0], np.arange(n))):
        raise InputFileError(f"{what}: index 0 must be the identity element")
    # Inverses: each row must contain the identity.
    inv = np.argmin(mul, axis=1)
    if not np.array_equal(mul[np.arange(n), inv], np.zeros(n, dtype=mul.dtype)):
        raise InputFileError(f"{what}: some element has no inverse")
    if not np.array_equal(mul[inv, np.arange(n)], np.zeros(n, dtype=mul.dtype)):
        raise InputFileError(f"{what}: left and right inverses disagree")
    # Light's test: (xg)y = x(gy) for all x, y and each g of a greedy
    # generating set.  The g that pass are closed under products, so once
    # the generators' products span the table every element passes.
    span = np.zeros(n, dtype=bool)
    span[0] = True
    for g in range(n):
        if span[g]:
            continue
        left, right = mul[mul[:, g]], mul[:, mul[g]]  # (xg)y and x(gy)
        bad = np.argwhere(left != right)
        if bad.size:
            x, y = int(bad[0, 0]), int(bad[0, 1])
            raise InputFileError(
                f"{what}: non-associative at ({x},{g},{y}): "
                f"(xg)y={int(left[x, y])} != x(gy)={int(right[x, y])}"
            )
        span[g] = True
        span = _generated(mul, span)


def _group_from_table(
    mul: np.ndarray, descriptor: str, name: str, element_names: Sequence[str]
) -> Group:
    mul = np.ascontiguousarray(mul, dtype=np.int32)
    _validate_table(mul, descriptor)
    n = mul.shape[0]
    inv = np.argmin(mul, axis=1).astype(np.int32)
    return Group(n, mul, inv, descriptor, name, tuple(element_names))


def _group_from_function(
    elements: Sequence, op: Callable, descriptor: str, name: str, names: Sequence[str]
) -> Group:
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    mul = np.empty((n, n), dtype=np.int32)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            mul[i, j] = index[op(a, b)]
    return _group_from_table(mul, descriptor, name, names)


# ---------------------------------------------------------------------------
# Built-in families


def _cyclic(n: int) -> Group:
    mul = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    names = ["e"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
    return _group_from_table(mul, f"cyclic:{n}", f"C{n}", names)


def _product_of_cyclics(orders: Sequence[int]) -> Group:
    import itertools

    elements = list(itertools.product(*[range(m) for m in orders]))

    def op(a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, orders))

    desc = "product:" + "x".join(str(m) for m in orders)
    name = "x".join(f"C{m}" for m in orders)
    names = ["(" + ",".join(str(x) for x in e) + ")" for e in elements]
    return _group_from_function(elements, op, desc, name, names)


def _compose(p: tuple, q: tuple) -> tuple:
    return tuple(p[q[i]] for i in range(len(p)))


def _cycle_string(p: tuple) -> str:
    """1-based cycle notation; compact for <=9 points, spaced otherwise."""
    k = len(p)
    seen = [False] * k
    out = []
    for start in range(k):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x + 1)
            x = p[x]
        out.append(cyc)
    if not out:
        return "e"
    sep = "" if k <= 9 else " "
    return "".join("(" + sep.join(str(x) for x in c) + ")" for c in out)


def _symmetric(n: int, even_only: bool = False) -> Group:
    import itertools

    if n < 1:
        raise DescriptorError("symmetric/alternating degree must be >= 1")
    elements = []
    for p in itertools.permutations(range(n)):
        if even_only:
            inversions = sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])
            if inversions % 2:
                continue
        elements.append(p)
    elements.sort()  # identity is lexicographically first
    fam = "alternating" if even_only else "symmetric"
    name = ("A" if even_only else "S") + str(n)
    names = [_cycle_string(p) for p in elements]
    return _group_from_function(elements, _compose, f"{fam}:{n}", name, names)


def _dihedral(n: int) -> Group:
    """Dihedral group of order 2n: <r, s | r^n = s^2 = 1, s r s = r^-1>."""
    if n < 1:
        raise DescriptorError("dihedral parameter must be >= 1")
    elements = [(a, e) for e in (0, 1) for a in range(n)]

    def op(x, y):
        a, e = x
        b, f = y
        return ((a + (b if e == 0 else -b)) % n, e ^ f)

    def nm(x):
        a, e = x
        r = "" if a == 0 else ("r" if a == 1 else f"r{a}")
        s = "s" if e else ""
        return (r + s) or "1"

    return _group_from_function(elements, op, f"dihedral:{n}", f"D{n}", [nm(x) for x in elements])


def _dicyclic(n: int) -> Group:
    """Dicyclic group of order 4n: <a, b | a^2n = 1, b^2 = a^n, b a b^-1 = a^-1>."""
    if n < 1:
        raise DescriptorError("dicyclic parameter must be >= 1")
    m = 2 * n
    elements = [(a, e) for e in (0, 1) for a in range(m)]

    def op(x, y):
        a, e = x
        b, f = y
        c = (a + (b if e == 0 else -b)) % m
        if e and f:
            c = (c + n) % m
        return (c, e ^ f)

    if n == 2:
        names = ["1", "i", "-1", "-i", "j", "k", "-j", "-k"]
        return _group_from_function(elements, op, "q8", "Q8", names)

    def nm(x):
        a, e = x
        r = "" if a == 0 else ("a" if a == 1 else f"a{a}")
        s = "b" if e else ""
        return (r + s) or "1"

    return _group_from_function(elements, op, f"dicyclic:{n}", f"Dic{n}", [nm(x) for x in elements])


# ---------------------------------------------------------------------------
# File-backed groups


def _read_group_file(path: Path, what: str) -> str:
    """File contents; an unreadable file raises InputFileError naming its path."""
    try:
        return path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFileError(f"cannot read {what} file {path}: {exc}") from None


def group_from_cayley_file(path: str | Path, order_cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Read a Cayley table: line 1 is the order n, then n rows of n indices."""
    path = Path(path)
    tokens: list[str] = []
    for line in _read_group_file(path, "Cayley").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.extend(line.split())
    if not tokens:
        raise InputFileError(f"{path}: empty Cayley file")
    try:
        n = int(tokens[0])
        entries = [int(t) for t in tokens[1:]]
    except ValueError as exc:
        raise InputFileError(f"{path}: non-integer token: {exc}") from None
    if n <= 0:
        raise InputFileError(f"{path}: order must be positive")
    if n > order_cap:
        raise CapExceededError(f"{path}: order {n} exceeds cap {order_cap}")
    if len(entries) != n * n:
        raise InputFileError(f"{path}: expected {n * n} entries, got {len(entries)}")
    mul = np.array(entries, dtype=np.int32).reshape(n, n)
    names = ["e"] + [f"g{k}" for k in range(1, n)]
    return _group_from_table(mul, f"cayley:{path}", path.stem, names)


def _parse_cycles(text: str, npoints: int | None = None) -> tuple:
    """Parse 1-based cycle notation like ``(1 2 3)(4 5)`` or ``(123)``."""
    text = text.strip()
    cycles: list[list[int]] = []
    i = 0
    maxpoint = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch != "(":
            raise InputFileError(f"bad cycle notation near {text[i:]!r}")
        j = text.find(")", i)
        if j < 0:
            raise InputFileError(f"unclosed cycle in {text!r}")
        body = text[i + 1 : j]
        try:
            if "," in body or " " in body:
                pts = [int(t) for t in body.replace(",", " ").split()]
            else:
                pts = [int(c) for c in body]
        except ValueError:
            raise InputFileError(f"bad cycle {text[i:j + 1]!r}") from None
        if not pts or len(set(pts)) != len(pts) or min(pts) < 1:
            raise InputFileError(f"bad cycle {text[i:j + 1]!r}")
        cycles.append(pts)
        maxpoint = max(maxpoint, max(pts))
        i = j + 1
    k = npoints if npoints is not None else maxpoint
    if k < maxpoint:
        raise InputFileError(f"cycle uses point {maxpoint} beyond degree {k}")
    perm = list(range(k))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a - 1] = b - 1
    return tuple(perm)


def _permutation_group(gens: Sequence[tuple], degree: int, cap: int, what: str) -> list[tuple]:
    """Sorted elements of the group the permutations generate on 0..degree-1.

    A breadth-first search from the identity by right multiplication with
    each generator; more than ``cap`` elements raises CapExceededError.
    """
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _compose(p, g)
                if q not in seen:
                    if len(seen) >= cap:
                        raise CapExceededError(f"{what}: generated more than {cap} elements")
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(seen)


def group_from_permutations(
    lines: Iterable[str], descriptor: str, name: str, order_cap: int = DEFAULT_ORDER_CAP
) -> Group:
    """Group generated by permutations given in cycle notation on points 1..k."""
    raw = [ln.split("#", 1)[0].strip() for ln in lines]
    raw = [ln for ln in raw if ln]
    if not raw:
        raise InputFileError(f"{descriptor}: no generators")
    k = max(len(_parse_cycles(ln)) for ln in raw)
    gens = [_parse_cycles(ln, k) for ln in raw]
    elements = _permutation_group(gens, k, order_cap, descriptor)
    names = [_cycle_string(p) for p in elements]
    return _group_from_function(elements, _compose, descriptor, name, names)


def group_from_permutation_file(path: str | Path, order_cap: int = DEFAULT_ORDER_CAP) -> Group:
    path = Path(path)
    lines = _read_group_file(path, "permutation").splitlines()
    return group_from_permutations(lines, f"perms:{path}", path.stem, order_cap)


# ---------------------------------------------------------------------------
# Descriptors


def build_group(descriptor: str, order_cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Build a group from a descriptor string.

    Supported: ``cyclic:n``, ``product:n1xn2[x...]``, ``symmetric:n``,
    ``alternating:n``, ``dihedral:n`` (order 2n), ``dicyclic:n`` (order 4n),
    ``q8``, ``cayley:path``, ``perms:path``.
    """
    descriptor = descriptor.strip()
    fam, _, arg = descriptor.partition(":")
    fam = fam.lower()
    if fam == "q8" and not arg:
        return _dicyclic(2)
    if fam in ("cayley", "perms"):
        if not arg:
            raise DescriptorError(f"{fam}: requires a file path")
        if fam == "cayley":
            return group_from_cayley_file(arg, order_cap)
        return group_from_permutation_file(arg, order_cap)
    if fam == "product":
        try:
            orders = [int(t) for t in arg.split("x")]
        except ValueError:
            raise DescriptorError(f"bad product descriptor {descriptor!r}") from None
        if not orders or any(m < 1 for m in orders):
            raise DescriptorError(f"bad product descriptor {descriptor!r}")
        total = 1
        for m in orders:
            total *= m
        if total > order_cap:
            raise CapExceededError(f"{descriptor}: order {total} exceeds cap {order_cap}")
        return _product_of_cyclics(orders)
    try:
        n = int(arg)
    except ValueError:
        raise DescriptorError(f"unsupported descriptor {descriptor!r}") from None
    if fam == "cyclic":
        if n < 1:
            raise DescriptorError("cyclic order must be >= 1")
        if n > order_cap:
            raise CapExceededError(f"{descriptor}: order {n} exceeds cap {order_cap}")
        return _cyclic(n)
    sizes = {"symmetric": None, "alternating": None, "dihedral": 2 * n, "dicyclic": 4 * n}
    if fam not in sizes:
        raise DescriptorError(f"unsupported descriptor {descriptor!r}")
    if fam in ("symmetric", "alternating"):
        import math

        order = math.factorial(n) // (1 if fam == "symmetric" else 2)
        if order > order_cap:
            raise CapExceededError(f"{descriptor}: order {order} exceeds cap {order_cap}")
        return _symmetric(n, even_only=(fam == "alternating"))
    if sizes[fam] > order_cap:
        raise CapExceededError(f"{descriptor}: order {sizes[fam]} exceeds cap {order_cap}")
    return _dihedral(n) if fam == "dihedral" else _dicyclic(n)


def small_group_descriptors(max_order: int) -> list[str]:
    """Built-in descriptors covering every isomorphism class of order <= max_order.

    Complete up to order 15; beyond that it still enumerates the built-in
    families but makes no completeness claim.
    """
    import math

    out = [f"cyclic:{n}" for n in range(1, max_order + 1)]
    # Non-cyclic abelian groups as products of prime-power cyclics; skip
    # factorizations with coprime parts (those collapse into cyclic factors
    # already produced by a coarser factorization).
    seen: set[tuple[int, ...]] = set()

    def factorizations(n: int, max_factor: int, acc: list[int]):
        if n == 1:
            if len(acc) >= 2:
                key = tuple(sorted(acc))
                if key not in seen:
                    seen.add(key)
                    yield list(key)
            return
        f = 2
        while f <= min(max_factor, n):
            if n % f == 0:
                yield from factorizations(n // f, f, acc + [f])
            f += 1

    for n in range(4, max_order + 1):
        for factors in factorizations(n, n, []):
            if any(
                math.gcd(a, b) == 1 for i, a in enumerate(factors) for b in factors[i + 1 :]
            ):
                continue
            out.append("product:" + "x".join(str(f) for f in sorted(factors, reverse=True)))
    n = 3
    while math.factorial(n) <= max_order:
        out.append(f"symmetric:{n}")
        n += 1
    if 12 <= max_order:
        out.append("alternating:4")
    for n in range(4, max_order // 2 + 1):
        out.append(f"dihedral:{n}")  # D1=C2, D2=C2xC2, D3=S3 are covered above
    for n in range(2, max_order // 4 + 1):
        out.append(f"dicyclic:{n}")
    return out


# ---------------------------------------------------------------------------
# Subgroups and the lattice


@dataclass(frozen=True, order=True)
class Subgroup:
    """A subgroup as a sorted tuple of element indices."""

    order: int
    members: tuple[int, ...]

    @staticmethod
    def from_set(members: Iterable[int]) -> "Subgroup":
        t = tuple(sorted(members))
        return Subgroup(len(t), t)


@dataclass
class SubgroupLattice:
    """All subgroups of a group with order and join tables, and conjugation.

    Meets are not stored here: ``site_from_lattice(latt).meet`` derives them
    from ``leq`` like every other site's.

    ``conj_action[g]`` is the permutation of subgroup indices realizing
    H -> gHg^-1; ``normal[i]`` is True iff every such permutation fixes i.
    """

    group: Group
    subgroups: tuple[Subgroup, ...]
    leq: np.ndarray
    join: np.ndarray
    conj_action: np.ndarray
    normal: np.ndarray
    _labels: tuple[str, ...] | None = field(default=None, repr=False)

    def __post_init__(self):
        for a in (self.leq, self.join, self.conj_action, self.normal):
            a.flags.writeable = False
        self._index = {s.members: i for i, s in enumerate(self.subgroups)}

    def __len__(self) -> int:
        return len(self.subgroups)

    def index_of(self, members: Iterable[int]) -> int:
        key = tuple(sorted(members))
        try:
            return self._index[key]
        except KeyError:
            raise InternalCheckError(f"element set {key} is not a subgroup") from None

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return len(self.subgroups) - 1

    @property
    def labels(self) -> tuple[str, ...]:
        if self._labels is None:
            self._labels = _subgroup_labels(self)
        return self._labels


def _cyclic_masks(group: Group) -> np.ndarray:
    """Row a is the membership mask of the cyclic subgroup <a>."""
    n = group.order
    elems = np.arange(n)
    masks = np.zeros((n, n), dtype=bool)
    power = elems
    while True:
        masks[elems, power] = True
        if not power.any():
            return masks
        power = group.mul[power, elems]


def _generated(mul: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mask of the closure under the product ``mul`` of a mask that contains the identity.

    Squares the set until it stops growing: in a group, a finite set that
    contains the identity and is closed under products is a subgroup.
    """
    idx = np.flatnonzero(mask)
    while True:
        mask = np.zeros(mul.shape[0], dtype=bool)
        mask[mul[idx[:, None], idx]] = True
        grown = np.flatnonzero(mask)
        if grown.size == idx.size:
            return mask
        idx = grown


def subgroup_lattice(group: Group, max_subgroups: int = DEFAULT_SUBGROUP_CAP) -> SubgroupLattice:
    """Enumerate all subgroups and assemble the lattice.

    Every subgroup is a bool mask over the elements.  The cyclic subgroups
    seed the search; each new subgroup brings in its whole conjugacy class,
    and only the first member of a class is joined with the seeds it does
    not contain.  That suffices because the seeds are closed under
    conjugation and <gHg^-1, c> = g<H, g^-1cg>g^-1.  ``max_subgroups``
    bounds the total count, seeds included.
    """
    mul, inv = group.mul, group.inv
    # pre[g, x] = g^-1 x g, so mask[pre] stacks the conjugates g H g^-1.
    pre = mul[mul, inv[:, None]][inv]
    found: dict[bytes, np.ndarray] = {}

    def add_class(mask: np.ndarray) -> bool:
        if mask.tobytes() in found:
            return False
        for conj in mask[pre]:
            found.setdefault(conj.tobytes(), conj)
        if len(found) > max_subgroups:
            raise CapExceededError(f"{group.descriptor}: more than {max_subgroups} subgroups")
        return True

    seeds = list({c.tobytes(): c for c in _cyclic_masks(group)}.values())
    frontier = [c for c in seeds if add_class(c)]
    while frontier:
        nxt = []
        for h in frontier:
            for c in seeds:
                if (c <= h).all():
                    continue
                j = _generated(mul, h | c)
                if add_class(j):
                    nxt.append(j)
        frontier = nxt

    members = np.array(
        sorted(found.values(), key=lambda s: (int(s.sum()), np.flatnonzero(s).tolist()))
    )
    subs = tuple(Subgroup.from_set(np.flatnonzero(s).tolist()) for s in members)
    index = {row.tobytes(): i for i, row in enumerate(members)}
    m = len(subs)

    # |i & j| == |i| iff i <= j.  A float32 product runs on BLAS (an int32
    # one does not) and is exact: every count is at most |G|, far below 2**24
    # (the default order cap is 1000).
    counts = members.astype(np.float32)
    sizes = counts.sum(axis=1)
    leq = (counts @ counts.T) == sizes[:, None]

    # Subgroups are sorted by order, so the join is the first upper bound.
    join = np.empty((m, m), dtype=np.int32)
    for i in range(m):
        join[i] = (leq[i] & leq).argmax(axis=1)

    conj = np.empty((group.order, m), dtype=np.int32)
    for g in range(group.order):
        conj[g] = [index[row.tobytes()] for row in members[:, pre[g]]]
    normal = (conj == np.arange(m)).all(axis=0)

    return SubgroupLattice(group, subs, leq, join, conj, normal)


# ---------------------------------------------------------------------------
# Labels


def _abelian_type_name(group: Group, members: Sequence[int]) -> str:
    """Invariant-factor name like ``C6`` or ``C2xC2`` for an abelian subgroup."""
    order = len(members)
    if order == 1:
        return "1"
    elem_orders = [group.element_order(a) for a in members]
    primes = []
    n, p = order, 2
    while n > 1:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    # Per prime: the partition of the p-part, recovered from p^i-torsion counts.
    factors_by_prime: dict[int, list[int]] = {}
    for p in primes:
        counts = [1]
        i = 1
        while True:
            pi = p**i
            c = sum(1 for o in elem_orders if pi % o == 0)
            if c == counts[-1]:
                break
            counts.append(c)
            i += 1
        # counts[i] / counts[i-1] = p^(number of parts >= i)
        parts: list[int] = []
        for i in range(1, len(counts)):
            ge_i = 0
            q = counts[i] // counts[i - 1]
            while q > 1:
                q //= p
                ge_i += 1
            if i == 1:
                parts = [0] * ge_i
            for t in range(ge_i):
                parts[t] += 1
        factors_by_prime[p] = [p**e for e in parts]
    width = max(len(v) for v in factors_by_prime.values())
    invariant = []
    for i in range(width):
        d = 1
        for p, fs in factors_by_prime.items():
            if i < len(fs):
                d *= fs[i]
        invariant.append(d)
    return "x".join(f"C{d}" for d in invariant)


def _minimal_generators(group: Group, members: Sequence[int]) -> list[int]:
    """Small generating list: one element for cyclic subgroups, else greedy."""
    for a in members:
        if a != 0 and len(group.closure([a])) == len(members):
            return [a]
    gens: list[int] = []
    span: frozenset[int] = frozenset([0])
    for a in members:
        if a not in span:
            gens.append(a)
            span = group.closure(gens)
            if len(span) == len(members):
                break
    return gens


def _subgroup_labels(latt: SubgroupLattice) -> tuple[str, ...]:
    group = latt.group
    raw: list[str] = []
    for sub in latt.subgroups:
        if sub.order == 1:
            raw.append("1")
        elif sub.order == group.order:
            raw.append(group.name)
        elif group.is_abelian:
            raw.append(_abelian_type_name(group, sub.members))
        else:
            gens = _minimal_generators(group, sub.members)
            raw.append("<" + ",".join(group.element_names[a] for a in gens) + ">")
    counts: dict[str, int] = {}
    labels = []
    for lab in raw:
        k = counts.get(lab, 0)
        counts[lab] = k + 1
        labels.append(lab + "'" * k)
    return tuple(labels)
