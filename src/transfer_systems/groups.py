"""Finite groups, subgroup enumeration, and the subgroup lattice.

A group is a multiplication table over element indices ``0..order-1`` with
index 0 the identity.  Built-in families cover the cyclic groups, products
of cyclics, symmetric and alternating groups, dihedral and dicyclic groups
(``Q8 == dicyclic:2``); arbitrary groups can be read from Cayley-table or
permutation-generator files.  Each job has one path: S_n and A_n are
generated from permutations by the search that reads ``perms:`` files
(``_permutation_group``), dihedral and dicyclic groups come from one
builder of C_m extended by an element x that inverts C_m and squares into
it, and ``build_group`` checks every built-in family's order against one
cap.

One breadth-first search, ``_levels``, serves both closures the package
enumerates: a group from its generating permutations, a block of
frontier rows times every generator at a time, and Tr(site) in
``enumeration._bfs``.  It tells rows apart by one key rule,
``_row_keys`` (one void key per row of any stack, also the key of a
transfer system's relation), and keeps each new row once, in candidate
order, under a cap checked per block.  A permutation group's elements
come out in lexicographic order through ``_sorted_rows``, the rule by
which a site lists its action too.

Every table is built on arrays.  One product table, ``_product_table``,
serves the permutation groups: one gather per block of left rows and a
lookup of the result rows by ``_row_finder``.  A site checks that its
action is closed under composition with the same table, one generator's
column at a time, over a generating set only (``sites._generators``).
Every generating set the package finds follows one greedy rule, each
candidate outside the span of those before it.  ``_greedy_generators``
grows the span for the table check, whose generators every group keeps
(``Group.generators``), and for the site's action check; the
non-abelian subgroup labels read each span off the lattice instead.
Subgroups are enumerated as bool masks over the elements: the cyclic
subgroups seed the search, every new subgroup brings in its whole
conjugacy class, and one member per class is joined with all the cyclic
seeds it does not contain in one batched orbit loop (``_close_under``,
also the span closure of ``_greedy_generators``).
The order table is then one count over the membership matrix.  The
conjugation table looks up the conjugates under the group's generators
only, and composes every other element's row from them,
conj[ab] = conj[a][conj[b]].  Every exact count of a bool product in the
package is one ``_count``: the containment here, a site's chain and meet
counts, the per-site table of C_O, and the BLAS branch of ``sites._bmm``.
No meet or join table is built here: ``sites.Site`` derives meets from
the order, and ``functors`` reads each product KN off it.  The canonical
subgroup order is (order, lexicographic member tuple); every downstream
index refers to that order.  Each group builds its cyclic-subgroup masks
once (``Group.cyclic``): they seed the search, and labels read element
orders as their row sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import CapExceededError, DescriptorError, InputFileError, InternalCheckError

DEFAULT_ORDER_CAP = 1000
DEFAULT_SUBGROUP_CAP = 5000
# Entries per transient block of the table and lookup loops.
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True, eq=False)
class Group:
    """A finite group as an explicit multiplication table.

    Attributes:
        order: number of elements.
        mul: ``order x order`` int array, ``mul[a, b]`` = index of a*b.
        inv: int array of inverses.
        descriptor: canonical descriptor string this group was built from.
        name: short display name (used as the label of the full subgroup).
        element_names: per-element display names.
        generators: the greedy generating set the table check found
            (``_validate_table``), each element the first outside the span
            of those before it; empty for the trivial group.

    Equality and hashing are by identity, as a ``Site``'s.
    """

    order: int
    mul: np.ndarray
    inv: np.ndarray
    descriptor: str
    name: str
    element_names: tuple[str, ...]
    generators: tuple[int, ...]

    def __post_init__(self):
        self.mul.flags.writeable = False
        self.inv.flags.writeable = False

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    @cached_property
    def cyclic(self) -> np.ndarray:
        """Read-only ``_cyclic_masks`` table, built on first use: row a is <a>."""
        masks = _cyclic_masks(self)
        masks.flags.writeable = False
        return masks


def _validate_table(mul: np.ndarray, what: str) -> list[int]:
    """The greedy generators of a group table; InputFileError naming ``what`` if it is none.

    The entries must already be indices in 0..n-1; ``group_from_cayley_file``
    checks a file's before casting them.  Checks the shape, the identity at
    index 0 and two-sided inverses, then associativity by Light's test on
    the greedy generating set of ``_greedy_generators``: each candidate
    outside the span runs the test, and the span grows once it passes.
    The generators are the candidates that passed.
    """
    n = mul.shape[0]
    if mul.shape != (n, n) or n == 0:
        raise InputFileError(f"{what}: table must be square and non-empty")
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
    # the generators' products span the table every element passes.  A g
    # that passes has g^-1(gy) = y, so its move y -> g^-1 y is a
    # permutation (its walk from 0 returns to 0), and the span holds
    # exactly the products of the generators.

    def move(g: int) -> np.ndarray:
        left, right = mul[mul[:, g]], mul[:, mul[g]]  # (xg)y and x(gy)
        bad = np.argwhere(left != right)
        if bad.size:
            x, y = int(bad[0, 0]), int(bad[0, 1])
            raise InputFileError(
                f"{what}: non-associative at ({x},{g},{y}): "
                f"(xg)y={int(left[x, y])} != x(gy)={int(right[x, y])}"
            )
        return mul[inv[g]]

    return _greedy_generators(n, range(n), move)


def _group_from_table(
    mul: np.ndarray, descriptor: str, name: str, element_names: Sequence[str]
) -> Group:
    mul = np.ascontiguousarray(mul, dtype=np.int32)
    gens = _validate_table(mul, descriptor)
    n = mul.shape[0]
    inv = np.argmin(mul, axis=1).astype(np.int32)
    return Group(n, mul, inv, descriptor, name, tuple(element_names), tuple(gens))


def _close_under(
    masks: np.ndarray, moves: np.ndarray, extra: np.ndarray | None = None
) -> np.ndarray:
    """Close each row of a (B, n) bool mask stack under left multiplication, in place.

    Row b becomes the orbit of its set under the generators g whose gathers
    ``moves[i] = mul[inv[g]]`` are shared by all rows, plus one more of its
    own, ``extra[b]``, if given: (gS)[y] = S[g^-1 y].  Each round applies
    every generator in turn; a row leaves the loop once a round adds
    nothing.  In a group, the orbit of a set holding the identity is the
    subgroup the set and the generators generate (Neubuser's cyclic
    extension bookkeeping): a round costs |G| per generator, where
    squaring the set would cost |K|^2.  The rows' own gathers are one flat
    take over the round's copy, with row i's offset added to its indices.
    It is the one span closure of ``_greedy_generators``.
    """
    n = masks.shape[1]
    rows = np.arange(len(masks))
    while rows.size:
        cur = masks[rows]
        before = cur.sum(axis=1)
        for move in moves:
            cur |= cur[:, move]
        if extra is not None:
            cur |= np.take(cur, extra[rows] + n * np.arange(len(rows))[:, None])
        masks[rows] = cur
        rows = rows[cur.sum(axis=1) > before]
    return masks


def _greedy_generators(
    n: int, candidates: Iterable[int], move: Callable[[int], np.ndarray]
) -> list[int]:
    """A greedy generating list: each candidate outside the span of those before it.

    The span is a bool mask over 0..n-1 that starts as {0}, the identity.
    For each candidate g outside it, ``move(g)`` is g's gather for
    ``_close_under`` (``mul[inv[g]]`` in a group table); it may raise to
    refuse g.  The powers of g, met by walking the move from 0, seed the
    span, which ``_close_under`` then closes under the moves taken so far.
    (Without the seed a cyclic span grows by one element per round.)  The
    table check, a site's action check and the subgroup labels take their
    generators from here.
    """
    span = np.zeros((1, n), dtype=bool)
    span[0, 0] = True
    gens: list[int] = []
    moves: list[np.ndarray] = []
    for g in candidates:
        if span[0, g]:
            continue
        gather = move(g)
        gens.append(g)
        moves.append(gather)
        power = gather[0]
        while power:
            span[0, power] = True
            power = gather[power]
        _close_under(span, moves)
    return gens


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One void key per row of a stack (its first axis); equal rows have equal keys.

    A row is everything past the first axis, so a (B, n, n) stack of
    relations has one key per relation, ``rels[i].tobytes()`` as bytes
    under ``.tolist()``.  The empty stack has no keys.
    """
    flat = np.ascontiguousarray(rows).reshape(len(rows), math.prod(rows.shape[1:]))
    return flat.view(f"V{flat.shape[1] * flat.itemsize}").ravel()


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D array in lexicographic order.

    Any other array is returned as it is, for ``sites.Site``'s checks to
    refuse.  (Not ``np.unique(axis=0)``: it lazily imports numpy.ma, and
    its row sort has a transient peak of ~1 MB on S5.)
    """
    if rows.ndim == 2 and len(rows) > 1:
        rows = rows[np.lexsort(rows.T[::-1])]
        rows = rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]
    return rows


def _levels(frontier: np.ndarray, expand: Callable[[np.ndarray], Iterable[np.ndarray]], cap: int,
            too_many: Callable[[int], Exception]) -> Iterator[tuple[np.ndarray, list[bytes]]]:
    """The breadth-first levels of new rows reached from a stack of start rows.

    ``frontier`` holds the start rows, and each level becomes the next
    frontier.  ``expand(frontier)`` yields the candidate rows of the next
    level in blocks, stacks shaped like the start.  A level is the stack of
    the candidates not met before, each once, in the order of its first
    candidate, and it is yielded with its keys: the bytes of its
    ``_row_keys``, the very objects the search remembers.  The search ends
    after the first empty level.  More than ``cap`` rows in all, the start
    counted, raises ``too_many(count)``; it is checked per block, and the
    count is the number a loop over the candidates would have reached:
    ``cap``, or the start's own size if that is over the cap.  Both
    closures the package enumerates run on it: Tr(site) in
    ``enumeration._bfs`` and a group from its generating permutations in
    ``_permutation_group``.
    """
    seen = set(_row_keys(frontier).tolist())
    if len(seen) > cap:
        raise too_many(len(seen))
    while len(frontier):
        found: list[bytes] = []
        for block in expand(frontier):
            # the block's new keys, each once, in candidate order
            new = dict.fromkeys(k for k in _row_keys(block).tolist() if k not in seen)
            if len(seen) + len(new) > cap:
                raise too_many(max(cap, len(seen)))
            seen.update(new)
            found += new
        # rows copied out of the keys: no candidate block outlives its step
        frontier = np.frombuffer(b"".join(found), frontier.dtype).reshape(-1, *frontier.shape[1:])
        yield frontier, found


def _row_finder(rows: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Lookup of query rows among the distinct rows of a 2-D array.

    The returned function maps a (Q, k) array of the same dtype to the
    index of the equal row of ``rows`` for each query, or -1 where none is
    equal.  It searches the sorted keys from both sides: a query is found
    iff its right insertion point lies past its left one.  (That checks
    every hit for equality faster than ``==`` on void keys.)
    """
    keys = _row_keys(rows)
    order = np.argsort(keys)
    keys = keys[order]

    def find(queries: np.ndarray) -> np.ndarray:
        q = _row_keys(queries)
        lo = np.searchsorted(keys, q)
        hit = np.searchsorted(keys, q, side="right") > lo
        return np.where(hit, order[np.minimum(lo, len(keys) - 1)], -1)

    return find


def _count(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The counts ``a @ b`` of two bool arrays, exact, as a float32 array.

    Entry (i, j) is the number of k with ``a[i, k]`` and ``b[k, j]``; stacks
    broadcast as in ``np.matmul``.  Both operands are cast to float32
    copies, so the product runs on BLAS (an integer one does not).  It is
    exact: each entry sums ``a.shape[-1]`` terms equal to 0 or 1, and with
    fewer than 2**24 of them float32 holds every partial sum exactly,
    whatever the summation order or thread count, so the result does not
    depend on the BLAS build.  (Casting first is as fast as
    ``np.matmul(..., dtype=np.float32)`` on contiguous operands and 1.8 to
    2.8x faster on transposed views at n = 156.)  ``_count(a, a)`` casts
    ``a`` once.  Any other ``b`` gets its own copy, a transposed view of
    ``a`` too: on one buffer NumPy runs ``f.T @ f`` as a symmetric update,
    which took 8 ms instead of 0.07 ms on S5's 156 nodes with OpenBLAS's
    two threads (2-vCPU VM).
    """
    fa = a.astype(np.float32)
    return np.matmul(fa, fa if b is a else b.astype(np.float32))


def _product_table(rows: np.ndarray, right: np.ndarray | None = None,
                   find: Callable[[np.ndarray], np.ndarray] | None = None) -> np.ndarray:
    """Products of the permutations that are the rows of (n, k) int arrays.

    ``t[i, j]`` is the index of p_i(r_j), p_i row i of ``rows`` and r_j
    row j of ``right`` (``rows`` if None), among the rows that ``find``
    (``_row_finder(rows)`` if None) searches, or -1 where the composition
    is not one of them.  Each block of left rows is one gather plus one
    ``find`` lookup.
    """
    right = rows if right is None else right
    find = find or _row_finder(rows)
    n, k = rows.shape
    step = max(1, _BLOCK_ENTRIES // right.size)
    table = np.empty((n, len(right)), dtype=np.int32)
    for lo in range(0, n, step):
        products = rows[lo : lo + step][:, right].reshape(-1, k)
        table[lo : lo + step] = find(products).reshape(-1, len(right))
    return table


# ---------------------------------------------------------------------------
# Built-in families


def _cyclic(n: int) -> Group:
    mul = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    names = ["e"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
    return _group_from_table(mul, f"cyclic:{n}", f"C{n}", names)


def _product_of_cyclics(orders: Sequence[int]) -> Group:
    """The elements are the coordinate tuples, the last coordinate fastest."""
    codes = np.indices(orders).reshape(len(orders), -1)
    mul = np.zeros((codes.shape[1],) * 2, dtype=np.int64)
    for col, m in zip(codes, orders):  # mixed-radix index of the coordinatewise sum
        mul = mul * m + (col[:, None] + col) % m
    desc = "product:" + "x".join(str(m) for m in orders)
    name = "x".join(f"C{m}" for m in orders)
    names = ["(" + ",".join(map(str, e)) + ")" for e in codes.T.tolist()]
    return _group_from_table(mul, desc, name, names)


def _cycle_string(p: Sequence[int]) -> str:
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


def _symmetric(n: int, even_only: bool, order_cap: int) -> Group:
    """S_n from (1 2) and (1 2 ... n), A_n from the 3-cycles (1 2 i).

    Both are read like a ``perms:`` file, whose generator search sorts the
    elements: the list is that of all (even) permutations in lexicographic
    order.  The identity "(1)" generates the trivial groups S1, A1 and A2.
    """
    if even_only:
        cycles = [f"(1 2 {i})" for i in range(3, n + 1)]
    else:
        cycles = ["(1 2)", "(" + " ".join(str(i) for i in range(1, n + 1)) + ")"] if n > 1 else []
    fam, letter = ("alternating", "A") if even_only else ("symmetric", "S")
    return group_from_permutations(cycles or ["(1)"], f"{fam}:{n}", f"{letter}{n}", order_cap)


def _cyclic_extension(
    m: int, shift: int, descriptor: str, name: str, names: Sequence[str] | str
) -> Group:
    """C_m = <a> extended by x with x a x^-1 = a^-1 and x^2 = a^shift.

    The elements a^k x^e are listed with e major.  ``names`` lists their
    names, or is the two letters that stand for a and x.
    """
    k, e = np.tile(np.arange(m), 2), np.repeat([0, 1], m)
    # a^k x^e a^l x^f = a^(k -+ l + shift*e*f) x^(e xor f), element index e*m + k
    turned = np.where(e[:, None] == 1, -k, k)
    mul = (e[:, None] ^ e) * m + (k[:, None] + turned + shift * (e[:, None] & e)) % m
    if isinstance(names, str):
        r, s = names
        names = [((r if a == 1 else f"{r}{a}" if a else "") + s * b) or "1"
                 for a, b in zip(k.tolist(), e.tolist())]
    return _group_from_table(mul, descriptor, name, names)


# ---------------------------------------------------------------------------
# File-backed groups


def _read_file(path: str | Path, what: str, text: bool = True) -> str:
    """The text of a ``what`` file: Cayley, permutation, poset or system.

    An unreadable file, or one that is not valid text, raises
    InputFileError naming ``path`` as given.  With ``text`` false the file
    is only opened, so a file that cannot be opened is refused with the
    same message without reading it, and the result is empty.
    """
    try:
        if not text:
            Path(path).open("rb").close()
            return ""
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFileError(f"cannot read {what} file {path}: {exc}") from None


def _content_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(1-based line number, text before any ``#``, stripped) of each line with text left.

    The one comment rule of the Cayley, permutation and poset readers.
    """
    for i, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if line:
            yield i, line


def group_from_cayley_file(path: str | Path, order_cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Read a Cayley table: line 1 is the order n, then n rows of n indices."""
    path = Path(path)
    desc = f"cayley:{path}"
    lines = _content_lines(_read_file(path, "Cayley").splitlines())
    tokens = [token for _, line in lines for token in line.split()]
    if not tokens:
        raise InputFileError(f"{desc}: empty Cayley file")
    try:
        n = int(tokens[0])
        entries = [int(t) for t in tokens[1:]]
    except ValueError as exc:
        raise InputFileError(f"{desc}: non-integer token: {exc}") from None
    if n <= 0:
        raise InputFileError(f"{desc}: order must be positive")
    if n > order_cap:
        raise CapExceededError(f"{desc}: order {n} exceeds cap {order_cap}")
    if len(entries) != n * n:
        raise InputFileError(f"{desc}: expected {n * n} entries, got {len(entries)}")
    if min(entries) < 0 or max(entries) >= n:  # before the int32 cast can overflow
        raise InputFileError(f"{desc}: entries must be indices in 0..{n - 1}")
    mul = np.array(entries, dtype=np.int32).reshape(n, n)
    names = ["e"] + [f"g{k}" for k in range(1, n)]
    return _group_from_table(mul, desc, path.stem, names)


def _parse_cycles(text: str, cap: int | None = None) -> tuple:
    """Parse 1-based cycle notation like ``(1 2 3)(4 5)`` or ``(123)``.

    The permutation moves the points 1..m, m the largest point named.  A
    point above ``cap`` is refused before the permutation is allocated,
    and so is a point in two cycles, whose map would be no permutation.
    """
    text = text.strip()
    cycles: list[list[int]] = []
    i = 0
    seen: set[int] = set()
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
        if not seen.isdisjoint(pts):
            raise InputFileError(f"point {min(seen.intersection(pts))} appears in two cycles")
        seen.update(pts)
        cycles.append(pts)
        i = j + 1
    maxpoint = max(seen, default=0)
    if cap is not None and maxpoint > cap:
        raise InputFileError(f"point {maxpoint} exceeds cap {cap}")
    perm = list(range(maxpoint))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a - 1] = b - 1
    return tuple(perm)


def _permutation_group(gens: np.ndarray, cap: int, what: str) -> np.ndarray:
    """Sorted rows of the group the rows of a (g, k) int32 array generate on 0..k-1.

    The levels of ``_levels`` from the identity, by right multiplication
    with each generator: a block of frontier rows p gives p(g) for every
    generator g, frontier-major.  More than ``cap`` elements raises
    CapExceededError.
    """
    step = max(1, _BLOCK_ENTRIES // max(gens.size, 1))

    def expand(frontier: np.ndarray) -> Iterator[np.ndarray]:
        for lo in range(0, len(frontier), step):
            yield frontier[lo : lo + step][:, gens].reshape(-1, frontier.shape[1])

    identity = np.arange(gens.shape[1], dtype=np.int32)[None]
    levels = _levels(identity, expand, cap,
                     lambda _: CapExceededError(f"{what}: generated more than {cap} elements"))
    return _sorted_rows(np.concatenate([identity, *(level for level, _ in levels)]))


def group_from_permutations(
    lines: Iterable[str], descriptor: str, name: str, order_cap: int = DEFAULT_ORDER_CAP
) -> Group:
    """Group generated by permutations given in cycle notation on points 1..k.

    Each line is parsed once and padded to the largest degree.  A line that
    does not parse is named by the descriptor and its 1-based line number.
    """
    raw = list(_content_lines(lines))
    if not raw:
        raise InputFileError(f"{descriptor}: no generators")

    def parse(i: int, line: str) -> tuple:
        try:
            return _parse_cycles(line, order_cap)
        except InputFileError as exc:
            raise InputFileError(f"{descriptor}: line {i}: {exc}") from None

    parsed = [parse(i, ln) for i, ln in raw]
    k = max(map(len, parsed))
    gens = np.array([p + tuple(range(len(p), k)) for p in parsed], dtype=np.int32)
    elements = _permutation_group(gens, order_cap, descriptor)
    names = [_cycle_string(p) for p in elements.tolist()]
    mul = _product_table(elements)
    return _group_from_table(mul, descriptor, name, names)


def group_from_permutation_file(path: str | Path, order_cap: int = DEFAULT_ORDER_CAP) -> Group:
    path = Path(path)
    lines = _read_file(path, "permutation").splitlines()
    return group_from_permutations(lines, f"perms:{path}", path.stem, order_cap)


# ---------------------------------------------------------------------------
# Descriptors


# Factors whose product is the order of each built-in family, from its
# parameters (n!/2 = 3 * 4 * ... * n for n >= 2, and A1 = A2 = 1).
_ORDER_FACTORS: dict[str, Callable[[list[int]], Iterable[int]]] = {
    "cyclic": lambda p: p,
    "product": lambda p: p,
    "symmetric": lambda p: range(2, p[0] + 1),
    "alternating": lambda p: range(3, p[0] + 1),
    "dihedral": lambda p: (2, p[0]),
    "dicyclic": lambda p: (4, p[0]),
}


def parse_group_descriptor(
    descriptor: str, order_cap: int = DEFAULT_ORDER_CAP
) -> tuple[str, str | list[int]]:
    """The family and parameters of a group descriptor, refused as `build_group` refuses them.

    A file family (``cayley``, ``perms``) gives its path, unread.  A built-in
    family gives its integer parameters, and its order is checked against
    ``order_cap`` factor by factor, without building the group.
    """
    descriptor = descriptor.strip()
    fam, _, arg = descriptor.partition(":")
    fam = fam.lower()
    if fam in ("cayley", "perms"):
        if not arg:
            raise DescriptorError(f"{fam}: requires a file path")
        return fam, arg
    if fam == "q8" and not arg:
        fam, arg = "dicyclic", "2"
    if fam not in _ORDER_FACTORS:
        raise DescriptorError(f"unsupported descriptor {descriptor!r}")
    try:
        params = [int(t) for t in arg.split("x")] if fam == "product" else [int(arg)]
        if min(params) < 1:
            raise ValueError
    except ValueError:
        raise DescriptorError(f"{descriptor}: parameters must be integers >= 1") from None
    order = 1
    for factor in _ORDER_FACTORS[fam](params):
        order *= factor
        if order > order_cap:  # stop here: n! of symmetric:2000 has 5,736 digits
            raise CapExceededError(f"{descriptor}: order exceeds cap {order_cap}")
    return fam, params


def build_group(descriptor: str, order_cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Build a group from a descriptor string.

    Supported: ``cyclic:n``, ``product:n1xn2[x...]``, ``symmetric:n``,
    ``alternating:n``, ``dihedral:n`` (order 2n), ``dicyclic:n`` (order 4n),
    ``q8`` (= ``dicyclic:2``), ``cayley:path``, ``perms:path``.
    """
    fam, params = parse_group_descriptor(descriptor, order_cap)
    if fam == "cayley":
        return group_from_cayley_file(params, order_cap)
    if fam == "perms":
        return group_from_permutation_file(params, order_cap)
    n = params[0]
    if fam == "cyclic":
        return _cyclic(n)
    if fam == "product":
        return _product_of_cyclics(params)
    if fam in ("symmetric", "alternating"):
        return _symmetric(n, fam == "alternating", order_cap)
    if fam == "dihedral":
        return _cyclic_extension(n, 0, f"dihedral:{n}", f"D{n}", "rs")
    if n == 2:
        return _cyclic_extension(4, 2, "q8", "Q8", ["1", "i", "-1", "-i", "j", "k", "-j", "-k"])
    return _cyclic_extension(2 * n, n, f"dicyclic:{n}", f"Dic{n}", "ab")


def small_group_descriptors(max_order: int) -> list[str]:
    """Built-in descriptors covering every isomorphism class of order <= max_order.

    Each abelian group appears once: cyclic, or as ``product:d1xd2x...``
    with each factor dividing the one before (its invariant factors).
    Complete up to order 15; beyond that it still enumerates the built-in
    families but makes no completeness claim.
    """

    def invariant_factors(n: int, top: int):
        """Factor lists of n, each factor dividing the one before and the first dividing top."""
        if n == 1:
            yield []
        for f in range(2, top + 1):
            if top % f == 0 and n % f == 0:
                for rest in invariant_factors(n // f, f):
                    yield [f] + rest

    out = [f"cyclic:{n}" for n in range(1, max_order + 1)]
    for n in range(4, max_order + 1):
        for factors in invariant_factors(n, n):
            if len(factors) >= 2:
                out.append("product:" + "x".join(str(f) for f in factors))
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


@dataclass(eq=False)
class SubgroupLattice:
    """All subgroups of a group with their member masks, order table and conjugation.

    Meets are not stored here: ``site_from_lattice(latt).meet`` derives them
    from ``leq`` like every other site's.

    ``masks`` is the read-only (m, order) bool table of members that
    ``subgroup_lattice`` enumerates, row i subgroup i's.
    ``conj_action[g]`` is the permutation of subgroup indices realizing
    H -> gHg^-1; ``normal[i]`` is True iff every such permutation fixes i.
    ``labels`` are built on first use.  Equality and hashing are by
    identity, as a ``Site``'s.
    """

    group: Group
    subgroups: tuple[Subgroup, ...]
    masks: np.ndarray
    leq: np.ndarray
    conj_action: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        for a in (self.masks, self.leq, self.conj_action, self.normal):
            a.flags.writeable = False

    def __len__(self) -> int:
        return len(self.subgroups)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return _subgroup_labels(self)


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


def subgroup_lattice(group: Group, max_subgroups: int = DEFAULT_SUBGROUP_CAP) -> SubgroupLattice:
    """Enumerate all subgroups and assemble the lattice.

    Every subgroup is a bool mask over the elements.  The cyclic subgroups
    seed the search; each new subgroup brings in its whole conjugacy class,
    and only the first member of a class is joined with the seeds it does
    not contain.  That suffices because the seeds are closed under
    conjugation and <gHg^-1, c> = g<H, g^-1cg>g^-1.  Each class
    representative H keeps a generator list, and all its joins <H, c> are
    closed in one ``_close_under`` loop over the stack of masks H | c, under
    gens(H) plus each seed's own generator.  ``max_subgroups`` bounds the
    total count, seeds included.  The masks, sorted in lattice order, are
    kept as ``SubgroupLattice.masks``.

    ``conj_action`` looks up the conjugates of all subgroups under each of
    ``group.generators`` among the member masks, one lookup per generator;
    a conjugate that is not found raises InternalCheckError.  Conjugation
    is a homomorphism, conj[ab] = conj[a][conj[b]], so every other row is
    composed: each round takes the products of all the elements met so
    far, which doubles the word length it reaches, and composes the row
    of each new product from its first (a, b).  (One generator at a time,
    a Cayley-graph search, would take |G| - 1 rounds on a cyclic group.)
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

    cyclic = group.cyclic
    _, seed_gen = np.unique(_row_keys(cyclic), return_index=True)  # a generator per seed
    seeds = cyclic[seed_gen]
    frontier = [(c, [a]) for c, a in zip(seeds, seed_gen.tolist()) if add_class(c)]
    while frontier:
        nxt = []
        for h, gens in frontier:
            outside = seed_gen[(seeds & ~h).any(axis=1)]
            joins = _close_under(cyclic[outside] | h, mul[inv[gens]], mul[inv[outside]])
            for j, a in zip(joins, outside.tolist()):
                if add_class(j):
                    nxt.append((j, gens + [a]))
        frontier = nxt

    members = np.array(
        sorted(found.values(), key=lambda s: (int(s.sum()), np.flatnonzero(s).tolist()))
    )
    subs = tuple(Subgroup.from_set(np.flatnonzero(s).tolist()) for s in members)
    m = len(subs)

    sizes = members.sum(axis=1, dtype=np.float32)
    leq = _count(members, members.T) == sizes[:, None]  # |i & j| == |i| iff i <= j

    find = _row_finder(members)
    gens = list(group.generators)
    conj = np.empty((group.order, m), dtype=np.int32)
    conj[0] = np.arange(m)
    for g in gens:  # one generator's conjugates per block
        conj[g] = find(np.take(members, pre[g], axis=1))
    if (conj[gens] < 0).any():
        raise InternalCheckError(f"{group.descriptor}: a conjugate of a subgroup is missing")
    met = np.zeros(group.order, dtype=bool)
    met[[0, *gens]] = True
    while not met.all():
        known = np.flatnonzero(met)
        products = mul[np.ix_(known, known)].ravel()
        at = np.flatnonzero(~met[products])
        new, first = np.unique(products[at], return_index=True)
        a, b = np.divmod(at[first], len(known))
        conj[new] = np.take(conj, m * known[a][:, None] + conj[known[b]])
        met[new] = True
    normal = (conj == np.arange(m)).all(axis=0)

    return SubgroupLattice(group, subs, members, leq, conj, normal)


# ---------------------------------------------------------------------------
# Labels


def _abelian_type_name(elem_orders: Sequence[int]) -> str:
    """Invariant-factor name like ``C6`` or ``C2xC2`` of an abelian subgroup.

    ``elem_orders`` holds the orders of the subgroup's elements.  For each
    prime p, going from the elements killed by p^(i-1) to those killed by
    p^i multiplies their count by p once per p-power factor of order >= p^i.
    """
    invariant: list[int] = []
    rest, p = len(elem_orders), 2
    while rest > 1:
        if rest % p == 0:
            while rest % p == 0:
                rest //= p
            killed, at_least = 1, []  # at_least[i]: factors of order >= p^(i+1)
            while True:
                now = sum(p ** (len(at_least) + 1) % o == 0 for o in elem_orders)
                if now == killed:
                    break
                at_least.append(round(math.log(now // killed, p)))
                killed = now
            for t in range(at_least[0]):
                factor = p ** sum(k > t for k in at_least)
                if t < len(invariant):
                    invariant[t] *= factor
                else:
                    invariant.append(factor)
        p += 1
    return "x".join(f"C{d}" for d in invariant) or "1"


def _minimal_generators(masks: np.ndarray, orders: np.ndarray,
                        members: Sequence[int]) -> list[int]:
    """One generator of a nontrivial cyclic subgroup, else a greedy generating list.

    The list is ``_greedy_generators``'s rule over the members in order:
    each member outside the span of those before it.  The span is read off
    the lattice's member masks (``SubgroupLattice.masks``): it is the first
    subgroup in lattice order, smallest first, that holds every generator
    so far, since it lies in each one that does.  ``orders`` holds the
    element orders, the row sums of ``group.cyclic``, as an array.
    """
    members = np.asarray(members)
    cyclic = members[orders[members] == len(members)]
    if cyclic.size:
        return [int(cyclic[0])]
    gens: list[int] = []
    holds = np.ones(len(masks), dtype=bool)  # the subgroups that hold every generator
    span = 0
    while not (inside := masks[span, members]).all():
        gens.append(int(members[inside.argmin()]))  # the first member outside the span
        holds &= masks[:, gens[-1]]
        span = int(holds.argmax())
    return gens


def _subgroup_labels(latt: SubgroupLattice) -> tuple[str, ...]:
    group = latt.group
    orders = group.cyclic.sum(axis=1)
    abelian = group.is_abelian
    raw: list[str] = []
    for sub in latt.subgroups:
        if sub.order == 1:
            raw.append("1")
        elif sub.order == group.order:
            raw.append(group.name)
        elif abelian:
            raw.append(_abelian_type_name(orders[list(sub.members)].tolist()))
        else:
            gens = _minimal_generators(latt.masks, orders, sub.members)
            raw.append("<" + ",".join(group.element_names[a] for a in gens) + ">")
    counts: dict[str, int] = {}
    labels = []
    for lab in raw:
        k = counts.get(lab, 0)
        counts[lab] = k + 1
        labels.append(lab + "'" * k)
    return tuple(labels)
