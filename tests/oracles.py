"""Independent oracle implementations used only by the test suite.

Each oracle deliberately avoids the production code path it checks:
closure runs as a one-step-at-a-time fixpoint loop instead of the
single-pass pipeline, enumeration brute-forces subset closures and runs
the BFS one candidate at a time, bounded disklike scopes close every small
set of top edges, complexity tries every subset of a system's edges,
setwise products KN are multiplied out, inflation and the fixed points
index the context's arrays on every call instead of reading the
parent's per-N tables, the hull
intersects saturated catalog members, quotient groups get an explicit
coset Cayley table, subgroups and element orders come from a breadth-first
search over products instead of the library's element masks, group
tables are multiplied out one pair of elements at a time, subgroups
are closed under joins one frozenset at a time with every lattice table
filled pair by pair, meets are validated pair by pair and derived row
by row instead of over the cover relation, covers come from a product
instead of counting chains, edge representatives come from each pair's
orbit instead of generator moves, the site key hashes one joined byte
string, compatibility is scanned edge by edge, the m-by-m
restriction poset (whose order the library reads off the site's matrices)
is built in whole arrays and again by a per-edge loop, with its covers
from an m-cubed product, M(O) runs the literal recursion, the unrolled
recursion and the conjecture formula read the restriction poset instead
of the site's n-by-n matrices, the disklike M(O) runs the cover-relation
worklist over the poset's covers, orbits, conjugation closure and the
conjugation axiom loop over every permutation of the action instead of
reading the site's orbit table, and the census, the cross-method audit, the
M(O) pairing and the conjecture harness walk their systems one at a time
through the public per-system functions instead of in stacked blocks, and
a system file is loaded by closing its listed edges and comparing the
closure's edges with them instead of checking the listed relation, and an
edge list is split into tokens before each token is scanned for its
``>`` instead of in one pass, and the greedy generating sets of the table
check, the site's action check and the subgroup labels grow their spans
by their own loops instead of one shared helper and the lattice, and the
conjugation table of a lattice looks up every element's conjugates
instead of composing the generators' rows, and the DOT and TikZ
figures each decide their ranks, arrows, highlight and dotted covers in
their own loops, as the renderers did before they shared one figure.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from transfer_systems.compat import (
    CompatReport,
    conjecture_formula,
    is_compatible,
    max_compat_oracle,
    max_compat_recursive,
)
from transfer_systems.enumeration import (
    AuditEntry,
    AuditReport,
    CensusStats,
    ConjectureCase,
    ConjectureReport,
    disklike_systems,
)
from transfer_systems.errors import (
    CapExceededError,
    InputFileError,
    InternalCheckError,
    MismatchedSitesError,
    NotNormalError,
    UsageError,
)
from transfer_systems.groups import DEFAULT_SUBGROUP_CAP, Group, Subgroup, SubgroupLattice
from transfer_systems.groups import _close_under, _group_from_table, _row_finder
from transfer_systems.serialize import system_to_dict
from transfer_systems.sites import Site, site_from_descriptor
from transfer_systems.systems import (
    SaturationResult,
    TransferSystem,
    ViolationReport,
    _comp,
    _edge_systems,
    generate_from_edges,
    is_saturated,
)


NOT_COMPARABLE = 0
SUCCESS = 1
FAILURE = 2


class RestrictionPoset:
    """Poset (<=, covers) over the non-reflexive edges of one system.

    For e: K -> H and r: K' -> J, r <= e iff J <= H and K' = K /\\ J (e
    "restricts onto" r); such an r is automatically in O.  Each comparable
    pair is annotated a compatibility failure iff K /\\ J -> K is in O and
    J -> H is not, else a success.

    Attributes:
        owner: the system whose edges are the nodes.
        nodes: edges in canonical (src, dst) order.
        leq: boolean matrix, ``leq[i, j]`` iff nodes[j] restricts onto nodes[i].
        annotation: int8 matrix over comparable pairs (SUCCESS / FAILURE),
            NOT_COMPARABLE elsewhere.
        covers: cover relation of ``leq`` by a bool m-by-m product,
            computed on first access and then cached.

    All matrices are read-only.  Every (node j = K -> H, J <= H) pair is
    listed at once, its restriction looked up in an n-by-n node-index
    table, and ``leq`` and ``annotation`` filled by one fancy-index
    assignment each.
    """

    def __init__(self, ts: TransferSystem):
        site = ts.site
        self.owner = ts
        self.nodes = ts.edges()
        m = len(self.nodes)
        rel = ts.rel
        ks, hs = np.nonzero(rel & ~np.eye(site.size, dtype=bool))  # nodes, in order
        node_of = np.full((site.size, site.size), -1, dtype=np.intp)
        node_of[ks, hs] = np.arange(m)
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
        covers = covers_by_product(self.leq)
        covers.flags.writeable = False
        return covers

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def cover_count(self) -> int:
        return int(self.covers.sum())


def restriction_poset(ts: TransferSystem) -> RestrictionPoset:
    """The restriction poset of a system, cached on it."""
    poset = ts._cache.get("restriction_poset")
    if poset is None:
        poset = ts._cache["restriction_poset"] = RestrictionPoset(ts)
    return poset


def pairs(site: Site) -> tuple[tuple[int, int], ...]:
    """Every strict pair (K, H), K < H, of the site, in row-major order."""
    return tuple(map(tuple, np.argwhere(site.leq & ~np.eye(site.size, dtype=bool)).tolist()))


def closure_fixpoint(site: Site, edges) -> np.ndarray:
    """Transfer-system closure as a naive fixpoint over single inference steps."""
    n = site.size
    rel = np.eye(n, dtype=bool)
    for k, h in edges:
        rel[k, h] = True
    changed = True
    while changed:
        changed = False
        for p in site.action:
            for k in range(n):
                for h in range(n):
                    if rel[k, h] and not rel[p[k], p[h]]:
                        rel[p[k], p[h]] = True
                        changed = True
        for k in range(n):
            for h in range(n):
                if not rel[k, h]:
                    continue
                for l in range(n):
                    if site.leq[l, h]:
                        m = site.meet[k, l]
                        if not rel[m, l]:
                            rel[m, l] = True
                            changed = True
        for l in range(n):
            for k in range(n):
                if rel[l, k]:
                    for h in range(n):
                        if rel[k, h] and not rel[l, h]:
                            rel[l, h] = True
                            changed = True
    return rel


def canonical(systems) -> list[TransferSystem]:
    """Systems sorted by edge count, then key bytes."""
    return sorted(systems, key=lambda s: (s.edge_count, s.key))


def bfs_by_loop(site: Site, start, edges, cap: int, message: str, depth=None):
    """The enumerators' BFS one candidate at a time: each frontier system
    plus each edge it lacks is closed by its own ``_comp`` call, deduped,
    and built through the constructor, which checks it."""
    closures = [(e, edge_closure_by_loop(site, e)) for e in edges]
    seen = {start.key: start}
    if len(seen) > cap:
        raise CapExceededError(message.format(cap=cap, count=len(seen)))
    frontier = [start.rel]
    level = 0
    while frontier and (depth is None or level < depth):
        level += 1
        next_level = []
        for current in frontier:
            for e, r_e in closures:
                if current[e]:
                    continue
                rel = _comp(current | r_e)
                key = rel.tobytes()
                if key in seen:
                    continue
                if len(seen) >= cap:
                    raise CapExceededError(message.format(cap=cap, count=len(seen)))
                seen[key] = TransferSystem(site, rel)
                next_level.append(rel)
        frontier = next_level
    return canonical(seen.values())


def enumerate_subset_closure(site: Site) -> set[bytes]:
    """Keys of the closures of every subset of comparable pairs."""
    strict = pairs(site)
    out = set()
    for mask in range(1 << len(strict)):
        edges = [strict[i] for i in range(len(strict)) if mask >> i & 1]
        out.add(closure_fixpoint(site, edges).tobytes())
    return out


def disklike_by_subsets(site: Site, max_generators: int, require_bottom_to_top: bool = False):
    """Disklike systems of complexity <= max_generators, by closing every
    set of at most that many top edges (one per orbit of such sets)."""
    top = site.top
    top_edges = [(int(h), top) for h in range(site.size) if h != top]
    universal = (site.bottom, top)
    found = {}
    # generator sets that differ by the action generate the same system
    subset_keys: set[tuple] = set()
    for k in range(max_generators + 1):
        for subset in combinations(top_edges, k):
            key = site.subset_orbit_key(subset)
            if key in subset_keys:
                continue
            subset_keys.add(key)
            ts = generate_from_edges(site, subset)
            found.setdefault(ts.key, ts)
    systems = canonical(found.values())
    if require_bottom_to_top:
        systems = [s for s in systems if s.rel[universal]]
    return systems


def complexity_by_subsets(ts, bound: int = 4):
    """Minimum size of a generating edge set (None above bound), trying
    every subset of the system's edges by increasing cardinality."""
    edges = ts.edges()
    if not edges:
        return 0
    for k in range(1, bound + 1):
        for subset in combinations(edges, k):
            if generate_from_edges(ts.site, subset) == ts:
                return k
    return None


def system_from_dict_by_closure(data: dict, site: Site | None = None) -> TransferSystem:
    """Load a system JSON object by generating the listed edges' closure and
    refusing the file when the closure's edges differ from the listed ones."""

    def is_label_pair(edge) -> bool:
        return isinstance(edge, list) and len(edge) == 2 and all(isinstance(x, str) for x in edge)

    if not isinstance(data, dict) or "edges" not in data:
        raise InputFileError("system JSON must have an 'edges' field")
    if not isinstance(data["edges"], list) or not all(map(is_label_pair, data["edges"])):
        raise InputFileError("system JSON 'edges' must be a list of [source, target] labels")
    if site is None:
        if "site" not in data:
            raise InputFileError("system JSON must have a 'site' field")
        site = site_from_descriptor(data["site"])
    edges = [(site.node(src), site.node(dst)) for src, dst in data["edges"]]
    ts = generate_from_edges(site, edges)
    if set(ts.edges()) != set(edges):
        raise UsageError("edge list is not a transfer system (closure adds edges)")
    return ts


def dump_system(ts: TransferSystem) -> str:
    """One system as an indented JSON file, as ``--input`` reads it."""
    return json.dumps(system_to_dict(ts), indent=2, sort_keys=True) + "\n"


def split_edge_tokens(text: str) -> list[str]:
    """Split an edge list on separators outside <...> label brackets."""
    tokens, depth, cur = [], 0, []
    for ch in text:
        if ch == "<":
            depth += 1
        elif ch == ">" and depth > 0:
            depth -= 1
            cur.append(ch)
            continue
        if depth == 0 and (ch in ",;" or ch.isspace()):
            if cur:
                tokens.append("".join(cur))
                cur = []
            continue
        cur.append(ch)
    if cur:
        tokens.append("".join(cur))
    return tokens


def parse_edges_in_two_passes(site: Site, text: str) -> list[tuple[int, int]]:
    """Split the tokens first, then rescan each token for its first ``>``
    outside brackets."""
    edges = []
    for token in split_edge_tokens(text):
        depth = 0
        split_at = -1
        for i, ch in enumerate(token):
            if ch == "<":
                depth += 1
            elif ch == ">":
                if depth > 0:
                    depth -= 1
                else:
                    split_at = i
                    break
        if split_at < 0:
            raise UsageError(f"edge {token!r} must look like SRC>DST")
        src, dst = token[:split_at], token[split_at + 1 :]
        edges.append((site.node(src), site.node(dst)))
    return edges


def product_with_normal(latt: SubgroupLattice, k: int, n: int) -> int:
    """Index of the setwise product KN for N normal; equals join(k, n)."""
    if not latt.normal[n]:
        raise NotNormalError(f"subgroup {latt.labels[n]} is not normal")
    g = latt.group
    kn = {int(g.mul[a, b]) for a in latt.subgroups[k].members for b in latt.subgroups[n].members}
    return index_of(latt, kn)


def index_of(latt: SubgroupLattice, members) -> int:
    """Index of the subgroup with exactly these elements."""
    return _subgroup_index(latt)[tuple(sorted(members))]


def _subgroup_index(latt: SubgroupLattice) -> dict[tuple[int, ...], int]:
    return {s.members: i for i, s in enumerate(latt.subgroups)}


def has_edge(ts: TransferSystem, k: int, h: int) -> bool:
    return bool(ts.rel[k, h])


def nonreflexive_edges(rel: np.ndarray) -> list[tuple[int, int]]:
    """The edges (a, b) of a relation matrix with a != b, in row-major order."""
    return [(a, b) for a, b in np.argwhere(rel).tolist() if a != b]


def closure(group: Group, generators) -> frozenset[int]:
    """Subgroup generated by the elements, by a breadth-first search over products."""
    gens = sorted(set(generators) | {0})
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                y = int(group.mul[h, g])
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def compose(p: tuple, q: tuple) -> tuple:
    """The permutation p(q), as tuples: i -> p[q[i]]."""
    return tuple(p[q[i]] for i in range(len(p)))


def permutation_group(gens, degree: int, cap: int, what: str) -> list[tuple]:
    """Sorted elements of the group the tuples generate on 0..degree-1.

    ``groups._permutation_group`` one element at a time, as tuples: a
    breadth-first search from the identity by right multiplication with
    each generator; more than ``cap`` elements raises CapExceededError.
    """
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in seen:
                    if len(seen) >= cap:
                        raise CapExceededError(f"{what}: generated more than {cap} elements")
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return sorted(seen)


def table_by_pairs(elements, op) -> np.ndarray:
    """The multiplication table of ``op`` on ``elements``, one product at a time."""
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    mul = np.empty((n, n), dtype=np.int32)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            mul[i, j] = index[op(a, b)]
    return mul


def element_orders(group: Group) -> list[int]:
    """Order of every element, as the size of the subgroup it generates."""
    return [len(closure(group, [a])) for a in range(group.order)]


def brute_force_subgroups(group: Group) -> set[frozenset[int]]:
    """All subgroups, by closing every subset of elements (exponential)."""
    n = group.order
    found = set()
    elements = list(range(n))
    for r in range(n + 1):
        for subset in combinations(elements, r):
            found.add(closure(group, subset))
    return found


def associative_by_triples(mul: np.ndarray) -> bool:
    """(ab)c = a(bc) for every triple of the table."""
    n = len(mul)
    return bool(np.array_equal(mul[mul], mul[np.arange(n)[:, None, None], mul[None]]))


def validate_table_by_loop(mul: np.ndarray, what: str) -> None:
    """``groups._validate_table`` with its own span loop: Light's test per
    generator, the right powers g, g^2, ... seeding the span."""
    n = mul.shape[0]
    if mul.shape != (n, n) or n == 0:
        raise InputFileError(f"{what}: table must be square and non-empty")
    if not (np.array_equal(mul[0], np.arange(n)) and np.array_equal(mul[:, 0], np.arange(n))):
        raise InputFileError(f"{what}: index 0 must be the identity element")
    inv = np.argmin(mul, axis=1)
    if not np.array_equal(mul[np.arange(n), inv], np.zeros(n, dtype=mul.dtype)):
        raise InputFileError(f"{what}: some element has no inverse")
    if not np.array_equal(mul[inv, np.arange(n)], np.zeros(n, dtype=mul.dtype)):
        raise InputFileError(f"{what}: left and right inverses disagree")
    span = np.zeros((1, n), dtype=bool)
    span[0, 0] = True
    gens: list[int] = []
    for g in range(n):
        if span[0, g]:
            continue
        left, right = mul[mul[:, g]], mul[:, mul[g]]
        bad = np.argwhere(left != right)
        if bad.size:
            x, y = int(bad[0, 0]), int(bad[0, 1])
            raise InputFileError(
                f"{what}: non-associative at ({x},{g},{y}): "
                f"(xg)y={int(left[x, y])} != x(gy)={int(right[x, y])}"
            )
        gens.append(g)
        power = g
        while power:
            span[0, power] = True
            power = mul[power, g]
        span = _close_under(span, mul[inv[gens]])


def minimal_generators_by_loop(group: Group, orders: list[int], members) -> list[int]:
    """``groups._minimal_generators`` with its own span loop, which stops once
    the span holds every member."""
    for a in members:
        if orders[a] == len(members):
            return [a]
    gens: list[int] = []
    span = group.cyclic[0]
    for a in members:
        if not span[a]:
            gens.append(a)
            span = _close_under((span | group.cyclic[a])[None], group.mul[group.inv[gens]])[0]
            if span.sum() == len(members):
                break
    return gens


def conj_action_by_lookup(latt: SubgroupLattice) -> tuple[np.ndarray, np.ndarray]:
    """``conj_action`` and ``normal`` of a lattice with one lookup per element:
    the conjugates gHg^-1 of every member mask, found among the masks."""
    group = latt.group
    mul, inv = group.mul, group.inv
    members = np.zeros((len(latt), group.order), dtype=bool)
    for i, sub in enumerate(latt.subgroups):
        members[i, list(sub.members)] = True
    pre = mul[mul, inv[:, None]][inv]  # pre[g, x] = g^-1 x g
    find = _row_finder(members)
    conj = np.empty((group.order, len(members)), dtype=np.int32)
    for g in range(group.order):
        conj[g] = find(np.take(members, pre[g], axis=1))
    if (conj < 0).any():
        raise InternalCheckError(f"{group.descriptor}: a conjugate of a subgroup is missing")
    return conj, (conj == np.arange(len(members))).all(axis=0)


def generators_by_loop(acts: np.ndarray) -> list[int]:
    """``sites._generators`` by reachability rounds: the rows reached from the
    identity by right multiplication with the generators, each new
    generator the first row not reached."""
    m = len(acts)
    find = _row_finder(acts)
    gens: list[int] = []
    columns = []  # columns[i][r]: the row r g_i
    reached = np.zeros(m, dtype=bool)
    reached[0] = True
    while not reached.all():
        g = int(np.argmin(reached))
        column = find(acts[:, acts[g]])
        if (column < 0).any():
            raise InternalCheckError("action must be closed under composition")
        gens.append(g)
        columns.append(column)
        size = 0
        while size < np.count_nonzero(reached):
            size = np.count_nonzero(reached)
            for column in columns:
                reached[column[reached]] = True
    return gens


@dataclass(eq=False)
class JoinedLattice(SubgroupLattice):
    """A subgroup lattice that also tables every join, pair by pair."""

    join: np.ndarray | None = None


def join_by_orders(leq: np.ndarray, orders) -> np.ndarray:
    """Joins pair by pair: the common upper bound of least order."""
    m = len(leq)
    orders = np.asarray(orders)
    join = np.zeros((m, m), dtype=np.int32)
    for i in range(m):
        for j in range(i, m):
            uppers = np.nonzero(leq[i] & leq[j])[0]
            join[i, j] = join[j, i] = uppers[int(np.argmin(orders[uppers]))]
    return join


def subgroup_lattice_by_joins(
    group: Group, max_subgroups: int = DEFAULT_SUBGROUP_CAP
) -> JoinedLattice:
    """The subgroup lattice by closing the cyclic subgroups under joins.

    Every join is a ``closure`` over frozensets, and every table entry
    is computed pair by pair.  Unlike the production cap, ``max_subgroups``
    counts only the subgroups found by joins.
    """
    cyclics: set[frozenset[int]] = set()
    for a in range(group.order):
        cyclics.add(closure(group, [a]))
    seeds = sorted(cyclics, key=lambda s: (len(s), tuple(sorted(s))))

    found: set[frozenset[int]] = set(seeds)
    frontier = list(seeds)
    while frontier:
        nxt = []
        for h in frontier:
            for c in seeds:
                if c <= h:
                    continue
                j = closure(group, h | c)
                if j not in found:
                    if len(found) >= max_subgroups:
                        raise CapExceededError(
                            f"{group.descriptor}: more than {max_subgroups} subgroups"
                        )
                    found.add(j)
                    nxt.append(j)
        frontier = nxt

    subs = tuple(sorted(Subgroup.from_set(s) for s in found))
    m = len(subs)
    member_sets = [frozenset(s.members) for s in subs]
    index = {s.members: i for i, s in enumerate(subs)}

    leq = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(m):
            leq[i, j] = member_sets[i] <= member_sets[j]

    conj = np.zeros((group.order, m), dtype=np.int32)
    for g in range(group.order):
        for i in range(m):
            image = frozenset(int(group.mul[group.mul[g, h], group.inv[g]]) for h in member_sets[i])
            conj[g, i] = index[tuple(sorted(image))]
    normal = np.array([bool(np.all(conj[:, i] == i)) for i in range(m)])

    masks = np.zeros((m, group.order), dtype=bool)
    for i in range(m):
        masks[i, list(member_sets[i])] = True
    join = join_by_orders(leq, [s.order for s in subs])
    return JoinedLattice(group, subs, masks, leq, conj, normal, join=join)


def setwise_product(group: Group, a_members, b_members) -> frozenset[int]:
    return frozenset(int(group.mul[x, y]) for x in a_members for y in b_members)


def hull_by_intersection(catalog, ts):
    """Meet of all saturated catalog systems containing ts."""
    from transfer_systems.systems import is_saturated

    rel = None
    for s in catalog.systems:
        if is_saturated(s).saturated and np.all(~ts.rel | s.rel):
            rel = s.rel if rel is None else (rel & s.rel)
    assert rel is not None, "no saturated system contains ts"
    return rel


def disklike_by_restriction(ts) -> bool:
    """Alternative disklike test: every transfer is a restriction of one into top."""
    site = ts.site
    top = site.top
    tops = [int(s) for s in np.flatnonzero(ts.rel[:, top])]
    for k, h in ts.edges():
        if not any(int(site.meet[s, h]) == k for s in tops):
            return False
    return True


def quotient_group(latt: SubgroupLattice, n: int) -> tuple[Group, list[frozenset[int]]]:
    """G/N as an explicit coset Cayley table (test-only constructor)."""
    group = latt.group
    members = latt.subgroups[n].members
    cosets: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for g in range(group.order):
        c = frozenset(int(group.mul[g, x]) for x in members)
        if c not in seen:
            seen.add(c)
            cosets.append(c)
    cosets.sort(key=min)  # identity coset contains 0, so it sorts first
    index = {c: i for i, c in enumerate(cosets)}
    m = len(cosets)
    mul = np.zeros((m, m), dtype=np.int32)
    for i, a in enumerate(cosets):
        ra = min(a)
        for j, b in enumerate(cosets):
            rb = min(b)
            prod = frozenset(int(group.mul[int(group.mul[ra, rb]), x]) for x in members)
            mul[i, j] = index[prod]
    g = _group_from_table(mul, f"quotient:{group.descriptor}/{n}", "Q", [f"c{i}" for i in range(m)])
    return g, cosets


def inflate_by_fancy_index(ctx, o_bar) -> np.ndarray:
    """The inflation's relation from fancy indexes of the context's arrays, with no cached table."""
    parent = ctx.parent
    sub_of = np.searchsorted(ctx.to_parent, ctx.kn)  # interval index of KN
    lifted = o_bar.rel[sub_of[:, None], sub_of]  # KN -> HN is an interval transfer
    anchored = parent.meet[ctx.kn, :] == np.arange(parent.size)[:, None]  # K == KN /\ H
    return parent.leq & lifted & anchored


def fixed_points_by_fancy_index(ctx, o) -> np.ndarray:
    """The fixed points' relation: O's rows and columns at the interval nodes."""
    idx = ctx.to_parent
    return o.rel[idx[:, None], idx]


def meet_table_by_pairs(leq: np.ndarray, labels) -> np.ndarray:
    """All binary meets pair by pair; Site's "no meet" error for the first bad pair a <= b."""
    n = leq.shape[0]
    meet = np.zeros((n, n), dtype=np.int32)
    for a in range(n):
        for b in range(a, n):
            lows = np.flatnonzero(leq[:, a] & leq[:, b])
            maximal = [m for m in lows if np.all(leq[lows, m])]
            if len(maximal) != 1:
                raise InputFileError(f"not a lattice: {labels[a]} and {labels[b]} have no meet")
            meet[a, b] = meet[b, a] = maximal[0]
    return meet


def meet_by_rows(leq: np.ndarray, labels) -> np.ndarray:
    """All binary meets one row at a time; Site's "no meet" error for the first bad pair a <= b.

    Row a takes, for every b, the common lower bound of a and b with the
    largest down-set, first in index order among equals; it is the meet
    iff its down-set has |down(a) & down(b)| members.
    """
    n = leq.shape[0]
    f = leq.astype(np.float32)
    down = f.sum(axis=0)
    common = np.ascontiguousarray(f.T) @ f
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


def covers_by_product(leq: np.ndarray) -> np.ndarray:
    """The cover relation: strict pairs that are not a product of two strict pairs.

    The product runs in float32, on BLAS: its entries count the two-step
    paths, at most the number of nodes, so they are exact.
    """
    strict = leq & ~np.eye(leq.shape[0], dtype=bool)
    paths = strict.astype(np.float32)
    return strict & ~(paths @ paths > 0)


def edge_rep_by_loop(site: Site) -> np.ndarray:
    """``Site.edge_rep`` from ``orbit_by_loop``: each pair's orbit, and its least member."""
    n = site.size
    rep = np.full((n, n), -1, dtype=np.intp)
    for k in range(n):
        for h in range(n):
            if rep[k, h] < 0:
                orbit = orbit_by_loop(site, (k, h))
                a, b = min(orbit)
                for x, y in orbit:
                    rep[x, y] = a * n + b
    return rep


def site_key_by_join(leq: np.ndarray, action) -> bytes:
    """``Site.key``: sha256 of the order's bytes, "|" and the action rows joined by ","."""
    return hashlib.sha256(leq.tobytes() + b"|" + b",".join(p.tobytes() for p in action)).digest()


def meet_by_intersection(latt: SubgroupLattice) -> np.ndarray:
    """Subgroup meets as member-set intersections, pair by pair."""
    m = len(latt)
    members = [frozenset(s.members) for s in latt.subgroups]
    index = _subgroup_index(latt)
    meet = np.zeros((m, m), dtype=np.int32)
    for i in range(m):
        for j in range(i, m):
            meet[i, j] = meet[j, i] = index[tuple(sorted(members[i] & members[j]))]
    return meet


def close_permutations_by_pairs(perms, n: int) -> tuple[np.ndarray, ...]:
    """Close a permutation set under composition by composing every pair found so far."""
    seen = {tuple(range(n))}
    for p in perms:
        seen.add(tuple(int(x) for x in p))
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for q in list(seen):
                for r in (tuple(p[i] for i in q), tuple(q[i] for i in p)):
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
        frontier = nxt
    return tuple(np.array(p, dtype=np.int32) for p in sorted(seen))


def compatible_by_scan(o_a, o_m) -> CompatReport:
    """Condition (2) scanned over the multiplicative edges in canonical order."""
    site = o_a.site
    rel_a = o_a.rel
    for k, h in o_m.edges():
        js = np.flatnonzero(site.leq[:, h])
        hyp = rel_a[site.meet[k, js], k]
        bad = hyp & ~rel_a[js, h]
        if np.any(bad):
            j = int(js[np.flatnonzero(bad)[0]])
            return CompatReport(False, (k, j, h))
    return CompatReport(True)


def restriction_poset_by_loop(ts):
    """(nodes, leq, annotation, covers) of the restriction poset, edge by edge."""
    site = ts.site
    nodes = ts.edges()
    index = {e: i for i, e in enumerate(nodes)}
    m = len(nodes)
    leq = np.eye(m, dtype=bool)
    annotation = np.zeros((m, m), dtype=np.int8)
    rel = ts.rel
    for j, (k, h) in enumerate(nodes):
        for jj in np.flatnonzero(site.leq[:, h]):
            r = (int(site.meet[k, jj]), int(jj))
            i = index.get(r)
            if i is None:  # reflexive restriction, not a poset node
                continue
            leq[i, j] = True
            failed = bool(rel[r[0], k]) and not bool(rel[jj, h])
            annotation[i, j] = FAILURE if failed else SUCCESS
    return nodes, leq, annotation, covers_by_product(leq)


def max_compat_by_recursion(poset) -> list[tuple[int, int]]:
    """M(O) edges by the literal recursion, nodes taken by down-set size.

    A strict restriction has a smaller down-set, so every r < e is decided
    before e.
    """
    m = len(poset)
    in_m = [False] * m
    for j in sorted(range(m), key=lambda j: int(poset.leq[:, j].sum())):
        in_m[j] = all(
            in_m[i] and poset.annotation[i, j] == SUCCESS
            for i in range(m) if i != j and poset.leq[i, j]
        )
    return [e for j, e in enumerate(poset.nodes) if in_m[j]]


def max_compat_recursive_by_poset(o) -> TransferSystem:
    """M(O) by the unrolled recursion over the restriction poset.

    e is dropped iff some r <= e has a failing strict restriction: one
    vector-matrix product over the m-by-m poset order.  The poset is built
    afresh, not cached on O.
    """
    poset = RestrictionPoset(o)
    fails = (poset.annotation == FAILURE).any(axis=0)  # some strict restriction fails
    rel = np.eye(o.site.size, dtype=bool)
    rel[o.rel & ~rel] = ~(fails @ poset.leq)
    return TransferSystem(o.site, rel)


def conjecture_formula_by_poset(o) -> frozenset[tuple[int, int]]:
    """Poset nodes none of whose strict restrictions is annotated a failure
    (the poset built afresh, not cached on O)."""
    poset = RestrictionPoset(o)
    fails = (poset.annotation == FAILURE).any(axis=0)
    return frozenset(e for e, f in zip(poset.nodes, fails) if not f)


def disklike_by_worklist(o):
    """(M(O), steps) by the cover-relation worklist over the restriction poset.

    Starts from the minimal nodes, repeatedly takes the least queued node
    with no queued strict restriction, inspects its covers in order until
    one is not kept or not a success, and decides the node's whole
    conjugacy class with that verdict.
    """
    poset = restriction_poset(o)
    site = o.site
    m = len(poset)
    strict = poset.leq & ~np.eye(m, dtype=bool)
    node_reps = site.edge_rep[o.rel & ~np.eye(site.size, dtype=bool)]  # in node order
    decided: dict[int, bool] = dict.fromkeys(np.flatnonzero(~strict.any(axis=0)).tolist(), True)
    queue = sorted(set(range(m)) - decided.keys())
    js, i = np.nonzero(strict.T)  # every strict restriction i of every node j
    below = [set(r.tolist()) for r in np.split(i, np.searchsorted(js, np.arange(1, m)))]
    steps = 0
    while queue:
        queue_set = set(queue)
        j = next(j for j in queue if below[j].isdisjoint(queue_set))
        verdict = True
        for i in np.flatnonzero(poset.covers[:, j]):
            steps += 1
            if not (decided.get(i, False) and poset.annotation[i, j] == SUCCESS):
                verdict = False
                break
        orbit = set(np.flatnonzero(node_reps == node_reps[j]).tolist())  # j's class within O
        for i in orbit:
            decided[i] = verdict
        queue = [i for i in queue if i not in orbit]
    rel = np.eye(site.size, dtype=bool)
    for j, (k, h) in enumerate(poset.nodes):
        rel[k, h] = decided.get(j, False)
    return TransferSystem(site, rel), steps


def orbit_by_loop(site: Site, edge) -> frozenset[tuple[int, int]]:
    """Orbit of an edge: its image under every permutation of the action."""
    k, h = edge
    return frozenset((int(p[k]), int(p[h])) for p in site.action)


def orbit_representatives_by_loop(site: Site, edges) -> list[tuple[int, int]]:
    """Least member of each edge orbit, in order of first appearance."""
    reps = []
    seen: set[tuple[int, int]] = set()
    for e in edges:
        if e in seen:
            continue
        orbit = orbit_by_loop(site, e)
        seen.update(orbit)
        reps.append(min(orbit))
    return reps


def subset_orbit_key_by_loop(site: Site, edges) -> tuple:
    """Least sorted image of an edge set over the action."""
    return min(tuple(sorted((int(p[a]), int(p[b])) for a, b in edges)) for p in site.action)


def edge_closure_by_loop(site: Site, edge) -> np.ndarray:
    """R_e = res(conj(refl({e}))) of one edge: the diagonal and the images of e
    under every permutation, then every restriction K /\\ L -> L of those edges."""
    rel = np.eye(site.size, dtype=bool)
    rel[edge] = True
    rel = conj_by_loop(site, rel)
    out = rel.copy()
    for k, h in np.argwhere(rel).tolist():
        ls = np.flatnonzero(site.leq[:, h])
        out[site.meet[k, ls], ls] = True
    return out


def conj_by_loop(site: Site, rel: np.ndarray) -> np.ndarray:
    """Conjugation closure as the union of rel's images under the action."""
    out = rel.copy()
    for p in site.action:
        out |= rel[np.ix_(p, p)]
    return out


def first_violation_by_loop(site: Site, rel: np.ndarray):
    """First violated axiom, the conjugation check scanning every permutation."""
    n = site.size
    diag = np.diag(rel)
    if not np.all(diag):
        return ViolationReport("reflexivity", (int(np.flatnonzero(~diag)[0]),))
    for p in site.action:
        bad = rel & ~rel[np.ix_(p, p)]
        if np.any(bad):
            k, h = map(int, np.argwhere(bad)[0])
            return ViolationReport("conjugation", ((k, h), (int(p[k]), int(p[h]))))
    lost = ~rel[site.meet, np.arange(n)]
    bad = rel & (lost @ site.leq)
    if np.any(bad):
        k, h = map(int, np.argwhere(bad)[0])
        l = int(np.flatnonzero(lost[k] & site.leq[:, h])[0])
        return ViolationReport("restriction", ((k, h), l, (int(site.meet[k, l]), l)))
    bad = (rel @ rel) & ~rel
    if np.any(bad):
        l, h = map(int, np.argwhere(bad)[0])
        k = int(np.flatnonzero(rel[l] & rel[:, h])[0])
        return ViolationReport("composition", ((l, k), (k, h), (l, h)))
    return None


def saturation_by_scan(ts) -> SaturationResult:
    """Saturation scanned over the pairs L -> H of ts in row-major order,
    then over K from the least: the first L <= K <= H with K -> H missing."""
    site, rel = ts.site, ts.rel
    for l, h in np.argwhere(rel).tolist():
        for k in range(site.size):
            if site.leq[l, k] and site.leq[k, h] and not rel[k, h]:
                return SaturationResult(False, (l, k, h))
    return SaturationResult(True, None)


def disklike_generators(ts: TransferSystem) -> list[tuple[int, int]]:
    """The maximal candidate generator set: all non-reflexive edges into top."""
    top = ts.site.top
    return [(int(h), top) for h in np.flatnonzero(ts.rel[:, top]) if h != top]


def disklike_by_generators(ts) -> bool:
    """Disklike test of one system: its transfers into top, each T(e) ORed in, then closed."""
    site = ts.site
    rel = np.eye(site.size, dtype=bool)
    for t in _edge_systems(site, [k * site.size + h for k, h in disklike_generators(ts)]):
        rel |= t
    return _comp(rel).tobytes() == ts.key


def census_by_loop(catalog) -> CensusStats:
    """``census`` one system at a time."""
    saturated = disklike = both = selfc = 0
    for ts in catalog.systems:
        sat = is_saturated(ts).saturated
        disk = disklike_by_generators(ts)
        saturated += sat
        disklike += disk
        both += sat and disk
        selfc += is_compatible(ts, ts).compatible
    assert selfc == saturated
    return CensusStats(len(catalog.systems), saturated, disklike, both, selfc)


def _labeled_edges(ts) -> list[tuple[str, str]]:
    lab = ts.site.labels
    return [(lab[a], lab[b]) for a, b in ts.edges()]


def cross_method_audit_by_loop(catalog) -> AuditReport:
    """``cross_method_audit`` one system at a time.

    The oracle and the recursion come from the public M(O) functions; the
    third method is ``disklike_by_worklist`` and C_O the cover count of the
    restriction poset it reads (``RestrictionPoset``), so no part of the
    cover-relation kernel or of ``systems._cover_counts`` is shared with
    the audit.
    """
    disagreements = []
    max_ratio = 0.0
    disklike_total = 0
    for i, ts in enumerate(catalog.systems):
        oracle = max_compat_oracle(ts)
        recursive = max_compat_recursive(ts)
        if oracle != recursive:
            disagreements.append(
                AuditEntry(
                    i,
                    _labeled_edges(ts),
                    "oracle-vs-recursive",
                    f"oracle={_labeled_edges(oracle)} recursive={_labeled_edges(recursive)}",
                )
            )
        if disklike_by_generators(ts):
            disklike_total += 1
            system, steps = disklike_by_worklist(ts)
            if system != oracle:
                disagreements.append(
                    AuditEntry(
                        i,
                        _labeled_edges(ts),
                        "algorithm-vs-oracle",
                        f"algorithm={_labeled_edges(system)} oracle={_labeled_edges(oracle)}",
                    )
                )
            c_o = restriction_poset(ts).cover_count  # the poset the worklist read
            if c_o == 0:
                if steps != 0:
                    disagreements.append(
                        AuditEntry(i, _labeled_edges(ts), "steps", f"steps={steps} with C_O=0")
                    )
            else:
                max_ratio = max(max_ratio, steps / c_o)
    desc = catalog.site.descriptor or f"<site size {catalog.site.size}>"
    return AuditReport(desc, len(catalog.systems), disklike_total, disagreements, max_ratio)


def m_pairing_by_loop(catalog) -> list[int]:
    """``TransferSystemCatalog.m_pairing`` one system at a time."""
    by_key = {s.key: i for i, s in enumerate(catalog.systems)}
    return [by_key[max_compat_recursive(s).key] for s in catalog.systems]


def verify_conjecture_by_loop(sites, complexity_bound=None, require_bottom_to_top=False):
    """``verify_conjecture`` one system at a time, through the public functions."""
    scopes, checked, cases = [], 0, []
    for site in sites:
        desc = site.descriptor or f"<site size {site.size}>"
        scopes.append(desc)
        lab = site.labels

        def named(edges):
            return sorted((lab[a], lab[b]) for a, b in edges)

        for ts in disklike_systems(site, complexity_bound, require_bottom_to_top):
            checked += 1
            formula = conjecture_formula(ts)
            truth = frozenset(max_compat_recursive(ts).edges())
            if formula != truth:
                cases.append(
                    ConjectureCase(
                        desc, named(ts.edges()), named(formula - truth), named(truth - formula)
                    )
                )
    return ConjectureReport(scopes, checked, cases)


def _render_ranks(ts: TransferSystem) -> list[list[int]]:
    site = ts.site
    if site.lattice is not None:
        order = [s.order for s in site.lattice.subgroups]
    else:
        order = [int(site.leq[:, v].sum()) for v in range(site.size)]
    ranks: dict[int, list[int]] = {}
    for v in range(site.size):
        ranks.setdefault(order[v], []).append(v)
    return [ranks[k] for k in sorted(ranks)]


def _render_check(ts: TransferSystem, highlight) -> None:
    if highlight is not None:
        message = "highlight system must be contained in the rendered system"
        if highlight.site.key != ts.site.key:
            raise MismatchedSitesError(message)
        if not highlight.le(ts):
            raise UsageError(message)


def render_dot_by_loops(ts: TransferSystem, highlight=None, cluster=None) -> str:
    """``render.render_dot`` with its own node, rank, arrow and cover loops."""
    _render_check(ts, highlight)
    site = ts.site
    lab = site.labels
    lines = ['digraph "transfers" {', "  rankdir=BT;", '  node [shape=plaintext];']
    cluster_nodes = sorted(set(cluster)) if cluster is not None else []
    if cluster_nodes:
        lines.append("  subgraph cluster_interval {")
        lines.append('    style=dashed; color=green; label="interval";')
        for v in cluster_nodes:
            lines.append(f'    n{v} [label="{lab[v]}"];')
        lines.append("  }")
    for v in range(site.size):
        if v not in cluster_nodes:
            lines.append(f'  n{v} [label="{lab[v]}"];')
    for group in _render_ranks(ts):
        if len(group) > 1:
            lines.append("  { rank=same; " + " ".join(f"n{v};" for v in group) + " }")
    for a, b in nonreflexive_edges(ts.rel):
        if highlight is not None and highlight.rel[a, b]:
            lines.append(f"  n{a} -> n{b} [style=bold, color=blue];")
        else:
            lines.append(f"  n{a} -> n{b};")
    for a, b in np.argwhere(site.covers & ~ts.rel).tolist():
        lines.append(f"  n{a} -> n{b} [style=dotted, arrowhead=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_tikz_by_loops(ts: TransferSystem, highlight=None, cluster=None) -> str:
    """``render.render_tikz`` with its own node, rank, arrow and cover loops."""
    _render_check(ts, highlight)
    site = ts.site
    lab = site.labels
    lines = ["\\begin{tikzpicture}[every node/.style={inner sep=1pt}]"]
    cluster_nodes = set(cluster) if cluster is not None else set()
    for depth, group in enumerate(_render_ranks(ts)):
        for col, v in enumerate(sorted(group)):
            x = 2.0 * col - (len(group) - 1)
            mark = ",draw=green,dashed" if v in cluster_nodes else ""
            lines.append(f"  \\node[{mark.strip(',')}] (n{v}) at ({x:.1f},{depth:.1f}) {{{lab[v]}}};")
    for a, b in nonreflexive_edges(ts.rel):
        style = "very thick,blue" if highlight is not None and highlight.rel[a, b] else "->"
        arrow = "->" if style == "->" else f"->,{style}"
        lines.append(f"  \\draw[{arrow}] (n{a}) -- (n{b});")
    for a, b in np.argwhere(site.covers & ~ts.rel).tolist():
        lines.append(f"  \\draw[dotted] (n{a}) -- (n{b});")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"
