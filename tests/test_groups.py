import hashlib
import re
import time
import tracemalloc
from itertools import combinations, permutations, product

import numpy as np
import pytest

import oracles
from conftest import m_poset_text
from transfer_systems import groups as groups_module
from transfer_systems import sites as sites_module
from transfer_systems.cli import main
from transfer_systems.errors import (
    CapExceededError,
    DescriptorError,
    InputFileError,
    InternalCheckError,
    NotNormalError,
)
from oracles import compose as _compose
from oracles import permutation_group as _permutation_group
from oracles import product_with_normal
from transfer_systems.functors import quotient_context
from transfer_systems.groups import (
    _minimal_generators,
    _parse_cycles,
    _product_table,
    _row_finder,
    _validate_table,
    build_group,
    small_group_descriptors,
    subgroup_lattice,
)
from transfer_systems.sites import (
    _generators,
    parse_poset_text,
    site_from_descriptor,
    site_from_lattice,
)

# Exhaustive lattice-law checks run on these (every group of order <= 24 we use).
CATALOG = ["cyclic:6", "cyclic:12", "cyclic:24", "symmetric:3", "symmetric:4",
           "q8", "dihedral:4", "alternating:4", "product:2x6"]


def test_trivial_group():
    g = build_group("cyclic:1")
    assert g.order == 1


def test_symmetric_3_order():
    assert build_group("symmetric:3").order == 6


def test_cyclic_6_subgroup_count_matches_brute_force():
    g = build_group("cyclic:6")
    latt = subgroup_lattice(g)
    assert len(latt) == 4
    assert {s.members for s in latt.subgroups} == {
        tuple(sorted(x)) for x in oracles.brute_force_subgroups(g)
    }


def test_symmetric_3_subgroups():
    latt = subgroup_lattice(build_group("symmetric:3"))
    assert [s.order for s in latt.subgroups] == [1, 2, 2, 2, 3, 6]
    # the three order-2 subgroups are conjugate: one orbit of size 3
    orbits = {tuple(sorted({int(latt.conj_action[g, i]) for g in range(6)})) for i in (1, 2, 3)}
    assert orbits == {(1, 2, 3)}


def test_cyclic_12_is_divisor_lattice():
    g = build_group("cyclic:12")
    latt = subgroup_lattice(g)
    assert [s.order for s in latt.subgroups] == [1, 2, 3, 4, 6, 12]
    assert {s.members for s in latt.subgroups} == {
        tuple(sorted(x)) for x in oracles.brute_force_subgroups(g)
    }
    # containment iff divisibility of orders, for a cyclic group
    orders = [s.order for s in latt.subgroups]
    for i, a in enumerate(orders):
        for j, b in enumerate(orders):
            assert latt.leq[i, j] == (b % a == 0)


def test_element_indexing_deterministic():
    a = build_group("symmetric:4")
    b = build_group("symmetric:4")
    assert np.array_equal(a.mul, b.mul)
    assert a.element_names == b.element_names


@pytest.mark.parametrize("desc", CATALOG)
def test_lattice_laws_exhaustive(desc):
    latt = subgroup_lattice(build_group(desc))
    m = len(latt)
    meet, leq = site_from_lattice(latt).meet, latt.leq
    join = oracles.join_by_orders(leq, [s.order for s in latt.subgroups])
    for a in range(m):
        assert meet[a, a] == a and join[a, a] == a
        for b in range(m):
            assert meet[a, b] == meet[b, a] and join[a, b] == join[b, a]
            assert meet[a, join[a, b]] == a and join[a, meet[a, b]] == a  # absorption
            # meet is the greatest lower bound, join the least upper bound
            assert leq[meet[a, b], a] and leq[meet[a, b], b]
            assert leq[a, join[a, b]] and leq[b, join[a, b]]
    for a in range(m):
        for b in range(m):
            for c in range(m):
                assert meet[meet[a, b], c] == meet[a, meet[b, c]]
                assert join[join[a, b], c] == join[a, join[b, c]]


@pytest.mark.parametrize("desc", CATALOG)
def test_conjugation_preserves_containment(desc):
    latt = subgroup_lattice(build_group(desc))
    m = len(latt)
    for g in range(latt.group.order):
        perm = latt.conj_action[g]
        assert np.array_equal(latt.leq[np.ix_(perm, perm)], latt.leq)
        assert sorted(perm) == list(range(m))


@pytest.mark.parametrize("desc", CATALOG)
def test_product_with_normal_is_join(desc):
    latt = subgroup_lattice(build_group(desc))
    site = site_from_lattice(latt)
    for n in range(len(latt)):
        if not latt.normal[n]:
            continue
        kn = quotient_context(site, n).kn
        for k in range(len(latt)):
            assert product_with_normal(latt, k, n) == kn[k]


def test_product_with_normal_examples():
    latt = subgroup_lattice(build_group("cyclic:12"))
    labels = latt.labels
    c4, c3 = labels.index("C4"), labels.index("C3")
    assert product_with_normal(latt, 0, c3) == c3
    assert product_with_normal(latt, len(latt) - 1, c3) == len(latt) - 1
    assert labels[product_with_normal(latt, c4, c3)] == "C12"
    kn = oracles.setwise_product(latt.group, latt.subgroups[c4].members, latt.subgroups[c3].members)
    assert oracles.index_of(latt, kn) == len(latt) - 1


def test_product_with_normal_rejects_non_normal():
    latt = subgroup_lattice(build_group("symmetric:3"))
    non_normal = next(i for i in range(len(latt)) if not latt.normal[i])
    with pytest.raises(NotNormalError):
        product_with_normal(latt, 0, non_normal)


def _groups_up_to_24():
    return [d for d in CATALOG if build_group(d).order <= 24]


@pytest.mark.parametrize("desc", _groups_up_to_24())
def test_intersection_product_lemma(desc):
    # AB cap AN = A  implies  (A cap B)N = AN cap BN, checked setwise
    latt = subgroup_lattice(build_group(desc))
    g = latt.group
    members = [set(s.members) for s in latt.subgroups]
    for n in range(len(latt)):
        if not latt.normal[n]:
            continue
        for a, b in combinations(range(len(latt)), 2):
            ab = oracles.setwise_product(g, members[a], members[b])
            an = oracles.setwise_product(g, members[a], members[n])
            bn = oracles.setwise_product(g, members[b], members[n])
            if ab & an == members[a]:
                lhs = oracles.setwise_product(g, members[a] & members[b], members[n])
                assert lhs == an & bn


@pytest.mark.parametrize("desc", _groups_up_to_24())
def test_sandwich_product_lemma(desc):
    # N <= A <= BN  implies  A = (A cap B)N
    latt = subgroup_lattice(build_group(desc))
    g = latt.group
    members = [set(s.members) for s in latt.subgroups]
    for n in range(len(latt)):
        if not latt.normal[n]:
            continue
        for a in range(len(latt)):
            if not latt.leq[n, a]:
                continue
            for b in range(len(latt)):
                bn = oracles.setwise_product(g, members[b], members[n])
                if members[a] <= bn:
                    assert members[a] == oracles.setwise_product(
                        g, members[a] & members[b], members[n]
                    )


def test_quotient_matches_interval():
    # Coset Cayley table (test-only constructor) vs the interval [N, G].
    latt = subgroup_lattice(build_group("cyclic:12"))
    n = latt.labels.index("C2")
    quot, cosets = oracles.quotient_group(latt, n)
    qlatt = subgroup_lattice(quot)
    interval = [i for i in range(len(latt)) if latt.leq[n, i]]
    # Map each interval subgroup H to the subgroup {cosets inside H} of G/N.
    image = []
    for i in interval:
        h = set(latt.subgroups[i].members)
        image.append(oracles.index_of(qlatt, {j for j, c in enumerate(cosets) if c <= h}))
    assert sorted(image) == list(range(len(qlatt)))
    for x, i in enumerate(interval):
        for y, j in enumerate(interval):
            assert latt.leq[i, j] == qlatt.leq[image[x], image[y]]


def test_cayley_file_round_trip(tmp_path):
    src = build_group("symmetric:3")
    lines = [str(src.order)]
    for row in src.mul:
        lines.append(" ".join(str(int(x)) for x in row))
    path = tmp_path / "s3.cayley"
    path.write_text("\n".join(lines) + "\n")
    g = build_group(f"cayley:{path}")
    assert np.array_equal(g.mul, src.mul)


def test_cayley_file_rejects_non_associative(tmp_path):
    path = tmp_path / "bad.cayley"
    path.write_text("3\n0 1 2\n1 2 0\n2 1 0\n")
    with pytest.raises(InputFileError, match="associative|inverse"):
        build_group(f"cayley:{path}")


def test_associativity_check_matches_the_full_scan():
    # single wrong entries in the S4 table, judged against every triple
    mul = np.array(build_group("symmetric:4").mul)
    n = len(mul)
    rng = np.random.default_rng(5)
    caught = 0
    for _ in range(300):
        bad = mul.copy()
        a, b = rng.integers(1, n, size=2)
        bad[a, b] = (bad[a, b] + rng.integers(1, n)) % n
        try:
            _validate_table(bad, "t")
        except InputFileError as exc:
            message = str(exc)
            with pytest.raises(InputFileError) as by_loop:
                oracles.validate_table_by_loop(bad, "t")
            assert str(by_loop.value) == message
            if "non-associative" not in message:
                continue  # an earlier check (identity, inverses) fired
            x, g, y = map(int, re.search(r"\((\d+),(\d+),(\d+)\)", message).groups())
            assert bad[bad[x, g], y] != bad[x, bad[g, y]]
            assert not oracles.associative_by_triples(bad)
            caught += 1
        else:
            assert oracles.associative_by_triples(bad)
    assert caught > 200


@pytest.mark.parametrize("desc", small_group_descriptors(24) + ["symmetric:5", "alternating:5"])
def test_generating_sets_match_the_loop_oracles(desc):
    # the action check's generator rows and every subgroup label's generators
    latt = subgroup_lattice(build_group(desc))
    group = latt.group
    action = site_from_lattice(latt).action
    assert _generators(action) == oracles.generators_by_loop(action)
    orders = group.cyclic.sum(axis=1)
    for sub in latt.subgroups:
        assert (_minimal_generators(latt.masks, orders, sub.members)
                == oracles.minimal_generators_by_loop(group, orders.tolist(), sub.members))


# D4 x C2 on six points: its lexicographic greedy generators are three.
D4XC2_PERMS = "(1 2 3 4)\n(1 3)\n(5 6)\n"


@pytest.mark.parametrize("desc, count", [
    ("symmetric:5", 4), ("alternating:5", 3), ("product:2x2x2x2x2", 5), ("cyclic:1", 0),
    ("perms", 3),
])
def test_composed_conjugation_matches_the_lookup(tmp_path, desc, count):
    # conj_action is composed from the generators' rows; the oracle looks
    # up every element's conjugates
    if desc == "perms":
        path = tmp_path / "d4xc2.perms"
        path.write_text(D4XC2_PERMS)
        desc = f"perms:{path}"
    group = build_group(desc)
    assert len(group.generators) == count
    assert list(group.generators) == _validate_table(np.array(group.mul), desc)
    assert oracles.closure(group, group.generators) == frozenset(range(group.order))
    latt = subgroup_lattice(group)
    conj, normal = oracles.conj_action_by_lookup(latt)
    assert latt.conj_action.dtype == conj.dtype
    assert np.array_equal(latt.conj_action, conj)
    assert np.array_equal(latt.normal, normal)


def test_associativity_check_accepts_groups():
    for desc in small_group_descriptors(24) + ["symmetric:5", "alternating:5", "product:2x2x2x2x2"]:
        _validate_table(np.array(build_group(desc).mul), desc)


def test_permutation_file_generates_s3(tmp_path):
    path = tmp_path / "gens.perms"
    path.write_text("(1 2)\n(1 2 3)\n")
    g = build_group(f"perms:{path}")
    assert g.order == 6
    assert len(subgroup_lattice(g)) == 6


@pytest.mark.parametrize("text, same", [
    ("(1 2) (3 4)", "(1 2)(3 4)"), (" (1 2 3)\t(4 5) ", "(1 2 3)(4 5)"), ("(12) (34)", "(12)(34)"),
])
def test_whitespace_between_cycles_is_skipped(text, same):
    assert _parse_cycles(text) == _parse_cycles(same)


def test_order_cap():
    with pytest.raises(CapExceededError):
        build_group("cyclic:2000")
    with pytest.raises(CapExceededError):
        build_group("symmetric:7")


def test_subgroup_cap():
    with pytest.raises(CapExceededError):
        subgroup_lattice(build_group("symmetric:4"), max_subgroups=10)


@pytest.mark.parametrize("desc, total", [("cyclic:12", 6), ("symmetric:4", 30)])
def test_subgroup_cap_counts_every_subgroup(desc, total):
    # The cyclic seeds count too: the cap is exact at the true total.
    group = build_group(desc)
    with pytest.raises(CapExceededError, match=f"^{desc}: more than {total - 1} subgroups$"):
        subgroup_lattice(group, max_subgroups=total - 1)
    assert len(subgroup_lattice(group, max_subgroups=total)) == total


# product:6x4 is C12xC2 again, listed by small_group_descriptors as product:12x2.
ORACLE_GROUPS = sorted(
    set(small_group_descriptors(24))
    | {"symmetric:4", "alternating:5", "product:2x2x2x2", "product:6x4"}
)


@pytest.mark.parametrize("desc", ORACLE_GROUPS)
def test_lattice_matches_join_closure_oracle(desc):
    group = build_group(desc)
    latt = subgroup_lattice(group)
    ref = oracles.subgroup_lattice_by_joins(group)
    assert latt.subgroups == ref.subgroups
    site = site_from_lattice(latt)
    tables = [(name, getattr(latt, name), getattr(ref, name))
              for name in ("masks", "leq", "conj_action", "normal")]
    tables.append(("meet", site.meet, oracles.meet_by_intersection(ref)))
    for name, got, want in tables:
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert np.array_equal(got, want), name
    assert not site.meet.flags.writeable
    assert not latt.masks.flags.writeable
    assert latt.labels == ref.labels
    assert latt.labels is latt.labels
    action = [tuple(p.tolist()) for p in site.action]
    assert action == sorted({tuple(row) for row in ref.conj_action.tolist()})
    for n in np.flatnonzero(ref.normal):
        kn = quotient_context(site, int(n)).kn
        assert kn.dtype == np.int32 and not kn.flags.writeable
        assert np.array_equal(kn, ref.join[:, n])


def test_s5_site_meets_are_intersections():
    # S5 is too large for the join-closure oracle, not for this one.  C2^5
    # has 374 nodes, many of them of each down-set size.
    for desc in ("symmetric:5", "product:2x2x2x2x2"):
        latt = subgroup_lattice(build_group(desc))
        assert np.array_equal(site_from_lattice(latt).meet, oracles.meet_by_intersection(latt))


def test_groups_lattices_and_contexts_compare_by_identity():
    # Their fields hold arrays, so a field-wise == would be ambiguous and
    # hash() would fail: each compares and hashes like a Site, by identity.
    group = build_group("cyclic:4")
    latt = subgroup_lattice(group)
    site = site_from_lattice(latt)
    pairs = [
        (group, build_group("cyclic:4")),
        (latt, subgroup_lattice(group)),
        (oracles.subgroup_lattice_by_joins(group), oracles.subgroup_lattice_by_joins(group)),
        (quotient_context(site, site.node("C2")), quotient_context(site, site.node("C2"))),
    ]
    for a, b in pairs:
        assert a == a and a != b
        assert len({a, b, a}) == 2


# Subgroup counts: OEIS A005432 (symmetric), A000638 (classes of S_n); for
# C2^n the sum of Gaussian binomials [n choose k]_2.  None = not pinned.
LITERATURE_COUNTS = [
    ("symmetric:4", 30, 11, 4),
    ("alternating:5", 59, 9, 2),
    ("symmetric:5", 156, 19, 3),
    ("dihedral:4", 10, 8, None),
    ("product:2x2x2x2", 67, None, None),
    ("product:2x2x2x2x2", 374, None, None),
]


@pytest.mark.parametrize("desc, subgroups, classes, normal", LITERATURE_COUNTS)
def test_subgroup_counts_from_literature(desc, subgroups, classes, normal):
    latt = subgroup_lattice(build_group(desc))
    assert len(latt) == subgroups
    orbits = {frozenset(latt.conj_action[:, i].tolist()) for i in range(len(latt))}
    if classes is not None:
        assert len(orbits) == classes
    if normal is not None:
        assert int(latt.normal.sum()) == normal


def test_bad_descriptors():
    for bad in ("nope:3", "cyclic:x", "product:axb", "cyclic:0",
                "symmetric:-1", "alternating:-3", "dihedral:0", "dicyclic:-1", "product:2x0"):
        with pytest.raises(DescriptorError):
            build_group(bad)
    # orders far past the cap are refused before they are computed: 2000! has
    # 5,736 digits, too many to print, and 10000000! would take hours
    huge = "product:" + "x".join(["1000"] * 2000)
    for bad in ("symmetric:2000", "symmetric:10000000", "alternating:10000000", huge):
        start = time.perf_counter()
        with pytest.raises(CapExceededError) as err:
            build_group(bad)
        assert str(err.value) == f"{bad}: order exceeds cap 1000"
        assert time.perf_counter() - start < 1.0


def test_q8_all_subgroups_normal():
    latt = subgroup_lattice(build_group("q8"))
    assert len(latt) == 6
    assert bool(np.all(latt.normal))


def test_builtin_scope_covers_order_15():
    descs = small_group_descriptors(15)
    orders = sorted(build_group(d).order for d in descs)
    assert orders[0] == 1 and orders[-1] <= 15
    # every isomorphism class of order <= 15 appears (28 classes in all);
    # count distinct (order, abelian, element-order multiset) fingerprints
    fingerprints = set()
    for d in descs:
        g = build_group(d)
        profile = tuple(sorted(oracles.element_orders(g)))
        fingerprints.add((g.order, g.is_abelian, profile))
    assert len(fingerprints) == 28


def test_labels_unique():
    for desc in CATALOG:
        latt = subgroup_lattice(build_group(desc))
        assert len(set(latt.labels)) == len(latt)
        assert latt.labels[0] == "1"


def test_abelian_labels():
    latt = subgroup_lattice(build_group("product:2x6"))
    assert "C2xC2" in latt.labels
    assert latt.labels.count("C6") + latt.labels.count("C6'") + latt.labels.count("C6''") == 3


def test_abelian_groups_are_listed_once():
    # Finite abelian groups are determined by their element orders.
    abelian = [d for d in small_group_descriptors(32) if d.startswith(("cyclic:", "product:"))]
    profiles = [tuple(sorted(oracles.element_orders(build_group(d)))) for d in abelian]
    assert len(set(profiles)) == len(profiles)


def _power(group, a, k):
    x = 0
    for _ in range(k):
        x = int(group.mul[x, a])
    return x


@pytest.mark.parametrize("n", [2, 3, 4, 5, 12])
def test_dihedral_presentation(n):
    # D_n = <r, s | r^n = s^2 = 1, srs = r^-1>, elements r^k s^e named r^k s^e
    g = build_group(f"dihedral:{n}")
    names = g.element_names
    r, s = names.index("r"), names.index("s")
    mul, orders = g.mul, oracles.element_orders(g)
    assert g.order == 2 * n and g.name == f"D{n}"
    assert orders[r] == n and orders[s] == 2
    assert mul[mul[s, r], s] == g.inv[r]
    for i, name in enumerate(names):
        k, e = i % n, i // n
        assert name == ((f"r{k}" if k > 1 else "r" * k) + "s" * e or "1")
        assert mul[_power(g, r, k), _power(g, s, e)] == i


@pytest.mark.parametrize("n", [3, 4, 5])
def test_dicyclic_presentation(n):
    # Dic_n = <a, b | a^2n = 1, b^2 = a^n, bab^-1 = a^-1>, elements a^k b^e named a^k b^e
    g = build_group(f"dicyclic:{n}")
    names = g.element_names
    a, b = names.index("a"), names.index("b")
    mul = g.mul
    assert g.order == 4 * n and g.name == f"Dic{n}"
    assert oracles.element_orders(g)[a] == 2 * n
    assert mul[b, b] == _power(g, a, n)
    assert mul[mul[b, a], g.inv[b]] == g.inv[a]
    for i, name in enumerate(names):
        k, e = i % (2 * n), i // (2 * n)
        assert name == ((f"a{k}" if k > 1 else "a" * k) + "b" * e or "1")
        assert mul[_power(g, a, k), _power(g, b, e)] == i


def test_q8_names_and_relations():
    g = build_group("q8")
    assert (g.descriptor, g.name) == ("q8", "Q8")
    assert g.element_names == ("1", "i", "-1", "-i", "j", "k", "-j", "-k")
    q = {name: i for i, name in enumerate(g.element_names)}
    mul = g.mul
    for x in "ijk":
        assert mul[q[x], q[x]] == q["-1"]
    assert mul[q["i"], q["j"]] == q["k"] and mul[q["j"], q["i"]] == q["-k"]
    assert mul[mul[q["i"], q["j"]], q["k"]] == q["-1"]
    same = build_group("dicyclic:2")
    assert np.array_equal(same.mul, g.mul) and same.element_names == g.element_names


@pytest.mark.parametrize("desc", ["symmetric:1", "symmetric:2", "symmetric:3", "symmetric:5",
                                  "alternating:1", "alternating:2", "alternating:4",
                                  "alternating:5"])
def test_symmetric_and_alternating_are_sorted_permutations(desc):
    fam, n = desc.split(":")[0], int(desc.split(":")[1])

    def even(p):
        return sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0

    perms = [p for p in permutations(range(n)) if fam == "symmetric" or even(p)]
    g = build_group(desc)
    assert g.order == len(perms)
    parsed = [() if nm == "e" else _parse_cycles(nm) for nm in g.element_names]
    assert [p + tuple(range(len(p), n)) for p in parsed] == perms
    index = {p: i for i, p in enumerate(perms)}
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            assert g.mul[i, j] == index[tuple(p[x] for x in q)]


# ---------------------------------------------------------------------------
# The array set-up path against the per-pair forms it replaced


def _coordinatewise(orders):
    elements = list(product(*[range(m) for m in orders]))
    return elements, lambda a, b: tuple((x + y) % m for x, y, m in zip(a, b, orders))


def _extension(m, shift):
    """C_m extended by x: (a^k x^e)(a^l x^f) = a^(k -+ l + shift*e*f) x^(e xor f)."""
    elements = [(k, e) for e in (0, 1) for k in range(m)]

    def op(x, y):
        (a, e), (b, f) = x, y
        return ((a + (-b if e else b) + shift * (e & f)) % m, e ^ f)

    return elements, op


def _sorted_permutations(cycles, degree):
    gens = [p + tuple(range(len(p), degree)) for p in map(_parse_cycles, cycles)]
    return _permutation_group(gens, degree, 1000, "t"), _compose


TABLE_SOURCES = {
    "product:2x2x2x2x2": _coordinatewise([2] * 5),
    "product:12x2": _coordinatewise([12, 2]),
    "product:3x3x3": _coordinatewise([3, 3, 3]),
    "dihedral:1": _extension(1, 0),
    "dihedral:6": _extension(6, 0),
    "dicyclic:3": _extension(6, 3),
    "q8": _extension(4, 2),
}


@pytest.mark.parametrize("desc", sorted(TABLE_SOURCES))
def test_group_tables_match_the_per_pair_loop(desc):
    elements, op = TABLE_SOURCES[desc]
    group = build_group(desc)
    assert group.mul.dtype == np.int32 and not group.mul.flags.writeable
    assert np.array_equal(group.mul, oracles.table_by_pairs(elements, op))
    if desc.startswith("product:"):
        assert group.element_names == tuple(
            "(" + ",".join(map(str, e)) + ")" for e in elements)


def test_permutation_file_table_matches_the_per_pair_loop(tmp_path):
    # degree 10 (spaced cycle names) and columns cut into several blocks
    lines = ["(1 10)(2 3)", "(4 5 6)", "(7 8 9)"]
    path = tmp_path / "gens.perms"
    path.write_text("\n".join(lines) + "\n")
    group = build_group(f"perms:{path}")
    elements, op = _sorted_permutations(lines, 10)
    assert group.order == 18
    assert np.array_equal(group.mul, oracles.table_by_pairs(elements, op))


# Every permutation group the package closes: the built-in S_n and A_n up to
# S6, and M4's and M6's auto: lines, which generate S4 and S6 on the atoms.
PERMUTATION_SOURCES = [f"{fam}:{n}" for fam in ("symmetric", "alternating")
                       for n in range(1, 7)] + ["M4", "M6"]


@pytest.mark.parametrize("source", PERMUTATION_SOURCES)
def test_permutation_group_matches_the_tuple_search(source, monkeypatch):
    calls = []
    real = groups_module._permutation_group

    def spy(gens, cap, what):
        calls.append((gens, real(gens, cap, what)))
        return calls[-1][1]

    monkeypatch.setattr(groups_module, "_permutation_group", spy)
    monkeypatch.setattr(sites_module, "_permutation_group", spy)
    if source.startswith("M"):
        parse_poset_text(m_poset_text(int(source[1:])))
    else:
        build_group(source)
    [(gens, got)] = calls
    want = _permutation_group([tuple(g) for g in gens.tolist()], gens.shape[1], 1000, "t")
    assert got.dtype == np.int32
    assert [tuple(p) for p in got.tolist()] == want


@pytest.mark.parametrize("block_entries", [None, 24])
def test_permutation_cap_matches_the_tuple_search(block_entries, monkeypatch):
    # S4 from (1 2) and (1 2 3 4), under every cap around its order.  With
    # 24 entries a block holds 3 frontier rows (6 candidates), so the caps
    # fall inside blocks and at their ends; by default a level is one block.
    if block_entries:
        monkeypatch.setattr(groups_module, "_BLOCK_ENTRIES", block_entries)
    gens = [(1, 0, 2, 3), (1, 2, 3, 0)]
    for cap in range(1, 27):
        try:
            want = _permutation_group(gens, 4, cap, "t")
        except CapExceededError as exc:
            assert cap < 24
            with pytest.raises(CapExceededError) as got:
                groups_module._permutation_group(np.array(gens, dtype=np.int32), cap, "t")
            assert str(got.value) == str(exc) == f"t: generated more than {cap} elements"
        else:
            assert cap >= 24
            got = groups_module._permutation_group(np.array(gens, dtype=np.int32), cap, "t")
            assert [tuple(p) for p in got.tolist()] == want


def test_product_table_marks_the_missing_products():
    # M3's {id, (a b c)}: every product is a row but the square of the 3-cycle
    identity, cycle = [0, 1, 2, 3, 4], [0, 2, 3, 1, 4]
    table = _product_table(np.array([identity, cycle], dtype=np.int32))
    assert table.tolist() == [[0, 1], [1, -1]]
    square = [cycle[i] for i in cycle]
    table = _product_table(np.array([identity, cycle, square], dtype=np.int32))
    assert table.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def test_a_group_site_parses_each_line_and_builds_the_cyclic_table_once(monkeypatch):
    calls = {"_cyclic_masks": 0, "_parse_cycles": 0}
    for name in calls:
        real = getattr(groups_module, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(groups_module, name, counted)
    site = site_from_descriptor("symmetric:5")
    assert site.size == 156
    # S5 comes from the two generator lines (1 2) and (1 2 3 4 5)
    assert calls == {"_cyclic_masks": 1, "_parse_cycles": 2}


def test_row_finder_finds_each_row_and_nothing_else():
    rng = np.random.default_rng(3)
    rows = np.unique(rng.integers(0, 4, size=(60, 5), dtype=np.int32), axis=0)
    rows = rows[rng.permutation(len(rows))]
    find = _row_finder(rows)
    assert np.array_equal(find(rows[::-1]), np.arange(len(rows))[::-1])
    known = {tuple(r) for r in rows.tolist()}
    absent = np.array([r for r in product(range(-1, 5), repeat=5) if r not in known][::97],
                      dtype=np.int32)  # below, between and above the keys
    assert len(absent) > 20 and (find(absent) == -1).all()


def test_lattice_stdout_is_pinned(capsys):
    # sha256 of `transys lattice --group D` stdout, taken before the lattice
    # and the tables moved to arrays
    pinned = {
        "symmetric:4": "8e2ae05b8782e030fed21a9dcba2f489fe83a4caf9b0b902906e5a365c8cb96c",
        "alternating:5": "13b4425b3db854eaab0921c469a343e460565f68eca412d678d70d9cbe077702",
        "symmetric:5": "e0f516d1724a7dea2f337f035467d5b6049929cbd55ff28b6de10f8d8c486696",
        "product:2x2x2x2x2": "88fcc3b4c18b71293d78b303036e0ef63702512ea7ab85773a4f517256524044",
    }
    for desc, digest in pinned.items():
        assert main(["lattice", "--group", desc]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, desc


def test_a_conjugate_missing_from_the_lookup_raises(monkeypatch):
    group = build_group("symmetric:4")
    real = groups_module._row_finder

    def corrupted(rows):
        rows = rows.copy()
        rows[-2] = ~rows[-2]  # an index-2 subgroup drops out of the lookup
        return real(rows)

    monkeypatch.setattr(groups_module, "_row_finder", corrupted)
    with pytest.raises(InternalCheckError, match="^symmetric:4: a conjugate of a subgroup"):
        subgroup_lattice(group)


def test_s5_conjugation_lookup_takes_one_element_at_a_time(monkeypatch):
    group = build_group("symmetric:5")
    subgroup_lattice(group)  # warm up
    real = groups_module._row_finder
    queries = []

    def counting(rows):
        find = real(rows)

        def counted(q):
            queries.append(q.shape)
            return find(q)

        return counted

    monkeypatch.setattr(groups_module, "_row_finder", counting)
    tracemalloc.start()
    try:
        latt = subgroup_lattice(group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of one element's conjugates, for each generator only
    assert queries == [(156, 120)] * len(group.generators)
    assert peak < 1 << 20
    assert len(latt) == 156
