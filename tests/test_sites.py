import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import GRID_TEXT, P5_TEXT, m_poset_text
from transfer_systems.errors import (
    InputFileError,
    InternalCheckError,
    NotNormalError,
    TransferSystemsError,
)
from transfer_systems import groups as groups_module
from transfer_systems import sites as sites_module
from transfer_systems.functors import quotient_context
from transfer_systems.groups import _count, build_group, small_group_descriptors, subgroup_lattice
from transfer_systems.sites import (
    _BMM_BLAS_WORK,
    Site,
    _bmm,
    check_descriptor,
    interval_above,
    parse_poset_text,
    site_from_descriptor,
    site_from_lattice,
)


def test_round_trip_preserves_order(c6_site):
    latt = subgroup_lattice(build_group("cyclic:6"))
    site = site_from_lattice(latt)
    assert site.size == len(latt)
    assert np.array_equal(site.leq, latt.leq)
    assert site.lattice is latt


def test_abelian_site_has_trivial_action(c6_site):
    assert len(c6_site.action) == 1


def test_s3_action_orbits(s3_site):
    orbits = {tuple(sorted({int(p[i]) for p in s3_site.action})) for i in range(s3_site.size)}
    assert orbits == {(0,), (1, 2, 3), (4,), (5,)}


def test_q8_site_trivial_action(q8_site):
    assert q8_site.size == 6
    assert len(q8_site.action) == 1


def test_action_closed_under_composition(s3_site, d4_site):
    for site in (s3_site, d4_site):
        perms = {tuple(int(x) for x in p) for p in site.action}
        for p in site.action:
            for q in site.action:
                assert tuple(int(p[i]) for i in q) in perms


def _edge_rep_orbit(site, edge):
    """The pairs that share ``edge``'s entry of ``site.edge_rep``."""
    ks, hs = np.nonzero(site.edge_rep == site.edge_rep[edge])
    return set(zip(ks.tolist(), hs.tolist()))


def test_action_must_be_closed_under_composition():
    # M3: bot < a, b, c < top.  {id, (a b c)} preserves the order but
    # leaves out the square of the 3-cycle, so it is not a group.
    names = ("bot", "a", "b", "c", "top")
    leq = np.eye(5, dtype=bool)
    leq[0, :] = leq[:, 4] = True
    cycle = np.array([0, 2, 3, 1, 4], dtype=np.int32)
    identity = np.arange(5, dtype=np.int32)
    with pytest.raises(InternalCheckError, match="closed under composition"):
        Site(leq, (identity, cycle), names)
    site = Site(leq, (identity, cycle, cycle[cycle]), names)
    assert _edge_rep_orbit(site, (0, 1)) == oracles.orbit_by_loop(site, (0, 1)) == {
        (0, 1), (0, 2), (0, 3)}


def test_a_composition_missing_from_a_later_block_is_found():
    # S5's 120 conjugation rows on 156 subgroups are checked 3 at a time;
    # without the row of any one non-identity element they are no group.
    site = site_from_descriptor("symmetric:5")
    for drop in (1, 60, 119):
        rows = np.delete(site.action, drop, axis=0)
        with pytest.raises(InternalCheckError, match="closed under composition$"):
            Site(site.leq.copy(), rows, site.labels)


def test_a_composition_of_two_generators_missing_is_found():
    # M3 with the transpositions (a0 a1) and (a1 a2): each is its own
    # inverse, so only their products, the 3-cycles, are missing
    names = ("bot", "a0", "a1", "a2", "top")
    leq = np.eye(5, dtype=bool)
    leq[0, :] = leq[:, 4] = True
    rows = [np.array(p, dtype=np.int32) for p in ([0, 2, 1, 3, 4], [0, 1, 3, 2, 4])]
    assert len(oracles.close_permutations_by_pairs(rows, 5)) == 6
    with pytest.raises(InternalCheckError, match="closed under composition$"):
        Site(leq, [np.arange(5, dtype=np.int32)] + rows, names)
    # S4 on M4's atoms without (a0 a1)(a2 a3), the product of the two
    # transpositions (a0 a1) and (a2 a3), which stay
    m4 = parse_poset_text(m_poset_text(4))
    rows = {tuple(p) for p in m4.action.tolist()}
    drop, left, right = (0, 2, 1, 4, 3, 5), (0, 2, 1, 3, 4, 5), (0, 1, 2, 4, 3, 5)
    assert {drop, left, right} <= rows and tuple(left[i] for i in right) == drop
    kept = [np.array(p, dtype=np.int32) for p in sorted(rows - {drop})]
    with pytest.raises(InternalCheckError, match="closed under composition$"):
        Site(m4.leq.copy(), kept, m4.labels)


def test_action_checks_read_every_block(monkeypatch):
    # one row per block: a failure in the last block is still found
    monkeypatch.setattr(sites_module, "_BLOCK_ENTRIES", 1)
    monkeypatch.setattr(groups_module, "_BLOCK_ENTRIES", 1)
    with pytest.raises(InputFileError, match="does not preserve the order"):
        parse_poset_text(GRID_TEXT + "auto: 00 10 20 01 11 21 02 12 22\n"
                         "auto: 22 21 20 12 11 10 02 01 00\n")  # the reversal is no automorphism
    s4 = site_from_descriptor("symmetric:4")
    with pytest.raises(InternalCheckError, match="closed under composition"):
        Site(s4.leq.copy(), s4.action[:-1], s4.labels)
    assert Site(s4.leq.copy(), s4.action, s4.labels).key == s4.key


# Site.key of group sites, taken before the set-up path moved to arrays.
PINNED_SITE_KEYS = {
    "symmetric:5": "be92105611905eaa69a9ef7d08e2471b799060b345b4d4b8cf0810b26db3ea49",
    "alternating:5": "ea4198fd98145b1b3ed2fae16ad830ece1d24cf18ec7f9bb870bf844aa94f8a3",
    "product:2x2x2x2x2": "2139de05678e6b4830166e844ae9f64a391ed280254ac0ab4d204faa6ebe3123",
}


@pytest.mark.parametrize("desc", sorted(PINNED_SITE_KEYS))
def test_group_site_keys_are_pinned(desc):
    assert site_from_descriptor(desc).key.hex() == PINNED_SITE_KEYS[desc]


def test_action_must_consist_of_permutations():
    # On M3, f = (bot, a, a, a, top) sends every strict pair to a strict
    # pair and {id, f} is closed under composition, yet f is no bijection.
    names = ("bot", "a", "b", "c", "top")
    leq = np.eye(5, dtype=bool)
    leq[0, :] = leq[:, 4] = True
    identity = np.arange(5, dtype=np.int32)
    collapse = np.array([0, 1, 1, 1, 4], dtype=np.int32)
    with pytest.raises(InternalCheckError, match="permutations of the nodes"):
        Site(leq, (identity, collapse), names)
    with pytest.raises(InternalCheckError, match="permutations of the nodes"):
        Site(leq, (identity, np.array([0, 1, 2, 3, 5], dtype=np.int32)), names)


@pytest.mark.parametrize("source", ["symmetric:4", "dihedral:6", GRID_TEXT, m_poset_text(4)],
                         ids=["S4", "D6", "grid", "M4"])
def test_action_rows_are_canonical(source):
    site = parse_poset_text(source) if "nodes:" in source else site_from_descriptor(source)
    acts = site.action
    assert acts.dtype == np.int32 and not acts.flags.writeable
    assert np.array_equal(acts[0], np.arange(site.size))
    assert [tuple(p) for p in acts.tolist()] == sorted({tuple(p) for p in acts.tolist()})
    # shuffled rows with repeats, as an array or as a tuple of rows
    rng = np.random.default_rng(0)
    stack = np.concatenate([acts, acts[rng.integers(len(acts), size=len(acts))]])
    stack = stack[rng.permutation(len(stack))]
    for given_rows in (stack, tuple(stack)):
        rebuilt = Site(site.leq.copy(), given_rows, site.labels)
        assert np.array_equal(rebuilt.action, acts)
        assert rebuilt.key == site.key


def test_interval_action_matches_the_loop_form(s4_site):
    normal = [n for n in range(s4_site.size) if (s4_site.action[:, n] == n).all()]
    assert len(normal) == 4
    for n in normal:
        ctx = quotient_context(s4_site, n)
        nodes = [v for v in range(s4_site.size) if s4_site.leq[n, v]]
        assert ctx.to_parent.tolist() == nodes
        assert not ctx.to_parent.flags.writeable
        index = {v: i for i, v in enumerate(nodes)}
        want = sorted({tuple(index[int(p[v])] for v in nodes) for p in s4_site.action})
        assert [tuple(p) for p in ctx.interval_site.action.tolist()] == want
        assert ctx.interval_site.lattice is None


# every permutation of the nodes, added as an auto: line: (text, accepted).
# M4 is given without its auto: lines, so that each permutation generates
# a cyclic group: beside S4's lines, one that breaks the order makes
# groups._permutation_group close up to 720 elements, and the 720 parses
# take about 1.1 s instead of 0.2 s on a 2-vCPU VM.
AUTOMORPHISM_CASES = {
    "M3": (m_poset_text(3), 6),  # the permutations of the three atoms
    "P5": (P5_TEXT, 1),  # the pentagon has no automorphism but the identity
    "M4": (m_poset_text(4).split("auto:")[0], 24),
}


def test_declared_automorphism_must_preserve_the_order():
    # swapping A and C in P5 sends C < B to A, B, which are incomparable
    with pytest.raises(InputFileError, match="does not preserve the order"):
        parse_poset_text(P5_TEXT + "auto: bot C B A top\n")
    # accepted iff leq[p, p] == leq
    for text, want in AUTOMORPHISM_CASES.values():
        site = parse_poset_text(text)
        leq, names = site.leq, site.labels
        accepted = 0
        for p in itertools.permutations(range(site.size)):
            preserves = np.array_equal(leq[np.ix_(p, p)], leq)
            try:
                parse_poset_text(text + "auto: " + " ".join(names[i] for i in p) + "\n")
            except InputFileError as exc:
                assert "does not preserve the order" in str(exc) and not preserves
            else:
                assert preserves
                accepted += 1
        assert accepted == want


# Site's rules in the order _check tests them, each with an input that
# breaks it and no earlier rule: (rule, message, exception, input).  An
# input is given as keywords of _site_input; the default is M3,
# bot < a, b, c < top, with the identity action.
M3_NODES = "bot a b c top"
M3_PAIRS = "bot a, bot b, bot c, bot top, a top, b top, c top"
BOWTIE_NODES = "bot x y c d top"
BOWTIE_PAIRS = ("bot x, bot y, bot c, bot d, bot top, x c, x d, y c, y d, "
                "x top, y top, c top, d top")
SITE_RULES = [
    ("labels", "labels must be unique, one per node", InternalCheckError,
     dict(labels="bot a a c top")),
    ("reflexive", "order is not reflexive", InputFileError, dict(irreflexive="a")),
    ("antisymmetric", "cycle detected: order is not antisymmetric", InputFileError,
     dict(pairs=M3_PAIRS + ", a b, b a")),
    ("transitive", "order is not transitive", InputFileError,
     dict(pairs=M3_PAIRS + ", a b, b c")),
    ("bottom", "no unique bottom element", InputFileError,
     dict(nodes="x y top", pairs="x top, y top")),
    ("top", "no unique top element", InputFileError, dict(nodes="bot x y", pairs="bot x, bot y")),
    ("meet", "not a lattice: c and d have no meet", InputFileError,
     dict(nodes=BOWTIE_NODES, pairs=BOWTIE_PAIRS)),
    ("permutations", "action must consist of permutations of the nodes", InternalCheckError,
     dict(rows=[M3_NODES, "bot a a a top"])),
    ("identity", "action must contain the identity", InternalCheckError, dict(rows=[])),
    ("composition", "action must be closed under composition", InternalCheckError,
     dict(rows=[M3_NODES, "bot b c a top"])),
    ("preserves", "declared automorphism does not preserve the order", InputFileError,
     dict(rows=[M3_NODES, "top a b c bot"])),
]

# Inputs that break two adjacent rules, keyed by the first, which is the
# one raised.
SITE_RULE_PAIRS = {
    "labels": dict(labels="bot a a c top", irreflexive="a"),
    "reflexive": dict(irreflexive="a", pairs=M3_PAIRS + ", b c, c b"),
    "antisymmetric": dict(pairs=M3_PAIRS + ", a b, b a, b c"),
    "transitive": dict(nodes="x y z top", pairs="x y, y z, x top, y top, z top"),
    "bottom": dict(nodes="x y", pairs=""),
    "top": dict(nodes="bot x y c d", pairs="bot x, bot y, bot c, bot d, x c, x d, y c, y d"),
    "meet": dict(nodes=BOWTIE_NODES, pairs=BOWTIE_PAIRS, rows=[BOWTIE_NODES, "bot x x c d top"]),
    "permutations": dict(rows=["bot a a a top"]),
    "identity": dict(rows=["bot b a c top"]),  # no identity, and its square is missing
    "composition": dict(rows=[M3_NODES, "top b c a bot"]),  # order 6, and swaps bot and top
}


def _site_input(nodes=M3_NODES, pairs=M3_PAIRS, rows=None, labels=None, irreflexive=""):
    """(leq, action, labels) of the named nodes: leq holds exactly the
    given pairs, plus the diagonal but at the ``irreflexive`` nodes, and
    each action row lists the images of the nodes in order."""
    names = nodes.split()
    leq = np.eye(len(names), dtype=bool)
    for pair in filter(None, pairs.split(",")):
        a, b = pair.split()
        leq[names.index(a), names.index(b)] = True
    for name in irreflexive.split():
        leq[names.index(name), names.index(name)] = False
    rows = [nodes] if rows is None else rows
    action = np.array([[names.index(x) for x in row.split()] for row in rows],
                      dtype=np.int32).reshape(-1, len(names))
    return leq, action, tuple((labels or nodes).split())


def _broken_rules(leq, action, labels):
    """The indices into SITE_RULES of the rules an input breaks, read off
    the definitions with no use of Site."""
    n = len(leq)
    rows = {tuple(r) for r in action.tolist()}
    perms = all(sorted(r) == list(range(n)) for r in rows)
    lower = [leq[:, a] & leq[:, b] for a in range(n) for b in range(n)]
    broken = {
        "labels": len(labels) != n or len(set(labels)) != n,
        "reflexive": not leq.diagonal().all(),
        "antisymmetric": (leq & leq.T & ~np.eye(n, dtype=bool)).any(),
        "transitive": ((leq.astype(int) @ leq.astype(int) > 0) & ~leq).any(),
        "bottom": leq.all(axis=1).sum() != 1,
        "top": leq.all(axis=0).sum() != 1,
        "meet": not all(any((low <= leq[:, m]).all() for m in np.flatnonzero(low))
                        for low in lower),
        "permutations": not perms,
        "identity": tuple(range(n)) not in rows,
        "composition": any(tuple(p[i] for i in q) not in rows for p in rows for q in rows),
        "preserves": perms and any(not np.array_equal(leq[np.ix_(p, p)], leq) for p in rows),
    }
    return [i for i, rule in enumerate(SITE_RULES) if broken[rule[0]]]


@pytest.mark.parametrize("i", range(len(SITE_RULES)), ids=[rule[0] for rule in SITE_RULES])
def test_each_site_rule_has_its_message(i):
    rule, message, error, given_input = SITE_RULES[i]
    site_input = _site_input(**given_input)
    assert _broken_rules(*site_input)[0] == i  # no earlier rule is broken
    assert _raised(lambda: Site(*site_input)) == (error, message)


@pytest.mark.parametrize("first", list(SITE_RULE_PAIRS))
def test_the_earlier_of_two_site_rules_fires(first):
    i = [rule[0] for rule in SITE_RULES].index(first)
    site_input = _site_input(**SITE_RULE_PAIRS[first])
    assert _broken_rules(*site_input)[:2] == [i, i + 1]
    _, message, error, _ = SITE_RULES[i]
    assert _raised(lambda: Site(*site_input)) == (error, message)


def test_labels_are_checked_before_the_meet_names_a_pair():
    # a six-node order without a meet and one label: the meet error's
    # message would index past the labels
    leq, _, _ = _site_input(nodes=BOWTIE_NODES, pairs=BOWTIE_PAIRS)
    with pytest.raises(InternalCheckError, match="^labels must be unique, one per node$"):
        Site(leq, [list(range(6))], ("a",))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_orbit_table_matches_loop_oracles(
    c12_site, d4_site, s3_site, q8_site, s4_site, grid_site, data
):
    site = data.draw(st.sampled_from([c12_site, d4_site, s3_site, q8_site, s4_site, grid_site]))
    edges = data.draw(st.lists(st.sampled_from(oracles.pairs(site)), max_size=8))
    assert site.orbit_representatives(edges) == oracles.orbit_representatives_by_loop(site, edges)
    for e in edges[:2]:
        assert _edge_rep_orbit(site, e) == oracles.orbit_by_loop(site, e)
    top_edges = [(h, site.top) for h in range(site.size) if h != site.top]
    subset = data.draw(st.lists(st.sampled_from(top_edges), unique=True, max_size=4))
    assert site.subset_orbit_key(subset) == oracles.subset_orbit_key_by_loop(site, subset)


@pytest.mark.parametrize("name", ["grid", "symmetric:4", "symmetric:5"])
def test_orbit_reps_marks_the_least_edge_of_each_orbit(grid_site, s4_site, name):
    # the 3x3 grid with its swap, S4 and S5: every strict pair's orbit, by loop
    site = {"grid": grid_site, "symmetric:4": s4_site}.get(name) or site_from_descriptor(name)
    expected = np.zeros((site.size, site.size), dtype=bool)
    for k, h in oracles.orbit_representatives_by_loop(site, oracles.pairs(site)):
        expected[k, h] = True
    assert site.orbit_reps.dtype == bool
    assert np.array_equal(site.orbit_reps, expected)
    assert site.orbit_reps is site.orbit_reps  # built once
    with pytest.raises(ValueError):
        site.orbit_reps[tuple(np.argwhere(expected)[0])] = False


def _sites_with_intervals(site):
    """The site and its intervals above every node its action fixes."""
    fixed = np.flatnonzero((site.action == np.arange(site.size)).all(axis=0))
    return [site] + [interval_above(site, int(v)) for v in fixed if v != site.bottom]


@pytest.mark.parametrize("source", small_group_descriptors(24) + ["grid", "M4", "pentagon"])
def test_site_tables_match_the_loop_oracles(source):
    # every group of order <= 24 with its intervals above normal subgroups,
    # and three posets: the key, the meet, the covers and edge_rep
    texts = {"grid": GRID_TEXT, "M4": m_poset_text(4), "pentagon": P5_TEXT}
    if source in texts:
        site = parse_poset_text(texts[source])
    else:
        site = site_from_descriptor(source)
    for s in _sites_with_intervals(site):
        n = s.size
        assert s.key == oracles.site_key_by_join(s.leq, s.action)
        assert s.meet.dtype == np.int32
        assert np.array_equal(s.meet, oracles.meet_by_rows(s.leq, s.labels))
        assert np.array_equal(s.meet_flat, s.meet.astype(np.intp) * n + np.arange(n))
        assert np.array_equal(s.covers, oracles.covers_by_product(s.leq))
        assert not s.covers.flags.writeable
        assert s.edge_rep.dtype == np.intp
        assert np.array_equal(s.edge_rep, oracles.edge_rep_by_loop(s))


# Orders without meets: (names, covers, the pair named).  Each names the
# first pair a <= b by index with no meet, whatever pair has the smaller
# down-sets.
NON_LATTICES = {
    "bowtie": ("bot x y c d top", "bot x, bot y, x c, x d, y c, y d, c top, d top", "c d"),
    "bowtie-reversed": ("top d c y x bot", "bot x, bot y, x c, x d, y c, y d, c top, d top",
                        "d c"),
    # c, d have no meet, and so have e, f above them; e and f come first
    "stacked": ("bot e f x y c d top",
                "bot x, bot y, x c, x d, y c, y d, c e, c f, d e, d f, e top, f top", "e f"),
    # two bowties side by side; the listing puts the second one's pair first
    "two-bowties": ("bot r s p q x y c d top",
                    "bot x, bot y, x c, x d, y c, y d, c top, d top, "
                    "bot p, bot q, p r, p s, q r, q s, r top, s top", "r s"),
}


@pytest.mark.parametrize("name", sorted(NON_LATTICES))
def test_non_lattice_names_the_oracles_pair(name):
    nodes, covers, pair = NON_LATTICES[name]
    text = f"nodes: {nodes}\n" + "".join(f"cover: {c.strip()}\n" for c in covers.split(","))
    labels = tuple(nodes.split())
    leq = np.eye(len(labels), dtype=bool)
    for c in covers.split(","):
        a, b = c.split()
        leq[labels.index(a), labels.index(b)] = True
    for k in range(len(labels)):
        leq |= np.outer(leq[:, k], leq[k, :])
    a, b = pair.split()
    want = (InputFileError, f"not a lattice: {a} and {b} have no meet")
    assert _raised(lambda: oracles.meet_table_by_pairs(leq, labels)) == want
    assert _raised(lambda: oracles.meet_by_rows(leq, labels)) == want
    assert _raised(lambda: parse_poset_text(text)) == want


@st.composite
def bool_operands(draw):
    """A pair of random bool operands of one of eight shapes, sized on both
    sides of the BLAS switch: square, non-square, vector-matrix,
    matrix-vector, a matrix times a transposed view, a (B, m, k) stack
    times a (B, k, n) stack, a stack times one shared matrix, and one
    square stack above the switch passed as both operands."""
    side = round(_BMM_BLAS_WORK ** (1 / 3))  # the square that switches
    m, k, n = (draw(st.integers(1, 2 * side)) for _ in range(3))
    kind = draw(st.sampled_from(
        ["square", "rect", "vector", "matvec", "transposed", "stack", "shared", "same"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.3, 0.9]))

    def bits(*shape):
        return rng.random(shape) < density

    if kind == "square":
        return bits(k, k), bits(k, k)
    if kind == "rect":
        return bits(m, k), bits(k, n)
    if kind == "vector":
        return bits(k), bits(k, n)
    if kind == "matvec":
        return bits(m, k), bits(k)
    if kind == "transposed":
        return bits(m, k), bits(n, k).T
    b = draw(st.integers(1, 16))
    if kind == "stack":
        return bits(b, m, k), bits(b, k, n)
    if kind == "same":  # one stack twice, as _comp squares it, above the switch
        same = bits(b, side + k, side + k)
        return same, same
    return bits(b, m, k), bits(k, n)


@settings(max_examples=400, deadline=None)
@given(bool_operands())
def test_bmm_matches_bool_matmul(operands):
    a, b = operands
    got = _bmm(a, b)
    assert got.dtype == bool
    assert np.array_equal(got, a @ b)
    assert np.array_equal(_count(a, b), a.astype(int) @ b.astype(int))


@pytest.mark.parametrize("ones", [256, 300])
def test_bmm_exact_at_large_counts(ones):
    # every entry sums `ones` terms; 300 is the all-True pair, 256 wraps to 0 in 8 bits
    a = np.ones((300, 300), dtype=bool)
    b = np.zeros((300, 300), dtype=bool)
    b[:ones] = True
    assert np.array_equal(_bmm(a, b), a @ b)
    assert np.array_equal(_count(a, b), a.astype(int) @ b.astype(int))


def _raised(check):
    """(type, message) of the exception check() raises, or None."""
    try:
        check()
    except Exception as exc:  # compared whole, whatever its type
        return type(exc), str(exc)
    return None


@st.composite
def bounded_orders(draw):
    """leq of a random strict order on at most 6 inner nodes plus a bottom and a top.

    Node indices are shuffled, so neither the bottom nor the top need be
    node 0 or the last node, and index order need not extend the order.
    """
    inner = draw(st.integers(0, 6))
    n = inner + 2
    # Before shuffling, index order is a linear extension: 0 is the bottom
    # and n - 1 the top, and each inner pair i < j is drawn as related or not.
    below = np.eye(n, dtype=bool)
    below[0, :] = below[:, n - 1] = True
    for i in range(1, n - 1):
        for j in range(i + 1, n - 1):
            below[i, j] = draw(st.booleans())
    for k in range(n):
        below |= np.outer(below[:, k], below[k, :])
    perm = np.array(draw(st.permutations(range(n))))
    leq = np.empty_like(below)
    leq[np.ix_(perm, perm)] = below
    return leq


@settings(max_examples=300, deadline=None)
@given(bounded_orders())
def test_derived_meet_matches_pairwise_oracle(leq):
    n = leq.shape[0]
    labels = tuple(f"v{i}" for i in range(n))
    identity = (np.arange(n, dtype=np.int32),)
    want = _raised(lambda: oracles.meet_table_by_pairs(leq, labels))
    got = _raised(lambda: Site(leq.copy(), identity, labels))
    assert got == want
    if want is None:
        site = Site(leq.copy(), identity, labels)
        meet = site.meet
        assert meet.dtype == np.int32 and not meet.flags.writeable
        assert np.array_equal(meet, oracles.meet_table_by_pairs(leq, labels))


def test_poset_fixture_meets_match_pairwise_oracle(p5_site, grid_site):
    for site in (p5_site, grid_site):
        assert np.array_equal(site.meet, oracles.meet_table_by_pairs(site.leq, site.labels))


def test_long_chain_poset_builds_quickly():
    # The old per-pair meet loop took ~20 s on this chain.
    n = 259
    text = f"nodes: {' '.join(f'c{i}' for i in range(n))}\n"
    text += "".join(f"cover: c{i} c{i + 1}\n" for i in range(n - 1))
    start = time.perf_counter()
    site = parse_poset_text(text)
    assert time.perf_counter() - start < 2.0
    idx = np.arange(n)
    assert np.array_equal(site.meet, np.minimum.outer(idx, idx))


@pytest.mark.parametrize("text, order", [(GRID_TEXT, 2), (m_poset_text(5), 120)])
def test_poset_action_matches_pairwise_closure(text, order):
    site = parse_poset_text(text)
    autos = [line.split()[1:] for line in text.splitlines() if line.startswith("auto:")]
    perms = [[site.node(x) for x in parts] for parts in autos]
    want = oracles.close_permutations_by_pairs(perms, site.size)
    assert len(site.action) == order
    assert [p.tolist() for p in site.action] == [p.tolist() for p in want]


def test_two_node_chain():
    site = parse_poset_text("nodes: a b\ncover: a b\n")
    assert site.size == 2
    assert site.bottom == 0 and site.top == 1


def test_p5_lattice(p5_site):
    assert p5_site.size == 5
    assert p5_site.labels == ("bot", "A", "B", "C", "top")
    a, b, c = p5_site.node("A"), p5_site.node("B"), p5_site.node("C")
    assert p5_site.leq[c, b] and not p5_site.leq[a, b]
    assert p5_site.meet[a, b] == p5_site.bottom
    assert p5_site.meet[c, b] == c


def test_m_shaped_poset_is_not_a_lattice():
    text = "nodes: a b x y\ncover: a x\ncover: a y\ncover: b x\ncover: b y\n"
    with pytest.raises(InputFileError, match="bottom|top|lattice|lower bound"):
        parse_poset_text(text)


def test_two_maximal_lower_bounds_rejected():
    # x and y are both maximal lower bounds of {c, d}
    text = (
        "nodes: bot x y c d top\n"
        "cover: bot x\ncover: bot y\n"
        "cover: x c\ncover: x d\ncover: y c\ncover: y d\n"
        "cover: c top\ncover: d top\n"
    )
    with pytest.raises(InputFileError, match="^not a lattice: c and d have no meet$"):
        parse_poset_text(text)


def test_cycle_detected():
    with pytest.raises(InputFileError, match="cycle"):
        parse_poset_text("nodes: a b\ncover: a b\ncover: b a\n")


def test_automorphism_block():
    text = "nodes: bot l r top\ncover: bot l\ncover: bot r\ncover: l top\ncover: r top\nauto: bot r l top\n"
    site = parse_poset_text(text)
    assert len(site.action) == 2  # identity plus the swap


def test_bad_automorphism_rejected():
    text = "nodes: a b c\ncover: a b\ncover: b c\nauto: c b a\n"
    with pytest.raises(InputFileError, match="automorphism"):
        parse_poset_text(text)


def test_site_from_poset_file(tmp_path, p5_site):
    path = tmp_path / "p5.poset"
    path.write_text(P5_TEXT)
    site = site_from_descriptor(f"poset:{path}")
    assert site.key == p5_site.key


def test_interval_above_trivial_and_top(c12_site):
    full = interval_above(c12_site, c12_site.bottom)
    assert full.size == c12_site.size
    assert np.array_equal(full.leq, c12_site.leq)
    point = interval_above(c12_site, c12_site.top)
    assert point.size == 1


def test_interval_above_c6_in_c36(c36_site):
    iv = interval_above(c36_site, c36_site.node("C6"))
    assert iv.size == 4
    assert iv.labels == ("C6", "C12", "C18", "C36")
    # isomorphic to the divisor lattice of 6: diamond
    c6 = site_from_descriptor("cyclic:6")
    assert np.array_equal(iv.leq, c6.leq)


def test_interval_requires_normal(s3_site):
    non_normal = s3_site.node("<(12)>")
    with pytest.raises(NotNormalError):
        interval_above(s3_site, non_normal)


def test_interval_descriptor_round_trip(c12_site):
    iv = interval_above(c12_site, c12_site.node("C2"))
    rebuilt = site_from_descriptor(iv.descriptor)
    assert rebuilt.key == iv.key


def test_a_nested_interval_descriptor_builds_each_interval_in_turn():
    parent = site_from_descriptor("cyclic:36")
    step = interval_above(parent, parent.node("C2"))
    step = interval_above(step, step.node("C6"))
    site = site_from_descriptor(" cyclic:36|above:C2|above:C6 ")
    assert (site.key, site.descriptor, site.labels) == (step.key, step.descriptor, step.labels)


def test_check_descriptor_refuses_each_base_as_the_build_does(tmp_path):
    for bad in ("bogus", " bogus|above:C2", "cyclic:0", "cyclic:5000|above:C2|above:C4",
                f"poset:{tmp_path / 'missing'}", f"poset:{tmp_path}|above:a"):
        with pytest.raises(TransferSystemsError) as early:
            check_descriptor(bad)
        with pytest.raises(TransferSystemsError) as late:
            site_from_descriptor(bad)
        assert (type(early.value), str(early.value)) == (type(late.value), str(late.value))
    # a good base passes, whatever its labels: they are checked when the site is built
    poset = tmp_path / "p.poset"
    poset.write_text(P5_TEXT)
    for good in ("symmetric:4", "cyclic:36|above:C2|above:nowhere", f"poset:{poset}|above:x"):
        check_descriptor(good)
