import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GRID_TEXT, P5_TEXT, labeled, m_poset_text, system_from_labels
from oracles import (
    SUCCESS,
    compatible_by_scan,
    conjecture_formula_by_poset,
    disklike_by_worklist,
    max_compat_recursive_by_poset,
    nonreflexive_edges,
    orbit_by_loop,
    pairs,
    restriction_poset,
    restriction_poset_by_loop,
)
from test_restriction import ALG_EXAMPLE_BOLD, ALG_EXAMPLE_EDGES
from transfer_systems import systems
from transfer_systems.compat import (
    _cover_pass,
    conjecture_formula,
    is_compatible,
    max_compat_disklike,
    max_compat_oracle,
    max_compat_recursive,
)
from transfer_systems.enumeration import disklike_systems
from transfer_systems.errors import DisklikeRequiredError
from transfer_systems.sites import parse_poset_text, site_from_descriptor
from transfer_systems.systems import (
    _cover_counts,
    _edge_systems,
    close_res,
    BinaryRelation,
    complete_ts,
    complexity,
    count_cover_relations,
    generate_from_edges,
    hull,
    is_disklike,
    is_saturated,
    join_ts,
    trivial_ts,
    tulip_ts,
)


def test_complete_and_trivial_always_compatible(c6_catalog):
    site = c6_catalog.site
    complete, trivial = complete_ts(site), trivial_ts(site)
    for ts in c6_catalog.systems:
        assert is_compatible(complete, ts).compatible
        assert is_compatible(ts, trivial).compatible


def test_self_compatible_iff_saturated(c6_catalog):
    for ts in c6_catalog.systems:
        assert is_compatible(ts, ts).compatible == is_saturated(ts).saturated


def test_fig1_d_self_incompatibility_witness(fig1, c6_site):
    report = is_compatible(fig1["d"], fig1["d"])
    assert not report.compatible
    k, j, h = report.witness
    assert (c6_site.labels[k], c6_site.labels[j], c6_site.labels[h]) == ("1", "C2", "C6")


def test_compatibility_characterised_by_containment(c6_catalog):
    # all 100 pairs over Tr(C6): compatible iff O_m <= M(O_a)
    maximal = {ts.key: max_compat_oracle(ts) for ts in c6_catalog.systems}
    for o_a in c6_catalog.systems:
        for o_m in c6_catalog.systems:
            assert is_compatible(o_a, o_m).compatible == o_m.le(maximal[o_a.key])


def test_join_preservation(c6_catalog):
    for o_a in c6_catalog.systems:
        compatible = [x for x in c6_catalog.systems if is_compatible(o_a, x).compatible]
        for x in compatible:
            for y in compatible:
                assert is_compatible(o_a, join_ts(x, y)).compatible


def test_hull_preserves_compatibility(c6_catalog):
    for o_a in c6_catalog.systems:
        for o_m in c6_catalog.systems:
            if is_compatible(o_a, o_m).compatible:
                assert is_compatible(o_a, hull(o_m)).compatible


def test_fig1_maximal_pairing(fig1):
    expected = {"a": "a", "b": "g", "c": "g", "d": "g", "e": "e",
                "f": "f", "g": "g", "h": "h", "i": "i", "j": "j"}
    for name, target in expected.items():
        assert max_compat_oracle(fig1[name]) == fig1[target], name
        assert max_compat_recursive(fig1[name]) == fig1[target], name


def test_maximal_trivial_and_complete(c6_site, s3_site):
    for site in (c6_site, s3_site):
        assert max_compat_oracle(trivial_ts(site)) == trivial_ts(site)
        assert max_compat_oracle(complete_ts(site)) == complete_ts(site)


@pytest.mark.parametrize("catalog_name", ["c6_catalog", "c12_catalog", "q8_catalog"])
def test_maximal_is_saturated(catalog_name, request):
    catalog = request.getfixturevalue(catalog_name)
    for ts in catalog.systems:
        assert is_saturated(max_compat_recursive(ts)).saturated


@pytest.mark.parametrize("catalog_name", ["c6_catalog", "c12_catalog", "q8_catalog"])
def test_disklike_maximal_is_fixpoint(catalog_name, request):
    catalog = request.getfixturevalue(catalog_name)
    for ts in catalog.systems:
        m = max_compat_recursive(ts)
        if is_disklike(m):
            assert m == ts


@pytest.mark.parametrize("catalog_name", ["c6_catalog", "c12_catalog", "q8_catalog"])
def test_tulip_is_maximal_below_complete(catalog_name, request):
    catalog = request.getfixturevalue(catalog_name)
    site = catalog.site
    tu = tulip_ts(site)
    complete = complete_ts(site)
    for ts in catalog.systems:
        if tu.le(ts) and ts != complete:
            assert max_compat_recursive(ts) == tu


def test_recursive_agrees_with_oracle_on_c6(c6_catalog):
    for ts in c6_catalog.systems:
        assert max_compat_recursive(ts) == max_compat_oracle(ts)


# ---------------------------------------------------------------------------
# the two C12 systems where the one-shot formula or the hull behave subtly


@pytest.fixture(scope="module")
def non_disklike_example(c12_site):
    """The system whose top transfer is excluded from M without a direct failure."""
    return system_from_labels(
        c12_site, [("1", "C2"), ("1", "C3"), ("1", "C6"), ("C2", "C6"), ("C4", "C12")]
    )


def test_non_disklike_example_maximal(non_disklike_example, c12_site):
    assert not is_disklike(non_disklike_example)
    m = max_compat_recursive(non_disklike_example)
    assert labeled(m) == [("1", "C2"), ("1", "C3")]
    assert m == max_compat_oracle(non_disklike_example)


def test_non_disklike_example_defeats_conjecture_formula(non_disklike_example, c12_site):
    formula = conjecture_formula(non_disklike_example)
    truth = frozenset(max_compat_recursive(non_disklike_example).edges())
    extra = {(c12_site.labels[a], c12_site.labels[b]) for a, b in formula - truth}
    assert extra == {("C4", "C12")}
    assert truth <= formula
    # the kept top edge has no direct compatibility failure below it
    poset = restriction_poset(non_disklike_example)
    j = poset.nodes.index((c12_site.node("C4"), c12_site.node("C12")))
    below = poset.leq[:, j] & (np.arange(len(poset)) != j)
    assert below.any() and (poset.annotation[below, j] == SUCCESS).all()


@pytest.fixture(scope="module")
def hull_example(c12_site):
    o_a = system_from_labels(
        c12_site,
        [
            ("1", "C2"), ("1", "C3"), ("1", "C4"), ("1", "C6"), ("1", "C12"),
            ("C2", "C4"), ("C2", "C6"), ("C2", "C12"), ("C6", "C12"),
        ],
    )
    o_l = system_from_labels(c12_site, [("1", "C2"), ("1", "C3"), ("1", "C4")])
    o_m = system_from_labels(c12_site, [("1", "C2"), ("1", "C3"), ("1", "C4"), ("C2", "C4")])
    o_r = system_from_labels(
        c12_site, [("1", "C2"), ("1", "C3"), ("1", "C4"), ("C2", "C4"), ("C6", "C12")]
    )
    return o_a, o_l, o_m, o_r


def test_hull_example_compatibilities(hull_example):
    o_a, o_l, o_m, o_r = hull_example
    assert is_disklike(o_a)
    assert is_compatible(o_a, o_l).compatible
    assert hull(o_l) == o_m
    assert is_compatible(o_a, o_m).compatible
    # O_R is saturated and contained in O_a yet not compatible with it
    assert is_saturated(o_r).saturated and o_r.le(o_a)
    assert not is_compatible(o_a, o_r).compatible


def test_hull_example_maximal_is_o_m(hull_example):
    o_a, _, o_m, o_r = hull_example
    m = max_compat_recursive(o_a)
    assert m == o_m
    assert m == max_compat_oracle(o_a)
    assert m == max_compat_disklike(o_a).system
    assert not o_r.le(m)


# ---------------------------------------------------------------------------
# disklike algorithm


def test_algorithm_requires_disklike(non_disklike_example):
    with pytest.raises(DisklikeRequiredError):
        max_compat_disklike(non_disklike_example)


def test_algorithm_on_worked_c36_example(c36_site):
    o = system_from_labels(c36_site, ALG_EXAMPLE_EDGES)
    result = max_compat_disklike(o)
    assert labeled(result.system) == sorted(ALG_EXAMPLE_BOLD)
    assert result.system == max_compat_oracle(o)
    assert 0 < result.steps <= restriction_poset(o).cover_count


@pytest.mark.parametrize("catalog_name", ["c6_catalog", "c12_catalog"])
def test_algorithm_agrees_with_oracle(catalog_name, request):
    catalog = request.getfixturevalue(catalog_name)
    for ts in catalog.systems:
        if is_disklike(ts):
            result = max_compat_disklike(ts)
            assert result.system == max_compat_oracle(ts)
            c_o = restriction_poset(ts).cover_count
            assert result.steps <= max(c_o, 0)


def top_first(text):
    """The same poset file with the top listed first: the ``nodes:`` line and
    every ``auto:`` line reversed, so node order is no linear extension."""
    lines = []
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        if key in ("nodes", "auto"):
            line = f"{key}: {' '.join(reversed(rest.split()))}"
        lines.append(line)
    return "\n".join(lines) + "\n"


# Disklike systems of these sites: all of them, or those of complexity at
# most ``bound``, every ``stride``-th in catalog order.  The one-pass
# algorithm and the worklist agree on M(O) and on the step count, and C_O
# read off the site's covers equals the cover count of the loop-built
# poset.  On S5 at complexity <= 2 the two oracles take about 45 s for all
# 144 systems, so every 12th is checked.
WORKLIST_SCOPES = [
    ("cyclic:36", None, 1), ("dihedral:4", None, 1), ("symmetric:4", None, 1),
    ("dihedral:6", None, 1), ("product:6x2", None, 1), (P5_TEXT, None, 1), (GRID_TEXT, None, 1),
    (m_poset_text(5), None, 1), (top_first(P5_TEXT), None, 1), (top_first(GRID_TEXT), None, 1),
    ("symmetric:5", 1, 1), ("alternating:5", 2, 1), ("symmetric:5", 2, 12),
]


@pytest.mark.parametrize(
    "source, bound, stride",
    WORKLIST_SCOPES,
    ids=["C36", "D4", "S4", "D6", "C6xC2", "P5", "grid", "M5", "P5-top-first",
         "grid-top-first", "S5", "A5-2", "S5-2"],
)
def test_algorithm_matches_the_worklist(source, bound, stride):
    if "nodes:" in source:
        site = parse_poset_text(source)
    else:
        site = site_from_descriptor(source)
    systems = disklike_systems(site, max_generators=bound)[::stride]
    assert systems
    results = [max_compat_disklike(ts) for ts in systems]  # each a stack of one
    for ts, result in zip(systems, results):
        assert (result.system, result.steps) == disklike_by_worklist(ts)
        assert count_cover_relations(ts) == restriction_poset_by_loop(ts)[3].sum()
    # the scope as one stack: each row as in its stack of one
    maximal, steps = _cover_pass(site, np.stack([ts.rel for ts in systems]))
    assert [m.tobytes() for m in maximal] == [r.system.key for r in results]
    assert steps.tolist() == [r.steps for r in results]
    assert _cover_counts(site, np.stack([ts.rel for ts in systems])).tolist() == [
        count_cover_relations(ts) for ts in systems
    ]


@pytest.mark.parametrize("descriptor", ["cyclic:1", "cyclic:2"])
def test_a_class_with_no_cover_keeps_its_presence(descriptor):
    # on C1 no class exists; on C2 the one class, 1 -> C2, has no cover,
    # since the only node C2 covers is 1 <= 1
    site = site_from_descriptor(descriptor)
    stack = np.stack([ts.rel for ts in disklike_systems(site)])  # trivial first
    assert len(stack) == site.size
    maximal, steps = _cover_pass(site, stack)
    assert (maximal == stack).all()  # the trivial system keeps nothing it lacks
    assert steps.tolist() == [0] * len(stack)


# ---------------------------------------------------------------------------
# conjecture formula and the categorical counterexample


def test_conjecture_formula_matches_on_disklike_c6(c6_catalog):
    for ts in c6_catalog.systems:
        if is_disklike(ts):
            assert conjecture_formula(ts) == frozenset(max_compat_recursive(ts).edges())


def test_categorical_counterexample(p5_site):
    e = (p5_site.node("A"), p5_site.node("top"))
    o = generate_from_edges(p5_site, [e])
    assert labeled(o) == [("A", "top"), ("bot", "B"), ("bot", "C")]
    assert is_disklike(o)
    m = max_compat_recursive(o)
    assert labeled(m) == [("bot", "C")]  # r' is the only non-reflexive transfer
    assert m == max_compat_oracle(o)
    assert m == max_compat_disklike(o).system
    formula = conjecture_formula(o)
    assert e in formula  # no q < e is a direct failure, yet e is not in M
    assert formula - frozenset(m.edges()) == {e}


# ---------------------------------------------------------------------------
# single-edge compatibility lemmas


def _single_edge_compatible(o_a, edge):
    return is_compatible(o_a, generate_from_edges(o_a.site, [edge])).compatible


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_conjugates_of_compatible_edges_compatible(s3_catalog, q8_catalog, data):
    catalog = data.draw(st.sampled_from([s3_catalog, q8_catalog]))
    o_a = data.draw(st.sampled_from(catalog.systems))
    edges = o_a.edges()
    if not edges:
        return
    edge = data.draw(st.sampled_from(edges))
    if _single_edge_compatible(o_a, edge):
        for conj in orbit_by_loop(o_a.site, edge):
            assert _single_edge_compatible(o_a, conj)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_composites_of_compatible_edges_compatible(s3_catalog, q8_catalog, data):
    catalog = data.draw(st.sampled_from([s3_catalog, q8_catalog]))
    o_a = data.draw(st.sampled_from(catalog.systems))
    pairs = [
        ((i, k), (k, h))
        for i, k in o_a.edges()
        for k2, h in o_a.edges()
        if k2 == k and i != k and k != h
    ]
    if not pairs:
        return
    t, s = data.draw(st.sampled_from(pairs))
    if _single_edge_compatible(o_a, t) and _single_edge_compatible(o_a, s):
        assert _single_edge_compatible(o_a, (t[0], s[1]))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_generator_restriction_lemma(s3_catalog, d4_catalog, data):
    # (O_a, T(B)) compatible iff every edge of Res(B) is singly compatible
    catalog = data.draw(st.sampled_from([s3_catalog, d4_catalog]))
    site = catalog.site
    o_a = data.draw(st.sampled_from(catalog.systems))
    b_edges = data.draw(st.lists(st.sampled_from(pairs(site)), max_size=4))
    t_b = generate_from_edges(site, b_edges)
    res = close_res(BinaryRelation.from_edges(site, b_edges))
    via_res = all(_single_edge_compatible(o_a, e) for e in nonreflexive_edges(res.rel))
    assert is_compatible(o_a, t_b).compatible == via_res


# ---------------------------------------------------------------------------
# the whole-matrix check and the per-orbit T(e) cache against their loop forms

PINNED_CATALOGS = ["c12_catalog", "d4_catalog", "s3_catalog", "q8_catalog", "grid_catalog"]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_is_compatible_matches_the_scan(
    c12_catalog, d4_catalog, s3_catalog, q8_catalog, grid_catalog, data
):
    catalog = data.draw(
        st.sampled_from([c12_catalog, d4_catalog, s3_catalog, q8_catalog, grid_catalog])
    )
    o_a = data.draw(st.sampled_from(catalog.systems))
    if o_a.edges() and data.draw(st.booleans()):
        # single-edge systems T(e) with e in O_a: compatible about as often as not
        o_m = generate_from_edges(catalog.site, [data.draw(st.sampled_from(o_a.edges()))])
    else:
        o_m = data.draw(st.sampled_from(catalog.systems))
    assert is_compatible(o_a, o_m) == compatible_by_scan(o_a, o_m)  # witness included


@pytest.mark.parametrize("catalog_name", PINNED_CATALOGS)
def test_oracle_matches_the_definition(catalog_name, request):
    catalog = request.getfixturevalue(catalog_name)
    site = catalog.site
    for ts in catalog.systems:
        expected = [
            e for e in ts.edges()
            if compatible_by_scan(ts, generate_from_edges(site, [e])).compatible
        ]
        assert max_compat_oracle(ts).edges() == expected


def test_edge_systems_cache_is_scoped_to_one_site():
    a = site_from_descriptor("symmetric:4")
    b = site_from_descriptor("symmetric:4")
    assert a.key == b.key
    max_compat_oracle(complete_ts(a))
    cached = a._cache["edge_systems"]
    assert "edge_systems" not in b._cache
    # the complete system holds every edge: one cached T(e) per edge orbit
    assert len(cached) == len(a.orbit_representatives(pairs(a))) == 34
    max_compat_oracle(complete_ts(b))
    assert b._cache["edge_systems"].keys() == cached.keys()
    for rep, rel in cached.items():
        assert rep == a.edge_rep.ravel()[rep]
        assert not rel.flags.writeable
        with pytest.raises(ValueError):
            rel[0, 0] = False
        assert not np.shares_memory(rel, b._cache["edge_systems"][rep])
        assert np.array_equal(rel, generate_from_edges(a, [divmod(rep, a.size)]).rel)


def test_edge_systems_cache_is_shared_and_grows_with_the_orbits_seen():
    site = site_from_descriptor("symmetric:4")
    o = generate_from_edges(site, [(site.bottom, site.top)])
    max_compat_oracle(o)
    cached = site._cache["edge_systems"]
    assert cached.keys() == {int(site.edge_rep[e]) for e in o.edges()}
    complete = complete_ts(site)
    complexity(complete)
    assert len(cached) == 34
    entries = dict(cached)
    max_compat_oracle(complete)  # reads the entries complexity filled, adds none
    assert cached.keys() == entries.keys()
    assert all(cached[r] is entries[r] for r in entries)
    # every edge reads its orbit's T(e), as a copy the caller may write
    flat = [k * site.size + h for k, h in pairs(site)]
    stack = _edge_systems(site, flat)
    assert stack.shape == (len(flat), site.size, site.size) and stack.flags.writeable
    for e, t in zip(pairs(site), stack):
        assert np.array_equal(t, generate_from_edges(site, [e]).rel)
    assert len(cached) == 34


def test_edge_systems_fill_checks_in_blocks_without_the_constructor(monkeypatch):
    site = site_from_descriptor("symmetric:4")
    monkeypatch.setattr(systems, "_STACK_ENTRIES", 10 * site.size**2)  # 34 orbits: 10+10+10+4
    checked = []
    real = systems._check_stack

    def counting(site, rels):
        checked.append(len(rels))
        return real(site, rels)

    def constructor(*args):
        raise AssertionError("the T(e) fill built a system through the constructor")

    monkeypatch.setattr(systems, "_check_stack", counting)
    monkeypatch.setattr(systems.TransferSystem, "__init__", constructor)
    stack = _edge_systems(site, [k * site.size + h for k, h in pairs(site)])
    assert checked == [10, 10, 10, 4]
    cached = site._cache["edge_systems"]
    assert len(cached) == 34
    # every T(e) that passed the check is in the site's memo of checked relations
    assert {t.tobytes() for t in cached.values()} <= site._cache["checked"]
    monkeypatch.undo()
    for e, t in zip(pairs(site), stack):
        assert np.array_equal(t, generate_from_edges(site, [e]).rel)


# ---------------------------------------------------------------------------
# the n-by-n recursion and formula against their restriction-poset forms


def assert_matches_poset_forms(ts):
    assert max_compat_recursive(ts) == max_compat_recursive_by_poset(ts)
    assert conjecture_formula(ts) == conjecture_formula_by_poset(ts)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_matrix_forms_match_the_poset_on_s4(s4_catalog, data):
    ts = data.draw(st.sampled_from(s4_catalog.systems))
    assert_matches_poset_forms(ts)
    assert count_cover_relations(ts) == restriction_poset_by_loop(ts)[3].sum()


@pytest.mark.parametrize("descriptor", ["alternating:5", "symmetric:5"])
def test_matrix_forms_match_the_poset_on_large_scopes(descriptor):
    # the restriction posets here reach about 940 nodes on S5
    systems = disklike_systems(site_from_descriptor(descriptor), max_generators=2)
    assert systems
    for ts in systems:
        assert_matches_poset_forms(ts)
        assert max_compat_oracle(ts) == max_compat_recursive(ts)
