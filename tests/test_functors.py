import gc
import weakref

import numpy as np
import pytest

import oracles
from conftest import system_from_labels
from transfer_systems.compat import max_compat_recursive
from transfer_systems.enumeration import enumerate_all
from transfer_systems.errors import (
    DisklikeRequiredError,
    GroupSiteRequiredError,
    InternalCheckError,
    MismatchedSitesError,
    NotNormalError,
)
from transfer_systems import functors
from transfer_systems import systems as systems_module
from transfer_systems.functors import (
    check_preservation,
    fixed_points,
    inflate,
    minimal_transferring_subgroup,
    quotient_context,
    universal_reduction,
)
from transfer_systems.sites import site_from_descriptor
from transfer_systems.systems import (
    complete_ts,
    generate_from_edges,
    is_disklike,
    trivial_ts,
)


@pytest.fixture(scope="module")
def ctx_c12(c12_site):
    return quotient_context(c12_site, c12_site.node("C2"))


@pytest.fixture(scope="module")
def ctx_c36(c36_site):
    return quotient_context(c36_site, c36_site.node("C6"))


@pytest.fixture(scope="module")
def interval_catalog_c12(ctx_c12):
    return enumerate_all(ctx_c12.interval_site)


@pytest.fixture(scope="module")
def interval_catalog_c36(ctx_c36):
    return enumerate_all(ctx_c36.interval_site)


def test_inflate_trivial_and_point(ctx_c12, c12_site):
    assert inflate(ctx_c12, trivial_ts(ctx_c12.interval_site)) == trivial_ts(c12_site)
    point = quotient_context(c12_site, c12_site.top)
    assert inflate(point, trivial_ts(point.interval_site)) == trivial_ts(c12_site)


def test_inflate_complete_contains_interval_and_restrictions(ctx_c12, c12_site):
    ts = inflate(ctx_c12, complete_ts(ctx_c12.interval_site))
    for x, i in enumerate(ctx_c12.to_parent):
        for y, j in enumerate(ctx_c12.to_parent):
            if c12_site.leq[i, j]:
                assert ts.rel[i, j]
    # restrictions of interval edges leave the interval (C2 -> C6 along C3)...
    assert oracles.has_edge(ts, c12_site.node("1"), c12_site.node("C3"))
    # ...but 1 -> C2 is no restriction of an interval edge: KN /\ C2 = C2 always
    assert not oracles.has_edge(ts, c12_site.node("1"), c12_site.node("C2"))


def test_inflate_matches_generated_preimage(ctx_c12, interval_catalog_c12, c12_site):
    # the membership formula equals the closure of the preimage, edge for edge
    idx = ctx_c12.to_parent
    for x in interval_catalog_c12.systems:
        preimage = [(idx[a], idx[b]) for a, b in x.edges()]
        assert inflate(ctx_c12, x) == generate_from_edges(c12_site, preimage)


def test_interval_transparency(ctx_c12, interval_catalog_c12):
    # edges of the inflation inside [N, G] match the input exactly
    idx = ctx_c12.to_parent
    for x in interval_catalog_c12.systems:
        ts = inflate(ctx_c12, x)
        assert np.array_equal(ts.rel[np.ix_(idx, idx)], x.rel)


def test_fixed_points_inflate_is_identity(ctx_c12, interval_catalog_c12):
    for x in interval_catalog_c12.systems:
        assert fixed_points(ctx_c12, inflate(ctx_c12, x)) == x


def test_fixed_points_checks_each_interval_relation_once(c36_catalog, monkeypatch):
    # a fresh interval site, so that no other test has checked its relations
    # yet; fixed_points compares site keys, so the catalog's systems still fit
    parent = site_from_descriptor("cyclic:36")
    ctx = quotient_context(parent, parent.node("C6"))
    checked = []
    real = systems_module._check_stack

    def counting(site, rels):
        if site is ctx.interval_site:
            checked.append(len(rels))
        real(site, rels)

    monkeypatch.setattr(systems_module, "_check_stack", counting)
    results = [fixed_points(ctx, o) for o in c36_catalog.systems]
    assert len(results) == 1396 and len({r.key for r in results}) == 10
    assert checked == [1] * 10
    idx = ctx.to_parent
    for o, r in zip(c36_catalog.systems, results):
        assert np.array_equal(r.rel, o.rel[np.ix_(idx, idx)])


def test_fixed_points_of_named_systems(ctx_c12, c12_site):
    assert fixed_points(ctx_c12, complete_ts(c12_site)) == complete_ts(ctx_c12.interval_site)
    assert fixed_points(ctx_c12, trivial_ts(c12_site)) == trivial_ts(ctx_c12.interval_site)


def test_inflation_monotone(ctx_c12, interval_catalog_c12):
    systems = interval_catalog_c12.systems
    for x in systems:
        for y in systems:
            if x.le(y):
                assert inflate(ctx_c12, x).le(inflate(ctx_c12, y))


def test_adjunction(ctx_c12, interval_catalog_c12, c12_catalog):
    # inflate(X) <= O iff X <= fixed_points(O), exhaustively
    for x in interval_catalog_c12.systems:
        p_x = inflate(ctx_c12, x)
        for o in c12_catalog.systems:
            assert p_x.le(o) == x.le(fixed_points(ctx_c12, o))


@pytest.mark.parametrize("catalog_name", ["c12_catalog", "c36_catalog", "d4_catalog", "s4_catalog"])
def test_tables_match_the_fancy_index_oracles(catalog_name, request):
    # every normal N: the per-N tables against indexing the context's arrays
    catalog = request.getfixturevalue(catalog_name)
    site = catalog.site
    normals = [n for n in range(site.size) if (site.action[:, n] == n).all()]
    assert len(normals) >= 4
    for n in normals:
        ctx = quotient_context(site, n)
        for o in catalog.systems:
            assert np.array_equal(fixed_points(ctx, o).rel, oracles.fixed_points_by_fancy_index(ctx, o))
        for x in enumerate_all(ctx.interval_site).systems:
            assert np.array_equal(inflate(ctx, x).rel, oracles.inflate_by_fancy_index(ctx, x))


def test_minimal_transferring_subgroup_checks_every_system(s4_catalog, monkeypatch):
    # both self-checks hold for every transfer system, so no disklike test decides them
    def refuse(ts):
        raise AssertionError("minimal_transferring_subgroup asked whether a system is disklike")

    monkeypatch.setattr(functors, "is_disklike", refuse)
    site = s4_catalog.site
    for o in s4_catalog.systems:
        n = minimal_transferring_subgroup(o)
        assert o.rel[n, site.top] and (site.action[:, n] == n).all()


def test_minimal_transferring_subgroup_checks_its_top_transfer(monkeypatch):
    site = site_from_descriptor("cyclic:12")  # fresh: the patch reaches no shared site
    o = generate_from_edges(site, [(site.node("C2"), site.top)])
    assert not o.rel[site.bottom, site.top]
    monkeypatch.setattr(site, "meet", np.full_like(site.meet, site.bottom))  # every meet is 1
    with pytest.raises(InternalCheckError,
                       match="^minimal transferring subgroup lost its top transfer$"):
        minimal_transferring_subgroup(o)


def test_minimal_transferring_subgroup_checks_it_is_action_fixed(monkeypatch):
    site = site_from_descriptor("cyclic:12")  # fresh: the patch reaches no shared site
    n = site.node("C2")
    o = generate_from_edges(site, [(n, site.top)])
    assert minimal_transferring_subgroup(o) == n
    action = site.action.copy()
    action[0, n] = site.node("C3")  # C2 is no longer fixed
    monkeypatch.setattr(site, "action", action)
    with pytest.raises(InternalCheckError,
                       match="^minimal transferring subgroup is not action-fixed$"):
        minimal_transferring_subgroup(o)


def test_minimal_transferring_subgroup_examples(fig1, c6_site, c12_site):
    assert minimal_transferring_subgroup(trivial_ts(c12_site)) == c12_site.top
    assert c6_site.labels[minimal_transferring_subgroup(fig1["d"])] == "1"
    assert c6_site.labels[minimal_transferring_subgroup(fig1["e"])] == "C3"


def test_disklike_recovery(c12_catalog, c12_site):
    # inflate(ctx over N_O, fixed_points(O)) == O for disklike O
    for o in c12_catalog.systems:
        if not is_disklike(o):
            continue
        n = minimal_transferring_subgroup(o)
        ctx = quotient_context(c12_site, n)
        assert inflate(ctx, fixed_points(ctx, o)) == o


def test_universal_reduction_degenerate_cases(c12_site):
    assert universal_reduction(trivial_ts(c12_site)) == trivial_ts(c12_site)
    assert universal_reduction(complete_ts(c12_site)) == complete_ts(c12_site)


@pytest.mark.parametrize("catalog_name", ["c12_catalog", "c36_catalog", "d4_catalog", "s4_catalog"])
def test_universal_reduction_equals_direct(catalog_name, request):
    catalog = request.getfixturevalue(catalog_name)
    for o in catalog.systems:
        if is_disklike(o):
            assert universal_reduction(o) == max_compat_recursive(o)


def test_reductions_with_one_normal_subgroup_share_a_context(c36_catalog):
    site = c36_catalog.site
    by_normal = {}
    for o in c36_catalog.systems:
        if is_disklike(o):
            by_normal.setdefault(minimal_transferring_subgroup(o), []).append(o)
    n, systems = next((n, s) for n, s in by_normal.items() if len(s) >= 2)
    site._cache.pop("quotient_context", None)  # whatever earlier tests cached
    universal_reduction(systems[0])
    parts = site._cache["quotient_context"][n]  # filled by the reduction
    universal_reduction(systems[1])
    assert site._cache["quotient_context"][n] is parts  # no new interval site
    ctx = quotient_context(site, n)
    assert ctx.parent is site
    assert ctx.interval_site is parts[0] and ctx.to_parent is parts[1] and ctx.kn is parts[2]


def test_a_parent_site_is_freed_by_reference_counting():
    # the context cache must not refer back to its parent: a cycle would keep
    # the site, its caches and its interval sites alive until a full collection
    gc.collect()
    gc.disable()
    try:
        site = site_from_descriptor("cyclic:36")
        ctx = quotient_context(site, site.node("C6"))
        o = inflate(ctx, complete_ts(ctx.interval_site))
        assert minimal_transferring_subgroup(o) == site.node("C6")
        assert fixed_points(ctx, universal_reduction(o)) == complete_ts(ctx.interval_site)
        parent = weakref.ref(site)
        del site, ctx, o
        assert parent() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_universal_reduction_checks_itself_against_the_direct_computation(c12_site, monkeypatch):
    o = generate_from_edges(c12_site, [(c12_site.node("1"), c12_site.node("C12"))])
    assert is_disklike(o) and max_compat_recursive(o) != complete_ts(c12_site)
    monkeypatch.setattr(functors, "inflate", lambda ctx, o_bar: complete_ts(ctx.parent))
    with pytest.raises(InternalCheckError,
                       match="^universal reduction disagrees with the direct computation$"):
        universal_reduction(o)


def test_universal_reduction_checks_its_fixed_points_against_the_direct_computation(
    c12_site, monkeypatch
):
    o = generate_from_edges(c12_site, [(c12_site.node("1"), c12_site.node("C12"))])
    assert is_disklike(o) and max_compat_recursive(o) != trivial_ts(c12_site)
    monkeypatch.setattr(functors, "fixed_points", lambda ctx, o: trivial_ts(ctx.interval_site))
    with pytest.raises(InternalCheckError,
                       match="^universal reduction disagrees with the direct computation$"):
        universal_reduction(o)


def test_universal_reduction_rejects_non_disklike(fig1):
    with pytest.raises(DisklikeRequiredError):
        universal_reduction(fig1["g"])


def test_universal_reduction_refused_on_abstract_site(p5_site):
    o = generate_from_edges(p5_site, [(p5_site.node("A"), p5_site.node("top"))])
    with pytest.raises(GroupSiteRequiredError):
        universal_reduction(o)


def test_mismatched_interval_input(ctx_c12, c12_site):
    with pytest.raises(MismatchedSitesError):
        inflate(ctx_c12, trivial_ts(c12_site))
    with pytest.raises(MismatchedSitesError):
        fixed_points(ctx_c12, trivial_ts(ctx_c12.interval_site))
    interval, parent = trivial_ts(ctx_c12.interval_site), trivial_ts(c12_site)
    for o_bar, om_bar in ((parent, interval), (interval, parent)):
        with pytest.raises(MismatchedSitesError):
            check_preservation(ctx_c12, o_bar, om_bar)


def test_preservation_trivial_pair(ctx_c12):
    triv = trivial_ts(ctx_c12.interval_site)
    assert check_preservation(ctx_c12, triv, triv) == (True, True, True, True)


@pytest.mark.parametrize("ctx_name,cat_name", [
    ("ctx_c12", "interval_catalog_c12"),
    ("ctx_c36", "interval_catalog_c36"),
])
def test_preservation_exhaustive(ctx_name, cat_name, request):
    # every (O, O_m <= M(O)) pair on the interval satisfies all four statements
    ctx = request.getfixturevalue(ctx_name)
    catalog = request.getfixturevalue(cat_name)
    for o in catalog.systems:
        m = max_compat_recursive(o)
        for om in catalog.systems:
            if om.le(m):
                assert check_preservation(ctx, o, om) == (True, True, True, True)
        assert check_preservation(ctx, o, m) == (True, True, True, True)


def test_inflation_figure_analogue(ctx_c36, c36_site):
    # the scaled-down inflation picture: M(p*O) == p*(M(O)) on [C6, C36]
    interval = ctx_c36.interval_site
    o_bar = system_from_labels(
        interval, [("C6", "C12"), ("C6", "C18"), ("C6", "C36"), ("C12", "C36")]
    )
    p_o = inflate(ctx_c36, o_bar)
    assert max_compat_recursive(p_o) == inflate(ctx_c36, max_compat_recursive(o_bar))


@pytest.mark.parametrize("descriptor", ["cyclic:12", "dihedral:4"])
def test_every_array_of_a_context_is_read_only(descriptor):
    site = site_from_descriptor(descriptor)
    for n in range(site.size):
        if (site.action[:, n] == n).all():
            ctx = quotient_context(site, n)
            for array in (ctx.to_parent, ctx.kn, ctx._fix, ctx._lift, ctx._mask):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array.flat[0] = array.flat[0]


def test_quotient_context_refuses_before_it_builds_a_table(p5_site, s3_site):
    with pytest.raises(GroupSiteRequiredError):
        quotient_context(p5_site, p5_site.node("A"))
    n = s3_site.node("<(12)>")
    with pytest.raises(NotNormalError, match=r"^node <\(12\)> is not fixed by the action$"):
        quotient_context(s3_site, n)
    assert n not in s3_site._cache.get("quotient_context", {})


def test_quotient_context_matches_coset_table(c12_site):
    # KN products agree with the setwise products of the coset construction
    latt = c12_site.lattice
    n = c12_site.node("C2")
    ctx = quotient_context(c12_site, n)
    for k in range(len(latt)):
        kn = oracles.setwise_product(
            latt.group, latt.subgroups[k].members, latt.subgroups[n].members
        )
        assert int(ctx.kn[k]) == oracles.index_of(latt, kn)
