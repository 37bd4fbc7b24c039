import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from conftest import labeled, system_from_labels
from transfer_systems.errors import InternalCheckError, MismatchedSitesError, UsageError
from transfer_systems.sites import site_from_descriptor
from transfer_systems.systems import (
    BinaryRelation,
    TransferSystem,
    ViolationReport,
    close_comp,
    close_conj,
    close_refl,
    close_res,
    complete_ts,
    complexity,
    count_cover_relations,
    disklike_generators,
    generate,
    generate_from_edges,
    hull,
    is_disklike,
    is_saturated,
    join_ts,
    meet_ts,
    trivial_ts,
    tulip_ts,
    _comp,
    _conj,
    _edge_closure,
    _first_violation,
    validate,
)


def by_label(site, pairs):
    return [(site.node(a), site.node(b)) for a, b in pairs]


# ---------------------------------------------------------------------------
# validate


def test_reflexive_only_relation_is_valid(c6_site, s3_site):
    for site in (c6_site, s3_site):
        rel = BinaryRelation(site, np.eye(site.size, dtype=bool))
        assert isinstance(validate(rel), TransferSystem)


def test_missing_conjugate_is_reported(s3_site):
    rel = BinaryRelation.from_edges(
        s3_site,
        [(i, i) for i in range(s3_site.size)] + by_label(s3_site, [("<(12)>", "S3")]),
    )
    report = validate(rel)
    assert isinstance(report, ViolationReport)
    assert report.axiom == "conjugation"
    (src, dst), (csrc, cdst) = report.witness
    assert s3_site.labels[src] == "<(12)>" and s3_site.labels[dst] == "S3"
    assert s3_site.labels[csrc] in ("<(13)>", "<(23)>")


def test_missing_restriction_is_reported(c6_site):
    rel = BinaryRelation.from_edges(
        c6_site, [(i, i) for i in range(c6_site.size)] + by_label(c6_site, [("1", "C6")])
    )
    report = validate(rel)
    assert isinstance(report, ViolationReport)
    assert report.axiom == "restriction"
    (_, _), l, missing = report.witness
    assert c6_site.labels[l] == "C2"
    assert missing == (c6_site.node("1"), c6_site.node("C2"))


def test_missing_reflexive_and_composition_reported(c6_site):
    report = validate(BinaryRelation.from_edges(c6_site, []))
    assert isinstance(report, ViolationReport) and report.axiom == "reflexivity"
    c4 = pytest.importorskip("transfer_systems.sites").site_from_descriptor("cyclic:4")
    rel = BinaryRelation.from_edges(
        c4, [(i, i) for i in range(c4.size)] + by_label(c4, [("1", "C2"), ("C2", "C4")])
    )
    report = validate(rel)
    assert isinstance(report, ViolationReport) and report.axiom == "composition"


def test_relation_must_refine_order(c6_site):
    with pytest.raises(UsageError, match="refine"):
        BinaryRelation.from_edges(c6_site, [(c6_site.node("C2"), c6_site.node("C3"))])


# ---------------------------------------------------------------------------
# closure operators


def test_close_res_on_s3_generator(s3_site):
    b = BinaryRelation.from_edges(s3_site, by_label(s3_site, [("<(12)>", "S3")]))
    got = set(close_res(b).edges())
    expected = set(
        by_label(
            s3_site,
            [("<(12)>", "S3"), ("1", "<(13)>"), ("1", "<(23)>"), ("1", "<(123)>")],
        )
    ) | {(0, 0), (s3_site.node("<(12)>"), s3_site.node("<(12)>"))}
    assert got == expected


def test_close_conj_on_s3_generator(s3_site):
    b = BinaryRelation.from_edges(s3_site, by_label(s3_site, [("<(12)>", "S3")]))
    got = set(close_conj(b).edges())
    assert got == set(
        by_label(s3_site, [("<(12)>", "S3"), ("<(13)>", "S3"), ("<(23)>", "S3")])
    )


def test_close_comp_two_step_chain():
    from transfer_systems.sites import site_from_descriptor

    c4 = site_from_descriptor("cyclic:4")
    b = BinaryRelation.from_edges(c4, by_label(c4, [("1", "C2"), ("C2", "C4")]))
    got = set(close_comp(b).edges())
    assert got == set(by_label(c4, [("1", "C2"), ("C2", "C4"), ("1", "C4")]))


def test_close_refl_adds_diagonal(c6_site):
    b = BinaryRelation.from_edges(c6_site, [])
    edges = close_refl(b).edges()
    assert edges == [(i, i) for i in range(c6_site.size)]
    assert all(type(v) is int for edge in edges for v in edge)


# ---------------------------------------------------------------------------
# generate


def test_generate_empty_is_trivial(c6_site, s3_site, q8_site):
    for site in (c6_site, s3_site, q8_site):
        assert generate_from_edges(site, []) == trivial_ts(site)


def test_generate_s3_example(s3_site, s4_site):
    ts = generate_from_edges(s3_site, by_label(s3_site, [("<(12)>", "S3")]))
    all_pairs = set(s3_site.pairs)
    assert set(ts.edges()) == all_pairs - {(s3_site.node("<(123)>"), s3_site.node("S3"))}
    for o in (ts, complete_ts(s4_site)):
        edges = o.edges()  # row-major, plain ints
        assert edges == [
            (a, b) for a in range(o.site.size) for b in range(o.site.size)
            if a != b and o.rel[a, b]
        ]
        assert all(type(v) is int for edge in edges for v in edge)


def test_generate_c6_universal(fig1, c6_site):
    assert generate_from_edges(c6_site, by_label(c6_site, [("1", "C6")])) == fig1["d"]


def test_generate_matches_fixpoint_oracle_on_all_c6_subsets(c6_site):
    pairs = c6_site.pairs
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        assert np.array_equal(
            generate_from_edges(c6_site, edges).rel,
            oracles.closure_fixpoint(c6_site, edges),
        )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_generate_matches_fixpoint_oracle_random(s3_site, d4_site, q8_site, data):
    site = data.draw(st.sampled_from([s3_site, d4_site, q8_site]))
    edges = data.draw(st.lists(st.sampled_from(site.pairs), max_size=6))
    assert np.array_equal(
        generate_from_edges(site, edges).rel, oracles.closure_fixpoint(site, edges)
    )


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_closure_order_commutes(s3_site, d4_site, data):
    # Comp(Res(Conj(Refl(B)))) == Comp(Conj(Res(Refl(B))))
    site = data.draw(st.sampled_from([s3_site, d4_site]))
    edges = data.draw(st.lists(st.sampled_from(site.pairs), max_size=6))
    b = close_refl(BinaryRelation.from_edges(site, edges))
    left = close_comp(close_res(close_conj(b)))
    right = close_comp(close_conj(close_res(b)))
    assert np.array_equal(left.rel, right.rel)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_incremental_step_equals_generate(
    c12_catalog, d4_catalog, s3_catalog, q8_catalog, grid_catalog, data
):
    # for a transfer system O, generate(O + e) = comp(O | R_e)
    catalogs = [c12_catalog, d4_catalog, s3_catalog, q8_catalog, grid_catalog]
    catalog = data.draw(st.sampled_from(catalogs))
    site = catalog.site
    o = data.draw(st.sampled_from(catalog.systems))
    missing = [e for e in site.pairs if not o.rel[e]]
    assume(missing)
    e = data.draw(st.sampled_from(missing))
    rel = o.rel.copy()
    rel[e] = True
    step = _comp(o.rel | _edge_closure(site, e))
    assert np.array_equal(step, generate(BinaryRelation(site, rel)).rel)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_conjugation_matches_loop_oracles(
    c12_site, d4_site, s3_site, q8_site, s4_site, grid_site, data
):
    # the orbit-table closure and axiom check against the per-permutation scans
    site = data.draw(st.sampled_from([c12_site, d4_site, s3_site, q8_site, s4_site, grid_site]))
    rel = BinaryRelation.from_edges(site, data.draw(st.lists(st.sampled_from(site.pairs)))).rel
    shape = data.draw(st.sampled_from(["raw", "reflexive", "action-closed"]))
    if shape != "raw":
        rel = rel | np.eye(site.size, dtype=bool)
    if shape == "action-closed":
        rel = oracles.conj_by_loop(site, rel)
    assert np.array_equal(_conj(site, rel), oracles.conj_by_loop(site, rel))
    # the whole report, witness included
    assert _first_violation(site, rel) == oracles.first_violation_by_loop(site, rel)


def test_constructor_rejects_edges_outside_the_order(c6_site):
    rel = np.eye(c6_site.size, dtype=bool)
    rel[c6_site.top, c6_site.bottom] = True
    with pytest.raises(InternalCheckError, match="does not refine the order"):
        TransferSystem(c6_site, rel)


def test_generate_minimality_on_c6(c6_catalog, c6_site):
    # T(B) is the intersection of all transfer systems containing B
    for o in c6_catalog.systems:
        edges = o.edges()
        for mask in range(1 << len(edges)):
            b = [edges[i] for i in range(len(edges)) if mask >> i & 1]
            ts = generate_from_edges(c6_site, b)
            meet_rel = None
            for other in c6_catalog.systems:
                if all(other.rel[e] for e in b):
                    meet_rel = other.rel if meet_rel is None else (meet_rel & other.rel)
            assert np.array_equal(ts.rel, meet_rel)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_generate_idempotent_and_monotone(s3_site, data):
    edges = data.draw(st.lists(st.sampled_from(s3_site.pairs), max_size=6))
    extra = data.draw(st.lists(st.sampled_from(s3_site.pairs), max_size=3))
    ts = generate_from_edges(s3_site, edges)
    assert generate(BinaryRelation(s3_site, ts.rel)) == ts
    assert ts.le(generate_from_edges(s3_site, edges + extra))


# ---------------------------------------------------------------------------
# lattice of transfer systems


def test_meet_join_identities(fig1, c6_catalog):
    top = complete_ts(c6_catalog.site)
    bottom = trivial_ts(c6_catalog.site)
    for ts in c6_catalog.systems:
        assert meet_ts(top, ts) == ts
        assert join_ts(bottom, ts) == ts


def test_fig1_join_h_i_is_g(fig1):
    assert join_ts(fig1["h"], fig1["i"]) == fig1["g"]


def test_fig1_join_e_f_is_complete(fig1):
    assert join_ts(fig1["e"], fig1["f"]) == fig1["a"]


def test_mismatched_sites_rejected(c6_site, s3_site):
    with pytest.raises(MismatchedSitesError):
        meet_ts(trivial_ts(c6_site), trivial_ts(s3_site))


# ---------------------------------------------------------------------------
# named systems


def test_named_systems_coincide_on_point():
    from transfer_systems.sites import site_from_descriptor

    point = site_from_descriptor("cyclic:1")
    assert trivial_ts(point) == complete_ts(point) == tulip_ts(point)


def test_tulip_q8(q8_site):
    tu = tulip_ts(q8_site)
    assert labeled(tu) == sorted(
        [
            ("1", "<-1>"), ("1", "<i>"), ("1", "<j>"), ("1", "<k>"),
            ("<-1>", "<i>"), ("<-1>", "<j>"), ("<-1>", "<k>"),
        ]
    )
    assert is_saturated(tu).saturated
    assert not is_disklike(tu)


def test_tulip_on_prime_cyclic_is_trivial_and_disklike():
    from transfer_systems.sites import site_from_descriptor

    for p in (2, 3, 5):
        cp = site_from_descriptor(f"cyclic:{p}")
        tu = tulip_ts(cp)
        assert tu == trivial_ts(cp)
        assert is_disklike(tu)
    # on a non-prime cyclic group the tulip is not disklike
    assert not is_disklike(tulip_ts(site_from_descriptor("cyclic:4")))


# ---------------------------------------------------------------------------
# saturation and hull


def test_complete_and_trivial_saturated(c6_site, s3_site):
    for site in (c6_site, s3_site):
        assert is_saturated(complete_ts(site)).saturated
        assert is_saturated(trivial_ts(site)).saturated


def test_s3_saturation_witness(s3_site):
    ts = generate_from_edges(s3_site, by_label(s3_site, [("<(12)>", "S3")]))
    result = is_saturated(ts)
    assert not result.saturated
    l, k, h = result.witness
    assert (s3_site.labels[l], s3_site.labels[k], s3_site.labels[h]) == ("1", "<(123)>", "S3")


def test_c6_saturation_census(c6_catalog):
    assert sum(is_saturated(ts).saturated for ts in c6_catalog.systems) == 7


def test_hull_fixes_saturated(c6_catalog):
    for ts in c6_catalog.systems:
        if is_saturated(ts).saturated:
            assert hull(ts) == ts


def test_hull_of_fig1_d_is_complete(fig1, c6_catalog):
    h = hull(fig1["d"])
    assert h == fig1["a"]
    assert np.array_equal(h.rel, oracles.hull_by_intersection(c6_catalog, fig1["d"]))


def test_hull_matches_intersection_oracle_everywhere(c6_catalog):
    for ts in c6_catalog.systems:
        assert np.array_equal(hull(ts).rel, oracles.hull_by_intersection(c6_catalog, ts))


def test_hull_properties(c6_catalog):
    for ts in c6_catalog.systems:
        h = hull(ts)
        assert is_saturated(h).saturated
        assert ts.le(h)
        assert hull(h) == h


def test_c12_hull_example(c12_site):
    # O_M = hull(O_L): the chain 1 <= C2 <= C4 forces the C2 -> C4 edge
    o_l = system_from_labels(c12_site, [("1", "C2"), ("1", "C3"), ("1", "C4")])
    o_m = system_from_labels(c12_site, [("1", "C2"), ("1", "C3"), ("1", "C4"), ("C2", "C4")])
    assert hull(o_l) == o_m


# ---------------------------------------------------------------------------
# disklike and complexity


def test_trivial_and_complete_disklike(c6_site, s3_site, q8_site):
    for site in (c6_site, s3_site, q8_site):
        assert is_disklike(trivial_ts(site))
        assert is_disklike(complete_ts(site))


def test_c6_disklike_census_and_names(fig1):
    disk = {name for name, ts in fig1.items() if is_disklike(ts)}
    assert disk == {"a", "b", "c", "d", "e", "f", "j"}
    both = {name for name, ts in fig1.items() if is_disklike(ts) and is_saturated(ts).saturated}
    assert both == {"a", "e", "f", "j"}


def test_s3_maximal_disklike_generators(s3_site):
    ts = generate_from_edges(s3_site, by_label(s3_site, [("<(12)>", "S3")]))
    got = {(s3_site.labels[a], s3_site.labels[b]) for a, b in disklike_generators(ts)}
    assert got == {("1", "S3"), ("<(12)>", "S3"), ("<(13)>", "S3"), ("<(23)>", "S3")}


@pytest.mark.parametrize(
    "catalog_name", ["c6_catalog", "c12_catalog", "s3_catalog", "q8_catalog", "c36_catalog"]
)
def test_disklike_criteria_agree(catalog_name, request):
    catalog = request.getfixturevalue(catalog_name)
    for ts in catalog.systems:
        assert is_disklike(ts) == oracles.disklike_by_restriction(ts)


def test_complexity_examples(c6_site, s3_site, fig1):
    assert complexity(trivial_ts(c6_site)) == 0
    s3 = generate_from_edges(s3_site, by_label(s3_site, [("<(12)>", "S3")]))
    assert complexity(s3) == 1
    assert complexity(fig1["g"]) == 2
    # oracle: no singleton generates g, checked over all five comparable pairs
    for e in c6_site.pairs:
        assert generate_from_edges(c6_site, [e]) != fig1["g"]


def test_complexity_bound_exceeded(fig1):
    assert complexity(fig1["a"], bound=0) is None


@pytest.mark.parametrize("catalog_name", ["c12_catalog", "s3_catalog", "q8_catalog"])
def test_complexity_matches_subset_search(catalog_name, request):
    for ts in request.getfixturevalue(catalog_name).systems:
        assert complexity(ts, bound=4) == oracles.complexity_by_subsets(ts, bound=4)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_complexity_matches_subset_search_sampled(d4_catalog, c36_catalog, data):
    catalog = data.draw(st.sampled_from([d4_catalog, c36_catalog]))
    ts = data.draw(st.sampled_from(catalog.systems))
    assert complexity(ts, bound=4) == oracles.complexity_by_subsets(ts, bound=4)


def test_complexity_of_complete_s5_is_fast():
    # 1,089 edges: the subset search would close ~593k pairs
    site = site_from_descriptor("symmetric:5")
    started = time.perf_counter()
    assert complexity(complete_ts(site), bound=2) is None
    assert time.perf_counter() - started < 10


def test_cover_count_fig1_d(fig1):
    assert count_cover_relations(trivial_ts(fig1["d"].site)) == 0
    assert count_cover_relations(fig1["d"]) == 2


@pytest.mark.parametrize("catalog_name", ["c6_catalog", "c12_catalog", "s3_catalog"])
def test_edge_bound_for_disklike(catalog_name, request):
    # |O| <= 2 C_O + 1 for every disklike system
    catalog = request.getfixturevalue(catalog_name)
    for ts in catalog.systems:
        if is_disklike(ts):
            assert ts.edge_count <= 2 * count_cover_relations(ts) + 1


def test_disklike_sources_closed_under_intersection(c12_catalog):
    # H -> G and K -> G transfers force H cap K -> G
    site = c12_catalog.site
    for ts in c12_catalog.systems:
        tops = [h for h, _ in disklike_generators(ts)]
        for a in tops:
            for b in tops:
                assert ts.rel[site.meet[a, b], site.top]
