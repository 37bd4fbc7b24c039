import pytest

from transfer_systems import compat, enumeration, systems
from transfer_systems.enumeration import (
    census,
    cross_method_audit,
    disklike_systems,
    enumerate_all,
    verify_conjecture,
)
from transfer_systems.errors import CapExceededError, UsageError
from transfer_systems.sites import site_from_descriptor
from transfer_systems.systems import generate_from_edges, is_disklike, join_ts, meet_ts, trivial_ts

import oracles


def test_two_node_site_has_two_systems():
    cp = site_from_descriptor("cyclic:3")
    catalog = enumerate_all(cp)
    assert len(catalog) == 2
    stats = census(catalog)
    assert (stats.total, stats.saturated, stats.disklike, stats.both) == (2, 2, 2, 2)


def test_c6_enumeration_and_census(c6_catalog):
    assert len(c6_catalog) == 10
    assert c6_catalog.stats.summary() == "total=10 saturated=7 disklike=7 both=4"
    assert c6_catalog.stats.self_compatible == 7


def test_c6_matches_subset_closure_oracle(c6_site, c6_catalog):
    assert {ts.key for ts in c6_catalog.systems} == oracles.enumerate_subset_closure(c6_site)


def test_small_site_bfs_equals_brute_force():
    # every built-in site with at most 8 comparable pairs
    for desc in ("cyclic:2", "cyclic:4", "cyclic:8", "cyclic:6", "product:2x2"):
        site = site_from_descriptor(desc)
        if len(site.pairs) > 8:
            continue
        assert {ts.key for ts in enumerate_all(site).systems} == (
            oracles.enumerate_subset_closure(site)
        )


def test_s3_census(s3_catalog):
    stats = s3_catalog.stats
    assert stats.total == len(s3_catalog.systems)
    assert stats.self_compatible == stats.saturated


def test_fig1_systems_all_in_catalog(fig1, c6_catalog):
    keys = {ts.key for ts in c6_catalog.systems}
    assert {ts.key for ts in fig1.values()} <= keys


def test_catalog_closed_under_meet_join(c6_catalog):
    keys = {ts.key for ts in c6_catalog.systems}
    for a in c6_catalog.systems:
        for b in c6_catalog.systems:
            assert meet_ts(a, b).key in keys
            assert join_ts(a, b).key in keys


def test_catalog_closed_under_meet_join_sampled(c12_catalog):
    systems = c12_catalog.systems[::5]
    keys = {ts.key for ts in c12_catalog.systems}
    for a in systems:
        for b in systems:
            assert meet_ts(a, b).key in keys
            assert join_ts(a, b).key in keys


ENUMERATION_MESSAGE = "enumeration cap {cap} exceeded (partial count {count})"


@pytest.mark.parametrize(
    "catalog_name",
    ["c12_catalog", "d4_catalog", "s3_catalog", "q8_catalog", "grid_catalog", "p5_catalog",
     "s4_catalog"],
)
def test_stacked_bfs_matches_the_loop(catalog_name, request):
    # the level-at-a-time BFS lists the systems of the per-candidate loop, in order
    catalog = request.getfixturevalue(catalog_name)
    site = catalog.site
    expected = oracles.bfs_by_loop(
        site, trivial_ts(site), site.orbit_representatives(site.pairs), 200_000,
        ENUMERATION_MESSAGE,
    )
    assert [ts.key for ts in catalog.systems] == [ts.key for ts in expected]


@pytest.mark.parametrize("descriptor, depth", [("alternating:5", 2), ("symmetric:5", 1)])
def test_stacked_disklike_bfs_matches_the_loop(descriptor, depth):
    site = site_from_descriptor(descriptor)
    top_edges = [(h, site.top) for h in range(site.size) if h != site.top]
    expected = oracles.bfs_by_loop(
        site, generate_from_edges(site, []), site.orbit_representatives(top_edges), 200_000,
        "disklike enumeration cap {cap} exceeded", depth,
    )
    assert [ts.key for ts in disklike_systems(site, depth)] == [ts.key for ts in expected]


@pytest.mark.parametrize("descriptor", ["cyclic:12", "symmetric:4"])
def test_every_new_system_passes_the_stacked_check(descriptor, monkeypatch):
    # the trivial start through the constructor, every other system in stacks
    site = site_from_descriptor(descriptor)
    checked = []
    real = systems._check_stack

    def recording(site, rels):
        checked.extend(rel.tobytes() for rel in rels)
        real(site, rels)

    monkeypatch.setattr(systems, "_check_stack", recording)
    catalog = enumerate_all(site)
    assert sorted(checked) == sorted(ts.key for ts in catalog.systems)


@pytest.mark.parametrize("cap, count", [(0, 1), (1, 1), (10, 10), (500, 500), (1395, 1395)])
def test_cap_message_matches_the_loop(c36_site, cap, count):
    # C36 has 1,396 systems; the cap falls inside a level and inside a block
    message = f"enumeration cap {cap} exceeded (partial count {count})"
    with pytest.raises(CapExceededError) as loop:
        oracles.bfs_by_loop(
            c36_site, trivial_ts(c36_site), c36_site.orbit_representatives(c36_site.pairs), cap,
            ENUMERATION_MESSAGE,
        )
    assert str(loop.value) == message
    with pytest.raises(CapExceededError) as stacked:
        enumerate_all(c36_site, cap=cap)
    assert str(stacked.value) == message
    assert len(enumerate_all(c36_site, cap=1396)) == 1396


def test_enumeration_cap(c6_site):
    with pytest.raises(CapExceededError, match="partial count"):
        enumerate_all(c6_site, cap=4)


def test_m_pairing_reproduces_fig1(fig1, c6_catalog):
    pairing = c6_catalog.m_pairing
    by_key = {ts.key: i for i, ts in enumerate(c6_catalog.systems)}
    expected = {"a": "a", "b": "g", "c": "g", "d": "g", "e": "e",
                "f": "f", "g": "g", "h": "h", "i": "i", "j": "j"}
    for name, target in expected.items():
        assert pairing[by_key[fig1[name].key]] == by_key[fig1[target].key]


@pytest.mark.parametrize(
    "catalog_name", ["c6_catalog", "c12_catalog", "q8_catalog", "s3_catalog", "d4_catalog"]
)
def test_cross_method_audit_clean(catalog_name, request):
    catalog = request.getfixturevalue(catalog_name)
    report = cross_method_audit(catalog)
    assert report.ok, report.disagreements
    assert report.max_step_ratio <= 1.0
    assert report.total == len(catalog.systems)
    assert report.disklike_total == sum(is_disklike(ts) for ts in catalog.systems)


def test_disklike_systems_bfs_matches_catalog_filter(
    d4_catalog, c12_catalog, s3_catalog, q8_catalog
):
    # one BFS serves both enumerators: same systems in the same order
    c6xc2_catalog = enumerate_all(site_from_descriptor("product:6x2"))
    for catalog in (d4_catalog, c6xc2_catalog, c12_catalog, s3_catalog, q8_catalog):
        expected = [ts for ts in catalog.systems if is_disklike(ts)]
        assert disklike_systems(catalog.site) == expected


@pytest.mark.parametrize(
    "descriptor, count",
    [
        # |Tr(C_{p^n})| = Catalan(n + 1): Balchin, Barnes, Roitzheim,
        # "N-infinity operads and associahedra", Pacific J. Math. 2021
        ("cyclic:2", 2),
        ("cyclic:4", 5),
        ("cyclic:8", 14),
        ("cyclic:16", 42),
        ("cyclic:32", 132),
        # measured regression values, not literature
        ("cyclic:30", 450),
        ("product:2x2", 19),
    ],
)
def test_known_catalog_sizes(descriptor, count):
    assert len(enumerate_all(site_from_descriptor(descriptor))) == count


def test_disklike_enumeration_cap(c12_site):
    with pytest.raises(CapExceededError, match="disklike enumeration cap 3 exceeded"):
        disklike_systems(c12_site, cap=3)


def test_bounded_disklike_scope_obeys_cap(c12_site):
    with pytest.raises(CapExceededError, match="disklike enumeration cap 3 exceeded"):
        disklike_systems(c12_site, max_generators=2, cap=3)


def test_negative_generator_bound_is_a_usage_error(c12_site):
    with pytest.raises(UsageError, match="complexity bound must be >= 0"):
        disklike_systems(c12_site, max_generators=-1)


@pytest.mark.parametrize(
    "descriptor, bound",
    [("cyclic:12", 3), ("dihedral:4", 3), ("symmetric:3", 3), ("q8", 3),
     ("symmetric:4", 2), ("alternating:5", 3)],
)
@pytest.mark.parametrize("require_bottom_to_top", [False, True])
def test_bounded_disklike_bfs_matches_subset_search(descriptor, bound, require_bottom_to_top):
    # the depth-bounded BFS lists exactly the closures of <= bound top edges, in order
    site = site_from_descriptor(descriptor)
    for k in range(bound + 1):
        assert disklike_systems(site, k, require_bottom_to_top) == oracles.disklike_by_subsets(
            site, k, require_bottom_to_top
        )


def test_disklike_systems_with_universal_edge(c12_site):
    universal = (c12_site.bottom, c12_site.top)
    systems = disklike_systems(c12_site, require_bottom_to_top=True)
    assert all(ts.rel[universal] for ts in systems)
    everything = disklike_systems(c12_site)
    assert {ts.key for ts in systems} == {
        ts.key for ts in everything if ts.rel[universal]
    }


def test_disklike_systems_bounded_generators(c12_site):
    bounded = disklike_systems(c12_site, max_generators=2)
    from transfer_systems.systems import complexity

    for ts in bounded:
        c = complexity(ts, bound=2)
        assert c is not None and c <= 2


def test_verify_conjecture_on_c6_and_c12(c6_site, c12_site):
    report = verify_conjecture([c6_site, c12_site])
    assert report.ok
    assert report.systems_checked > 10


def test_verify_conjecture_computes_blocked_once_per_system(s4_site, monkeypatch):
    # the formula and the recursion share one blocked matrix per system
    calls = []
    real = compat._blocked

    def counting(o):
        calls.append(o.key)
        return real(o)

    monkeypatch.setattr(compat, "_blocked", counting)
    monkeypatch.setattr(enumeration, "_blocked", counting)
    report = verify_conjecture([s4_site], complexity_bound=2)
    assert report.ok and report.systems_checked == 48
    assert len(calls) == len(set(calls)) == 48


def test_verify_conjecture_categorical_counterexample(p5_site):
    report = verify_conjecture([p5_site])
    assert not report.ok
    assert len(report.counterexamples) == 1
    case = report.counterexamples[0]
    assert case.formula_only == [("A", "top")]
    assert case.missing == []
    assert sorted(case.system) == [("A", "top"), ("bot", "B"), ("bot", "C")]


def test_verify_conjecture_json_round_trip(p5_site):
    import json

    report = verify_conjecture([p5_site])
    data = json.loads(json.dumps(report.to_json()))
    assert data["ok"] is False and len(data["counterexamples"]) == 1
