import json

import numpy as np
import pytest

from transfer_systems import compat, enumeration, systems
from transfer_systems.compat import max_compat_oracle
from transfer_systems.enumeration import (
    TransferSystemCatalog,
    census,
    cross_method_audit,
    disklike_systems,
    enumerate_all,
    verify_conjecture,
)
from transfer_systems.errors import CapExceededError, InternalCheckError, UsageError
from transfer_systems.groups import _row_keys
from transfer_systems.sites import site_from_descriptor
from transfer_systems.systems import (
    _STACK_ENTRIES,
    _violation_text,
    generate_from_edges,
    is_disklike,
    join_ts,
    meet_ts,
    trivial_ts,
)

import oracles


def test_enumeration_remembers_every_system_it_checked(monkeypatch):
    site = site_from_descriptor("dihedral:4")
    catalog = enumerate_all(site)
    assert {ts.key for ts in catalog.systems} <= site._cache["checked"]
    calls = []
    monkeypatch.setattr(systems, "_check_stack", lambda site, rels: calls.append(len(rels)))
    for ts in catalog.systems:
        assert generate_from_edges(site, ts.edges()) == ts
    assert calls == []


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
        if len(oracles.pairs(site)) > 8:
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
        site, trivial_ts(site), site.orbit_representatives(oracles.pairs(site)), 200_000,
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
            c36_site, trivial_ts(c36_site),
            c36_site.orbit_representatives(oracles.pairs(c36_site)), cap, ENUMERATION_MESSAGE,
        )
    assert str(loop.value) == message
    with pytest.raises(CapExceededError) as stacked:
        enumerate_all(c36_site, cap=cap)
    assert str(stacked.value) == message
    assert len(enumerate_all(c36_site, cap=1396)) == 1396


def test_start_system_counts_against_the_cap():
    # the trivial site's only system is the start: no level runs
    site = site_from_descriptor("cyclic:1")
    message = "enumeration cap 0 exceeded (partial count 1)"
    with pytest.raises(CapExceededError) as loop:
        oracles.bfs_by_loop(site, trivial_ts(site), [], 0, ENUMERATION_MESSAGE)
    assert str(loop.value) == message
    with pytest.raises(CapExceededError) as stacked:
        enumerate_all(site, cap=0)
    assert str(stacked.value) == message
    with pytest.raises(CapExceededError, match="disklike enumeration cap 0 exceeded"):
        disklike_systems(site, cap=0)
    assert len(enumerate_all(site, cap=1)) == 1


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


@pytest.mark.parametrize("catalog_name", ["s3_catalog", "d4_catalog", "q8_catalog", "grid_catalog"])
def test_bfs_over_orbit_representatives_matches_the_bfs_over_every_edge(catalog_name, request):
    # T(g.e) = T(e): adding one edge per orbit reaches every system, in the same order
    catalog = request.getfixturevalue(catalog_name)
    site = catalog.site
    strict = site.leq & ~np.eye(site.size, dtype=bool)
    every = enumeration._bfs(
        site, trivial_ts(site), np.flatnonzero(strict), 200_000, ENUMERATION_MESSAGE
    )
    assert [ts.key for ts in every] == [ts.key for ts in catalog.systems]
    top = site.top
    every_top = enumeration._bfs(
        site, trivial_ts(site), np.flatnonzero(strict[:, top]) * site.size + top, 200_000,
        "disklike enumeration cap {cap} exceeded",
    )
    assert [ts.key for ts in every_top] == [ts.key for ts in disklike_systems(site)]


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


def test_verify_conjecture_computes_blocked_once_per_block(s4_site, monkeypatch):
    # the formula and the recursion share one blocked stack per block of systems
    calls = []
    real = compat._blocked

    def counting(site, rels):
        calls.append(_row_keys(rels).tolist())
        return real(site, rels)

    monkeypatch.setattr(compat, "_blocked", counting)
    monkeypatch.setattr(enumeration, "_blocked", counting)
    report = verify_conjecture([s4_site], complexity_bound=2)
    assert report.ok and report.systems_checked == 48
    step = _STACK_ENTRIES // s4_site.size**2
    assert [len(keys) for keys in calls] == [step, 48 - step]
    assert len({key for keys in calls for key in keys}) == 48


@pytest.mark.parametrize("sweep", ["census", "cross_method_audit", "m_pairing"])
def test_catalog_sweeps_compute_blocked_once_per_block(sweep, c36_catalog, monkeypatch):
    calls = []
    real = compat._blocked

    def counting(site, rels):
        calls.append(_row_keys(rels).tolist())
        return real(site, rels)

    monkeypatch.setattr(compat, "_blocked", counting)
    monkeypatch.setattr(enumeration, "_blocked", counting)
    catalog = TransferSystemCatalog(c36_catalog.site, c36_catalog.systems)
    {"census": census, "cross_method_audit": cross_method_audit,
     "m_pairing": lambda c: c.m_pairing}[sweep](catalog)
    step = _STACK_ENTRIES // catalog.site.size**2  # C36: 9 nodes, blocks of 404
    assert [len(keys) for keys in calls] == [step, step, step, len(catalog) - 3 * step]
    assert [key for keys in calls for key in keys] == [ts.key for ts in catalog.systems]


def test_stats_and_m_pairing_run_their_sweep_once(d4_catalog, monkeypatch):
    walks = []
    real = enumeration._blocks

    def counting(site, systems):
        walks.append(len(systems))
        return real(site, systems)

    monkeypatch.setattr(enumeration, "_blocks", counting)
    catalog = TransferSystemCatalog(d4_catalog.site, d4_catalog.systems)
    assert catalog.stats is catalog.stats
    assert catalog.m_pairing is catalog.m_pairing
    assert walks == [len(catalog), len(catalog)]


def test_verify_conjecture_categorical_counterexample(p5_site):
    report = verify_conjecture([p5_site])
    assert not report.ok
    assert len(report.counterexamples) == 1
    case = report.counterexamples[0]
    assert case.formula_only == [("A", "top")]
    assert case.missing == []
    assert case.system == [("A", "top"), ("bot", "B"), ("bot", "C")]  # by label, not by node
    assert _json_bytes(report) == _json_bytes(oracles.verify_conjecture_by_loop([p5_site]))


def test_verify_conjecture_json_round_trip(p5_site):
    import json

    report = verify_conjecture([p5_site])
    data = json.loads(json.dumps(report.to_json()))
    assert data["ok"] is False and len(data["counterexamples"]) == 1


# ---------------------------------------------------------------------------
# The block sweeps against the per-system loops they replaced


def _json_bytes(report) -> str:
    return json.dumps(report.to_json(), indent=2, sort_keys=True)


def _fresh(catalog, length=None):
    """The catalog's first ``length`` systems, as new systems with empty caches."""
    systems = [generate_from_edges(catalog.site, ts.edges()) for ts in catalog.systems[:length]]
    return TransferSystemCatalog(catalog.site, systems)


def _assert_sweeps_match_loops(catalog, pairing=True):
    assert census(catalog) == oracles.census_by_loop(catalog)
    assert _json_bytes(cross_method_audit(catalog)) == _json_bytes(
        oracles.cross_method_audit_by_loop(catalog)
    )
    if pairing:
        assert catalog.m_pairing == oracles.m_pairing_by_loop(catalog)


@pytest.mark.parametrize(
    "name, total", [("c36_catalog", 1396), ("d4_catalog", 294), ("s4_catalog", 8691)]
)
def test_block_sweeps_match_per_system_loops(name, total, request):
    catalog = request.getfixturevalue(name)
    assert len(catalog) == total
    _assert_sweeps_match_loops(TransferSystemCatalog(catalog.site, catalog.systems))
    site = catalog.site
    assert _json_bytes(verify_conjecture([site])) == _json_bytes(
        oracles.verify_conjecture_by_loop([site])
    )


def test_s4_census_pinned(s4_catalog):
    stats = census(TransferSystemCatalog(s4_catalog.site, s4_catalog.systems))
    assert stats.summary() == "total=8691 saturated=132 disklike=183 both=4"


@pytest.mark.parametrize("name", ["c36_catalog", "s4_catalog"])
def test_block_boundaries_match_per_system_loops(name, request):
    # prefixes of a catalog are closed under M(O), which has no more edges than O
    catalog = request.getfixturevalue(name)
    step = max(1, _STACK_ENTRIES // catalog.site.size**2)
    assert step + 1 < len(catalog)
    for length in (1, step, step + 1):
        _assert_sweeps_match_loops(_fresh(catalog, length))


def test_s4_conjecture_block_boundary_matches_loop(s4_site):
    # 48 systems: one full block of 36 and one of 12
    assert _json_bytes(verify_conjecture([s4_site], 2)) == _json_bytes(
        oracles.verify_conjecture_by_loop([s4_site], 2)
    )


def test_s5_blocks_of_one_match_per_system_loops():
    site = site_from_descriptor("symmetric:5")
    assert _STACK_ENTRIES // site.size**2 == 1  # so a block holds one system
    catalog = TransferSystemCatalog(site, disklike_systems(site, 3))
    assert len(catalog) == 627
    _assert_sweeps_match_loops(catalog, pairing=False)
    assert _json_bytes(verify_conjecture([site], 3)) == _json_bytes(
        oracles.verify_conjecture_by_loop([site], 3)
    )


def test_sweeps_check_every_maximal_relation(d4_catalog, s4_site, monkeypatch):
    checked = []
    real = enumeration._check_stack

    def counting(site, rels):
        checked.append(len(rels))
        return real(site, rels)

    monkeypatch.setattr(enumeration, "_check_stack", counting)
    catalog = _fresh(d4_catalog)
    cross_method_audit(catalog)
    # the oracle and the recursive stacks, and the algorithm's on the 60 disklike systems
    assert sum(checked) == 2 * len(catalog) + 60
    checked.clear()
    assert len(catalog.m_pairing) == sum(checked) == len(catalog)
    checked.clear()
    assert verify_conjecture([s4_site], 2).systems_checked == sum(checked) == 48


# ---------------------------------------------------------------------------
# The safety nets fire on stacks


def test_audit_records_a_recursion_fault_at_its_index(c36_catalog, monkeypatch):
    catalog = _fresh(c36_catalog)
    target = 500  # in the second block of 404
    seen = [0]
    real = enumeration._recursive

    def faulty(site, rels, blocked):
        out = real(site, rels, blocked)
        lo, seen[0] = seen[0], seen[0] + len(rels)
        if lo <= target < seen[0]:
            out[target - lo] = np.eye(site.size, dtype=bool)
        return out

    monkeypatch.setattr(enumeration, "_recursive", faulty)
    report = cross_method_audit(catalog)
    ts = catalog.systems[target]
    lab = catalog.site.labels
    oracle = [(lab[a], lab[b]) for a, b in max_compat_oracle(ts).edges()]
    assert oracle  # so the trivial system is a disagreement
    assert [(e.index, e.kind, e.detail) for e in report.disagreements] == [
        (target, "oracle-vs-recursive", f"oracle={oracle} recursive=[]")
    ]


def _named(ts):
    lab = ts.site.labels
    return [(lab[a], lab[b]) for a, b in ts.edges()]


def _trivial_algorithm(monkeypatch):
    """Make the audit's cover-relation kernel return trivial systems, with its true steps."""
    real = enumeration._cover_pass

    def trivial(site, rels):
        steps = real(site, rels)[1]
        return np.broadcast_to(np.eye(site.size, dtype=bool), rels.shape).copy(), steps

    monkeypatch.setattr(enumeration, "_cover_pass", trivial)


def _no_cover_relations(monkeypatch):
    """Make the audit read C_O = 0 for every system."""
    monkeypatch.setattr(enumeration, "_cover_counts",
                        lambda site, rels: np.zeros(len(rels), dtype=np.intp))


def test_audit_records_a_wrong_algorithm_against_the_oracle(c12_catalog, monkeypatch):
    catalog = _fresh(c12_catalog)
    _trivial_algorithm(monkeypatch)
    report = cross_method_audit(catalog)
    expected = [
        (i, _named(ts), "algorithm-vs-oracle", f"algorithm=[] oracle={_named(max_compat_oracle(ts))}")
        for i, ts in enumerate(catalog.systems)
        if is_disklike(ts) and max_compat_oracle(ts).edges()
    ]
    assert len(expected) == 22
    assert [(e.index, e.edges, e.kind, e.detail) for e in report.disagreements] == expected


def test_audit_records_steps_taken_where_no_cover_relation_exists(c12_catalog, monkeypatch):
    catalog = _fresh(c12_catalog)
    _no_cover_relations(monkeypatch)
    report = cross_method_audit(catalog)
    expected = []
    for i, ts in enumerate(catalog.systems):
        steps = compat.max_compat_disklike(ts).steps if is_disklike(ts) else 0
        if steps:
            expected.append((i, _named(ts), "steps", f"steps={steps} with C_O=0"))
    assert len(expected) == 22
    assert [(e.index, e.edges, e.kind, e.detail) for e in report.disagreements] == expected
    assert report.max_step_ratio == 0.0


def test_audit_entries_of_one_system_keep_the_method_order(c12_catalog, monkeypatch):
    catalog = _fresh(c12_catalog)
    target = next(i for i, ts in enumerate(catalog.systems)
                  if is_disklike(ts) and max_compat_oracle(ts).edges())
    ts = catalog.systems[target]
    real_recursive = enumeration._recursive

    def recursive(site, rels, blocked):
        out = real_recursive(site, rels, blocked)
        out[target] = np.eye(site.size, dtype=bool)
        return out

    monkeypatch.setattr(enumeration, "_recursive", recursive)
    _trivial_algorithm(monkeypatch)
    _no_cover_relations(monkeypatch)
    report = cross_method_audit(catalog)
    oracle = _named(max_compat_oracle(ts))
    steps = compat.max_compat_disklike(ts).steps
    assert [(e.index, e.kind, e.detail) for e in report.disagreements if e.index == target] == [
        (target, "oracle-vs-recursive", f"oracle={oracle} recursive=[]"),
        (target, "algorithm-vs-oracle", f"algorithm=[] oracle={oracle}"),
        (target, "steps", f"steps={steps} with C_O=0"),
    ]


def test_audit_runs_no_cover_pass_on_a_block_without_disklike_rows(c12_catalog, monkeypatch):
    catalog = _fresh(c12_catalog)
    catalog = TransferSystemCatalog(catalog.site, [ts for ts in catalog.systems if not is_disklike(ts)])

    def cover_pass(site, rels):
        raise AssertionError("the cover pass ran on a block without disklike rows")

    monkeypatch.setattr(enumeration, "_cover_pass", cover_pass)
    report = cross_method_audit(catalog)
    assert (report.total, report.disklike_total) == (len(catalog), 0) and report.ok
    assert _json_bytes(report) == _json_bytes(oracles.cross_method_audit_by_loop(catalog))


def test_audit_reports_scattered_disklike_rows_at_their_indices(c12_catalog, monkeypatch):
    catalog = _fresh(c12_catalog)
    disk = [ts for ts in catalog.systems if is_disklike(ts) and max_compat_oracle(ts).edges()]
    other = next(ts for ts in catalog.systems if not is_disklike(ts))
    catalog = TransferSystemCatalog(catalog.site, [disk[0], other, disk[1], other, disk[2]])
    real = enumeration._cover_pass

    def faulty(site, rels):  # the second disklike row, catalog index 2, comes out trivial
        maximal, steps = real(site, rels)
        maximal[1] = np.eye(site.size, dtype=bool)
        return maximal, steps

    monkeypatch.setattr(enumeration, "_cover_pass", faulty)
    report = cross_method_audit(catalog)
    assert report.disklike_total == 3
    assert [(e.index, e.edges, e.kind, e.detail) for e in report.disagreements] == [
        (2, _named(disk[1]), "algorithm-vs-oracle",
         f"algorithm=[] oracle={_named(max_compat_oracle(disk[1]))}")
    ]


def test_stacked_axiom_check_names_the_broken_relation(c36_catalog, monkeypatch):
    catalog = _fresh(c36_catalog)
    site = catalog.site
    target = 7  # not the block's first relation
    broken = []
    real = enumeration._oracle

    def faulty(site, rels, blocked):
        out = real(site, rels, blocked)
        if not broken:
            k, h = map(int, np.argwhere(site.leq & ~out[target])[0])  # a missing edge
            out[target, k, h] = True
            broken.append(out[target].copy())
        return out

    monkeypatch.setattr(enumeration, "_oracle", faulty)
    with pytest.raises(InternalCheckError) as excinfo:
        cross_method_audit(catalog)
    reason = _violation_text(site, broken[0])
    assert str(excinfo.value) == f"relation is not a transfer system: {reason}"


def test_census_raises_on_a_saturation_mismatch(c36_catalog, monkeypatch):
    catalog = _fresh(c36_catalog)
    monkeypatch.setattr(enumeration, "_unsaturated", lambda site, rels: np.zeros_like(rels))
    with pytest.raises(InternalCheckError, match="self-compatible count 115 != saturated count 1396"):
        census(catalog)
