"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.  The S5 conjecture scope is the longest criterion.
"""

import time

from conftest import labeled, system_from_labels
from transfer_systems.cli import main as cli_main
from transfer_systems.compat import (
    conjecture_formula,
    is_compatible,
    max_compat_disklike,
    max_compat_recursive,
)
from transfer_systems.enumeration import (
    cross_method_audit,
    disklike_systems,
    enumerate_all,
    verify_conjecture,
)
from transfer_systems.functors import (
    check_preservation,
    fixed_points,
    inflate,
    quotient_context,
    universal_reduction,
)
from transfer_systems.groups import small_group_descriptors
from transfer_systems.restriction import restriction_poset
from transfer_systems.sites import site_from_descriptor
from transfer_systems.systems import (
    complete_ts,
    count_cover_relations,
    generate_from_edges,
    hull,
    is_disklike,
    is_saturated,
    join_ts,
    tulip_ts,
)

AUDIT_GROUPS = ("cyclic:6", "cyclic:12", "cyclic:36", "symmetric:3", "q8", "dihedral:4")


def _report(number: int, description: str, started: float) -> None:
    print(f"PASS criterion {number}: {description} ({time.perf_counter() - started:.2f}s)")


def test_criterion_1_c6_enumeration_census():
    started = time.perf_counter()
    catalog = enumerate_all(site_from_descriptor("cyclic:6"))
    assert len(catalog) == 10
    stats = catalog.stats
    assert (stats.total, stats.saturated, stats.disklike, stats.both) == (10, 7, 7, 4)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"enumeration took {elapsed:.2f}s, budget is 1s"
    _report(1, "Tr(C6) has 10 systems; census 7 saturated / 7 disklike / 4 both", started)


def test_criterion_2_fig1_pairing(fig1, c6_catalog):
    started = time.perf_counter()
    expected = {"a": "a", "b": "g", "c": "g", "d": "g", "e": "e",
                "f": "f", "g": "g", "h": "h", "i": "i", "j": "j"}
    by_key = {ts.key: i for i, ts in enumerate(c6_catalog.systems)}
    pairing = c6_catalog.m_pairing
    for name, target in expected.items():
        assert pairing[by_key[fig1[name].key]] == by_key[fig1[target].key], name
    _report(2, "printed C_pq pairing reproduced: M fixes a,e,f,g,h,i,j; b,c,d -> g", started)


def test_criterion_3_s3_generation():
    started = time.perf_counter()
    site = site_from_descriptor("symmetric:3")
    ts = generate_from_edges(site, [(site.node("<(12)>"), site.node("S3"))])
    missing = {(site.node("<(123)>"), site.node("S3"))}
    assert set(ts.edges()) == set(site.pairs) - missing
    _report(3, "T({<(12)> -> S3}) is every inclusion except <(123)> -> S3", started)


def test_criterion_4_cross_method_audit():
    started = time.perf_counter()
    for desc in AUDIT_GROUPS:
        catalog = enumerate_all(site_from_descriptor(desc))
        report = cross_method_audit(catalog)
        assert report.ok, f"{desc}: {report.disagreements}"
    elapsed = time.perf_counter() - started
    assert elapsed < 300, f"audit took {elapsed:.1f}s, budget is 5 min"
    _report(4, f"oracle/recursive/algorithm agree on full catalogs of {', '.join(AUDIT_GROUPS)}", started)


def _property_suite(catalog, exhaustive: bool) -> None:
    systems = catalog.systems if exhaustive else catalog.systems[:: max(1, len(catalog.systems) // 25)]
    site = catalog.site
    maximal = {ts.key: max_compat_recursive(ts) for ts in systems}
    complete = complete_ts(site)
    tulip = tulip_ts(site)
    for ts in systems:
        m = maximal[ts.key]
        assert is_saturated(m).saturated
        assert is_compatible(ts, ts).compatible == is_saturated(ts).saturated
        if is_disklike(m):
            assert m == ts
        if is_disklike(ts):
            assert ts.edge_count <= 2 * count_cover_relations(ts) + 1
        if tulip.le(ts) and ts != complete:
            assert m == tulip
    for o_a in systems:
        m = maximal[o_a.key]
        compatible = []
        for o_m in systems:
            ok = is_compatible(o_a, o_m).compatible
            assert ok == o_m.le(m)
            if ok:
                compatible.append(o_m)
                assert is_compatible(o_a, hull(o_m)).compatible
        for x in compatible:
            for y in compatible:
                assert is_compatible(o_a, join_ts(x, y)).compatible


def test_criterion_5_property_suite(c6_catalog, c12_catalog, c36_catalog,
                                    s3_catalog, q8_catalog, d4_catalog):
    started = time.perf_counter()
    _property_suite(c6_catalog, exhaustive=True)
    for catalog in (c12_catalog, c36_catalog, s3_catalog, q8_catalog, d4_catalog):
        _property_suite(catalog, exhaustive=False)
    _report(5, "property suite exhaustive on Tr(C6), sampled on 5 more catalogs", started)


def test_criterion_6_inflation_suite():
    started = time.perf_counter()
    for parent_desc, normal_label in (("cyclic:12", "C2"), ("cyclic:36", "C6")):
        parent = site_from_descriptor(parent_desc)
        ctx = quotient_context(parent, parent.node(normal_label))
        interval_systems = enumerate_all(ctx.interval_site).systems
        parent_systems = enumerate_all(parent).systems
        for o in interval_systems:
            m = max_compat_recursive(o)
            for om in interval_systems:
                if om.le(m):
                    assert check_preservation(ctx, o, om) == (True, True, True, True)
        for x in interval_systems:
            p_x = inflate(ctx, x)
            for o in parent_systems:
                assert p_x.le(o) == x.le(fixed_points(ctx, o))
        for o in parent_systems:
            if is_disklike(o):
                assert universal_reduction(o) == max_compat_recursive(o)
    elapsed = time.perf_counter() - started
    assert elapsed < 300, f"inflation suite took {elapsed:.1f}s, budget is 5 min"
    _report(6, "inflation preservation, adjunction, and universal reduction on (C12, C2) and (C36, C6)", started)


def test_criterion_7a_conjecture_order_15():
    started = time.perf_counter()
    sites = [site_from_descriptor(d) for d in small_group_descriptors(15)]
    report = verify_conjecture(sites, require_bottom_to_top=True)
    assert report.ok, report.counterexamples
    assert report.systems_checked > 1000
    elapsed = time.perf_counter() - started
    assert elapsed < 600, f"order<=15 sweep took {elapsed:.1f}s, budget is 10 min"
    _report(7, f"(a) zero counterexamples over {len(sites)} groups of order <= 15 "
               f"({report.systems_checked} systems)", started)


def test_criterion_7b_conjecture_s4():
    started = time.perf_counter()
    report = verify_conjecture([site_from_descriptor("symmetric:4")], complexity_bound=2)
    assert report.ok, report.counterexamples
    assert report.systems_checked == 48
    elapsed = time.perf_counter() - started
    assert elapsed < 600, f"S4 sweep took {elapsed:.1f}s, budget is 10 min"
    _report(7, f"(b) zero counterexamples over S4 disklike systems of complexity <= 2 "
               f"({report.systems_checked} systems)", started)


def test_criterion_7b_conjecture_s5_long():
    started = time.perf_counter()
    report = verify_conjecture([site_from_descriptor("symmetric:5")], complexity_bound=2)
    assert report.ok, report.counterexamples
    assert report.systems_checked == 144
    _report(7, f"(b, long) zero counterexamples over S5 complexity <= 2 "
               f"({report.systems_checked} systems)", started)


def test_criterion_7b_conjecture_s5_complexity_3():
    started = time.perf_counter()
    report = verify_conjecture([site_from_descriptor("symmetric:5")], complexity_bound=3)
    assert report.ok, report.counterexamples
    assert report.systems_checked == 627
    _report(7, f"(b, long) zero counterexamples over S5 complexity <= 3 "
               f"({report.systems_checked} systems)", started)


def test_criterion_7_known_negative_cases(c12_site, p5_site):
    started = time.perf_counter()
    # non-disklike C12 system: the formula wrongly keeps the top transfer
    o = system_from_labels(
        c12_site, [("1", "C2"), ("1", "C3"), ("1", "C6"), ("C2", "C6"), ("C4", "C12")]
    )
    assert not is_disklike(o)
    truth = frozenset(max_compat_recursive(o).edges())
    extra = conjecture_formula(o) - truth
    assert {(c12_site.labels[a], c12_site.labels[b]) for a, b in extra} == {("C4", "C12")}
    assert labeled(max_compat_recursive(o)) == [("1", "C2"), ("1", "C3")]
    # abstract 5-node lattice: exactly one disklike counterexample, at edge e
    report = verify_conjecture([p5_site])
    assert len(report.counterexamples) == 1
    case = report.counterexamples[0]
    assert case.formula_only == [("A", "top")] and case.missing == []
    _report(7, "both known negative cases yield exactly the expected mismatch", started)


def test_criterion_8_step_counter_linearity(c12_catalog, c36_catalog):
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    for catalog in (c12_catalog, c36_catalog):
        for ts in catalog.systems:
            if not is_disklike(ts):
                continue
            checked += 1
            result = max_compat_disklike(ts)
            c_o = restriction_poset(ts).cover_count
            if c_o == 0:
                assert result.steps == 0
            else:
                worst = max(worst, result.steps / c_o)
    assert worst <= 1.0, f"step counter exceeded C_O (ratio {worst:.3f})"
    _report(8, f"disklike algorithm inspections <= C_O on {checked} systems "
               f"(max ratio {worst:.3f})", started)


CLI_CASES = [
    ["lattice", "--group", "symmetric:3"],
    ["generate", "--group", "symmetric:3", "--edges", "<(12)>>S3"],
    ["check", "--group", "cyclic:36", "--edges", "1>C36"],
    ["maximal", "--group", "cyclic:6", "--edges", "1>C6", "--method", "all"],
    ["enumerate", "--group", "cyclic:12", "--census"],
    ["inflate", "--group", "cyclic:12", "--normal", "C2", "--edges", "C2>C4"],
    ["fixed-points", "--group", "cyclic:12", "--normal", "C2", "--edges",
     "1>C2,1>C3,1>C4,1>C6,1>C12,C2>C4,C2>C6,C2>C12,C3>C6,C3>C12,C4>C12,C6>C12"],
    ["reduce", "--group", "cyclic:36", "--edges", "1>C36"],
    ["conjecture", "--groups", "cyclic:6"],
    ["render", "--group", "cyclic:6", "--edges", "1>C6", "--highlight", "maximal"],
    ["audit", "--group", "cyclic:6"],
]


def test_criterion_9_cli_determinism(capsys):
    started = time.perf_counter()
    for argv in CLI_CASES:
        outputs = set()
        for threads in ("1", "2", "5"):
            code = cli_main(argv + ["--threads", threads, "--seed", threads])
            captured = capsys.readouterr()
            assert code == 0, (argv, captured.err)
            outputs.add(captured.out)
        assert len(outputs) == 1, f"non-deterministic output for {argv}"
    # keep pytest's captured output clean before printing the report line
    _report(9, f"all {len(CLI_CASES)} CLI subcommands byte-identical across runs and thread counts",
            started)
