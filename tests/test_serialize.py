import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import P5_TEXT, chain_site
from transfer_systems import serialize
from transfer_systems.errors import (
    CapExceededError,
    DescriptorError,
    InputFileError,
    MismatchedSitesError,
    UsageError,
)
from transfer_systems.sites import site_from_descriptor
from transfer_systems.systems import complete_ts, generate_from_edges

BENCH_DATA = Path(__file__).resolve().parents[1] / "bench" / "data"
CLOSURE = "edge list is not a transfer system (closure adds edges)"
SHAPE = "system JSON 'edges' must be a list of [source, target] labels"
NOT_REFINING = "edge C6 -> C2 does not refine the order"
UNKNOWN = "unknown node 'C7'; run the `lattice` subcommand to list labels"
UNKNOWN_C9 = UNKNOWN.replace("C7", "C9")


def test_round_trip_identity_on_c6_catalog(c6_catalog):
    for ts in c6_catalog.systems:
        assert serialize.load_system(oracles.dump_system(ts)) == ts


def test_edges_written_in_canonical_order(fig1):
    data = serialize.system_to_dict(fig1["a"])
    assert data["edges"] == sorted(data["edges"], key=lambda e: (
        fig1["a"].site.labels.index(e[0]), fig1["a"].site.labels.index(e[1])))
    assert data["site"] == "cyclic:6"


def test_reflexive_edges_implicit(fig1):
    data = serialize.system_to_dict(fig1["j"])
    assert data["edges"] == []
    assert serialize.system_from_dict(data) == fig1["j"]


def test_a_system_on_a_descriptor_less_site_is_not_serialized():
    site = chain_site(3)
    assert site.descriptor is None
    with pytest.raises(UsageError, match="^cannot serialize a system on a descriptor-less site$"):
        serialize.system_to_dict(complete_ts(site))


def test_unclosed_edge_list_rejected(c6_site):
    bad = {"site": "cyclic:6", "edges": [["1", "C6"]]}
    with pytest.raises(UsageError, match="closure"):
        serialize.system_from_dict(bad)


def test_poset_site_round_trip(tmp_path, p5_site):
    path = tmp_path / "p5.poset"
    path.write_text(P5_TEXT)
    from transfer_systems.sites import site_from_descriptor

    site = site_from_descriptor(f"poset:{path}")
    o = generate_from_edges(site, [(site.node("A"), site.node("top"))])
    again = serialize.load_system(oracles.dump_system(o))
    assert again.key == o.key


def test_catalog_jsonl(c6_catalog):
    text = serialize.dump_catalog(c6_catalog)
    lines = text.strip().split("\n")
    assert len(lines) == 10
    first = json.loads(lines[0])
    assert first["edges"] == []  # canonical order starts at the trivial system
    last = json.loads(lines[-1])
    assert len(last["edges"]) == 5  # and ends at the complete system


def test_interval_system_round_trip(c12_site):
    from transfer_systems.functors import fixed_points, quotient_context
    from transfer_systems.systems import complete_ts

    ctx = quotient_context(c12_site, c12_site.node("C2"))
    o_bar = fixed_points(ctx, complete_ts(c12_site))
    assert serialize.load_system(oracles.dump_system(o_bar)) == o_bar


def outcome(load, data, site=None):
    """The loaded system's (site key, key), or the exception's class and message."""
    try:
        ts = load(data, site)
    except UsageError as exc:
        return type(exc), str(exc)
    return ts.site.key, ts.key


REFUSED = [
    ("cyclic:6", [["C2", "C2"]], UsageError, CLOSURE),
    ("cyclic:6", [["1", "C2"], ["C2", "C2"]], UsageError, CLOSURE),
    ("cyclic:6", [["C6", "C2"]], UsageError, NOT_REFINING),
    ("cyclic:6", [["C2", "C2"], ["C6", "C2"]], UsageError, NOT_REFINING),
    ("cyclic:6", [["1", "C6"], ["C6", "C2"]], UsageError, NOT_REFINING),
    ("cyclic:6", [["1", "C6"]], UsageError, CLOSURE),
    ("symmetric:3", [["1", "<(12)>"]], UsageError, CLOSURE),
    ("symmetric:3", [["<(12)>", "S3"]], UsageError, CLOSURE),
    ("cyclic:6", [["1", "C7"]], DescriptorError, UNKNOWN),
    ("cyclic:6", [["1", 2]], InputFileError, SHAPE),
    ("cyclic:6", [["1", "C2", "C6"]], InputFileError, SHAPE),
    ("cyclic:6", ["11"], InputFileError, SHAPE),
    ("cyclic:6", [["1", "C7"], ["1", 2]], InputFileError, SHAPE),  # the shape is checked first
    ("cyclic:6", [["0", "1"]], UsageError, CLOSURE),  # "1" names node 0: a reflexive edge
    ("cyclic:6", "1>C2", InputFileError, SHAPE),
    # a duplicate or a reflexive edge among others adds nothing, and is refused
    ("cyclic:6", [["1", "C2"], ["C2", "C2"], ["1", "C2"]], UsageError, CLOSURE),
    ("cyclic:6", [["1", "C2"], ["2", "C3"]], UsageError, CLOSURE),  # "2" names node C3
    # an unknown label after, or before, labels the site knows
    ("cyclic:6", [["1", "C2"], ["C2", "C9"]], DescriptorError, UNKNOWN_C9),
    ("cyclic:6", [["C9", "C2"], ["C2", "C2"]], DescriptorError, UNKNOWN_C9),
    ("cyclic:6", [["1", None]], InputFileError, SHAPE),
]


@pytest.mark.parametrize("descriptor, edges, error, message", REFUSED)
def test_loader_refusals_are_pinned(descriptor, edges, error, message):
    data = {"site": descriptor, "edges": edges}
    assert outcome(serialize.system_from_dict, data) == (error, message)
    assert outcome(oracles.system_from_dict_by_closure, data) == (error, message)


NOT_A_STRING = "system JSON 'site' must be a descriptor string"


@pytest.mark.parametrize("data, given, error, message", [
    ({"site": 6, "edges": []}, None, InputFileError, NOT_A_STRING),
    ({"site": None, "edges": [["1", "C2"]]}, None, InputFileError, NOT_A_STRING),
    ({"site": 6, "edges": []}, "cyclic:6", InputFileError, NOT_A_STRING),
    ({"site": ["cyclic:6"], "edges": []}, "cyclic:6", InputFileError, NOT_A_STRING),
    ({"site": 6, "edges": [["1", 2]]}, None, InputFileError, SHAPE),  # the shape is checked first
    ({"site": "symmetric:3", "edges": [["1", "C2"]]}, "cyclic:6", MismatchedSitesError,
     "system JSON site 'symmetric:3' is not the site 'cyclic:6'"),
    ({"site": "cyclic:3", "edges": []}, "cyclic:6", MismatchedSitesError,
     "system JSON site 'cyclic:3' is not the site 'cyclic:6'"),
    ({"site": "nope", "edges": []}, "cyclic:6", DescriptorError, "unsupported descriptor 'nope'"),
    # C3's site has C2's key (a two-node chain, trivial action); the orders differ
    ({"site": "cyclic:3", "edges": []}, "cyclic:2", MismatchedSitesError,
     "system JSON site 'cyclic:3' is not the site 'cyclic:2'"),
    # one order, 8; C8 has an element of order 8 and C4xC2 none
    ({"site": "cyclic:8", "edges": []}, "product:4x2", MismatchedSitesError,
     "system JSON site 'cyclic:8' is not the site 'product:4x2'"),
])
def test_loader_refuses_a_bad_site_field(data, given, error, message):
    site = given and site_from_descriptor(given)
    assert outcome(serialize.system_from_dict, data, site) == (error, message)


@pytest.mark.parametrize("field", [{}, {"site": "cyclic:6"}, {"site": " cyclic:6 "}])
def test_loader_reads_the_given_site_from_an_equal_or_absent_field(c6_site, field):
    ts = serialize.system_from_dict({**field, "edges": [["1", "C2"]]}, c6_site)
    assert ts.site is c6_site and ts.edges() == [(0, 1)]


def test_the_given_sites_own_descriptor_builds_no_site(c6_site, monkeypatch):
    def build(*args):
        raise AssertionError("a site was built")

    monkeypatch.setattr(serialize, "site_from_descriptor", build)
    ts = serialize.system_from_dict({"site": "cyclic:6", "edges": [["1", "C2"]]}, c6_site)
    assert ts.site is c6_site


def test_a_poset_site_matches_its_descriptor_spelled_otherwise(tmp_path, monkeypatch):
    (tmp_path / "p5.poset").write_text(P5_TEXT)
    monkeypatch.chdir(tmp_path)
    site = site_from_descriptor("poset:p5.poset")
    ts = serialize.system_from_dict({"site": "poset:./p5.poset", "edges": [["bot", "A"]]}, site)
    assert ts.site is site


def test_a_poset_descriptor_may_name_a_group_site(tmp_path):
    # a poset site with a group site's key is rebuilt and compared, never refused by order
    path = tmp_path / "c2.poset"
    path.write_text("nodes: 1 C2\ncover: 1 C2\n")
    site = site_from_descriptor("cyclic:2")
    assert site_from_descriptor(f"poset:{path}").key == site.key
    ts = serialize.system_from_dict({"site": f"poset:{path}", "edges": [["1", "C2"]]}, site)
    assert ts.site is site and ts.edges() == [(0, 1)]


def test_a_group_with_the_same_element_orders_is_rebuilt_and_compared():
    # dicyclic:2 is Q8 under another descriptor: not refused by its element orders
    site = site_from_descriptor("q8")
    ts = serialize.system_from_dict({"site": "dicyclic:2", "edges": []}, site)
    assert ts.site is site and ts.edges() == []


ACCEPTED = [
    ([["1", "C2"], ["1", "C2"]], ["1>C2"]),
    ([["1", "C3"], ["1", "C2"]], ["1>C2", "1>C3"]),
    ([], []),
    ([["0", "2"]], ["1>C3"]),  # bare node indices
    ([["1", "C3"], ["C2", "C6"], ["1", "C6"], ["1", "C2"]], ["1>C2", "1>C3", "1>C6", "C2>C6"]),
    ([["0", "C2"]], ["1>C2"]),  # a bare index beside a label
]


@pytest.mark.parametrize("edges, expected", ACCEPTED)
def test_loader_accepts_duplicated_unordered_and_numeric_edges(c6_site, edges, expected):
    data = {"site": "cyclic:6", "edges": edges}
    ts = serialize.system_from_dict(data)
    lab = c6_site.labels
    assert [f"{lab[a]}>{lab[b]}" for a, b in ts.edges()] == expected
    assert outcome(oracles.system_from_dict_by_closure, data) == (ts.site.key, ts.key)


@pytest.mark.parametrize("data, error, message", [
    ({"edges": [["1", 2]]}, InputFileError, SHAPE),  # before the missing site
    ({"site": "cyclic:-1", "edges": [[1, 2]]}, InputFileError, SHAPE),  # before the bad site
    ({"edges": [["1", "C2"]]}, InputFileError, "system JSON must have a 'site' field"),
    ({"site": "cyclic:6"}, InputFileError, "system JSON must have an 'edges' field"),
    ({"site": "cyclic:-1", "edges": []}, DescriptorError, "cyclic:-1: parameters must be integers >= 1"),
])
def test_malformed_system_objects_match_the_oracle(data, error, message):
    assert outcome(serialize.system_from_dict, data) == (error, message)
    assert outcome(oracles.system_from_dict_by_closure, data) == (error, message)


def test_loader_matches_closure_oracle_on_bench_catalogs():
    for path in sorted(BENCH_DATA.glob("*.jsonl")):
        lines = path.read_text().splitlines()
        site = site_from_descriptor(json.loads(lines[0])["site"])
        for line in lines:
            data = json.loads(line)
            got = outcome(serialize.system_from_dict, data, site)
            assert got == outcome(oracles.system_from_dict_by_closure, data, site)
            assert got[0] == site.key  # every stored line is a transfer system


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loader_matches_closure_oracle_on_drawn_edge_lists(c6_site, s3_site, d4_site, data):
    site = data.draw(st.sampled_from([c6_site, s3_site, d4_site]))
    edges = data.draw(st.lists(st.sampled_from(oracles.pairs(site)), max_size=5))
    if data.draw(st.booleans()):  # list a closed system, or just its generators
        edges = generate_from_edges(site, edges).edges()
    edges += data.draw(st.lists(st.sampled_from(range(site.size)).map(lambda k: (k, k)), max_size=1))
    outside = list(map(tuple, np.argwhere(~site.leq).tolist()))
    edges += data.draw(st.lists(st.sampled_from(outside), max_size=1))
    edges = data.draw(st.permutations(edges))
    lab = site.labels
    listed = {"site": site.descriptor, "edges": [[lab[k], lab[h]] for k, h in edges]}
    for given_site in (None, site):
        expected = outcome(oracles.system_from_dict_by_closure, listed, given_site)
        assert outcome(serialize.system_from_dict, listed, given_site) == expected


def test_the_system_readers_take_an_order_cap():
    # without a site, the file's descriptor is built under order_cap
    text = json.dumps({"site": "cyclic:1024|above:C2", "edges": [["C2", "C4"]]})
    with pytest.raises(CapExceededError, match="order exceeds cap 1000"):
        serialize.load_system(text)
    ts = serialize.load_system(text, order_cap=2000)
    assert ts.site.descriptor == "cyclic:1024|above:C2" and ts.edge_count == 1
