import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import transfer_systems
from conftest import chain_site, system_from_labels
from oracles import (
    FAILURE,
    NOT_COMPARABLE,
    SUCCESS,
    max_compat_by_recursion,
    restriction_poset,
    restriction_poset_by_loop,
)
from transfer_systems.compat import conjecture_formula, max_compat_recursive
from transfer_systems.enumeration import disklike_systems
from transfer_systems.systems import count_cover_relations, generate_from_edges, trivial_ts

# The worked C_{p^2 q^2} example at p=2, q=3: a disklike system on C36 whose
# maximal compatible subsystem is the bold set below.
ALG_EXAMPLE_EDGES = [
    ("1", "C2"), ("1", "C3"), ("1", "C4"), ("1", "C6"), ("1", "C9"),
    ("1", "C12"), ("1", "C18"), ("1", "C36"),
    ("C2", "C6"), ("C2", "C18"),
    ("C3", "C6"), ("C3", "C9"), ("C3", "C12"), ("C3", "C18"), ("C3", "C36"),
    ("C4", "C12"), ("C4", "C36"),
    ("C6", "C18"),
    ("C12", "C36"),
]

ALG_EXAMPLE_BOLD = [
    ("1", "C2"), ("1", "C3"), ("1", "C6"), ("1", "C9"),
    ("C2", "C6"), ("C3", "C6"), ("C3", "C9"), ("C4", "C12"),
]


@pytest.fixture(scope="module")
def alg_example(c36_site):
    return system_from_labels(c36_site, ALG_EXAMPLE_EDGES)


def test_trivial_system_has_empty_poset(c6_site):
    poset = restriction_poset(trivial_ts(c6_site))
    assert len(poset) == 0 and poset.cover_count == 0


def test_fig1_d_poset(fig1, c6_site):
    poset = restriction_poset(fig1["d"])
    e = lambda a, b: (c6_site.node(a), c6_site.node(b))
    top = e("1", "C6")
    assert set(poset.nodes) == {e("1", "C2"), e("1", "C3"), top}
    c2, c3, t = (poset.nodes.index(x) for x in (e("1", "C2"), e("1", "C3"), top))
    assert poset.covers[c2, t] and poset.covers[c3, t]
    assert poset.cover_count == 2
    # both covers are failures: 1 -> 1 is additive but C2 -> C6, C3 -> C6 are not in d
    assert poset.annotation[c2, t] == poset.annotation[c3, t] == FAILURE
    assert poset.annotation[c2, c3] == NOT_COMPARABLE


def test_poset_axioms(c12_catalog):
    for ts in c12_catalog.systems:
        poset = restriction_poset(ts)
        leq = poset.leq
        m = len(poset)
        assert np.all(np.diag(leq))
        assert not np.any(leq & leq.T & ~np.eye(m, dtype=bool))
        two = (leq.astype(np.uint8) @ leq.astype(np.uint8)) > 0
        assert not np.any(two & ~leq)


def test_restrictions_stay_inside_the_system(c12_catalog):
    # definition check: r <= e iff dst(r) <= dst(e) and src(r) = src(e) /\ dst(r)
    site = c12_catalog.site
    for ts in c12_catalog.systems:
        poset = restriction_poset(ts)
        for i, r in enumerate(poset.nodes):
            for j, e in enumerate(poset.nodes):
                expected = bool(site.leq[r[1], e[1]]) and r[0] == int(site.meet[e[0], r[1]])
                assert bool(poset.leq[i, j]) == expected


def test_annotations_are_exclusive(c12_catalog):
    for ts in c12_catalog.systems:
        poset = restriction_poset(ts)
        for i in range(len(poset)):
            for j in range(len(poset)):
                if poset.leq[i, j]:
                    assert poset.annotation[i, j] in (1, 2)
                else:
                    assert poset.annotation[i, j] == 0


def test_alg_example_is_valid_and_disklike(alg_example):
    from transfer_systems.systems import is_disklike

    assert alg_example.edge_count == len(ALG_EXAMPLE_EDGES)
    assert is_disklike(alg_example)


def test_alg_example_annotations(alg_example, c36_site):
    # e1 = C3 -> C9 covers-fails into e2 = C6 -> C18; f1 = 1 -> C2 and
    # g1 = 1 -> C3 cover-succeed into f2 = 1 -> C6; e2 covers e3 = C12 -> C36.
    poset = restriction_poset(alg_example)
    e = lambda a, b: (c36_site.node(a), c36_site.node(b))
    e1, e2, e3 = e("C3", "C9"), e("C6", "C18"), e("C12", "C36")
    f1, g1, f2 = e("1", "C2"), e("1", "C3"), e("1", "C6")
    e1, e2, e3, f1, g1, f2 = (poset.nodes.index(x) for x in (e1, e2, e3, f1, g1, f2))
    assert poset.annotation[e1, e2] == FAILURE
    assert poset.covers[e1, e2]
    assert poset.annotation[f1, f2] == poset.annotation[g1, f2] == SUCCESS
    assert poset.covers[f1, f2]
    assert poset.covers[g1, f2]
    assert poset.covers[e2, e3]
    # e1, f1, g1 restrict onto nothing but themselves: they are minimal
    for minimal in (e1, f1, g1):
        assert poset.leq[:, minimal].sum() == 1


def test_cover_count_on_a_long_chain():
    # 0 -> 258 restricts onto 0 -> l for every l: a 258-element chain of
    # edges with 257 covers.  The pair at the two ends has exactly 256
    # elements between it, which a product counted modulo 256 misses.
    site = chain_site(259)
    assert restriction_poset(generate_from_edges(site, [(0, 258)])).cover_count == 257


def assert_matches_loop_forms(ts):
    """The NumPy poset, C_O and the unrolled recursion equal their loop forms."""
    poset = restriction_poset(ts)
    nodes, leq, annotation, covers = restriction_poset_by_loop(ts)
    assert count_cover_relations(ts) == covers.sum()
    assert poset.nodes == nodes
    assert np.array_equal(poset.leq, leq)
    assert np.array_equal(poset.annotation, annotation)
    assert np.array_equal(poset.covers, covers)
    assert not poset.covers.flags.writeable
    assert max_compat_recursive(ts).edges() == max_compat_by_recursion(poset)
    assert conjecture_formula(ts) == frozenset(
        e for j, e in enumerate(nodes)
        if all(annotation[i, j] == SUCCESS for i in range(len(nodes)) if i != j and leq[i, j])
    )


@pytest.mark.parametrize(
    "catalog_name",
    ["c12_catalog", "c36_catalog", "d4_catalog", "s3_catalog", "q8_catalog", "grid_catalog",
     "p5_catalog"],
)
def test_poset_and_recursion_match_loop_forms(catalog_name, request):
    for ts in request.getfixturevalue(catalog_name).systems:
        assert_matches_loop_forms(ts)


def test_loop_forms_on_trivial_and_long_chain(c6_site):
    assert_matches_loop_forms(trivial_ts(c6_site))
    # the 258-node chain of test_cover_count_on_a_long_chain
    assert_matches_loop_forms(generate_from_edges(chain_site(259), [(0, 258)]))


def test_conjecture_harness_builds_no_poset():
    # C_O and every M(O) read the site's matrices: after the CLI's imports and
    # a conjecture sweep, no transfer_systems.restriction module is loaded
    code = (
        "import sys, transfer_systems.cli\n"
        "from transfer_systems.enumeration import verify_conjecture\n"
        "from transfer_systems.sites import site_from_descriptor\n"
        "report = verify_conjecture([site_from_descriptor('symmetric:4')], 2)\n"
        "assert report.ok and report.systems_checked == 48, report.to_json()\n"
        "assert 'transfer_systems.restriction' not in sys.modules\n"
    )
    src = str(Path(transfer_systems.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_cover_counts_on_the_s4_conjecture_scope(s4_site):
    scope = disklike_systems(s4_site, 2)
    assert len(scope) == 48
    posets = [restriction_poset(ts) for ts in scope]
    assert all("covers" not in poset.__dict__ for poset in posets)
    for poset in posets:
        c_o = restriction_poset_by_loop(poset.owner)[3].sum()
        assert poset.cover_count == count_cover_relations(poset.owner) == c_o
        assert not poset.covers.flags.writeable
