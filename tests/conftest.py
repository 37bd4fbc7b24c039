import numpy as np
import pytest

from transfer_systems import (
    Site,
    enumerate_all,
    generate_from_edges,
    site_from_descriptor,
)
from transfer_systems.sites import parse_poset_text

# The 5-node bounded lattice with a pendant chain: bot < A < top and
# bot < C < B < top, A incomparable to B and C.
P5_TEXT = """\
nodes: bot A B C top
cover: bot A
cover: bot C
cover: C B
cover: B top
cover: A top
"""

# The 3x3 grid (product of two 3-chains); the automorphism swaps the factors.
GRID_TEXT = """\
nodes: 00 01 02 10 11 12 20 21 22
cover: 00 01
cover: 01 02
cover: 10 11
cover: 11 12
cover: 20 21
cover: 21 22
cover: 00 10
cover: 10 20
cover: 01 11
cover: 11 21
cover: 02 12
cover: 12 22
auto: 00 10 20 01 11 21 02 12 22
"""


def m_poset_text(k):
    """M_k: a bottom, k atoms and a top, with auto: lines generating S_k.

    The two automorphisms swap the first two atoms and cycle all k.
    """
    atoms = [f"a{i}" for i in range(k)]
    lines = [f"nodes: bot {' '.join(atoms)} top"]
    lines += [f"cover: bot {a}\ncover: {a} top" for a in atoms]
    lines.append(f"auto: bot {' '.join([atoms[1], atoms[0]] + atoms[2:])} top")
    lines.append(f"auto: bot {' '.join(atoms[1:] + atoms[:1])} top")
    return "\n".join(lines) + "\n"


def chain_site(n):
    """The chain 0 < 1 < ... < n-1 with the trivial action."""
    idx = np.arange(n)
    return Site(
        leq=np.triu(np.ones((n, n), dtype=bool)),
        action=(idx.astype(np.int32),),
        labels=tuple(str(i) for i in range(n)),
    )


def edges_by_label(site, pairs):
    return [(site.node(a), site.node(b)) for a, b in pairs]


def system_from_labels(site, pairs):
    ts = generate_from_edges(site, edges_by_label(site, pairs))
    assert sorted(ts.edges()) == sorted(edges_by_label(site, pairs)), (
        "label edge list is expected to already be transfer-closed"
    )
    return ts


def labeled(ts):
    lab = ts.site.labels
    return sorted((lab[a], lab[b]) for a, b in ts.edges())


@pytest.fixture(scope="session")
def c6_site():
    return site_from_descriptor("cyclic:6")


@pytest.fixture(scope="session")
def c12_site():
    return site_from_descriptor("cyclic:12")


@pytest.fixture(scope="session")
def c36_site():
    return site_from_descriptor("cyclic:36")


@pytest.fixture(scope="session")
def s3_site():
    return site_from_descriptor("symmetric:3")


@pytest.fixture(scope="session")
def q8_site():
    return site_from_descriptor("q8")


@pytest.fixture(scope="session")
def d4_site():
    return site_from_descriptor("dihedral:4")


@pytest.fixture(scope="session")
def s4_site():
    return site_from_descriptor("symmetric:4")


@pytest.fixture(scope="session")
def p5_site():
    return parse_poset_text(P5_TEXT, descriptor="poset:P5")


@pytest.fixture(scope="session")
def grid_site():
    return parse_poset_text(GRID_TEXT, descriptor="poset:GRID")


@pytest.fixture(scope="session")
def c6_catalog(c6_site):
    return enumerate_all(c6_site)


@pytest.fixture(scope="session")
def c12_catalog(c12_site):
    return enumerate_all(c12_site)


@pytest.fixture(scope="session")
def c36_catalog(c36_site):
    return enumerate_all(c36_site)


@pytest.fixture(scope="session")
def s3_catalog(s3_site):
    return enumerate_all(s3_site)


@pytest.fixture(scope="session")
def q8_catalog(q8_site):
    return enumerate_all(q8_site)


@pytest.fixture(scope="session")
def d4_catalog(d4_site):
    return enumerate_all(d4_site)


@pytest.fixture(scope="session")
def s4_catalog(s4_site):
    return enumerate_all(s4_site)


@pytest.fixture(scope="session")
def grid_catalog(grid_site):
    return enumerate_all(grid_site)


@pytest.fixture(scope="session")
def p5_catalog(p5_site):
    return enumerate_all(p5_site)


FIG1_EDGES = {
    "a": [("1", "C2"), ("1", "C3"), ("1", "C6"), ("C2", "C6"), ("C3", "C6")],
    "b": [("1", "C2"), ("1", "C3"), ("1", "C6"), ("C3", "C6")],
    "c": [("1", "C2"), ("1", "C3"), ("1", "C6"), ("C2", "C6")],
    "d": [("1", "C2"), ("1", "C3"), ("1", "C6")],
    "e": [("1", "C2"), ("C3", "C6")],
    "f": [("1", "C3"), ("C2", "C6")],
    "g": [("1", "C2"), ("1", "C3")],
    "h": [("1", "C2")],
    "i": [("1", "C3")],
    "j": [],
}


@pytest.fixture(scope="session")
def fig1(c6_site):
    """The ten C_pq transfer systems, keyed by their printed names."""
    return {name: system_from_labels(c6_site, pairs) for name, pairs in FIG1_EDGES.items()}
