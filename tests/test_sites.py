import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import GRID_TEXT, P5_TEXT, m_poset_text
from transfer_systems.errors import InputFileError, InternalCheckError, NotNormalError
from transfer_systems.groups import build_group, subgroup_lattice
from transfer_systems.sites import (
    _BMM_BLAS_MIN,
    Site,
    _bmm,
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
    assert site.kind == "group"


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


def test_action_must_be_closed_under_composition():
    # M3: bot < a, b, c < top.  {id, (a b c)} preserves the order but
    # leaves out the square of the 3-cycle, so it is not a group.
    names = ("bot", "a", "b", "c", "top")
    leq = np.eye(5, dtype=bool)
    leq[0, :] = leq[:, 4] = True
    cycle = np.array([0, 2, 3, 1, 4], dtype=np.int32)
    identity = np.arange(5, dtype=np.int32)
    with pytest.raises(InternalCheckError, match="closed under composition"):
        Site(leq, (identity, cycle), names, kind="abstract")
    site = Site(leq, (identity, cycle, cycle[cycle]), names, kind="abstract")
    assert site.orbit((0, 1)) == {(0, 1), (0, 2), (0, 3)}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_orbit_table_matches_loop_oracles(
    c12_site, d4_site, s3_site, q8_site, s4_site, grid_site, data
):
    site = data.draw(st.sampled_from([c12_site, d4_site, s3_site, q8_site, s4_site, grid_site]))
    edges = data.draw(st.lists(st.sampled_from(site.pairs), max_size=8))
    assert site.orbit_representatives(edges) == oracles.orbit_representatives_by_loop(site, edges)
    for e in edges[:2]:
        assert site.orbit(e) == oracles.orbit_by_loop(site, e)
    top_edges = [(h, site.top) for h in range(site.size) if h != site.top]
    subset = data.draw(st.lists(st.sampled_from(top_edges), unique=True, max_size=4))
    assert site.subset_orbit_key(subset) == oracles.subset_orbit_key_by_loop(site, subset)


@st.composite
def bool_operands(draw):
    """A pair of random bool operands of one of four shapes, sized on both
    sides of the BLAS crossover: square, non-square, vector-matrix, and a
    matrix times a transposed view."""
    m, k, n = (draw(st.integers(1, 2 * _BMM_BLAS_MIN)) for _ in range(3))
    kind = draw(st.sampled_from(["square", "rect", "vector", "transposed"]))
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
    return bits(m, k), bits(n, k).T


@settings(max_examples=300, deadline=None)
@given(bool_operands())
def test_bmm_matches_bool_matmul(operands):
    a, b = operands
    got = _bmm(a, b)
    assert got.dtype == bool
    assert np.array_equal(got, a @ b)


@pytest.mark.parametrize("ones", [256, 300])
def test_bmm_exact_at_large_counts(ones):
    # every entry sums `ones` terms; 300 is the all-True pair, 256 wraps to 0 in 8 bits
    a = np.ones((300, 300), dtype=bool)
    b = np.zeros((300, 300), dtype=bool)
    b[:ones] = True
    assert np.array_equal(_bmm(a, b), a @ b)


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
    got = _raised(lambda: Site(leq.copy(), identity, labels, kind="abstract"))
    assert got == want
    if want is None:
        site = Site(leq.copy(), identity, labels, kind="abstract")
        meet = site.meet
        assert meet.dtype == np.int32 and not meet.flags.writeable
        assert np.array_equal(meet, oracles.meet_table_by_pairs(leq, labels))
        assert site.pairs == tuple(
            (a, b) for a in range(n) for b in range(n) if a != b and leq[a, b]
        )
        assert all(type(v) is int for pair in site.pairs for v in pair)


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
    assert full.site.size == c12_site.size
    assert np.array_equal(full.site.leq, c12_site.leq)
    point = interval_above(c12_site, c12_site.top)
    assert point.site.size == 1


def test_interval_above_c6_in_c36(c36_site):
    iv = interval_above(c36_site, c36_site.node("C6"))
    assert iv.site.size == 4
    assert [c36_site.labels[i] for i in iv.to_parent] == ["C6", "C12", "C18", "C36"]
    # isomorphic to the divisor lattice of 6: diamond
    c6 = site_from_descriptor("cyclic:6")
    assert np.array_equal(iv.site.leq, c6.leq)


def test_interval_requires_normal(s3_site):
    non_normal = s3_site.node("<(12)>")
    with pytest.raises(NotNormalError):
        interval_above(s3_site, non_normal)


def test_interval_descriptor_round_trip(c12_site):
    iv = interval_above(c12_site, c12_site.node("C2"))
    rebuilt = site_from_descriptor(iv.site.descriptor)
    assert rebuilt.key == iv.site.key
