import numpy as np
import pytest

from conftest import chain_site
from oracles import render_dot_by_loops, render_tikz_by_loops
from transfer_systems import enumerate_all, site_from_descriptor
from transfer_systems.compat import max_compat_recursive
from transfer_systems.errors import MismatchedSitesError, UsageError
from transfer_systems.render import render_dot, render_tikz
from transfer_systems.systems import complete_ts, trivial_ts


def test_trivial_system_renders_nodes_only(c6_site):
    dot = render_dot(trivial_ts(c6_site))
    assert dot.count(" -> ") == dot.count("style=dotted")  # only dotted order edges
    for label in c6_site.labels:
        assert f'"{label}"' in dot


def test_fig1_complete_has_five_solid_edges(c6_site):
    dot = render_dot(complete_ts(c6_site))
    solid = [ln for ln in dot.splitlines() if " -> " in ln and "dotted" not in ln]
    assert len(solid) == 5


def test_reflexive_edges_omitted(c6_site):
    dot = render_dot(complete_ts(c6_site))
    for v in range(c6_site.size):
        assert f"n{v} -> n{v}" not in dot


def test_highlight_styles_maximal(fig1):
    d = fig1["d"]
    dot = render_dot(d, highlight=max_compat_recursive(d))
    bold = [ln for ln in dot.splitlines() if "bold" in ln]
    assert len(bold) == 2  # M(d) = {1->C2, 1->C3}


def test_highlight_must_be_contained(fig1):
    with pytest.raises(UsageError):
        render_dot(fig1["h"], highlight=fig1["g"])


def test_interval_cluster(c12_site):
    ts = complete_ts(c12_site)
    nodes = [int(i) for i in np.flatnonzero(c12_site.leq[c12_site.node("C2")])]
    dot = render_dot(ts, cluster=nodes)
    assert "subgraph cluster_interval" in dot
    assert "dashed" in dot and "green" in dot


def test_nodes_ranked_by_order(s3_site):
    dot = render_dot(trivial_ts(s3_site))
    assert dot.count("rank=same") == 1  # the three order-2 subgroups share a rank
    (line,) = [ln for ln in dot.splitlines() if "rank=same" in ln]
    assert all(f"n{v};" in line for v in (1, 2, 3))


def test_render_deterministic(fig1):
    a = render_dot(fig1["b"], highlight=max_compat_recursive(fig1["b"]))
    b = render_dot(fig1["b"], highlight=max_compat_recursive(fig1["b"]))
    assert a == b


def test_tikz_smoke(fig1, p5_site):
    out = render_tikz(fig1["d"])
    assert out.startswith("\\begin{tikzpicture}") and out.rstrip().endswith("\\end{tikzpicture}")
    from transfer_systems.systems import generate_from_edges

    o = generate_from_edges(p5_site, [(p5_site.node("A"), p5_site.node("top"))])
    assert "\\draw" in render_tikz(o, cluster=[p5_site.node("A"), p5_site.node("top")])


@pytest.mark.parametrize("n", [258, 259])
def test_cover_pairs_on_long_chains(n):
    # pairs with exactly 256 nodes between them are not covers
    covers = chain_site(n).covers
    assert np.argwhere(covers).tolist() == [[i, i + 1] for i in range(n - 1)]


@pytest.mark.parametrize("site", ["cyclic:6", "cyclic:12", "symmetric:3", "dihedral:4",
                                  "product:2x2", "alternating:4", "p5_site", "grid_site"])
def test_renders_match_the_reference_byte_for_byte(site, request):
    # every 40th system, with and without M(O) bold, with no cluster, [N, top] for every N,
    # or every other node listed twice from the top down
    site = request.getfixturevalue(site) if site.endswith("_site") else site_from_descriptor(site)
    clusters = [None] + [np.flatnonzero(site.leq[v]).tolist() for v in range(site.size)]
    clusters.append(list(range(site.size))[::-2] * 2)
    systems = enumerate_all(site).systems[::40]
    for ts in systems:
        for highlight in (None, max_compat_recursive(ts)):
            for cluster in clusters:
                assert render_dot(ts, highlight, cluster) == render_dot_by_loops(ts, highlight, cluster)
                assert render_tikz(ts, highlight, cluster) == render_tikz_by_loops(ts, highlight, cluster)


@pytest.mark.parametrize("draw", [render_dot, render_tikz, render_dot_by_loops, render_tikz_by_loops])
def test_a_bad_highlight_is_refused_as_by_the_reference(draw, fig1, s3_site):
    for highlight, error in [(fig1["g"], UsageError), (trivial_ts(s3_site), MismatchedSitesError)]:
        with pytest.raises(error, match="^highlight system must be contained"):
            draw(fig1["h"], highlight)
