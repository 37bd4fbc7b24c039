"""DOT and TikZ renderers for transfer systems: one figure, two syntaxes.

Conventions follow the printed figures: nodes are ranked by subgroup order,
reflexive arrows are omitted, order relations that are not transfers are
dotted, and a highlighted subsystem (typically M(O)) is drawn bold.  An
optional node cluster marks an interval such as [N, G].  ``_figure``
decides all of this once; ``render_dot`` and ``render_tikz`` only write it
out in their syntax.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .errors import UsageError
from .systems import TransferSystem, _require_same_site

# each arrow style of the figure in either syntax
_DOT_STYLE = {"bold": " [style=bold, color=blue]", "plain": "",
              "dotted": " [style=dotted, arrowhead=none]"}
_TIKZ_STYLE = {"bold": "->,very thick,blue", "plain": "->", "dotted": "dotted"}


def _figure(
    ts: TransferSystem, highlight: Optional[TransferSystem], cluster: Optional[Iterable[int]]
) -> tuple[list[list[int]], list[tuple[int, int, str]], list[int]]:
    """The figure of ts as (ranks, arrows, cluster nodes).

    ``ranks`` groups the nodes by subgroup order, or on an abstract site by
    the size of their down-set, lowest first and each in node order.
    ``arrows`` holds (source, target, style): every non-reflexive transfer
    in node order, "bold" where ``highlight`` holds it and "plain"
    elsewhere, then every cover of the site that is not a transfer,
    "dotted".  The cluster nodes are sorted and distinct.  A highlight on
    another site, or not contained in ts, raises a UsageError.
    """
    site = ts.site
    if highlight is not None:
        message = "highlight system must be contained in the rendered system"
        _require_same_site(highlight.site, site, message)
        if not highlight.le(ts):
            raise UsageError(message)
    held = highlight.rel if highlight is not None else np.zeros_like(ts.rel)
    if site.lattice is not None:
        order = [s.order for s in site.lattice.subgroups]
    else:
        order = site.leq.sum(axis=0).tolist()
    ranks: dict[int, list[int]] = {}
    for v, rank in enumerate(order):
        ranks.setdefault(rank, []).append(v)
    arrows = [(a, b, "bold" if held[a, b] else "plain") for a, b in ts.edges()]
    arrows += [(a, b, "dotted") for a, b in np.argwhere(site.covers & ~ts.rel).tolist()]
    nodes = sorted(set(cluster)) if cluster is not None else []
    return [ranks[k] for k in sorted(ranks)], arrows, nodes


def render_dot(
    ts: TransferSystem,
    highlight: Optional[TransferSystem] = None,
    cluster: Optional[Iterable[int]] = None,
) -> str:
    ranks, arrows, cluster = _figure(ts, highlight, cluster)
    lab = ts.site.labels
    lines = ['digraph "transfers" {', "  rankdir=BT;", '  node [shape=plaintext];']
    if cluster:
        lines.append("  subgraph cluster_interval {")
        lines.append('    style=dashed; color=green; label="interval";')
        for v in cluster:
            lines.append(f'    n{v} [label="{lab[v]}"];')
        lines.append("  }")
    for v in range(ts.site.size):
        if v not in cluster:
            lines.append(f'  n{v} [label="{lab[v]}"];')
    for rank in ranks:
        if len(rank) > 1:
            lines.append("  { rank=same; " + " ".join(f"n{v};" for v in rank) + " }")
    for a, b, style in arrows:
        lines.append(f"  n{a} -> n{b}{_DOT_STYLE[style]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_tikz(
    ts: TransferSystem,
    highlight: Optional[TransferSystem] = None,
    cluster: Optional[Iterable[int]] = None,
) -> str:
    ranks, arrows, cluster = _figure(ts, highlight, cluster)
    lab = ts.site.labels
    lines = ["\\begin{tikzpicture}[every node/.style={inner sep=1pt}]"]
    for depth, rank in enumerate(ranks):
        for col, v in enumerate(rank):
            x = 2.0 * col - (len(rank) - 1)
            mark = "draw=green,dashed" if v in cluster else ""
            lines.append(f"  \\node[{mark}] (n{v}) at ({x:.1f},{depth:.1f}) {{{lab[v]}}};")
    for a, b, style in arrows:
        lines.append(f"  \\draw[{_TIKZ_STYLE[style]}] (n{a}) -- (n{b});")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"
