"""DOT and TikZ renderers for transfer systems.

Conventions follow the printed figures: nodes are ranked by subgroup order,
reflexive arrows are omitted, order relations that are not transfers are
dotted, and a highlighted subsystem (typically M(O)) is drawn bold.  An
optional node cluster marks an interval such as [N, G].
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .errors import UsageError
from .systems import TransferSystem, _require_same_site


def _check_highlight(ts: TransferSystem, highlight: Optional[TransferSystem]) -> None:
    if highlight is not None:
        message = "highlight system must be contained in the rendered system"
        _require_same_site(highlight.site, ts.site, message)
        if not highlight.le(ts):
            raise UsageError(message)


def _rank_groups(ts: TransferSystem) -> list[list[int]]:
    site = ts.site
    if site.lattice is not None:
        order = [s.order for s in site.lattice.subgroups]
    else:
        # rank abstract nodes by the size of their down-set |down(v)|
        order = [int(site.leq[:, v].sum()) for v in range(site.size)]
    ranks: dict[int, list[int]] = {}
    for v in range(site.size):
        ranks.setdefault(order[v], []).append(v)
    return [ranks[k] for k in sorted(ranks)]


def render_dot(
    ts: TransferSystem,
    highlight: Optional[TransferSystem] = None,
    cluster: Optional[Iterable[int]] = None,
) -> str:
    _check_highlight(ts, highlight)
    site = ts.site
    lab = site.labels
    lines = ['digraph "transfers" {', "  rankdir=BT;", '  node [shape=plaintext];']
    cluster_nodes = sorted(set(cluster)) if cluster is not None else []
    if cluster_nodes:
        lines.append("  subgraph cluster_interval {")
        lines.append('    style=dashed; color=green; label="interval";')
        for v in cluster_nodes:
            lines.append(f'    n{v} [label="{lab[v]}"];')
        lines.append("  }")
    for v in range(site.size):
        if v not in cluster_nodes:
            lines.append(f'  n{v} [label="{lab[v]}"];')
    for group in _rank_groups(ts):
        if len(group) > 1:
            lines.append("  { rank=same; " + " ".join(f"n{v};" for v in group) + " }")
    for a, b in ts.edges():
        if highlight is not None and highlight.rel[a, b]:
            lines.append(f"  n{a} -> n{b} [style=bold, color=blue];")
        else:
            lines.append(f"  n{a} -> n{b};")
    for a, b in np.argwhere(site.covers & ~ts.rel).tolist():
        lines.append(f"  n{a} -> n{b} [style=dotted, arrowhead=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_tikz(
    ts: TransferSystem,
    highlight: Optional[TransferSystem] = None,
    cluster: Optional[Iterable[int]] = None,
) -> str:
    _check_highlight(ts, highlight)
    site = ts.site
    lab = site.labels
    lines = ["\\begin{tikzpicture}[every node/.style={inner sep=1pt}]"]
    cluster_nodes = set(cluster) if cluster is not None else set()
    for depth, group in enumerate(_rank_groups(ts)):
        for col, v in enumerate(sorted(group)):
            x = 2.0 * col - (len(group) - 1)
            mark = ",draw=green,dashed" if v in cluster_nodes else ""
            lines.append(f"  \\node[{mark.strip(',')}] (n{v}) at ({x:.1f},{depth:.1f}) {{{lab[v]}}};")
    for a, b in ts.edges():
        style = "very thick,blue" if highlight is not None and highlight.rel[a, b] else "->"
        arrow = "->" if style == "->" else f"->,{style}"
        lines.append(f"  \\draw[{arrow}] (n{a}) -- (n{b});")
    for a, b in np.argwhere(site.covers & ~ts.rel).tolist():
        lines.append(f"  \\draw[dotted] (n{a}) -- (n{b});")
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"
