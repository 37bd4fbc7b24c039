"""Command-line interface.

Subcommands: lattice, generate, check, maximal, enumerate, inflate,
fixed-points, reduce, conjecture, render, audit.  All computations are
deterministic; ``--seed`` is accepted for harness compatibility and ignored,
and ``--threads`` never changes any output byte.

Each subcommand body returns its text and a verdict; ``main`` writes the
text once, to ``--out`` or stdout, and maps the verdict to the exit code.

Exit codes: 0 success; 1 property/consistency failure (methods disagree,
conjecture counterexample, audit failure); 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import serialize
from .compat import (
    max_compat_disklike,
    max_compat_oracle,
    max_compat_recursive,
)
from .enumeration import (
    DEFAULT_ENUMERATION_CAP,
    cross_method_audit,
    enumerate_all,
    verify_conjecture,
)
from .errors import InputFileError, TransferSystemsError, UsageError
from .functors import fixed_points, inflate, quotient_context, universal_reduction
from .groups import DEFAULT_ORDER_CAP, small_group_descriptors
from .render import render_dot, render_tikz
from .sites import Site, check_descriptor, site_from_descriptor
from .systems import (
    BinaryRelation,
    TransferSystem,
    _labeled_edges,
    close_refl,
    complexity,
    count_cover_relations,
    generate,
    is_disklike,
    is_saturated,
    validate,
)

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2


def parse_edges(site: Site, text: str) -> list[tuple[int, int]]:
    """Parse ``SRC>DST`` edge tokens using node labels (see `lattice`).

    One pass: a comma, semicolon or whitespace outside ``<...>`` label
    brackets ends a token, and a token splits at its first ``>`` outside
    brackets.
    """
    tokens, depth, start, split = [], 0, 0, -1
    for i, ch in enumerate(text):
        if depth == 0 and (ch in ",;" or ch.isspace()):
            if i > start:
                tokens.append((start, split, i))
            start, split = i + 1, -1
        elif ch == "<":
            depth += 1
        elif ch == ">":
            if depth:
                depth -= 1
            elif split < 0:
                split = i
    if start < len(text):
        tokens.append((start, split, len(text)))
    edges = []
    for start, split, end in tokens:
        if split < 0:
            raise UsageError(f"edge {text[start:end]!r} must look like SRC>DST")
        edges.append((site.node(text[start:split]), site.node(text[split + 1 : end])))
    return edges


def _arrows(ts: TransferSystem) -> list[str]:
    """``SRC>DST`` per non-reflexive edge, in node order, in the labels of the system's site."""
    return [f"{a}>{b}" for a, b in _labeled_edges(ts.site, ts.rel)]


def _edge_lines(ts: TransferSystem) -> str:
    """One ``SRC>DST`` line per non-reflexive edge."""
    return "".join(e + "\n" for e in _arrows(ts))


def _site_descriptor(args) -> str:
    """The descriptor of the site that ``--group`` or ``--site`` names."""
    if args.group and args.site:
        raise UsageError("--group and --site exclude each other")
    if args.group:
        return args.group
    if args.site:
        return args.site if ":" in args.site or "|" in args.site else f"poset:{args.site}"
    raise UsageError("provide --group DESCRIPTOR or --site POSET-FILE")


def _load_site(args) -> Site:
    return site_from_descriptor(_site_descriptor(args), args.max_order)


def _load_system(args, site: Site) -> tuple[TransferSystem, BinaryRelation | None]:
    """The system that ``--edges`` or ``--input`` gives on the site.

    An edge list is closed, and the relation it lists comes second; a file
    is checked (see ``serialize.system_from_dict``), and None comes second.
    """
    if args.edges is not None and args.input:
        raise UsageError("--edges and --input exclude each other")
    if args.input:
        return serialize.read_system(args.input, site, args.max_order), None
    if args.edges is not None:
        listed = BinaryRelation.from_edges(site, parse_edges(site, args.edges))
        return generate(listed), listed
    raise UsageError("provide --edges \"SRC>DST ...\" or --input FILE.json")


def _write(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout if there is none.

    An unwritable path raises InputFileError naming it.
    """
    if not path:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputFileError(f"cannot write {path}: {exc}") from None


def _probe(path: str) -> None:
    """Fail now, as ``_write`` would later, if the output path is unwritable.

    Opens the path for appending, which fails with the same error as a
    write, and leaves no file behind that was not there before.
    """
    target = Path(path)
    existed = target.exists()
    try:
        with target.open("a"):
            pass
    except OSError as exc:
        raise InputFileError(f"cannot write {path}: {exc}") from None
    if not existed:
        target.unlink()


def _add_common(p: argparse.ArgumentParser, run, *, system_input: bool = False) -> None:
    """The options every subcommand takes, and ``run``, its body, for ``main`` to call."""
    p.set_defaults(run=run)
    p.add_argument("--group", help="group descriptor, e.g. cyclic:6, symmetric:3, q8")
    p.add_argument("--site", help="poset file for an abstract site")
    p.add_argument("--max-order", type=int, default=DEFAULT_ORDER_CAP,
                   help="group order cap (default %(default)s)")
    p.add_argument("--seed", type=int, help="accepted and ignored; runs are deterministic")
    p.add_argument("--threads", type=int, default=1,
                   help="worker hint; outputs are identical for any value")
    p.add_argument("--out", help="write output to a file instead of stdout")
    if system_input:
        p.add_argument("--edges", help="edge list like \"1>C2; C3>C6\" (closed to a system)")
        p.add_argument("--input", help="transfer-system JSON file")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="transys",
        description=(
            "Compute with transfer systems on subgroup lattices and abstract "
            "bounded lattices. Cayley tables are validated fully at every "
            "order."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="list subgroups/nodes with their labels")
    _add_common(p, _cmd_lattice)

    p = sub.add_parser("generate", help="close an edge list into a transfer system")
    _add_common(p, _cmd_generate, system_input=True)

    p = sub.add_parser("check", help="validate/saturated/disklike/complexity of a system")
    _add_common(p, _cmd_check, system_input=True)
    p.add_argument("--complexity-bound", type=int, default=4)

    p = sub.add_parser("maximal", help="maximal compatible transfer system M(O)")
    _add_common(p, _cmd_maximal, system_input=True)
    p.add_argument("--method", choices=["oracle", "recursive", "algorithm", "all"],
                   default="recursive")

    p = sub.add_parser("enumerate", help="enumerate all transfer systems on the site")
    _add_common(p, _cmd_enumerate)
    p.add_argument("--census", action="store_true", help="print census counts")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    p.add_argument("--jsonl", help="write the catalog as JSON-lines to a file")

    p = sub.add_parser("inflate", help="inflate a system on [N, G] to the whole group")
    _add_common(p, _cmd_inflate, system_input=True)
    p.add_argument("--normal", required=True, help="label of the normal subgroup N")

    p = sub.add_parser("fixed-points", help="restrict a system to the interval [N, G]")
    _add_common(p, _cmd_fixed_points, system_input=True)
    p.add_argument("--normal", required=True, help="label of the normal subgroup N")

    p = sub.add_parser("reduce", help="M(O) for disklike O via the quotient by N_O")
    _add_common(p, _cmd_reduce, system_input=True)

    p = sub.add_parser("conjecture", help="compare the conjectured formula with M(O)")
    _add_common(p, _cmd_conjecture)
    p.add_argument("--groups", help="comma-separated group descriptors")
    p.add_argument("--order-le", type=int,
                   help="use every built-in group of order at most this")
    p.add_argument("--complexity-bound", type=int,
                   help="generate disklike systems from at most this many top transfers")
    p.add_argument("--require-bottom-to-top", action="store_true",
                   help="only systems containing the universal transfer")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)

    p = sub.add_parser("render", help="emit DOT or TikZ for a system")
    _add_common(p, _cmd_render, system_input=True)
    p.add_argument("--format", choices=["dot", "tikz"], default="dot")
    p.add_argument("--highlight", choices=["none", "maximal"], default="none")
    p.add_argument("--interval-above", help="label of N; draw [N, G] as a cluster")

    p = sub.add_parser("audit", help="cross-method agreement over the full catalog")
    _add_common(p, _cmd_audit)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    return ap


# ---------------------------------------------------------------------------
# Subcommand bodies: each returns its output text, and False where a check fails


def _cmd_lattice(args) -> tuple[str, bool]:
    site = _load_site(args)
    lines = []
    if site.lattice is not None:
        latt = site.lattice
        lines.append(f"# {site.descriptor}: {len(latt)} subgroups")
        lines.append("index\tlabel\torder\tnormal\tmembers")
        for i, s in enumerate(latt.subgroups):
            members = ",".join(latt.group.element_names[a] for a in s.members)
            lines.append(
                f"{i}\t{site.labels[i]}\t{s.order}\t{'yes' if latt.normal[i] else 'no'}\t{{{members}}}"
            )
    else:
        lines.append(f"# {site.descriptor}: {site.size} nodes")
        lines.append("index\tlabel")
        for i in range(site.size):
            lines.append(f"{i}\t{site.labels[i]}")
    return "\n".join(lines) + "\n", True


def _cmd_generate(args) -> tuple[str, bool]:
    return _edge_lines(_load_system(args, _load_site(args))[0]), True


def _cmd_check(args) -> tuple[str, bool]:
    site = _load_site(args)
    ts, listed = _load_system(args, site)
    if listed is None:
        lines = ["input file: valid transfer system"]
    else:
        # reflexive edges are implicit in edge lists; diagnose the rest
        raw = validate(close_refl(listed))
        lines = [
            "input relation: already a transfer system"
            if isinstance(raw, TransferSystem)
            else f"input relation: not closed ({raw.axiom}: {raw.describe(site)})"
        ]
    sat = is_saturated(ts)
    if sat.saturated:
        lines.append("saturated: yes")
    else:
        l, k, h = sat.witness
        lines.append(
            f"saturated: no (witness L={site.labels[l]} K={site.labels[k]} H={site.labels[h]})"
        )
    lines.append(f"disklike: {'yes' if is_disklike(ts) else 'no'}")
    c = complexity(ts, args.complexity_bound)
    lines.append(f"complexity: {c if c is not None else f'> {args.complexity_bound}'}")
    lines.append(f"edges: {ts.edge_count}")
    lines.append(f"cover relations: {count_cover_relations(ts)}")
    return "\n".join(lines) + "\n", True


def _cmd_maximal(args) -> tuple[str, bool]:
    site = _load_site(args)
    ts, _ = _load_system(args, site)
    results = {}
    if args.method in ("oracle", "all"):
        results["oracle"] = max_compat_oracle(ts)
    if args.method in ("recursive", "all"):
        results["recursive"] = max_compat_recursive(ts)
    if args.method in ("algorithm", "all"):
        if args.method == "algorithm" or is_disklike(ts):
            results["algorithm"] = max_compat_disklike(ts).system
    values = list(results.values())
    agree = all(v == values[0] for v in values)
    lines = ["M(O) edges: " + (", ".join(_arrows(values[0])) or "(none)")]
    if args.method == "all":
        lines.append("methods agree" if agree else "METHODS DISAGREE")
        for name, v in results.items():
            if v != values[0]:
                lines.append(f"  {name}: " + ", ".join(_arrows(v)))
    return "\n".join(lines) + "\n", agree


def _cmd_enumerate(args) -> tuple[str, bool]:
    site = _load_site(args)
    catalog = enumerate_all(site, args.cap)
    out = []
    if args.census:
        out.append(catalog.stats.summary())
    else:
        out.append(f"total={len(catalog)}")
    if args.jsonl:
        _write(args.jsonl, serialize.dump_catalog(catalog))
        out.append(f"wrote {len(catalog)} systems to {args.jsonl}")
    return "\n".join(out) + "\n", True


def _quotient_from_args(args):
    site = _load_site(args)
    return quotient_context(site, site.node(args.normal))


def _cmd_inflate(args) -> tuple[str, bool]:
    ctx = _quotient_from_args(args)
    return _edge_lines(inflate(ctx, _load_system(args, ctx.interval_site)[0])), True


def _cmd_fixed_points(args) -> tuple[str, bool]:
    ctx = _quotient_from_args(args)
    return _edge_lines(fixed_points(ctx, _load_system(args, ctx.parent)[0])), True


def _cmd_reduce(args) -> tuple[str, bool]:
    return _edge_lines(universal_reduction(_load_system(args, _load_site(args))[0])), True


def _cmd_conjecture(args) -> tuple[str, bool]:
    if args.order_le and args.order_le > args.max_order:
        # cyclic:N alone would exceed the cap, after every smaller site was built
        raise UsageError(f"--order-le {args.order_le} exceeds --max-order {args.max_order}")
    if not (args.order_le or args.groups or args.group or args.site):
        raise UsageError("provide --groups, --group, --order-le, or --site")
    descs = small_group_descriptors(args.order_le) if args.order_le else []
    if args.groups:
        descs += [desc.strip() for desc in args.groups.split(",")]
    if args.group or args.site:
        descs.append(_site_descriptor(args))
    # a bad group descriptor or a missing poset file is refused before the first site is built
    for desc in descs:
        check_descriptor(desc, args.max_order)

    def sites():
        # one site at a time: each is built when the check reaches it
        for desc in descs:
            yield site_from_descriptor(desc, args.max_order)

    report = verify_conjecture(
        sites(), args.complexity_bound, args.require_bottom_to_top, args.cap
    )
    return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n", report.ok


def _cmd_render(args) -> tuple[str, bool]:
    site = _load_site(args)
    ts, _ = _load_system(args, site)
    highlight = max_compat_recursive(ts) if args.highlight == "maximal" else None
    cluster = None
    if args.interval_above:
        n = site.node(args.interval_above)
        cluster = [int(i) for i in np.flatnonzero(site.leq[n])]
    render = render_dot if args.format == "dot" else render_tikz
    return render(ts, highlight, cluster), True


def _cmd_audit(args) -> tuple[str, bool]:
    site = _load_site(args)
    catalog = enumerate_all(site, args.cap)
    report = cross_method_audit(catalog)
    return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n", report.ok


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        # each floor in turn; an option the subcommand lacks is skipped
        for name, floor in (("threads", 1), ("cap", 0), ("max_order", 1), ("order_le", 1)):
            value = getattr(args, name, None)
            if value is not None and value < floor:
                raise UsageError(f"--{name.replace('_', '-')} must be >= {floor}")
        # an unwritable output fails before the computation, not after it
        for path in (args.out, getattr(args, "jsonl", None)):
            if path:
                _probe(path)
        text, ok = args.run(args)
        _write(args.out, text)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TransferSystemsError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    return EXIT_OK if ok else EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
