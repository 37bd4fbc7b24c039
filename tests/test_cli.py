import contextlib
import errno
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import P5_TEXT, labeled, m_poset_text
from transfer_systems import cli, sites
from transfer_systems.cli import main
from transfer_systems.compat import max_compat_recursive
from transfer_systems.errors import InternalCheckError, UsageError
from transfer_systems.groups import build_group, small_group_descriptors
from transfer_systems.systems import generate_from_edges, trivial_ts


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_maximal_all_methods(capsys):
    code, out, _ = run(capsys, "maximal", "--group", "cyclic:6", "--edges", "1>C6",
                       "--method", "all")
    assert code == 0
    assert "M(O) edges: 1>C2, 1>C3" in out
    assert "methods agree" in out


def test_generate_s3(capsys):
    code, out, _ = run(capsys, "generate", "--group", "symmetric:3",
                       "--edges", "<(12)>>S3")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 8
    assert "<(12)>>S3" in lines
    assert "<(123)>>S3" not in lines


def test_enumerate_census(capsys):
    code, out, _ = run(capsys, "enumerate", "--group", "cyclic:6", "--census")
    assert code == 0
    assert out.splitlines()[0] == "total=10 saturated=7 disklike=7 both=4"


def test_lattice_lists_labels(capsys):
    code, out, _ = run(capsys, "lattice", "--group", "symmetric:3")
    assert code == 0
    assert "<(12)>" in out and "S3" in out and out.count("\n") >= 7


def test_check_subcommand(capsys):
    code, out, _ = run(capsys, "check", "--group", "symmetric:3", "--edges", "<(12)>>S3")
    assert code == 0
    assert "saturated: no" in out and "<(123)>" in out
    assert "disklike: yes" in out
    assert "complexity: 1" in out


@pytest.mark.parametrize("group, edges, expected", [
    ("symmetric:3", "<(12)>>S3", [
        "input relation: not closed (conjugation: edge <(12)> -> S3 present but conjugate "
        "<(13)> -> S3 missing)",
        "saturated: no (witness L=1 K=<(123)> H=S3)",
        "disklike: yes", "complexity: 1", "edges: 8", "cover relations: 13"]),
    ("cyclic:12", "1>C4,C2>C6", [
        "input relation: not closed (restriction: edge 1 -> C4 restricted along C2 needs "
        "missing edge 1 -> C2)",
        "saturated: no (witness L=1 K=C2 H=C4)",
        "disklike: no", "complexity: 2", "edges: 5", "cover relations: 4"]),
    ("cyclic:4", "1>C2,C2>C4", [
        "input relation: not closed (composition: edges 1 -> C2 and C2 -> C4 compose to "
        "missing edge 1 -> C4)",
        "saturated: yes", "disklike: yes", "complexity: 2", "edges: 3", "cover relations: 1"]),
])
def test_check_names_each_witness_kind(capsys, group, edges, expected):
    code, out, _ = run(capsys, "check", "--group", group, "--edges", edges)
    assert code == 0
    assert out == "\n".join(expected) + "\n"


def test_check_reports_unclosed_input(capsys):
    code, out, _ = run(capsys, "check", "--group", "cyclic:6", "--edges", "1>C6")
    assert code == 0
    assert "not closed" in out


def test_inflate_and_fixed_points(capsys):
    code, out, _ = run(capsys, "inflate", "--group", "cyclic:12", "--normal", "C2",
                       "--edges", "C2>C4")
    assert code == 0
    assert "C2>C4" in out and "1>C3" not in out
    code, out, _ = run(capsys, "fixed-points", "--group", "cyclic:12", "--normal", "C2",
                       "--edges", "1>C2,1>C3,1>C6,C2>C6,C3>C6,1>C4,1>C12,C2>C4,C2>C12,C6>C12,C3>C12,C4>C12")
    assert code == 0
    assert "C2>C4" in out


def test_inflate_requires_a_system(capsys):
    code, out, err = run(capsys, "inflate", "--group", "cyclic:12", "--normal", "C2")
    assert code == 2 and out == ""
    assert err == 'error: provide --edges "SRC>DST ..." or --input FILE.json\n'


def test_reduce(capsys):
    code, out, _ = run(capsys, "reduce", "--group", "cyclic:6", "--edges", "1>C6")
    assert code == 0
    assert set(out.split()) == {"1>C2", "1>C3"}


def test_audit_clean(capsys):
    code, out, _ = run(capsys, "audit", "--group", "cyclic:6")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["total"] == 10


def test_conjecture_counterexample_exit_code(tmp_path, capsys):
    path = tmp_path / "p5.poset"
    path.write_text(P5_TEXT)
    code, out, _ = run(capsys, "conjecture", "--site", str(path))
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    assert len(report["counterexamples"]) == 1


def test_conjecture_positive(capsys):
    code, out, _ = run(capsys, "conjecture", "--groups", "cyclic:6,cyclic:12",
                       "--require-bottom-to-top")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_conjecture_group_adds_a_scope(capsys):
    code, out, _ = run(capsys, "conjecture", "--group", "cyclic:6")
    assert code == 0
    assert (code, out) == run(capsys, "conjecture", "--groups", "cyclic:6")[:2]
    code, out, err = run(capsys, "conjecture")
    assert code == 2 and out == ""
    assert err == "error: provide --groups, --group, --order-le, or --site\n"


@pytest.mark.parametrize("command", ["inflate", "fixed-points"])
def test_quotients_require_a_group_site(tmp_path, capsys, command):
    path = tmp_path / "p5.poset"
    path.write_text(P5_TEXT)
    code, out, err = run(capsys, command, "--site", str(path), "--normal", "bot",
                         "--edges", "A>top")
    assert code == 2 and out == ""
    assert err == "error: quotient contexts require a group subgroup lattice\n"


def test_render_dot(capsys):
    code, out, _ = run(capsys, "render", "--group", "cyclic:6", "--edges", "1>C6",
                       "--highlight", "maximal")
    assert code == 0
    assert out.startswith("digraph") and "bold" in out


def test_maximal_algorithm_requires_disklike(capsys):
    # {1>C2, 1>C3} has no transfer into the top, so it is not disklike
    code, _, err = run(capsys, "maximal", "--group", "cyclic:6", "--edges", "1>C2,1>C3",
                       "--method", "algorithm")
    assert code == 2
    assert "disklike" in err


def test_usage_errors(capsys):
    code, _, err = run(capsys, "generate", "--group", "cyclic:6", "--edges", "oops")
    assert code == 2
    code, _, err = run(capsys, "generate", "--group", "nope:1", "--edges", "1>C2")
    assert code == 2
    code, _, err = run(capsys, "generate", "--group", "cyclic:6")
    assert code == 2
    code, _, err = run(capsys, "maximal", "--group", "cyclic:6", "--edges", "1>C6",
                       "--threads", "0")
    assert code == 2
    assert err == "error: --threads must be >= 1\n"


@pytest.mark.parametrize("content", [None, "{not json", '{"edges": [["1"]]}'])
@pytest.mark.parametrize("command", [
    ["maximal", "--group", "cyclic:6"],
    ["inflate", "--group", "cyclic:12", "--normal", "C2"],
])
def test_bad_input_file_is_a_usage_error(tmp_path, capsys, command, content):
    path = tmp_path / "system.json"  # absent when content is None
    if content is not None:
        path.write_text(content)
    code, _, err = run(capsys, *command, "--input", str(path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_negative_cap_is_a_usage_error(capsys):
    code, out, err = run(capsys, "enumerate", "--group", "cyclic:6", "--cap", "-1")
    assert code == 2 and out == ""
    assert err == "error: --cap must be >= 0\n"


def test_negative_complexity_bound_is_a_usage_error(capsys):
    code, out, err = run(capsys, "conjecture", "--groups", "cyclic:6", "--complexity-bound", "-1")
    assert code == 2 and out == ""
    assert err == "error: complexity bound must be >= 0\n"


@pytest.mark.parametrize("desc", ["symmetric:-1", "alternating:-3", "dihedral:-2"])
def test_negative_group_parameter_is_a_usage_error(capsys, desc):
    code, out, err = run(capsys, "lattice", "--group", desc)
    assert code == 2 and out == ""
    assert err == f"error: {desc}: parameters must be integers >= 1\n"


@pytest.mark.parametrize("desc", ["symmetric:2000", "symmetric:10000000"])
def test_huge_group_order_is_a_usage_error(capsys, desc):
    code, out, err = run(capsys, "lattice", "--group", desc)
    assert code == 2 and out == ""
    assert err == f"error: {desc}: order exceeds cap 1000\n"


@pytest.mark.parametrize("argv", [["lattice"], ["conjecture"], ["enumerate"],
                                  ["generate", "--edges", "1>C2"]])
def test_group_and_site_exclude_each_other(tmp_path, capsys, argv):
    path = tmp_path / "p5.poset"
    path.write_text(P5_TEXT)
    code, out, err = run(capsys, *argv, "--group", "cyclic:2", "--site", str(path))
    assert code == 2 and out == ""
    assert err == "error: --group and --site exclude each other\n"


@pytest.mark.parametrize("argv", [["generate"], ["check"], ["maximal"], ["reduce"], ["render"],
                                  ["inflate", "--normal", "C2"], ["fixed-points", "--normal", "C2"]])
def test_edges_and_input_exclude_each_other(tmp_path, capsys, argv):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"site": "cyclic:6", "edges": [["1", "C2"]]}))
    code, out, err = run(capsys, *argv, "--group", "cyclic:6", "--edges", "1>C3",
                         "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "error: --edges and --input exclude each other\n"


def test_malformed_poset_file_names_line(tmp_path, capsys):
    path = tmp_path / "bad.poset"
    path.write_text("nodes: a b\ncover: a\n")
    code, _, err = run(capsys, "lattice", "--site", str(path))
    assert code == 2
    assert "line 2" in err


def test_poset_automorphisms_are_capped(tmp_path, capsys):
    # M7's auto: lines generate S7, with 5040 elements.
    path = tmp_path / "m7.poset"
    path.write_text(m_poset_text(7))
    start = time.perf_counter()
    code, out, err = run(capsys, "lattice", "--site", str(path))
    assert time.perf_counter() - start < 2.0
    assert code == 2 and out == ""
    assert err == f"error: poset:{path}: auto: lines: generated more than 1000 elements\n"


@pytest.mark.parametrize("cap", [6000, 5040, 5039])
def test_max_order_reaches_a_posets_auto_lines(tmp_path, capsys, cap):
    # S7 from M7's auto: lines builds under --max-order 5040 and above
    path = tmp_path / "m7.poset"
    path.write_text(m_poset_text(7))
    code, out, err = run(capsys, "lattice", "--site", str(path), "--max-order", str(cap))
    if cap >= 5040:
        assert (code, err) == (0, "")
        assert out.startswith(f"# poset:{path}: 9 nodes\n")
    else:
        assert (code, out) == (2, "")
        assert err == f"error: poset:{path}: auto: lines: generated more than 5039 elements\n"


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("family", ["cayley", "perms"])
def test_unreadable_group_file_is_a_usage_error(tmp_path, capsys, family, kind):
    path = tmp_path / "absent.txt" if kind == "missing" else tmp_path
    code, out, err = run(capsys, "lattice", "--group", f"{family}:{path}")
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read ") and err.count("\n") == 1
    assert str(path) in err
    assert "Traceback" not in err


def test_non_associative_cayley_table_above_order_256(tmp_path, capsys):
    # C1000 with one wrong entry: 5 * 7 = 13 instead of 12.
    n = 1000
    mul = (np.arange(n)[:, None] + np.arange(n)) % n
    mul[5, 7] = 13
    path = tmp_path / "c1000.cayley"
    path.write_text(f"{n}\n" + "\n".join(" ".join(map(str, row)) for row in mul.tolist()) + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "lattice", "--group", f"cayley:{path}")
    assert time.perf_counter() - start < 2.0
    assert code == 2 and out == ""
    assert err.startswith("error: cayley:") and err.count("\n") == 1
    assert "non-associative at (4,1,7): (xg)y=13 != x(gy)=12" in err


# Bad inputs, one per input-error branch: (id, argv, file text, message).
# "{f}" stands for the case's file, written with the text; a text of None
# leaves "{f}" naming a directory.
_EISDIR = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}"
_ENOENT = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}"
INPUT_ERRORS = [
    ("cayley-empty", ["lattice", "--group", "cayley:{f}"], "", "cayley:{f}: empty Cayley file"),
    ("cayley-token", ["lattice", "--group", "cayley:{f}"], "2\n0 1\n1 x\n",
     "cayley:{f}: non-integer token: invalid literal for int() with base 10: 'x'"),
    ("cayley-order-0", ["lattice", "--group", "cayley:{f}"], "0\n",
     "cayley:{f}: order must be positive"),
    ("cayley-over-cap", ["lattice", "--group", "cayley:{f}"], "1001\n",
     "cayley:{f}: order 1001 exceeds cap 1000"),
    ("cayley-entry-count", ["lattice", "--group", "cayley:{f}"], "2\n0 1\n1\n",
     "cayley:{f}: expected 4 entries, got 3"),
    ("cayley-entry-range", ["lattice", "--group", "cayley:{f}"], "2\n0 1\n1 2\n",
     "cayley:{f}: entries must be indices in 0..1"),
    ("cayley-identity", ["lattice", "--group", "cayley:{f}"], "2\n1 0\n0 1\n",
     "cayley:{f}: index 0 must be the identity element"),
    ("perms-empty", ["lattice", "--group", "perms:{f}"], "# nothing\n",
     "perms:{f}: no generators"),
    ("perms-unclosed", ["lattice", "--group", "perms:{f}"], "(1 2\n",
     "perms:{f}: line 1: unclosed cycle in '(1 2'"),
    ("perms-outside", ["lattice", "--group", "perms:{f}"], "x(1 2)\n",
     "perms:{f}: line 1: bad cycle notation near 'x(1 2)'"),
    ("perms-non-integer", ["lattice", "--group", "perms:{f}"], "(1 a)\n",
     "perms:{f}: line 1: bad cycle '(1 a)'"),
    ("perms-repeated", ["lattice", "--group", "perms:{f}"], "(1 2 1)\n",
     "perms:{f}: line 1: bad cycle '(1 2 1)'"),
    ("cayley-no-path", ["lattice", "--group", "cayley:"], None,
     "cayley: requires a file path"),
    ("poset-no-path", ["lattice", "--group", "poset:"], None,
     "poset: requires a file path"),
    ("poset-second-nodes", ["lattice", "--site", "{f}"], "nodes: a b\nnodes: a b\n",
     "poset:{f}: line 2: duplicate nodes: line"),
    ("poset-directive", ["lattice", "--site", "{f}"], "nodes: a b\nfoo: a\n",
     "poset:{f}: line 2: unknown directive 'foo'"),
    ("poset-no-nodes", ["lattice", "--site", "{f}"], "cover: a b\n",
     "poset:{f}: missing nodes: line"),
    ("poset-duplicate-names", ["lattice", "--site", "{f}"], "nodes: a a\n",
     "poset:{f}: duplicate node names"),
    ("poset-unknown-cover", ["lattice", "--site", "{f}"], "nodes: a b\ncover: a c\n",
     "poset:{f}: line 2: cover references unknown node 'c'"),
    ("poset-auto", ["lattice", "--site", "{f}"], "nodes: a b\ncover: a b\nauto: a a\n",
     "poset:{f}: auto: line must permute all node names: ['a', 'a']"),
    ("poset-no-top", ["lattice", "--site", "{f}"], "nodes: a b c\ncover: a b\ncover: a c\n",
     "poset:{f}: no unique top element"),
    ("poset-directory", ["lattice", "--site", "{f}"], None,
     "cannot read poset file {f}: " + _EISDIR + ": '{f}'"),
    ("input-without-edges", ["check", "--group", "cyclic:6", "--input", "{f}"],
     '{"site": "cyclic:6"}', "system JSON must have an 'edges' field"),
    ("lattice-without-site", ["lattice"], None,
     "provide --group DESCRIPTOR or --site POSET-FILE"),
    ("check-negative-bound", ["check", "--group", "cyclic:6", "--edges", "1>C2",
                              "--complexity-bound", "-1"], None,
     "complexity bound must be >= 0"),
    ("out-missing-directory", ["lattice", "--group", "cyclic:6", "--out", "{f}/no/x.txt"], None,
     "cannot write {f}/no/x.txt: " + _ENOENT + ": '{f}/no/x.txt'"),
    ("out-directory", ["lattice", "--group", "cyclic:6", "--out", "{f}"], None,
     "cannot write {f}: " + _EISDIR + ": '{f}'"),
    ("jsonl-missing-directory", ["enumerate", "--group", "cyclic:6", "--jsonl", "{f}/no/c.jsonl"],
     None, "cannot write {f}/no/c.jsonl: " + _ENOENT + ": '{f}/no/c.jsonl'"),
    ("jsonl-directory", ["enumerate", "--group", "cyclic:6", "--jsonl", "{f}"], None,
     "cannot write {f}: " + _EISDIR + ": '{f}'"),
    ("order-le-above-max-order", ["conjecture", "--order-le", "60", "--max-order", "50"], None,
     "--order-le 60 exceeds --max-order 50"),
    ("order-le-above-default-cap", ["conjecture", "--order-le", "1001"], None,
     "--order-le 1001 exceeds --max-order 1000"),
    # no group has order 0: refused, not ignored beside --groups
    ("order-le-0", ["conjecture", "--order-le", "0", "--groups", "cyclic:2"], None,
     "--order-le must be >= 1"),
    ("order-le-negative", ["conjecture", "--order-le", "-3"], None, "--order-le must be >= 1"),
    # no group or generated automorphism group has fewer than 1 element
    ("max-order-0-group", ["check", "--group", "cyclic:6", "--edges", "1>C2", "--max-order", "0"],
     None, "--max-order must be >= 1"),
    ("max-order-negative-group", ["lattice", "--group", "cyclic:6", "--max-order", "-3"], None,
     "--max-order must be >= 1"),
    ("max-order-0-poset", ["lattice", "--site", "{f}", "--max-order", "0"], P5_TEXT,
     "--max-order must be >= 1"),
    ("max-order-negative-poset", ["lattice", "--site", "{f}", "--max-order", "-3"], P5_TEXT,
     "--max-order must be >= 1"),
    # int("²") raises and int("١") is 1: only ASCII digits index nodes
    ("edges-superscript-digit", ["generate", "--group", "cyclic:6", "--edges", "²>C2"], None,
     "unknown node '²'; run the `lattice` subcommand to list labels"),
    ("normal-superscript-digit", ["inflate", "--group", "cyclic:6", "--normal", "²",
                                  "--edges", "C2>C6"], None,
     "unknown node '²'; run the `lattice` subcommand to list labels"),
    ("input-superscript-digit", ["generate", "--group", "cyclic:6", "--input", "{f}"],
     '{"site": "cyclic:6", "edges": [["²", "C2"]]}',
     "unknown node '²'; run the `lattice` subcommand to list labels"),
    ("edges-arabic-indic-digit", ["generate", "--group", "cyclic:6", "--edges", "١>C2"], None,
     "unknown node '١'; run the `lattice` subcommand to list labels"),
    ("cayley-entry-past-int32", ["lattice", "--group", "cayley:{f}"], "2\n0 1\n1 99999999999\n",
     "cayley:{f}: entries must be indices in 0..1"),
    ("perms-point-over-cap", ["lattice", "--group", "perms:{f}"], "(1 200000)\n",
     "perms:{f}: line 1: point 200000 exceeds cap 1000"),
    ("perms-point-over-max-order", ["lattice", "--group", "perms:{f}", "--max-order", "10"],
     "(1 2)\n(3 11)\n", "perms:{f}: line 2: point 11 exceeds cap 10"),
    ("input-on-another-site", ["check", "--group", "cyclic:6", "--input", "{f}"],
     '{"site": "symmetric:3", "edges": [["1", "C2"]]}',
     "system JSON site 'symmetric:3' is not the site 'cyclic:6'"),
    ("input-site-not-a-string", ["check", "--group", "cyclic:6", "--input", "{f}"],
     '{"site": 6, "edges": []}', "system JSON 'site' must be a descriptor string"),
    ("poset-over-node-cap", ["lattice", "--site", "{f}"],
     "nodes: " + " ".join(f"n{i}" for i in range(5001)) + "\n",
     "poset:{f}: 5001 nodes exceed cap 5000"),
    # the start system alone is over a cap of 0, with no level to run
    ("enumerate-cap-0-one-system", ["enumerate", "--group", "cyclic:1", "--cap", "0"], None,
     "enumeration cap 0 exceeded (partial count 1)"),
    # one file-read rule: Cayley, permutation, poset and system files
    ("input-directory", ["check", "--group", "cyclic:6", "--input", "{f}"], None,
     "cannot read system file {f}: " + _EISDIR + ": '{f}'"),
    ("cayley-directory", ["lattice", "--group", "cayley:{f}"], None,
     "cannot read Cayley file {f}: " + _EISDIR + ": '{f}'"),
    # the map of overlapping cycles is no permutation: refused at the line, naming the point
    ("perms-overlapping-cycles", ["lattice", "--group", "perms:{f}"], "(1 2)(2 3)\n",
     "perms:{f}: line 1: point 2 appears in two cycles"),
    # the parent of an interval is refused before S5 is built
    ("conjecture-bad-interval-parent", ["conjecture", "--groups", "symmetric:5,bogus|above:C2",
                                        "--complexity-bound", "2"], None,
     "unsupported descriptor 'bogus'"),
]


@pytest.mark.parametrize("argv, text, message", [case[1:] for case in INPUT_ERRORS],
                         ids=[case[0] for case in INPUT_ERRORS])
def test_input_error_exits_2_with_one_line(tmp_path, capsys, argv, text, message):
    path = tmp_path
    if text is not None:
        path = tmp_path / "input"
        path.write_text(text)
    code, out, err = run(capsys, *(arg.format(f=path) for arg in argv))
    assert (code, out) == (2, "")
    assert err == "error: " + message.format(f=path) + "\n"


def _s6_file_refused_before_its_lattice(tmp_path, capsys, monkeypatch, group):
    real = sites.subgroup_lattice

    def lattice(g):
        assert g.descriptor == group, f"built the lattice of {g.descriptor}"
        return real(g)

    monkeypatch.setattr(sites, "subgroup_lattice", lattice)
    path = tmp_path / "s6.json"
    path.write_text('{"site": "symmetric:6", "edges": []}')
    code, out, err = run(capsys, "check", "--group", group, "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: system JSON site 'symmetric:6' is not the site '{group}'\n"


def test_a_file_on_a_larger_group_builds_no_lattice_of_it(tmp_path, capsys, monkeypatch):
    # S6's lattice takes seconds: its order alone refuses the file
    _s6_file_refused_before_its_lattice(tmp_path, capsys, monkeypatch, "cyclic:6")


def test_a_file_on_a_group_of_the_same_order_builds_no_lattice_of_it(
    tmp_path, capsys, monkeypatch
):
    # C720 and S6 both have order 720, but only C720 has an element of
    # order 720: the sorted element orders refuse the file
    _s6_file_refused_before_its_lattice(tmp_path, capsys, monkeypatch, "cyclic:720")


@pytest.mark.parametrize("named", ["cyclic:1024", "Cyclic:1024"])
def test_a_file_past_the_default_cap_is_read_under_max_order(tmp_path, capsys, named):
    # a descriptor spelled unlike the site's is rebuilt under the site's
    # group order, not the default cap of 1000
    path = tmp_path / "c1024.json"
    path.write_text(json.dumps({"site": named, "edges": [["1", "C2"]]}))
    code, out, err = run(capsys, "check", "--group", "cyclic:1024", "--max-order", "2000",
                         "--input", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("input file: valid transfer system\n")


@pytest.mark.parametrize("group, named", [("cyclic:1024", "cyclic:1500"),
                                          ("cyclic:6", "symmetric:7")])
def test_a_file_on_a_group_over_the_cap_is_on_another_site(tmp_path, capsys, group, named):
    # a group larger than the site's cannot rebuild it: its cap error is a mismatch
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"site": named, "edges": []}))
    code, out, err = run(capsys, "check", "--group", group, "--max-order", "2000",
                         "--input", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: system JSON site {named!r} is not the site {group!r}\n"


def test_an_interval_file_past_the_default_cap_is_read_under_max_order(tmp_path, capsys):
    # every descriptor kind is rebuilt under --max-order, not the default cap
    path = tmp_path / "interval.json"
    path.write_text(json.dumps({"site": "Cyclic:1024|above:C2", "edges": [["C2", "C4"]]}))
    code, out, err = run(capsys, "check", "--group", "cyclic:1024|above:C2",
                         "--max-order", "2000", "--input", str(path))
    assert (code, err) == (0, "")
    assert out.startswith("input file: valid transfer system\n")


def test_an_interval_file_is_not_the_site_of_its_group(tmp_path, capsys):
    path = tmp_path / "interval.json"
    path.write_text(json.dumps({"site": "cyclic:1024|above:C2", "edges": []}))
    code, out, err = run(capsys, "check", "--group", "cyclic:1024", "--max-order", "2000",
                         "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "error: system JSON site 'cyclic:1024|above:C2' is not the site 'cyclic:1024'\n"


@pytest.mark.parametrize("cap", [24, 23])
def test_a_perms_group_of_exactly_the_cap_builds(tmp_path, capsys, cap):
    path = tmp_path / "s4.perms"
    path.write_text("(1 2)\n(1 2 3 4)\n")
    code, out, err = run(capsys, "lattice", "--group", f"perms:{path}", "--max-order", str(cap))
    if cap == 24:
        assert (code, err) == (0, "")
        assert out.startswith(f"# perms:{path}: 30 subgroups\n")
    else:
        assert (code, out) == (2, "")
        assert err == f"error: perms:{path}: generated more than 23 elements\n"


def test_a_poset_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.poset"
    path.write_bytes(b"\xff\xfe\x00nodes: a")
    code, out, err = run(capsys, "lattice", "--site", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: cannot read poset file {path}: 'utf-8' codec can't decode "
                   "byte 0xff in position 0: invalid start byte\n")


def test_order_le_above_max_order_builds_no_site(capsys, monkeypatch):
    def build(*args):
        raise AssertionError("a site was built")

    monkeypatch.setattr(cli, "site_from_descriptor", build)
    code, out, err = run(capsys, "conjecture", "--order-le", "60", "--max-order", "50",
                         "--groups", "cyclic:2")
    assert (code, out, err) == (2, "", "error: --order-le 60 exceeds --max-order 50\n")


def test_methods_that_disagree_exit_1_with_one_line_per_other_method(capsys, monkeypatch):
    site = sites.site_from_descriptor("cyclic:12")
    o = generate_from_edges(site, [(site.node("1"), site.node("C12"))])
    m = ", ".join(f"{a}>{b}" for a, b in labeled(max_compat_recursive(o)))
    monkeypatch.setattr(cli, "max_compat_oracle", lambda o: trivial_ts(o.site))
    code, out, err = run(capsys, "maximal", "--group", "cyclic:12", "--edges", "1>C12",
                         "--method", "all")
    assert (code, err) == (1, "")
    assert out == f"M(O) edges: (none)\nMETHODS DISAGREE\n  recursive: {m}\n  algorithm: {m}\n"


def test_an_internal_check_failure_exits_1_with_one_line(capsys, monkeypatch):
    def generate(listed):
        raise InternalCheckError("boom")

    monkeypatch.setattr(cli, "generate", generate)
    code, out, err = run(capsys, "generate", "--group", "cyclic:6", "--edges", "1>C2")
    assert (code, out, err) == (1, "", "inconsistency: boom\n")


def test_conjecture_builds_each_site_when_its_check_reaches_it(capsys, monkeypatch):
    events = []
    build, verify = cli.site_from_descriptor, cli.verify_conjecture

    def checked(sites):
        for site in sites:
            yield site
            events.append("checked " + site.descriptor)

    monkeypatch.setattr(cli, "site_from_descriptor",
                        lambda desc, cap: events.append(desc) or build(desc, cap))
    monkeypatch.setattr(cli, "verify_conjecture", lambda sites, *rest: verify(checked(sites), *rest))
    code, _, _ = run(capsys, "conjecture", "--groups", "cyclic:2,cyclic:3", "--group", "cyclic:4")
    assert code == 0
    assert events == ["cyclic:2", "checked cyclic:2", "cyclic:3", "checked cyclic:3",
                      "cyclic:4", "checked cyclic:4"]


@pytest.mark.parametrize("bad, err", [
    ("bogus", "error: unsupported descriptor 'bogus'\n"),
    ("cyclic:5000", "error: cyclic:5000: order exceeds cap 1000\n"),
    ("cyclic:x", "error: cyclic:x: parameters must be integers >= 1\n"),
    ("cayley:", "error: cayley: requires a file path\n"),
    ("bogus|above:C2", "error: unsupported descriptor 'bogus'\n"),
    ("cyclic:5000|above:C2|above:C4", "error: cyclic:5000: order exceeds cap 1000\n"),
])
def test_a_bad_descriptor_in_the_scope_builds_no_site(capsys, monkeypatch, bad, err):
    with pytest.raises(UsageError) as late:
        sites.site_from_descriptor(bad)
    assert err == f"error: {late.value}\n"

    def build(*args):
        raise AssertionError("a site was built")

    monkeypatch.setattr(cli, "site_from_descriptor", build)
    assert run(capsys, "conjecture", "--groups", f"cyclic:6,{bad}") == (2, "", err)
    assert run(capsys, "conjecture", "--groups", "cyclic:6", "--group", bad) == (2, "", err)


def test_a_missing_poset_file_in_the_scope_builds_no_site(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing.poset"
    err = f"error: cannot read poset file {missing}: {_ENOENT}: '{missing}'\n"

    def build(*args):
        raise AssertionError("a site was built")

    monkeypatch.setattr(cli, "site_from_descriptor", build)
    for bad in (f"poset:{missing}", f"poset:{missing}|above:a"):
        assert run(capsys, "conjecture", "--groups", f"cyclic:6,{bad}") == (2, "", err)
    assert run(capsys, "conjecture", "--groups", "cyclic:6", "--site", str(missing)) == (2, "", err)


def test_unwritable_jsonl_fails_before_the_enumeration(tmp_path, capsys, monkeypatch):
    def enumerate_all(*args):
        raise AssertionError("the catalog was enumerated")

    monkeypatch.setattr(cli, "enumerate_all", enumerate_all)
    code, out, err = run(capsys, "enumerate", "--group", "symmetric:4", "--jsonl", str(tmp_path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {tmp_path}: {_EISDIR}: '{tmp_path}'\n"


def test_the_output_probe_leaves_no_file_behind(tmp_path, capsys):
    out = tmp_path / "lattice.txt"
    code, _, err = run(capsys, "lattice", "--group", "bogus", "--out", str(out))
    assert (code, err) == (2, "error: unsupported descriptor 'bogus'\n")
    assert not out.exists()
    out.write_text("kept")
    code, _, _ = run(capsys, "lattice", "--group", "bogus", "--out", str(out))
    assert code == 2 and out.read_text() == "kept"


def test_lattice_of_a_poset_site(tmp_path, capsys):
    path = tmp_path / "p5.poset"
    path.write_text(P5_TEXT)
    code, out, _ = run(capsys, "lattice", "--site", str(path))
    assert code == 0
    assert out == (f"# poset:{path}: 5 nodes\nindex\tlabel\n"
                   "0\tbot\n1\tA\n2\tB\n3\tC\n4\ttop\n")


def test_render_interval_cluster(capsys):
    code, out, _ = run(capsys, "render", "--group", "cyclic:12", "--edges", "1>C12",
                       "--interval-above", "C2")
    assert code == 0
    cluster = ("  subgraph cluster_interval {\n"
               '    style=dashed; color=green; label="interval";\n'
               '    n1 [label="C2"];\n    n3 [label="C4"];\n'
               '    n4 [label="C6"];\n    n5 [label="C12"];\n  }\n'
               '  n0 [label="1"];\n  n2 [label="C3"];\n')
    assert cluster in out


def test_conjecture_over_small_orders(capsys):
    code, out, _ = run(capsys, "conjecture", "--order-le", "6")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True and report["systems_checked"] == 36
    assert report["scopes"] == ["cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4", "cyclic:5",
                                "cyclic:6", "product:2x2", "symmetric:3"]


def test_check_an_input_file(tmp_path, capsys):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"site": "cyclic:6", "edges": [["1", "C2"]]}))
    code, out, _ = run(capsys, "check", "--group", "cyclic:6", "--input", str(path))
    assert code == 0
    assert out.splitlines()[0] == "input file: valid transfer system"


def test_numeric_labels(capsys):
    code, out, _ = run(capsys, "generate", "--group", "cyclic:6", "--edges", "0>3")
    assert code == 0
    assert out == "1>C2\n1>C3\n1>C6\n"


def test_seed_and_threads_accepted(capsys):
    code, out1, _ = run(capsys, "enumerate", "--group", "cyclic:6", "--census",
                        "--seed", "7", "--threads", "4")
    assert code == 0
    code, out2, _ = run(capsys, "enumerate", "--group", "cyclic:6", "--census",
                        "--seed", "99", "--threads", "1")
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["lattice", "--group", "symmetric:3"],
    ["generate", "--group", "symmetric:3", "--edges", "<(12)>>S3"],
    ["maximal", "--group", "cyclic:6", "--edges", "1>C6", "--method", "all"],
    ["enumerate", "--group", "cyclic:12", "--census"],
    ["audit", "--group", "cyclic:6"],
    ["render", "--group", "cyclic:6", "--edges", "1>C6", "--highlight", "maximal"],
    ["check", "--group", "q8", "--edges", "<i>>Q8"],
])
def test_byte_identical_across_runs_and_threads(argv, capsys):
    outputs = set()
    for threads in ("1", "3"):
        for _ in range(2):
            code = main(argv + ["--threads", threads])
            outputs.add(capsys.readouterr().out)
            assert code == 0
    assert len(outputs) == 1


def test_the_module_runs_as_a_script(capsys):
    # python -m transfer_systems.cli runs main through the module's __main__ line
    argv = ["lattice", "--group", "cyclic:6"]
    expected = run(capsys, *argv)[1]
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "transfer_systems.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "out.dot"
    code = main(["render", "--group", "cyclic:6", "--edges", "1>C6", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text().startswith("digraph")


@pytest.mark.parametrize("argv, expected_code", [
    (["lattice", "--group", "symmetric:3"], 0),
    (["lattice", "--site", "{p5}"], 0),
    (["generate", "--group", "symmetric:3", "--edges", "<(12)>>S3"], 0),
    (["check", "--group", "cyclic:12", "--edges", "1>C4,C2>C6"], 0),
    (["maximal", "--group", "cyclic:6", "--edges", "1>C6", "--method", "all"], 0),
    (["maximal", "--group", "cyclic:12", "--edges", "1>C12", "--method", "all",
      "--disagree"], 1),
    (["enumerate", "--group", "cyclic:6", "--census"], 0),
    (["enumerate", "--group", "cyclic:6", "--jsonl", "{tmp}/catalog.jsonl"], 0),
    (["inflate", "--group", "cyclic:12", "--normal", "C2", "--edges", "C2>C4"], 0),
    (["fixed-points", "--group", "cyclic:12", "--normal", "C2", "--edges", "C2>C4"], 0),
    (["reduce", "--group", "cyclic:6", "--edges", "1>C6"], 0),
    (["conjecture", "--groups", "cyclic:6,symmetric:3"], 0),
    (["conjecture", "--site", "{p5}"], 1),
    (["render", "--group", "cyclic:12", "--edges", "1>C12", "--highlight", "maximal",
      "--interval-above", "C2"], 0),
    (["render", "--group", "symmetric:3", "--edges", "1>S3", "--format", "tikz"], 0),
    (["audit", "--group", "cyclic:6"], 0),
], ids=lambda v: "-".join(v) if isinstance(v, list) else None)
def test_out_file_holds_the_stdout_bytes_and_exit_code(tmp_path, capsys, monkeypatch,
                                                       argv, expected_code):
    (tmp_path / "p5.poset").write_text(P5_TEXT)
    argv = [a.format(p5=tmp_path / "p5.poset", tmp=tmp_path) for a in argv]
    if "--disagree" in argv:
        argv.remove("--disagree")
        monkeypatch.setattr(cli, "max_compat_oracle", lambda o: trivial_ts(o.site))
    code, out, err = run(capsys, *argv)
    assert (code, err) == (expected_code, "") and out
    target = tmp_path / "out.txt"
    assert run(capsys, *argv, "--out", str(target)) == (code, "", "")
    assert target.read_bytes() == out.encode()


def test_an_output_write_failing_after_its_probe_exits_2_with_one_line(tmp_path, capsys,
                                                                       monkeypatch):
    def write_text(self, text):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))

    target = tmp_path / "lattice.txt"
    monkeypatch.setattr(cli.Path, "write_text", write_text)
    code, out, err = run(capsys, "lattice", "--group", "cyclic:6", "--out", str(target))
    assert (code, out) == (2, "")
    assert err == (f"error: cannot write {target}: [Errno {errno.EACCES}] "
                   f"{os.strerror(errno.EACCES)}: '{target}'\n")


def test_enumerate_jsonl(tmp_path, capsys):
    target = tmp_path / "catalog.jsonl"
    code = main(["enumerate", "--group", "cyclic:6", "--jsonl", str(target)])
    capsys.readouterr()
    assert code == 0
    lines = target.read_text().strip().split("\n")
    assert len(lines) == 10


# ---------------------------------------------------------------------------
# bounded fuzz: any argv from a small grammar ends in 0, 1 or 2, never a traceback

EDGE_TOKENS = ["1>C2", "1>C6", "C3>C6", "<(12)>>S3", "1>S3", "C6>1", "X>Y", "oops", ">", "1>"]
SUBCOMMANDS = ["lattice", "generate", "check", "maximal", "enumerate", "inflate",
               "fixed-points", "reduce", "conjecture", "render", "audit"]
EXTRAS = {
    "check": [[], ["--complexity-bound", "2"]],
    "maximal": [[], ["--method", "all"], ["--method", "algorithm"]],
    "enumerate": [[], ["--census"]],
    "inflate": [[], ["--normal", "C2"], ["--normal", "C3"], ["--normal", "<(12)>"]],
    "fixed-points": [[], ["--normal", "C2"], ["--normal", "nope"]],
    "render": [[], ["--highlight", "maximal"], ["--format", "tikz"]],
}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "bad.json").write_text("{not json")
    return {"missing": str(root / "missing.json"), "bad": str(root / "bad.json"),
            "cayley": f"cayley:{root / 'missing.cayley'}"}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cli_fuzz_never_tracebacks(fuzz_files, data):
    command = data.draw(st.sampled_from(SUBCOMMANDS))
    group = data.draw(st.sampled_from(["cyclic:6", "symmetric:3", fuzz_files["cayley"]]))
    argv = [command, "--groups" if command == "conjecture" else "--group", group]
    argv += data.draw(st.sampled_from(EXTRAS.get(command, [[]])))
    edges = data.draw(st.none() | st.lists(st.sampled_from(EDGE_TOKENS), max_size=3))
    if edges is not None:
        argv += ["--edges", ",".join(edges)]
    source = data.draw(st.sampled_from([None, "missing", "bad"]))
    if source is not None:
        argv += ["--input", fuzz_files[source]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


# ---------------------------------------------------------------------------
# the one-pass edge scanner against the two-pass oracle


class _EchoSite:
    """Stands in for a site: every label names itself, so a parse shows its split."""

    @staticmethod
    def node(label):
        return label


def _parsed(parse, site, text):
    try:
        return parse(site, text)
    except UsageError as exc:
        return type(exc), str(exc)


SCANNER_PIECES = ["<", ">", ",", ";", " ", "\t", "1", "C2", "S4", "(12)", "(12)(34)", "²"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(SCANNER_PIECES), max_size=12).map("".join))
def test_edge_scanner_matches_the_two_pass_oracle(text):
    assert _parsed(cli.parse_edges, _EchoSite, text) == _parsed(
        oracles.parse_edges_in_two_passes, _EchoSite, text)


@pytest.mark.parametrize("text", [
    "<(12)(34),(13)(24)>>S4",
    "1><(12)(34),(13)(24)>; <(12)(34),(13)(24)>>S4",
    "<(12)>><(12)(34),(12)>  1>S4,",
    "<(12)(34),(13)(24)>",
    "1>S4 <(12)>>",
    "<(12)(34),(13)(24)>>S4>",
])
def test_edge_scanner_reads_bracketed_labels_like_the_oracle(s4_site, text):
    expected = _parsed(oracles.parse_edges_in_two_passes, s4_site, text)
    assert _parsed(cli.parse_edges, s4_site, text) == expected
    if text == "<(12)(34),(13)(24)>>S4":
        assert expected == [(s4_site.node("<(12)(34),(13)(24)>"), s4_site.top)]


# ---------------------------------------------------------------------------
# fuzz the system-input boundary: drawn labels in --edges and --normal, drawn
# JSON in --input; every run exits 0, 1 or 2 without raising, and exit 2
# prints exactly one "error: " line

FUZZ_LABELS = ["²", "1", "١", "0", "3", "6", "C2", "C3", "C6", "S3", "<(12)>", "<(123)>",
               "<", ">", "<>", "x", " ", ",", ";"]
_label = st.sampled_from(FUZZ_LABELS)
_labels = _label | st.lists(_label, max_size=6).map("".join)
_edge_list = st.lists(st.tuples(_label, _label).map(">".join) | _labels, max_size=3).map(",".join)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | _label,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6,
)
_site_field = st.sampled_from(["cyclic:6", "symmetric:3", "cyclic:3", " cyclic:6 ", "nope",
                               "cyclic:-1", "cyclic:6|above:C2"]) | _json
_edges_field = st.lists(st.lists(_label | _json, max_size=3), max_size=4) | _json
_system_json = st.fixed_dictionaries({}, optional={"site": _site_field, "edges": _edges_field}) | _json


@pytest.fixture(scope="module")
def system_path(tmp_path_factory):
    return tmp_path_factory.mktemp("system") / "system.json"


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_system_input_fuzz_exits_cleanly(system_path, data):
    command = data.draw(st.sampled_from(["generate", "check", "maximal", "inflate",
                                         "fixed-points", "reduce", "render"]))
    argv = [command, "--group", data.draw(st.sampled_from(["cyclic:6", "symmetric:3"]))]
    if command in ("inflate", "fixed-points"):
        argv.append("--normal=" + data.draw(_labels))
    if data.draw(st.booleans()):
        argv.append("--edges=" + data.draw(_edge_list))
    if data.draw(st.booleans()):
        system_path.write_text(json.dumps(data.draw(_system_json)))
        argv += ["--input", str(system_path)]
    _assert_exits_cleanly(argv)


def _assert_exits_cleanly(argv):
    """main(argv) exits 0, 1 or 2, and on exit 2 writes exactly one "error: " line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        text = err.getvalue()
        assert text.startswith("error: ") and text.count("\n") == 1 and text.endswith("\n"), argv


# ---------------------------------------------------------------------------
# fuzz the group and site readers: drawn perms: files, Cayley tables, poset
# files and descriptors through `lattice`; the same exit and stderr rule

_FUZZ_TABLES = [build_group(d).mul for d in small_group_descriptors(6)]
_cycle = st.lists(st.integers(1, 6), min_size=1, max_size=4).map(
    lambda pts: "(" + " ".join(map(str, pts)) + ")")
_perms_line = st.lists(_cycle, max_size=3).map("".join) | st.sampled_from(
    ["", "# comment", "()", "(0 1)", "(1 2)(2 3)", "(12)(34)", "(1 2", "x(1 2)", "(1 2) # note"])
_descriptor = st.builds(
    "{}{}{}".format,
    st.sampled_from(["cyclic", "product", "symmetric", "alternating", "dihedral", "dicyclic",
                     "q8", "Q8", "nope", ""]),
    st.sampled_from([":", "", "::"]),
    st.sampled_from(["", "0", "-1", "1", "2", "3", "4", "5", "x", "2x3", "2x2x2", "1.5", " 3"]),
)


@st.composite
def _cayley_text(draw):
    """A group table of order <= 6, relabeled with 0 kept, with up to two entries changed."""
    table = draw(st.sampled_from(_FUZZ_TABLES))
    n = len(table)
    relabel = np.array([0] + draw(st.permutations(range(1, n))))  # new index -> old
    mul = np.argsort(relabel)[table[np.ix_(relabel, relabel)]]
    for i, j, v in draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), max_size=2)):
        mul[i, j] = v
    header = draw(st.sampled_from([str(n)] * 4 + [str(n + 1), "0", "-1", "x"]))
    return "\n".join([header, *(" ".join(map(str, row)) for row in mul.tolist())]) + "\n"


@st.composite
def _poset_text(draw):
    """nodes: n0..n{k-1} (k <= 8), drawn covers (the bounds linked or not), auto: lines."""
    names = [f"n{i}" for i in range(draw(st.integers(1, 8)))]
    node = st.sampled_from(names)
    covers = draw(st.lists(st.tuples(node, node), max_size=8))
    if draw(st.booleans()):
        covers += [(names[0], v) for v in names[1:-1]] + [(v, names[-1]) for v in names[1:-1]]
    autos = draw(st.lists(st.permutations(names) | st.lists(node, max_size=3), max_size=2))
    lines = ["nodes: " + " ".join(names)] + [f"cover: {a} {b}" for a, b in covers]
    lines += ["auto: " + " ".join(a) for a in autos]
    lines += draw(st.lists(st.sampled_from(
        ["# comment", "", "cover: n0 zz", "cover: n0", "foo: n0", "nodes: n0"]), max_size=1))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_group_and_site_reader_fuzz_exits_cleanly(system_path, data):
    kind = data.draw(st.sampled_from(["perms", "cayley", "poset", "descriptor"]))
    path = system_path.with_name("reader-input")
    if kind == "perms":
        path.write_text("\n".join(data.draw(st.lists(_perms_line, max_size=3))) + "\n")
        argv = ["lattice", "--group", f"perms:{path}"]
    elif kind == "cayley":
        path.write_text(data.draw(_cayley_text()))
        argv = ["lattice", "--group", f"cayley:{path}"]
    elif kind == "poset":
        path.write_text(data.draw(_poset_text()))
        argv = ["lattice", "--site", str(path)]
    else:
        argv = ["lattice", "--group", data.draw(_descriptor)]
    _assert_exits_cleanly(argv + ["--max-order", "60"])  # S5 and S6 refused at the cap, not built
