"""Smoke test of the benchmark itself, on cyclic:6.

    python3 -m pytest bench/test_smoke.py

Runs a one-pass version of each workload kind on tiny inputs, untraced and
traced, and checks that every metric BENCHMARK.json declares is printed with
its unit under a well-formed name, and that a wrong pinned digest is
reported as a failure.
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_library()

import workloads  # noqa: E402
from transfer_systems import enumeration, functors, serialize, sites  # noqa: E402

DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _write_catalog(path: Path, site) -> Path:
    path.write_text(serialize.dump_catalog(enumeration.enumerate_all(site)))
    return path


@pytest.fixture(scope="module")
def factories(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("c6")
    site = sites.site_from_descriptor("cyclic:6")
    ctx = functors.quotient_context(site, site.node("C2"))
    catalog = _write_catalog(tmp / "c6.jsonl", site)
    interval = _write_catalog(tmp / "c6-above-C2.jsonl", ctx.interval_site)
    jsonl = ".bench_out/smoke-c6.jsonl"
    cases = [("lattice", ["lattice", "--group", "cyclic:6"], ()),
             ("enumerate", ["enumerate", "--group", "cyclic:6", "--jsonl", jsonl], (jsonl,))]
    return {
        "catalog": lambda tracer: workloads.Catalog(["cyclic:6"], ["cyclic:6"]),
        "audit": lambda tracer: workloads.Audit([("cyclic:6", catalog)],
                                                ("cyclic:6", "C2", interval)),
        "conjecture": lambda tracer: workloads.Conjecture([("cyclic:6", None)]),
        "cli-cold": lambda tracer: workloads.CliCold(cases, tracer),
    }


def _pin(name, factory) -> dict:
    """Summaries of one pass, used as the expected values of the tiny run."""
    result, detail = run.run(name, 0, 0, False, expected={}, factory=factory)
    assert result["failed"] == result["attempted"]
    return {f["task"]: f["got"] for f in detail["failures"]}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_declared_metric_is_printed(name, factories):
    expected = _pin(name, factories[name])
    if name == "catalog":
        assert expected["enumerate_all:cyclic:6"]["systems"] == 10  # |Tr(C6)|
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = run.run(name, 1, 0, trace, expected=expected, factory=factories[name])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == declared
        for key, metric in result["metrics"].items():
            assert NAME.fullmatch(key), key
            assert isinstance(metric["value"], (int, float)), key
        json.dumps(result, allow_nan=False)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_wrong_digest_is_a_failure(name, factories):
    expected = _pin(name, factories[name])
    task, summary = next((t, s) for t, s in sorted(expected.items())
                         if any("sha256" in k for k in s))
    key = next(k for k in summary if "sha256" in k)
    expected[task] = dict(summary, **{key: "0" * 64})
    result, detail = run.run(name, 1, 0, False, expected=expected, factory=factories[name])
    assert not result["correct"]
    assert result["failed"] == 1
    assert [f["task"] for f in detail["failures"]] == [task]
