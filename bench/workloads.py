"""The benchmark's workloads: fixed inputs, a timed pass, and pinned outputs.

A workload builds its inputs in ``setup`` (untimed) and returns the tasks of
one pass; ``seeded`` says whether the run's seed shuffles them.  Each task
is one call into the library, or one CLI process; its ``summarize`` turns
the result into the values pinned in ``expected.json`` and runs after the
pass, outside the timed region.  Set-up builds every
object a pass uses afresh, so no per-system cache (such as the cached
restriction poset) survives from one pass into the next.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from transfer_systems import enumeration, functors, serialize, sites, systems

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DATA = BENCH / "data"
OUT = ROOT / ".bench_out"


def sha256(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def edge_lines(results) -> str:
    """One line per system: its labelled edges, in result order."""
    lines = []
    for ts in results:
        lab = ts.site.labels
        lines.append(" ".join(f"{lab[a]}>{lab[b]}" for a, b in ts.edges()))
    return "\n".join(lines) + "\n"


def pinned(expected: dict, task: str, key: str) -> int:
    """A pinned count, used as the task's item count (0 before pinning)."""
    return expected.get(task, {}).get(key, 0)


@dataclass
class Task:
    name: str
    call: Callable[[], Any]
    summarize: Callable[[Any], dict]
    items: int  # systems produced, audited or checked; 1 for a CLI process


class Catalog:
    """Write path: the closure kernel on nearly closed relations, via BFS."""

    name = "catalog"
    seeded = False

    def __init__(self, enumerate_sites, disklike_sites):
        self.enumerate_sites = tuple(enumerate_sites)
        self.disklike_sites = tuple(disklike_sites)

    def setup(self):
        return {d: sites.site_from_descriptor(d)
                for d in self.enumerate_sites + self.disklike_sites}

    def tasks(self, built, expected):
        def catalog_summary(cat):
            return {"systems": len(cat), "sha256": sha256(serialize.dump_catalog(cat))}

        out = [Task(f"enumerate_all:{d}", lambda s=built[d]: enumeration.enumerate_all(s),
                    catalog_summary, pinned(expected, f"enumerate_all:{d}", "systems"))
               for d in self.enumerate_sites]
        for d in self.disklike_sites:
            site = built[d]
            out.append(Task(
                f"disklike_systems:{d}",
                lambda s=site: enumeration.TransferSystemCatalog(s, enumeration.disklike_systems(s)),
                catalog_summary, pinned(expected, f"disklike_systems:{d}", "systems")))
        return out


class Audit:
    """Read path over fixed catalogs loaded from JSON-lines in set-up."""

    name = "audit"
    seeded = False

    def __init__(self, catalogs, quotient):
        self.catalogs = tuple(catalogs)  # (descriptor, JSON-lines file)
        self.quotient = quotient  # (descriptor, normal label, interval JSON-lines file)

    @staticmethod
    def _load(path: Path, site):
        return [serialize.load_system(line, site) for line in path.read_text().splitlines()]

    def setup(self):
        built = {}
        for desc, path in self.catalogs:
            site = sites.site_from_descriptor(desc)
            built[desc] = enumeration.TransferSystemCatalog(site, self._load(path, site))
        desc, normal, path = self.quotient
        parent = built[desc].site
        ctx = functors.quotient_context(parent, parent.node(normal))
        built["quotient"] = (ctx, built[desc].systems, self._load(path, ctx.interval_site))
        return built

    def tasks(self, built, expected):
        def census_summary(stats):
            return {"census": [stats.total, stats.saturated, stats.disklike, stats.both]}

        def audit_summary(report):
            text = json.dumps(report.to_json(), indent=2, sort_keys=True)
            return {"ok": report.ok, "max_step_ratio": report.max_step_ratio,
                    "step_ratio_at_most_1": report.max_step_ratio <= 1, "sha256": sha256(text)}

        def systems_summary(results):
            return {"systems": len(results), "sha256": sha256(edge_lines(results))}

        def reduce_all(cat):
            return [functors.universal_reduction(ts) for ts in cat.systems
                    if systems.is_disklike(ts)]

        out = []
        for desc, _ in self.catalogs:
            cat = built[desc]
            out += [
                Task(f"census:{desc}", lambda c=cat: enumeration.census(c), census_summary,
                     len(cat)),
                Task(f"cross_method_audit:{desc}", lambda c=cat: enumeration.cross_method_audit(c),
                     audit_summary, 0),
                Task(f"universal_reduction:{desc}", lambda c=cat: reduce_all(c), systems_summary, 0),
            ]
        ctx, members, interval = built["quotient"]
        tag = f"{self.quotient[0]}/{self.quotient[1]}"
        out += [
            Task(f"fixed_points:{tag}",
                 lambda: [functors.fixed_points(ctx, ts) for ts in members], systems_summary, 0),
            Task(f"inflate:{tag}",
                 lambda: [functors.inflate(ctx, ts) for ts in interval], systems_summary, 0),
        ]
        return out


class Conjecture:
    """The conjecture harness on large sites: restriction posets dominate."""

    name = "conjecture"
    seeded = False

    def __init__(self, scopes):
        self.scopes = tuple(scopes)  # (descriptor, complexity bound)

    def setup(self):
        return {d: sites.site_from_descriptor(d) for d, _ in self.scopes}

    def tasks(self, built, expected):
        def summary(report):
            text = json.dumps(report.to_json(), indent=2, sort_keys=True)
            return {"systems_checked": report.systems_checked, "ok": report.ok,
                    "sha256": sha256(text)}

        return [Task(f"verify_conjecture:{d}:{k}",
                     lambda s=built[d], k=k: enumeration.verify_conjecture([s], k), summary,
                     pinned(expected, f"verify_conjecture:{d}:{k}", "systems_checked"))
                for d, k in self.scopes]


@dataclass
class CliRun:
    code: int
    stdout: bytes
    stderr: bytes
    files: dict


class CliCold:
    """Fresh CLI processes, one at a time: start-up, parsing, output.

    Set-up is one cold ``import transfer_systems.cli`` process, the fixed
    cost every command pays.  With the tracer enabled each command runs
    through ``cli_traced.py``, which records the same spans in the child.
    """

    name = "cli-cold"
    seeded = True  # the seed shuffles the commands of each round
    PROBE_REFERENCE_S = 0.2  # median `python -c "import numpy"` time on the reference VM

    def __init__(self, cases, tracer):
        self.cases = tuple(cases)  # (case id, argv, files the command writes)
        self.tracer = tracer
        self.exit_nonzero = 0

    @staticmethod
    def env():
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def setup(self):
        OUT.mkdir(exist_ok=True)
        proc = subprocess.run([sys.executable, "-c", "import transfer_systems.cli"],
                              cwd=ROOT, env=self.env(), capture_output=True)
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import transfer_systems.cli: {proc.stderr.decode()}")
        return None

    def sample_speed(self, speed) -> None:
        """Time interpreter start-ups that load NumPy but not the program.

        Start-up speed drifts apart from the speed of work inside one
        process, so this workload corrects its times with this probe rather
        than the in-process one.
        """
        for _ in range(4):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, env=self.env(),
                           check=True, capture_output=True)
            speed.record(start, self.PROBE_REFERENCE_S / (perf_counter() - start))

    def _run(self, argv, files):
        spans_file = OUT / "child-spans.json"
        # stale outputs of an earlier round must not pass for this one's
        for path in (spans_file, *(ROOT / f for f in files)):
            path.unlink(missing_ok=True)
        traced = self.tracer.enabled
        if traced:
            cmd = [sys.executable, str(BENCH / "cli_traced.py"), str(spans_file), *argv]
        else:
            cmd = [sys.executable, "-m", "transfer_systems.cli", *argv]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env(), capture_output=True)
        self.exit_nonzero += proc.returncode != 0
        if traced and spans_file.is_file():
            self.tracer.adopt(json.loads(spans_file.read_text()))
        written = {f: sha256((ROOT / f).read_bytes()) for f in files}
        return CliRun(proc.returncode, proc.stdout, proc.stderr, written)

    def tasks(self, built, expected):
        def summary(run):
            out = {"exit": run.code, "stdout_sha256": sha256(run.stdout)}
            out.update({f"sha256:{f}": h for f, h in run.files.items()})
            if run.code:
                out["stderr"] = run.stderr.decode(errors="replace")[-500:]
            return out

        return [Task(f"cli:{case}", lambda a=argv, f=files: self._run(a, f), summary, 1)
                for case, argv, files in self.cases]


# The criterion-9 commands of tests/test_acceptance.py, plus three heavier ones.
CLI_JSONL = ".bench_out/cli-enumerate-c12.jsonl"
CLI_CASES = (
    ("lattice", ["lattice", "--group", "symmetric:3"], ()),
    ("generate", ["generate", "--group", "symmetric:3", "--edges", "<(12)>>S3"], ()),
    ("check", ["check", "--group", "cyclic:36", "--edges", "1>C36"], ()),
    ("maximal", ["maximal", "--group", "cyclic:6", "--edges", "1>C6", "--method", "all"], ()),
    ("enumerate", ["enumerate", "--group", "cyclic:12", "--census", "--jsonl", CLI_JSONL],
     (CLI_JSONL,)),
    ("inflate", ["inflate", "--group", "cyclic:12", "--normal", "C2", "--edges", "C2>C4"], ()),
    ("fixed-points", ["fixed-points", "--group", "cyclic:12", "--normal", "C2", "--edges",
                      "1>C2,1>C3,1>C4,1>C6,1>C12,C2>C4,C2>C6,C2>C12,C3>C6,C3>C12,C4>C12,C6>C12"],
     ()),
    ("reduce", ["reduce", "--group", "cyclic:36", "--edges", "1>C36"], ()),
    ("conjecture", ["conjecture", "--groups", "cyclic:6"], ()),
    ("render", ["render", "--group", "cyclic:6", "--edges", "1>C6", "--highlight", "maximal"], ()),
    ("audit", ["audit", "--group", "cyclic:6"], ()),
    ("maximal-s4", ["maximal", "--group", "symmetric:4", "--edges", "1>S4", "--method", "all"],
     ()),
    ("check-a5", ["check", "--group", "alternating:5", "--edges", "<(12)(34)>>A5"], ()),
    ("conjecture-s4", ["conjecture", "--groups", "symmetric:4", "--complexity-bound", "2"], ()),
)


def make(name: str, tracer):
    """The workload of this name, as BENCHMARK.json lists it."""
    if name == "catalog":
        return Catalog(["cyclic:36", "dihedral:4", "cyclic:30", "cyclic:32"],
                       ["dihedral:6", "product:6x2"])
    if name == "audit":
        return Audit([("cyclic:36", DATA / "cyclic36.jsonl"), ("dihedral:4", DATA / "dihedral4.jsonl")],
                     ("cyclic:36", "C6", DATA / "cyclic36-above-C6.jsonl"))
    if name == "conjecture":
        return Conjecture([("symmetric:5", 1), ("alternating:5", 2), ("symmetric:4", 2)])
    if name == "cli-cold":
        return CliCold(CLI_CASES, tracer)
    raise KeyError(name)
