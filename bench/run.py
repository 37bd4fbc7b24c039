"""Benchmark of the transfer-systems library and its CLI.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the library is imported from ``src/`` of the checkout
this file sits in, never from an installed copy.  Workloads (BENCHMARK.json
says why each was chosen):

* ``catalog``    -- ``enumerate_all`` on C36, D4, C30, C32 and the full
  ``disklike_systems`` BFS on D6 and C6xC2;
* ``audit``      -- census, cross-method audit, universal reduction, fixed
  points and inflation over the C36 and D4 catalogs of ``data/``;
* ``conjecture`` -- ``verify_conjecture`` on S5 (complexity <= 1), A5 and
  S4 (complexity <= 2);
* ``cli-cold``   -- one fresh ``transfer_systems.cli`` process per command.

Each workload is a closed loop with one client: passes run back to back,
each after its own set-up, until ``--seconds`` have passed.  On ``cli-cold``
the seed orders the commands of every round; the library workloads are
fixed enumerations in a fixed order and ignore it.  Each output is checked
against ``expected.json``, values pinned from the commit it names; a mismatch
or an exception counts as a failure and the run goes on.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones: the median set-up
and pass times, corrected for host-speed drift (see ``HostSpeed``), items
per second, and peak RSS.  With ``--trace 1`` untraced and traced passes
alternate; the metrics are per-layer numbers derived from the traced passes'
spans (also written to ``.bench_out/spans-<workload>.json``) and the tracing
overhead, all from uncorrected wall clocks.  The line before the result
records every pass (wall and corrected times), the failures and the
environment.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("catalog", "audit", "conjecture", "cli-cold")
SETUP_FLOOR_S = 0.5
MAX_SETUPS = 10


def import_library() -> None:
    """Put the checkout's ``src/`` first on the path, or exit if it is absent."""
    package = SRC / "transfer_systems"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run the benchmark inside a full checkout")
    sys.path.insert(0, str(SRC))
    import transfer_systems

    if Path(transfer_systems.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: transfer_systems was imported from {transfer_systems.__file__}")


class Checker:
    """Compares each task's summary with its pinned value."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failures: list[dict] = []

    def check(self, task, result) -> None:
        self.attempted += 1
        try:
            if isinstance(result, Exception):
                raise result
            got = task.summarize(result)
        except Exception as exc:  # a failing task must not stop the run
            got = {"exception": repr(exc)}
        want = self.expected.get(task.name)
        if got != want:
            self.failures.append({"task": task.name, "got": got, "want": want})


class HostSpeed:
    """Samples the host's speed during untraced passes with probes that never
    call the program.

    The speed of a shared virtual machine drifts by a quarter or more within
    a minute as other tenants load the physical host, and wall times of one
    program vary as much from run to run.  While active, a SIGALRM handler
    times a fixed in-process probe every ``interval`` seconds, made of the
    operations the library spends its time in (numpy calls on tiny arrays,
    fancy indexing in a Python loop); over windows of 5-10 s its time tracks
    the library workloads' within a few per cent.  A workload whose work
    runs in child processes ``record``s samples of its own probe instead.
    A sample is a reference time over the observed one; ``factor`` is their
    median over an interval, and a wall time times it is the time the
    interval would have taken on the reference host.  A pass's run time is
    corrected by the samples taken while it ran, its set-up times by those
    of the whole pass; where there are none (a workload that samples between
    passes), by all samples of the run.
    """

    REFERENCE_S = 0.0015  # median probe time on the 2-vCPU Xeon VM the bounds were set on

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        n = 80
        grid = np.add.outer(np.arange(n), np.arange(n))
        self._rel = (grid % 7 == 0) | np.eye(n, dtype=bool)
        self._lower = [np.flatnonzero(grid[:, h] % 5 == 0) for h in range(n)]
        self._small = (grid[:10, :10] % 3 == 0) | np.eye(10, dtype=bool)
        self._perm = np.roll(np.arange(10), 1)

    def record(self, when: float, ratio: float) -> None:
        """Add a sample: reference time over observed time of some probe."""
        self.samples.append((when, ratio))

    def _probe(self, signum, frame):
        start = perf_counter()
        small, perm = self._small, self._perm
        for _ in range(60):
            np.any(small & ~small[np.ix_(perm, perm)])
            np.argwhere(small)
        out = self._rel.copy()
        for a, b in np.argwhere(self._rel)[:60]:
            out[a, self._lower[b]] = True
        self.record(start, self.REFERENCE_S / (perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, end: float) -> float | None:
        """Median sampled ratio over [start, end]; None if nothing was sampled."""
        ratios = [r for t, r in self.samples if start <= t <= end]
        return statistics.median(ratios) if ratios else None


def measure(workload, expected: dict, seconds: float, trace: bool, seed: int, tracer):
    """Run passes until ``seconds`` have passed.

    Each pass sets up afresh; a set-up shorter than SETUP_FLOOR_S is
    repeated (the last one feeds the pass) so that its median rests on
    several samples.  In trace mode untraced and traced passes alternate,
    at least one of each, set-ups are not repeated and host speed is not
    sampled, so that the spans hold one pass's work and nothing else.  A
    workload whose work runs in other processes samples host speed itself,
    untimed, at the start of each pass (``sample_speed``); the others are
    sampled in-process by ``HostSpeed``'s probe.
    """
    rng = random.Random(seed)
    checker = Checker(expected)
    speed = HostSpeed()
    own_probe = hasattr(workload, "sample_speed")
    passes = []
    start = perf_counter()
    with contextlib.nullcontext() if trace or own_probe else speed:
        while not passes or perf_counter() - start < seconds or (trace and len(passes) < 2):
            traced = trace and len(passes) % 2 == 1
            tracer.enabled = traced
            t_begin = perf_counter()
            if own_probe and not trace:
                workload.sample_speed(speed)
            setups = []
            while not setups or (not trace and len(setups) < MAX_SETUPS
                                 and sum(setups) < SETUP_FLOOR_S):
                t = perf_counter()
                with tracer.span("bench.setup"):
                    built = workload.setup()
                setups.append(perf_counter() - t)
            tasks = workload.tasks(built, expected)
            if workload.seeded:
                rng.shuffle(tasks)
            results, task_s = {}, {}
            t_run = perf_counter()
            for task in tasks:
                t = perf_counter()
                with tracer.span(f"bench.{task.name}"):
                    try:
                        results[task.name] = task.call()
                    except Exception as exc:  # counted as a failure by the checker
                        results[task.name] = exc
                task_s[task.name] = perf_counter() - t
            t_end = perf_counter()
            tracer.enabled = False
            for task in tasks:
                checker.check(task, results.pop(task.name))
            passes.append({
                "traced": traced,
                "times": (t_begin, t_run, t_end),
                "wall_setup_s": setups,
                "wall_run_s": t_end - t_run,
                "items": sum(t.items for t in tasks),
                "task_s": task_s,
            })
            del built, tasks, results
            gc.collect()  # this pass's garbage is not collected inside the next
    overall = speed.factor(start, perf_counter()) or 1.0
    for p in passes:
        t_begin, t_run, t_end = p.pop("times")
        p["setup_speed"] = speed.factor(t_begin, t_end) or overall
        p["run_speed"] = speed.factor(t_run, t_end) or overall
        p["setup_s"] = [s * p["setup_speed"] for s in p["wall_setup_s"]]
        p["run_s"] = p["wall_run_s"] * p["run_speed"]
    return passes, checker


def end_to_end(workload_name: str, passes: list) -> dict:
    run_s = statistics.median(p["run_s"] for p in passes)
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-cold" else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(s for p in passes for s in p["setup_s"]), "s"),
        "run_s": (run_s, "s"),
        "ops_per_s": (passes[0]["items"] / run_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(workload, passes: list, spans: list) -> dict:
    import tracing
    import workloads

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    m = tracing.per_layer(spans, len(traced), passes[0]["items"])
    # CLI latencies come from the untraced rounds, as a user sees them.
    cli_cases = getattr(workload, "cases", ())
    samples = [s for p in plain for s in p["task_s"].values()] if cli_cases else []
    imports = [s for p in plain for s in p["wall_setup_s"]] if cli_cases else [0.0]
    m["cli.import_s"] = (statistics.median(imports), "s")
    for case, _, _ in workloads.CLI_CASES:
        per_case = [p["task_s"][f"cli:{case}"] for p in plain if f"cli:{case}" in p["task_s"]]
        m[f"cli.{case}.p50_ms"] = (statistics.median(per_case) * 1000 if per_case else 0.0, "ms")
    tail_s, pct = tracing.tail(samples) if samples else (0.0, 0)
    m["cli.p50_ms"] = (statistics.median(samples) * 1000 if samples else 0.0, "ms")
    m["cli.tail_ms"] = (tail_s * 1000, "ms")
    m["cli.tail_pct"] = (pct, "%")
    m["cli.samples"] = (len(samples), "count")
    m["cli.exit_nonzero"] = (getattr(workload, "exit_nonzero", 0), "count")
    untraced_s = statistics.median(p["wall_run_s"] for p in plain)
    traced_s = statistics.median(p["wall_run_s"] for p in traced)
    m["trace.run_s"] = (traced_s, "s")
    m["trace.untraced_run_s"] = (untraced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return m


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: {f: v.get(f) for f in ("name", "version", "openblas configuration")}
                 for k, v in deps.items()},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run(name: str, seed: int, seconds: float, trace: bool, expected: dict | None = None,
        factory=None) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, detail record).

    ``factory(tracer)`` builds the workload; by default the one named
    ``name``.  ``expected`` defaults to the pinned ``expected.json``.
    """
    import tracing
    import workloads

    tracer = tracing.Tracer()
    workload = factory(tracer) if factory else workloads.make(name, tracer)
    if expected is None:
        expected = json.loads((BENCH / "expected.json").read_text())["tasks"]
    if trace:
        tracer.install()
    try:
        passes, checker = measure(workload, expected, seconds, trace, seed, tracer)
    finally:
        tracer.uninstall()
    if trace:
        metrics = layer_metrics(workload, passes, tracer.spans)
        workloads.OUT.mkdir(exist_ok=True)
        tracer.dump(workloads.OUT / f"spans-{name}.json")
    else:
        metrics = end_to_end(name, passes)
    failed = len(checker.failures)
    result = {
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "passes": passes, "failures": checker.failures[:20], "env": environment()}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_library()
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
