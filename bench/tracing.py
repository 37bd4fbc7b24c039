"""Spans around the library's public functions, installed from outside.

The tracer rebinds each traced function in every ``transfer_systems`` module
that holds it (``from .systems import generate`` copies the name, so
patching ``systems.generate`` alone would miss the enumerators' calls) and
patches ``__init__`` and methods on their classes, so ``isinstance`` and
``__eq__`` keep working.  No library source is edited.

A span is ``(name, start, end, parent, attrs)``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``attrs`` holds counts read from the
call's arguments or result, or ``{"error": 1}`` when it raised.  Spans stay
in memory; self times are derived from them afterwards.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _found(args, out):
    return {"found": len(out)}


def _poset_size(args, out):
    poset = args[0]
    return {"m": len(poset.nodes), "covers": poset.cover_count}


# (module, attribute path, span name, counts from (args, result))
TRACED = (
    ("groups", "build_group", "groups.build_group", None),
    ("groups", "subgroup_lattice", "groups.subgroup_lattice", lambda a, out: {"subgroups": len(out)}),
    ("sites", "site_from_lattice", "sites.site_from_lattice", None),
    ("sites", "Site.subset_orbit_key", "sites.subset_orbit_key", None),
    ("sites", "Site.orbit_representatives", "sites.orbit_representatives", None),
    ("systems", "generate", "systems.generate", None),
    ("systems", "TransferSystem.__init__", "systems.TransferSystem.init", None),
    ("systems", "is_disklike", "systems.is_disklike", None),
    ("systems", "is_saturated", "systems.is_saturated", None),
    ("systems", "complexity", "systems.complexity", None),
    ("enumeration", "enumerate_all", "enumeration.enumerate_all", _found),
    ("enumeration", "disklike_systems", "enumeration.disklike_systems", _found),
    ("enumeration", "census", "enumeration.census", None),
    ("enumeration", "cross_method_audit", "enumeration.cross_method_audit", None),
    ("enumeration", "verify_conjecture", "enumeration.verify_conjecture", None),
    ("restriction", "restriction_poset", "restriction.restriction_poset", None),
    ("restriction", "RestrictionPoset.__init__", "restriction.RestrictionPoset.init", _poset_size),
    ("compat", "max_compat_oracle", "compat.max_compat_oracle", None),
    ("compat", "max_compat_recursive", "compat.max_compat_recursive", None),
    ("compat", "max_compat_disklike", "compat.max_compat_disklike", lambda a, out: {"steps": out.steps}),
    ("compat", "conjecture_formula", "compat.conjecture_formula", None),
    ("compat", "is_compatible", "compat.is_compatible", None),
    ("functors", "universal_reduction", "functors.universal_reduction", None),
    ("functors", "inflate", "functors.inflate", None),
    ("functors", "fixed_points", "functors.fixed_points", None),
    ("serialize", "load_system", "serialize.load_system", None),
    ("serialize", "dump_catalog", "serialize.dump_catalog", None),
    ("cli", "main", "cli.main", None),
)

LAYERS = ("groups", "sites", "systems", "enumeration", "restriction", "compat",
          "functors", "serialize", "cli", "bench")


class Tracer:
    """Records spans while ``enabled``; a disabled wrapper only forwards."""

    def __init__(self):
        self.spans: list = []
        self.enabled = False
        self._stack = [-1]
        self._restore: list = []

    def install(self) -> None:
        """Wrap every traced name of the ``transfer_systems`` modules loaded now."""
        loaded = {name.rpartition(".")[2]: mod for name, mod in sys.modules.items()
                  if name.startswith("transfer_systems.")}
        holders = [mod for name, mod in sys.modules.items()
                   if name == "transfer_systems" or name.startswith("transfer_systems.")]
        for module, path, name, counts in TRACED:
            if module not in loaded:
                continue
            owner = loaded[module]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = owner.__dict__[attr] if cls else getattr(owner, attr)
            wrapper = self._wrap(name, original, counts)
            targets = [owner] if cls else [m for m in holders if m.__dict__.get(attr) is original]
            for target in targets:
                self._restore.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)

    def _wrap(self, name, fn, counts):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            attrs = {"error": 1}
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                attrs = None
                return out
            finally:
                end = perf_counter()
                stack.pop()
                if attrs is None and counts is not None:
                    attrs = counts(args, out)
                spans[idx] = (name, start, end, parent, attrs)

        return wrapper

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (set-up, one task)."""
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = (name, start, perf_counter(), parent, None)

    def adopt(self, spans: list) -> None:
        """Append spans recorded by a child process under the open span."""
        parent = self._stack[-1]
        base = len(self.spans)
        for name, start, end, p, attrs in spans:
            self.spans.append((name, start, end, parent if p < 0 else base + p, attrs))

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def per_layer(spans: list, passes: int, items: int) -> dict:
    """Per-pass layer metrics derived from spans of ``passes`` traced passes.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread never overlap, so that is exactly the
    part of the interval no child covers.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    counts = defaultdict(int)
    layer_s = defaultdict(float)
    errors = 0
    enum_generate = 0
    node_max = 0
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        own = end - start - child[i]
        calls[name] += 1
        self_s[name] += own
        total_s[name] += end - start
        layer_s[name.partition(".")[0]] += own
        if name == "systems.generate" and parent >= 0 and spans[parent][0] in (
            "enumeration.enumerate_all", "enumeration.disklike_systems"
        ):
            enum_generate += 1
        if attrs:
            errors += attrs.get("error", 0)
            for key, value in attrs.items():
                counts[key] += value
            if "m" in attrs:
                node_max = max(node_max, attrs["m"])
                counts["cover_ops"] += attrs["m"] ** 3
                # two uint8 m-by-m operands read, one bool m-by-m result written
                counts["cover_bytes"] += 3 * attrs["m"] ** 2

    def per(value):
        return value / passes

    m = {}

    def put(key, value, unit):
        m[key] = (value, unit)

    def timed(name, *, with_calls=False, with_total=False):
        if with_calls:
            put(f"{name}.calls", per(calls[name]), "count")
        put(f"{name}.self_s", per(self_s[name]), "s")
        if with_total:
            put(f"{name}.total_s", per(total_s[name]), "s")

    timed("groups.build_group")
    timed("groups.subgroup_lattice")
    put("groups.subgroup_lattice.subgroups", per(counts["subgroups"]), "count")
    timed("sites.site_from_lattice")
    timed("sites.subset_orbit_key", with_calls=True)
    timed("sites.orbit_representatives")
    timed("systems.generate", with_calls=True)
    put("systems.generate.calls_per_system",
        calls["systems.generate"] / (items * passes) if items else 0.0, "ratio")
    put("systems.TransferSystem.init_calls", per(calls["systems.TransferSystem.init"]), "count")
    put("systems.TransferSystem.init_s", per(self_s["systems.TransferSystem.init"]), "s")
    timed("systems.is_disklike", with_calls=True)
    timed("systems.is_saturated")
    timed("systems.complexity")
    timed("enumeration.enumerate_all", with_total=True)
    timed("enumeration.disklike_systems", with_total=True)
    put("enumeration.systems_found", per(counts["found"]), "count")
    put("enumeration.new_per_generate", counts["found"] / enum_generate if enum_generate else 0.0,
        "ratio")
    timed("enumeration.census", with_total=True)
    timed("enumeration.cross_method_audit", with_total=True)
    timed("enumeration.verify_conjecture", with_total=True)
    timed("restriction.restriction_poset", with_calls=True)
    put("restriction.RestrictionPoset.init_calls", per(calls["restriction.RestrictionPoset.init"]),
        "count")
    put("restriction.RestrictionPoset.init_s", per(self_s["restriction.RestrictionPoset.init"]), "s")
    put("restriction.nodes_total", per(counts["m"]), "count")
    put("restriction.nodes_max", node_max, "count")
    put("restriction.covers_total", per(counts["covers"]), "count")
    put("restriction.cover_ops", per(counts["cover_ops"]), "ops")
    put("restriction.cover_bytes", per(counts["cover_bytes"]), "bytes")
    timed("compat.max_compat_oracle", with_calls=True, with_total=True)
    timed("compat.max_compat_recursive", with_total=True)
    timed("compat.max_compat_disklike")
    put("compat.disklike_steps", per(counts["steps"]), "count")
    timed("compat.conjecture_formula")
    timed("compat.is_compatible", with_calls=True)
    timed("functors.universal_reduction", with_calls=True, with_total=True)
    timed("functors.inflate")
    timed("functors.fixed_points")
    timed("serialize.load_system")
    timed("serialize.dump_catalog")
    timed("cli.main")
    for layer in LAYERS:
        put(f"layer.{layer}.self_s", per(layer_s[layer]), "s")
    put("trace.spans", per(len(spans)), "count")
    put("trace.errors", per(errors), "count")
    return m


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples beyond it.

    Returns (value, percentile); (max, 0) when there are ten samples or fewer.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in range(99, 0, -1):
        rank = -(-pct * n // 100)  # ceil(pct * n / 100), 1-based
        if n - rank >= 10:
            return ordered[rank - 1], pct
    return ordered[-1], 0
