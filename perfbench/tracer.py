"""Spans and counters around the calls into each ribboncalc module.

The tracer wraps functions from outside the package: it replaces every
binding of a target (in the defining module and in each module that
imported it by name, class attributes included) with a wrapper that
records a span.  A span is (name, start, end, parent span).  Spans stay in
memory and are written out once the pass ends.  A layer is the module a
span's function lives in; its self time is its spans' durations minus the
time their child spans cover.  Counters (pairings, BFS roots, partitions,
configurations) are read from the wrapped calls' arguments and return
values only.

A target that no longer exists is recorded as absent, and the metrics it
feeds read as zero work.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from functools import wraps
from math import factorial
from time import perf_counter

PACKAGE = "ribboncalc"
LAYERS = (
    "enumeration",
    "ribbon",
    "tautring",
    "combclasses",
    "exact_linalg",
    "plforms",
    "degeneration",
    "stable",
    "clusters",
)


def _search_done(tr, args, kwargs, result):
    found = result if isinstance(result, int) else len(result)
    tr.counts["enumeration.pairings"] += found
    if kwargs.get("collect"):
        tr.counts["enumeration.collected"] += found


def _classes_done(tr, args, kwargs, result):
    if isinstance(result, dict):
        tr.counts["enumeration.classes"] += sum(len(v) for v in result.values())
    else:
        tr.counts["enumeration.classes"] += len(result)


def _canonical_done(tr, args, kwargs, result):
    tr.counts["ribbon.canonical_roots"] += len(args[0].sides)


def _cycle_sum_done(tr, args, kwargs, result):
    tr.counts["tautring.cycle_sum_perms"] += factorial(len(args[0]))


def _solve_done(tr, args, kwargs, result):
    # the solver's memo never evicts, so a tail seen before is a hit
    tail = args[0]
    if tail in tr.solved_tails:
        tr.counts["combclasses.solve_hits"] += 1
    tr.solved_tails.add(tail)


def _configurations_done(tr, args, kwargs, result):
    tr.counts["plforms.cyl_configs"] += len(result)
    cycles = {repr(c.get("cycle", c)) if isinstance(c, dict) else repr(c) for c in result}
    tr.counts["plforms.cyl_cycles"] += len(cycles)


# (span name, defining module, attribute path, hook on return)
TARGETS = (
    ("enumeration._search", "enumeration", "_search", _search_done),
    ("enumeration.enumerate", "enumeration", "enumerate", _classes_done),
    ("enumeration.enumerate_all_cells", "enumeration", "enumerate_all_cells", _classes_done),
    ("enumeration.orbifold_euler", "enumeration", "orbifold_euler", None),
    ("ribbon.canonical_form", "ribbon", "canonical_form", _canonical_done),
    ("ribbon.canonicalize", "ribbon", "canonicalize", _canonical_done),
    ("tautring.kappa_cycle_sum", "tautring", "kappa_cycle_sum", _cycle_sum_done),
    ("tautring.mul", "tautring", "TautPoly.__mul__", None),
    ("combclasses._solve", "combclasses", "_solve", _solve_done),
    ("combclasses.kappa_polynomial", "combclasses", "kappa_polynomial", None),
    ("combclasses.two_vertex_check", "combclasses", "two_vertex_check", None),
    ("combclasses.merge_relation", "combclasses", "merge_relation", None),
    ("exact_linalg.pfaffian", "exact_linalg", "pfaffian", None),
    ("exact_linalg.restrict_form", "exact_linalg", "restrict_form", None),
    ("exact_linalg.kernel_basis", "exact_linalg", "kernel_basis", None),
    ("plforms.fiber_integral_disk", "plforms", "fiber_integral_disk", None),
    ("plforms.fiber_integral_cyl", "plforms", "fiber_integral_cyl", None),
    ("plforms.nondegeneracy_check", "plforms", "nondegeneracy_check", None),
    (
        "degeneration.cylinder_configurations",
        "degeneration",
        "cylinder_configurations",
        _configurations_done,
    ),
    ("degeneration.shrink", "degeneration", "shrink", None),
    ("degeneration.hole_topology", "degeneration", "hole_topology", None),
    ("stable.build_stable", "stable", "build_stable", None),
    ("clusters.count_admissible", "clusters", "count_admissible", None),
)
# generators: counted per yielded item, no span (their time interleaves with the caller's)
COUNTED_GENERATORS = (("combclasses.partitions", "combclasses", "all_partitions"),)

# per-layer metric -> (unit, spans or counters it is read from)
METRICS = {
    "enumeration.search_calls": ("count", ["enumeration._search"]),
    "enumeration.search_s": ("s", ["enumeration._search"]),
    "enumeration.pairings": ("count", ["enumeration._search"]),
    "enumeration.pairings_per_s": ("1/s", ["enumeration._search"]),
    "enumeration.class_yield": (
        "ratio",
        ["enumeration._search", "enumeration.enumerate", "enumeration.enumerate_all_cells"],
    ),
    "ribbon.canonical_calls": ("count", ["ribbon.canonical_form", "ribbon.canonicalize"]),
    "ribbon.canonical_roots": ("count", ["ribbon.canonical_form", "ribbon.canonicalize"]),
    "ribbon.canonical_s": ("s", ["ribbon.canonical_form", "ribbon.canonicalize"]),
    "tautring.cycle_sum_calls": ("count", ["tautring.kappa_cycle_sum"]),
    "tautring.cycle_sum_perms": ("count", ["tautring.kappa_cycle_sum"]),
    "tautring.cycle_sum_s": ("s", ["tautring.kappa_cycle_sum"]),
    "tautring.mul_calls": ("count", ["tautring.mul"]),
    "tautring.mul_s": ("s", ["tautring.mul"]),
    "combclasses.solve_calls": ("count", ["combclasses._solve"]),
    "combclasses.solve_hit_ratio": ("ratio", ["combclasses._solve"]),
    "combclasses.solve_s": ("s", ["combclasses._solve"]),
    "combclasses.partitions": ("count", ["combclasses.partitions"]),
    "exact_linalg.pfaffian_calls": ("count", ["exact_linalg.pfaffian"]),
    "exact_linalg.pfaffian_s": ("s", ["exact_linalg.pfaffian"]),
    "exact_linalg.restrict_s": ("s", ["exact_linalg.restrict_form"]),
    "exact_linalg.kernel_s": ("s", ["exact_linalg.kernel_basis"]),
    "plforms.cyl_configs": ("count", ["degeneration.cylinder_configurations"]),
    "plforms.cyl_useful_ratio": ("ratio", ["degeneration.cylinder_configurations"]),
    "plforms.cyl_s": ("s", ["plforms.fiber_integral_cyl"]),
    "plforms.nondeg_calls": ("count", ["plforms.nondegeneracy_check"]),
    "plforms.nondeg_s": ("s", ["plforms.nondegeneracy_check"]),
    "degeneration.shrink_calls": ("count", ["degeneration.shrink"]),
    "degeneration.shrink_s": ("s", ["degeneration.shrink"]),
    "degeneration.topology_calls": ("count", ["degeneration.hole_topology"]),
    "degeneration.topology_s": ("s", ["degeneration.hole_topology"]),
    "stable.build_calls": ("count", ["stable.build_stable"]),
    "stable.build_s": ("s", ["stable.build_stable"]),
    "clusters.brute_calls": ("count", ["clusters.count_admissible"]),
    "clusters.brute_s": ("s", ["clusters.count_admissible"]),
}
METRICS.update({f"{layer}.self_s": ("s", []) for layer in LAYERS})
# filled in by the launcher from an untraced and a traced pass
RUN_METRICS = {"trace.overhead_s": "s", "trace.spans": "count"}


def _ratio(num, den):
    return num / den if den else 0.0


def _resolve(module, path):
    """(owner, attribute, object) for a dotted attribute path, or None."""
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    obj = getattr(owner, attr, None) if owner is not None else None
    return None if obj is None else (owner, attr, obj)


def _bindings(obj):
    """Every (owner, attribute) in the loaded package bound to ``obj``."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for key, value in list(vars(mod).items()):
            if value is obj:
                yield mod, key
            elif isinstance(value, type) and value.__module__ == name:
                for ckey, cvalue in list(vars(value).items()):
                    if cvalue is obj:
                        yield value, ckey


class Tracer:
    """Records spans and counters while installed; ``paused`` lets calls through."""

    def __init__(self, targets=TARGETS, generators=COUNTED_GENERATORS):
        self.targets = targets
        self.generators = generators
        self.spans = []  # (name, start, end, parent index, outermost of its name)
        self.stack = []
        self.depth = Counter()
        self.counts = Counter()
        self.solved_tails = set()
        self.absent = []
        self.paused = False
        self._patched = []

    # -- installing ------------------------------------------------------------

    def install(self):
        for name, module, path, hook in self.targets:
            self._patch(name, module, path, lambda fn, name=name, hook=hook: self._span(name, fn, hook))
        for name, module, path in self.generators:
            self._patch(name, module, path, lambda fn, name=name: self._counted(name, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, name, module, path, make):
        found = _resolve(module, path)
        if found is None:
            self.absent.append(name)
            return
        original = found[2]
        wrapper = make(original)
        for owner, attr in list(_bindings(original)):
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def _span(self, name, fn, hook):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(index)
            outermost = tracer.depth[name] == 0
            tracer.depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.depth[name] -= 1
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent, outermost)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if not tracer.paused:
                    tracer.counts[name] += 1
                yield item

        return wrapper

    # -- reading ---------------------------------------------------------------

    def span_totals(self):
        """Per span name: calls and inclusive seconds (recursion counted once);
        per layer: self seconds."""
        calls = Counter()
        inclusive = defaultdict(float)
        covered = defaultdict(float)
        for name, start, end, parent, outermost in self.spans:
            calls[name] += 1
            if outermost:
                inclusive[name] += end - start
            if parent >= 0:
                covered[parent] += end - start
        layer_self = {layer: 0.0 for layer in LAYERS}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + (end - start) - covered[index]
        return calls, inclusive, layer_self

    def metrics(self) -> dict:
        """Every per-layer metric by name: {"value", "unit"}; absent inputs read 0."""
        calls, inclusive, layer_self = self.span_totals()
        c = self.counts

        def span_calls(*names):
            return sum(calls[n] for n in names)

        def span_s(*names):
            return sum(inclusive[n] for n in names)

        canonical = ("ribbon.canonical_form", "ribbon.canonicalize")
        values = {
            "enumeration.search_calls": span_calls("enumeration._search"),
            "enumeration.search_s": span_s("enumeration._search"),
            "enumeration.pairings": c["enumeration.pairings"],
            "enumeration.pairings_per_s": _ratio(
                c["enumeration.pairings"], span_s("enumeration._search")
            ),
            "enumeration.class_yield": _ratio(
                c["enumeration.classes"], c["enumeration.collected"]
            ),
            "ribbon.canonical_calls": span_calls(*canonical),
            "ribbon.canonical_roots": c["ribbon.canonical_roots"],
            "ribbon.canonical_s": span_s(*canonical),
            "tautring.cycle_sum_calls": span_calls("tautring.kappa_cycle_sum"),
            "tautring.cycle_sum_perms": c["tautring.cycle_sum_perms"],
            "tautring.cycle_sum_s": span_s("tautring.kappa_cycle_sum"),
            "tautring.mul_calls": span_calls("tautring.mul"),
            "tautring.mul_s": span_s("tautring.mul"),
            "combclasses.solve_calls": span_calls("combclasses._solve"),
            "combclasses.solve_hit_ratio": _ratio(
                c["combclasses.solve_hits"], span_calls("combclasses._solve")
            ),
            "combclasses.solve_s": span_s("combclasses._solve"),
            "combclasses.partitions": c["combclasses.partitions"],
            "exact_linalg.pfaffian_calls": span_calls("exact_linalg.pfaffian"),
            "exact_linalg.pfaffian_s": span_s("exact_linalg.pfaffian"),
            "exact_linalg.restrict_s": span_s("exact_linalg.restrict_form"),
            "exact_linalg.kernel_s": span_s("exact_linalg.kernel_basis"),
            "plforms.cyl_configs": c["plforms.cyl_configs"],
            "plforms.cyl_useful_ratio": _ratio(
                c["plforms.cyl_cycles"], c["plforms.cyl_configs"]
            ),
            "plforms.cyl_s": span_s("plforms.fiber_integral_cyl"),
            "plforms.nondeg_calls": span_calls("plforms.nondegeneracy_check"),
            "plforms.nondeg_s": span_s("plforms.nondegeneracy_check"),
            "degeneration.shrink_calls": span_calls("degeneration.shrink"),
            "degeneration.shrink_s": span_s("degeneration.shrink"),
            "degeneration.topology_calls": span_calls("degeneration.hole_topology"),
            "degeneration.topology_s": span_s("degeneration.hole_topology"),
            "stable.build_calls": span_calls("stable.build_stable"),
            "stable.build_s": span_s("stable.build_stable"),
            "clusters.brute_calls": span_calls("clusters.count_admissible"),
            "clusters.brute_s": span_s("clusters.count_admissible"),
        }
        values.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS})
        return {name: {"value": values[name], "unit": METRICS[name][0]} for name in METRICS}

    def absent_metrics(self) -> list:
        return sorted(m for m, (_, sources) in METRICS.items() if set(sources) & set(self.absent))

    def write_spans(self, path):
        """Write the spans as JSON: names once, then [name, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], start, end, parent] for n, start, end, parent, _ in self.spans]
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": rows}, fh)
