"""Spans and counters around dualitylab's public functions, from outside src/.

``Tracer.install`` replaces the named functions in every ``dualitylab``
module namespace that holds them (``cli`` imports most of them by name), and
``uninstall`` puts the originals back. Three kinds of wrapper:

- a span around each function in ``SPANS``: call count, inclusive time of the
  outermost call per metric group, and self time (span time minus the time of
  every wrapped call made inside it). Each span is also kept as a record in
  memory; ``records`` is written out when the benchmark ends;
- a counting/timing proxy around each backend that ``make_backend`` returns;
- a counting span around the ``mul`` of each group that ``make_group`` or
  ``direct_product`` returns.

Backend ops and group products are aggregated, not recorded one by one.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict

# module -> function -> metric group
SPANS = {
    "cli": {"parse_config": "cli.parse_config", "run_command": "cli.runner"},
    "reports": {"write_json": "reports.write", "write_csv": "reports.write"},
    "hopf": {
        "function_algebra": "hopf.build", "group_algebra": "hopf.build",
        "dual_hopf": "hopf.build", "tensor_hopf": "hopf.build", "fourier": "hopf.build",
        "check_linear_hom": "hopf.check_linear_hom", "unitarity_check": "hopf.unitarity_check",
        "duality_cycle": "hopf.duality_cycle", "check_hopf_axioms": "hopf.check_hopf_axioms",
        "group_part": "hopf.group_part", "product_iso_check": "hopf.product_iso_check",
    },
    "length": {
        "explore_ball": "length.explore_ball", "subadditivity_check": "length.subadditivity",
        "sphere_bound_check": "length.sphere_bound", "summability_partial_sums": "length.summability",
        "nuclearity_witness": "length.nuclearity_witness",
        "heisenberg_witness": "length.heisenberg_witness",
    },
    "semichar": {
        "build_semicharacter": "semichar.build",
        "sampled_submultiplicativity": "semichar.submultiplicativity",
    },
    "weighted": {
        "weighted_property_trials": "weighted.property_trials",
        "seminorm_support_check": "weighted.seminorm_checks",
        "domination_check": "weighted.seminorm_checks",
        "summability_check": "weighted.seminorm_checks",
    },
}

_MODULES = ("cli", "reports", "hopf", "length", "semichar", "weighted", "groups", "scalars")


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0   # inclusive time of the outermost calls of this group
        self.self_s = 0.0    # time minus the wrapped calls made inside
        self.depth = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counts: dict[str, int] = defaultdict(int)
        self.records: list[tuple] = []   # (request, name, start, duration, self, parent)
        self.request = ""
        self._child = [0.0]              # time of wrapped callees, per open span
        self._open = [-1]                # record index of each open span
        self._patches: list[tuple] = []

    def reset(self):
        """Zero the per-pass aggregates; records are kept."""
        for stat in self.stats.values():
            stat.calls, stat.total_s, stat.self_s = 0, 0.0, 0.0
        self.counts.clear()

    # -- wrappers ---------------------------------------------------------

    def span(self, group: str, fn, name: str, after=None, record=True):
        stat = self.stats[group]
        child, opened, records = self._child, self._open, self.records
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            index = len(records) if record else opened[-1]
            if record:
                records.append(None)
            opened.append(index)
            child.append(0.0)
            stat.depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stat.depth -= 1
                inner = child.pop()
                opened.pop()
                stat.calls += 1
                stat.self_s += duration - inner
                if stat.depth == 0:
                    stat.total_s += duration
                if record:
                    records[index] = (self.request, name, start, duration, duration - inner, opened[-1])
            begin = clock()
            if after is not None:
                after(result, args, kwargs)
            child[-1] += duration + (clock() - begin)   # bookkeeping is not the caller's time
            return result

        return wrapped

    def leaf(self, group: str, fn):
        """Counted and timed, no record: for calls made millions of times."""
        stat = self.stats[group]
        child = self._child
        clock = time.perf_counter

        def wrapped(*args):
            start = clock()
            result = fn(*args)
            duration = clock() - start
            stat.calls += 1
            stat.self_s += duration
            stat.total_s += duration
            child[-1] += duration
            return result

        return wrapped

    # -- install / uninstall ---------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"dualitylab.{m}") for m in _MODULES}
        after = {
            "hopf.build": self._count_structure,
            "length.explore_ball": self._count_settled,
            "weighted.property_trials": self._count_trials,
            "weighted.seminorm_checks": self._count_trials,
            "reports.write": self._count_bytes,
        }
        replace = {}   # id(original) -> (original, wrapper)
        for mod, functions in SPANS.items():
            for fname, group in functions.items():
                fn = getattr(mods[mod], fname)
                replace[id(fn)] = fn, self.span(group, fn, f"{mod}.{fname}", after.get(group))
        make_backend = mods["scalars"].make_backend
        replace[id(make_backend)] = make_backend, (
            lambda *a, **kw: CountingBackend(make_backend(*a, **kw), self))
        for fname in ("make_group", "direct_product"):
            fn = getattr(mods["groups"], fname)
            replace[id(fn)] = fn, self._group_factory(fn)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                original, wrapper = replace.get(id(value), (None, None))
                if original is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def _group_factory(self, fn):
        def factory(*args, **kwargs):
            group = fn(*args, **kwargs)
            group.mul = self.span("groups.mul", group.mul, "groups.mul", record=False)
            return group
        return factory

    # -- counters read off results, outside the timed spans ---------------

    def _count_structure(self, result, args, kwargs):
        mul, comul = getattr(result, "mul", None), getattr(result, "comul", None)
        if isinstance(mul, dict) and isinstance(comul, dict):
            self.counts["hopf.structure_nnz"] += (
                sum(len(v) for v in mul.values()) + sum(len(v) for v in comul.values())
            )

    def _count_settled(self, result, args, kwargs):
        self.counts["length.settled"] += len(result.lengths)

    def _count_trials(self, result, args, kwargs):
        self.counts["weighted.trials"] += kwargs.get("trials", 0)

    def _count_bytes(self, result, args, kwargs):
        self.counts["reports.bytes_written"] += os.path.getsize(args[0])


class CountingBackend:
    """Delegates to a scalar backend; counts and times every method call."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        value = getattr(self._inner, name)
        if callable(value):
            value = self._tracer.leaf(f"scalars.{name}", value)
        setattr(self, name, value)   # later lookups skip __getattr__
        return value

    def __eq__(self, other):
        return self._inner == getattr(other, "_inner", other)

    def __hash__(self):
        return hash(self._inner)
