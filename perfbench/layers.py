"""Per-layer tracing from outside the program.

The layers are the package modules. ``Tracer.install`` replaces selected
public functions and methods of ``hsvi`` with wrappers, in every module that
holds a reference to them, so calls made inside the package are seen too. A
wrapper counts calls and measures total time and self time: its own duration
minus the time of the traced calls it made. Some wrappers also record a count
read from the arguments or the result (LP pivots, points pruned). Nothing is
recorded while ``Tracer.active`` is false, so the checks that follow the
timed phase stay out of the figures.
"""

import sys
import time
from collections import defaultdict


class Span:
    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts = defaultdict(int)


# Layer name -> (module, attribute path inside that module).
TRACED = {
    "fileio.parse_pomdp": ("hsvi.fileio", "parse_pomdp"),
    "model.successor_distributions": ("hsvi.model", "successor_distributions"),
    "model.belief_update": ("hsvi.model", "belief_update"),
    "lp.projection_lp": ("hsvi.lp", "projection_lp"),
    "bounds.UpperBound.value": ("hsvi.bounds", "UpperBound.value"),
    "bounds.LowerBound.value": ("hsvi.bounds", "LowerBound.value"),
    "bounds.LowerBound.best_index": ("hsvi.bounds", "LowerBound.best_index"),
    "bounds.backup_lower": ("hsvi.bounds", "backup_lower"),
    "bounds.apply_update": ("hsvi.bounds", "apply_update"),
    "bounds.prune_lower": ("hsvi.bounds", "prune_lower"),
    "bounds.prune_upper": ("hsvi.bounds", "prune_upper"),
    "bounds.init_bounds": ("hsvi.bounds", "init_bounds"),
    "evaluator.evaluate": ("hsvi.evaluator", "evaluate"),
    "solver.solve": ("hsvi.solver", "solve"),
    "solver.solve_anytime": ("hsvi.solver", "solve_anytime"),
}


def _parse_bytes(args, result):
    source = args[0]
    return {"bytes": len(source.encode()) if isinstance(source, str) else 0}


def _states_in(args, result):
    return {"states_in": len(args[1])}


def _lp_work(args, result):
    point_rows, query_vec = args[0], args[2]
    return {"pivots": result.iterations, "cells": point_rows.shape[0] * query_vec.size}


AFTER_COUNTS = {
    "fileio.parse_pomdp": _parse_bytes,
    "model.successor_distributions": _states_in,
    "lp.projection_lp": _lp_work,
}
# Counts of what a call removed: (count name, size of the pruned set).
REMOVED_COUNTS = {
    "bounds.prune_upper": ("points_removed", lambda args: args[1].num_points),
    "bounds.prune_lower": ("vectors_removed", lambda args: len(args[0])),
}


class Tracer:
    def __init__(self):
        self.spans = defaultdict(Span)
        self.active = False
        self._stack = []

    def install(self):
        """Wrap every traced function."""
        for layer, (module_name, path) in TRACED.items():
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for name in outer:
                owner = getattr(owner, name)
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original)
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").split(".")[0] == "hsvi"
                        and getattr(module, attr, None) is original):
                    setattr(module, attr, wrapper)

    def _wrap(self, layer, func):
        span = self.spans[layer]
        stack = self._stack
        after = AFTER_COUNTS.get(layer)
        removed = REMOVED_COUNTS.get(layer)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            size_before = removed[1](args) if removed else 0
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - children
            if after:
                for key, value in after(args, result).items():
                    span.counts[key] += value
            if removed:
                span.counts[removed[0]] += size_before - removed[1](args)
            return result

        return traced
