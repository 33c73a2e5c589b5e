"""Span tracing of atomfield's public functions, installed from outside.

`Tracer.installed()` replaces every public function of the atomfield modules
(and `multimode.solve_ivp`) with a wrapper, at every module attribute that
refers to it, so a call is traced whichever name the caller looks up.  Each
call records a span (name, start, end, parent) and, for a few layers, a work
count.  Spans stay in memory until `summary()` folds them into per-layer
totals; a layer's self time is its span time minus its child spans' time.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import types
from time import perf_counter
from typing import Any, Callable

import numpy as np

__all__ = ["Tracer", "LAYER_METRICS"]

# metrics reported from a traced run: (span name, stat, unit)
LAYER_METRICS: list[tuple[str, str, str]] = [
    ("multimode.integrate_atom_modes", "calls", "count"),
    ("multimode.integrate_atom_modes", "modes", "count"),
    ("multimode.integrate_atom_modes", "self_s", "s"),
    ("multimode.solve_ivp", "rhs_evals", "count"),
    ("multimode.solve_ivp", "self_s", "s"),
    ("spherical_cavity.evolve_cavity_ode", "self_s", "s"),
    ("free_space.wigner_weisskopf_ode", "self_s", "s"),
    ("numerics.stable_binomial_series", "calls", "count"),
    ("numerics.stable_binomial_series", "self_s", "s"),
    ("spherical_cavity.excited_probability_closed_form", "samples", "count"),
    ("spherical_cavity.excited_probability_closed_form", "self_s", "s"),
    ("jcp.inversion", "calls", "count"),
    ("jcp.inversion", "self_s", "s"),
    ("jcp.inversion", "cos_elements", "count"),
    ("parabolic_mirror.field_map", "points", "count"),
    ("parabolic_mirror.field_map", "self_s", "s"),
    ("parabolic_mirror.semiclassical_field", "calls", "count"),
    ("parabolic_mirror.semiclassical_field", "self_s", "s"),
    ("parabolic_mirror.rate_profile", "self_s", "s"),
    ("parabolic_mirror.on_axis_eta", "calls", "count"),
    ("parabolic_mirror.eta_quadrature", "calls", "count"),
    ("parabolic_mirror.eta_quadrature", "self_s", "s"),
    ("numerics.integrate_1d", "calls", "count"),
    ("numerics.integrate_1d", "self_s", "s"),
    ("numerics.integrate_1d", "failed", "count"),
    ("free_space.field_map", "points", "count"),
    ("free_space.field_map", "self_s", "s"),
    ("cli.run_scenario", "self_s", "s"),
    ("cli.write_table", "rows", "count"),
    ("cli.write_table", "bytes", "B"),
    ("cli.write_table", "self_s", "s"),
    ("cli.parse_config", "self_s", "s"),
    ("cli.parse_config", "failed", "count"),
]

# work counts taken from a call's bound arguments and its result
_COUNTERS: dict[str, Callable[[dict[str, Any], Any], dict[str, int]]] = {
    "multimode.integrate_atom_modes": lambda a, r: {"modes": int(np.size(a["detunings"]))},
    "multimode.solve_ivp": lambda a, r: {"rhs_evals": int(r.nfev)},
    "spherical_cavity.excited_probability_closed_form": lambda a, r: {
        "samples": int(np.size(a["t"]))
    },
    "jcp.inversion": lambda a, r: {
        "cos_elements": int(a["params"].field.weights.size * np.size(a["times"]))
    },
    "parabolic_mirror.field_map": lambda a, r: {
        "points": int(np.size(a["z_values"]) * np.size(a["rho_values"]))
    },
    "free_space.field_map": lambda a, r: {
        "points": int(np.size(a["r_values"]) * np.size(a["theta_values"]))
    },
    "cli.write_table": lambda a, r: {
        "rows": len(a["table"].rows),
        "bytes": os.path.getsize(a["path"]),
    },
}

# functions defined outside atomfield, traced at one lookup site
_FOREIGN = [("multimode", "solve_ivp")]


def _targets(package: types.ModuleType) -> list[tuple[types.ModuleType, str, str]]:
    """(module, attribute, span name) for every binding of a traced function."""
    modules = [
        m for m in vars(package).values()
        if isinstance(m, types.ModuleType) and m.__name__.startswith(package.__name__ + ".")
    ]
    names: dict[int, str] = {}
    for m in modules:
        short = m.__name__.rsplit(".", 1)[1]
        for attr in getattr(m, "__all__", ()):
            obj = getattr(m, attr)
            if inspect.isfunction(obj) and obj.__module__ == m.__name__:
                names[id(obj)] = f"{short}.{attr}"
    targets = []
    for m in modules:
        for attr, obj in vars(m).items():
            if id(obj) in names and inspect.isfunction(obj):
                targets.append((m, attr, names[id(obj)]))
    by_short = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
    for short, attr in _FOREIGN:
        targets.append((by_short[short], attr, f"{short}.{attr}"))
    return targets


class Tracer:
    """Collects spans from wrapped functions while `installed()` is active."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, counts or None, failed]
        self.spans: list[list] = []
        self.counter_errors: dict[str, str] = {}
        self._stack: list[int] = []

    def _wrap(self, name: str, func: Callable) -> Callable:
        counter = _COUNTERS.get(name)
        signature = inspect.signature(func) if counter else None
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None, False]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span[4] = counter(bound.arguments, result)
                except (KeyError, AttributeError, TypeError, OSError) as exc:
                    self.counter_errors[name] = repr(exc)
            return result

        traced.__wrapped__ = func
        return traced

    @contextlib.contextmanager
    def installed(self, package: types.ModuleType):
        """Trace `package`'s public functions inside the block, then restore them."""
        saved = []
        wrappers: dict[int, Callable] = {}
        try:
            for module, attr, name in _targets(package):
                func = getattr(module, attr)
                wrapper = wrappers.setdefault(id(func), self._wrap(name, func))
                saved.append((module, attr, func))
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, func in reversed(saved):
                setattr(module, attr, func)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s, failed and summed work counts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, counts, failed) in enumerate(self.spans):
            layer = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "failed": 0})
            layer["calls"] += 1
            layer["total_s"] += end - start
            layer["self_s"] += end - start - child_time[i]
            layer["failed"] += int(failed)
            for key, value in (counts or {}).items():
                layer[key] = layer.get(key, 0) + value
        return out

    def layer_metrics(self) -> dict[str, dict[str, float | str]]:
        """The LAYER_METRICS values, zero for layers the run never entered."""
        summary = self.summary()
        return {
            f"{name}.{stat}": {"value": summary.get(name, {}).get(stat, 0), "unit": unit}
            for name, stat, unit in LAYER_METRICS
        }
