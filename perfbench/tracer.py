"""Spans and counts around calls into harmclass's public functions.

The tracer wraps every function a harmclass module lists in ``__all__`` and
puts the wrapper under every name that refers to it in any harmclass module.
Several modules import names directly (``verify`` and ``model`` import
``evaluate``; ``verify`` and ``bounds`` import ``adaptive_quadrature``;
``factory`` imports ``co_analytic_from``), so patching only the defining
module would miss those calls.  Nothing under ``src/`` changes.

A call is recorded only when it crosses into a module from another one:
``bounds.gprime_envelope`` calling ``bounds.hprime_envelope`` is part of the
first span, not a second.  ``verify.run_member_suite`` and
``verify.verify_member`` are left unwrapped, because they are orchestrators
whose own spans would make every per-check call intra-module.

Spans live in memory (name, parent, unit, start, end) and are written out
once, at the end of the run.  Every span of one unit (a member or a bound
point) carries that unit's id.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import itertools
import json
import types
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("series", "model", "factory", "numerics", "bounds", "verify", "cli")

#: Orchestrators left unwrapped; see the module docstring.
UNWRAPPED = frozenset({"verify.run_member_suite", "verify.verify_member"})

ENVELOPES = frozenset(
    {"bounds.hprime_envelope", "bounds.gprime_envelope", "bounds.dilatation_envelope"}
)

ROOT = "bench.unit"


def freeze(value):
    """Hashable stand-in for a value, used to count distinct calls.

    Functions are compared by code and closure contents, because the
    integrands handed to the quadrature are fresh closures on every call.
    """
    if isinstance(value, types.FunctionType):
        cells = []
        for cell in value.__closure__ or ():
            try:
                cells.append(freeze(cell.cell_contents))
            except ValueError:  # cell not yet bound
                cells.append("<empty>")
        return (value.__code__, tuple(cells), freeze(value.__defaults__))
    if isinstance(value, (tuple, list)):
        return tuple(map(freeze, value))
    if isinstance(value, np.ndarray):
        digest = hashlib.blake2b(np.ascontiguousarray(value).tobytes(), digest_size=16)
        return (value.dtype.str, value.shape, digest.digest())
    try:
        hash(value)
    except TypeError:
        pass
    else:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__qualname__,
            tuple(freeze(getattr(value, f.name)) for f in dataclasses.fields(value)),
        )
    return (type(value).__qualname__, id(value))


class Tracer:
    """Records spans and counts while used as a context manager."""

    def __init__(self, package) -> None:
        self._modules = {
            name: importlib.import_module(f"{package.__name__}.{name}") for name in MODULES
        }
        self._package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_unit: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack: list[tuple[int, str]] = []
        self._unit = -1
        self.counts: Counter = Counter()
        self._quad_keys: set = set()
        self._env_keys: set = set()
        self._integrand_ticks = itertools.count()
        self._restore: list[tuple[object, str, object]] = []

    # --- installation: wrap on entry, restore on exit -----------------------

    def __enter__(self) -> "Tracer":
        namespaces = [self._package, *self._modules.values()]
        for mod_name, module in self._modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                qual = f"{mod_name}.{attr}"
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if qual in UNWRAPPED:
                    continue
                wrapper = self._wrap(mod_name, qual, fn)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            self._restore.append((ns, key, fn))
                            setattr(ns, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for ns, key, fn in reversed(self._restore):
            setattr(ns, key, fn)
        self._restore.clear()

    # --- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int, module: str) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_unit.append(self._unit)
        self.span_end.append(0.0)
        self._stack.append((idx, module))
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def unit(self, unit_id: int, fn, *args):
        """Run ``fn(*args)`` as unit ``unit_id`` under a root span."""
        self._unit = unit_id
        idx = self._open(self._name_id(ROOT), "bench")
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, module: str, qual: str, fn):
        name_id = self._name_id(qual)
        stack = self._stack
        counts = self.counts
        before = self._hook(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or stack[-1][1] == module:
                return fn(*args, **kwargs)
            counts[qual] += 1
            if before is not None:
                args = before(args, kwargs)
            idx = self._open(name_id, module)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _hook(self, qual: str):
        """Per-function counting done before the call; may replace args."""
        counts = self.counts
        if qual == "series.evaluate":

            def before(args, kwargs):
                s, z = args if len(args) == 2 else (args[0], kwargs["z"])
                counts["series.horner_madds"] += s.order * int(np.size(z))
                return args

            return before
        if qual == "numerics.adaptive_quadrature":

            tick = self._integrand_ticks.__next__

            def before(args, kwargs):
                f, rest = args[0], args[1:]
                self._quad_keys.add(
                    (freeze(f), freeze(rest), freeze(sorted(kwargs.items())))
                )

                def counted(x):
                    tick()
                    return f(x)

                return (counted, *rest)

            return before
        if qual in ENVELOPES:

            def before(args, kwargs):
                self._env_keys.add((qual, freeze(args), freeze(sorted(kwargs.items()))))
                return args

            return before
        if qual == "model.co_analytic_from":

            def before(args, kwargs):
                order = args[2] if len(args) > 2 else kwargs["order"]
                counts["model.g_order_sum"] += order
                return args

            return before
        return None

    # --- results ----------------------------------------------------------

    def aggregate(self) -> dict:
        """Inclusive and self seconds per span name and self seconds per module."""
        n = len(self.span_name)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        module_self: Counter = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            duration = self.span_end[i] - self.span_start[i]
            inclusive[name] += duration
            self_time[name] += duration - child[i]
            module_self[name.split(".")[0]] += duration - child[i]
        return {
            "inclusive_s": dict(inclusive),
            "self_s": dict(self_time),
            "module_self_s": dict(module_self),
            # Reading the tick counter advances it, so aggregate once per run.
            "counts": dict(
                self.counts, **{"numerics.integrand_evals": next(self._integrand_ticks)}
            ),
            "quad_distinct": len(self._quad_keys),
            "env_distinct": len(self._env_keys),
            "spans": n,
        }

    def write(self, path) -> None:
        """All spans, column-wise, as one JSON object."""
        data = {
            "names": self.names,
            "name": self.span_name,
            "parent": self.span_parent,
            "unit": self.span_unit,
            "start": self.span_start,
            "end": self.span_end,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))


#: ``verify.<check>_ms`` metric name -> the function that runs the check.
CHECKS = {
    "coeff": "verify_coefficients",
    "distortion": "verify_distortion",
    "g_growth": "verify_g_growth",
    "area": "verify_area",
    "f_growth": "verify_f_growth",
    "covering": "verify_covering",
    "bloch": "verify_bloch",
}

BOUND_FUNCTIONS = (
    "bloch_bound",
    "area_envelope",
    "f_growth_floor",
    "normality_constant",
    "covering_radius",
    "covering_radius_floor",
    "f_growth",
    "bn_bound",
    "g_growth_crosscheck",
)


def layer_metrics(agg: dict, units: int) -> dict:
    """Per-layer metrics per unit (member or point) from ``Tracer.aggregate``."""
    counts = agg["counts"]

    def ms(name: str) -> float:
        return 1e3 * agg["inclusive_s"].get(name, 0.0) / units

    def per_unit(key: str) -> float:
        return counts.get(key, 0) / units

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    quad_calls = counts.get("numerics.adaptive_quadrature", 0)
    env_calls = sum(counts.get(name, 0) for name in ENVELOPES)
    out = {f"verify.{check}_ms": ms(f"verify.{fn}") for check, fn in CHECKS.items()}
    out.update(
        {
            "series.evaluate_calls": per_unit("series.evaluate"),
            "series.evaluate_ms": ms("series.evaluate"),
            "series.horner_madds": per_unit("series.horner_madds"),
            "numerics.quad_calls": per_unit("numerics.adaptive_quadrature"),
            "numerics.quad_ms": ms("numerics.adaptive_quadrature"),
            "numerics.integrand_evals": per_unit("numerics.integrand_evals"),
            "numerics.quad_distinct_ratio": ratio(agg["quad_distinct"], quad_calls),
        }
    )
    out.update({f"bounds.{fn}_ms": ms(f"bounds.{fn}") for fn in BOUND_FUNCTIONS})
    out.update(
        {
            "bounds.envelope_calls": env_calls / units,
            "bounds.distinct_ratio": ratio(agg["env_distinct"], env_calls),
            "model.g_order_mean": ratio(
                counts.get("model.g_order_sum", 0), counts.get("model.co_analytic_from", 0)
            ),
            "model.co_analytic_from_ms": ms("model.co_analytic_from"),
            "model.jacobian_at_calls": per_unit("model.jacobian_at"),
            "model.jacobian_at_ms": ms("model.jacobian_at"),
            "factory.sample_ms": ms("factory.sample_certified_h"),
            "factory.build_member_ms": ms("factory.build_member"),
            "cli.main_ms": ms("cli.main"),
        }
    )
    out.update(
        {
            f"{module}.self_ms": 1e3 * agg["module_self_s"].get(module, 0.0) / units
            for module in MODULES
        }
    )
    return out
