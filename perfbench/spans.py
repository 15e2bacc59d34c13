"""Span recorder that wraps the public functions of the lateralvdw modules.

A span is (name, start, end, parent, op id).  Spans are kept in compact
in-memory columns and written out once, when the traced process ends.
Self time is a span's duration minus the time its child spans cover; it is
accumulated per span name as spans close, so per-layer totals need no
second pass over the spans.

Patching follows the way the package binds names: each public function is
replaced in its defining module and in every lateralvdw module (the package
namespace included) that imported it by name.  Public methods of public
classes are wrapped in the class.  Calls made through other references,
such as the CLI's verb dispatch table, run unwrapped and count as the
caller's self time.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import sys
import time

import numpy as np

# Module layers in the order the per-layer metrics report them.
LAYERS = (
    "constants",
    "specfun",
    "quadrature",
    "greens",
    "system",
    "forces",
    "emission",
    "dynamics",
    "validation",
    "cli",
)

_INTEGRATORS = {"integrate_propagating", "integrate_evanescent", "integrate_angle"}


class Tracer:
    """Records spans for wrapped calls and counts quadrature integrand calls."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array.array("i")
        self.start_col = array.array("d")
        self.end_col = array.array("d")
        self.parent_col = array.array("q")
        self.op_col = array.array("i")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.failures: dict[str, int] = {}
        self.integrand_evals = 0
        # spectrum_coefficients calls made inside emission_spectrum.
        self.spectrum_coeff_calls = 0
        self.op_id = -1
        # Wrappers record only while active, so checking code that calls
        # into the package between ops stays out of the trace.
        self.active = False
        # Open spans: [span index, start, child time, name].
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def begin(self, name: str) -> None:
        index = len(self.start_col)
        parent = self._stack[-1][0] if self._stack else -1
        if name == "emission.spectrum_coefficients" and any(
            open_span[3] == "emission.emission_spectrum" for open_span in self._stack
        ):
            self.spectrum_coeff_calls += 1
        self.name_col.append(self._name_id(name))
        self.parent_col.append(parent)
        self.op_col.append(self.op_id)
        start = time.perf_counter()
        self.start_col.append(start)
        self.end_col.append(start)
        self._stack.append([index, start, 0.0, name])

    def end(self, failed: bool = False) -> None:
        stop = time.perf_counter()
        index, start, child, name = self._stack.pop()
        self.end_col[index] = stop
        duration = stop - start
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + (duration - child)
        if failed:
            self.failures[name] = self.failures.get(name, 0) + 1

    def _wrap(self, name: str, fn):
        tracer = self
        counts_integrand = name.startswith("quadrature.") and fn.__name__ in _INTEGRATORS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if counts_integrand:
                integrand = args[0]

                def counted(*point):
                    tracer.integrand_evals += 1
                    return integrand(*point)

                args = (counted,) + args[1:]
            tracer.begin(name)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                tracer.end(failed)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function and public method of the layer modules."""
        modules = {layer: importlib.import_module(f"lateralvdw.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(layer, obj)
        # Rebind the wrappers wherever the package holds the originals by name.
        holders = [m for n, m in list(sys.modules.items())
                   if n == "lateralvdw" or n.startswith("lateralvdw.")]
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                replacement = wrapped.get(id(obj))
                if replacement is not None:
                    self._patched.append((holder, attr, obj))
                    setattr(holder, attr, replacement)

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                replacement = self._wrap(name, raw)
            else:
                continue
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name totals plus counters, mergeable across processes."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "failures": dict(self.failures),
            "integrand_evals": self.integrand_evals,
            "spectrum_coeff_calls": self.spectrum_coeff_calls,
        }

    def write_spans(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.name_col, dtype=np.int32),
            start=np.frombuffer(self.start_col, dtype=np.float64),
            end=np.frombuffer(self.end_col, dtype=np.float64),
            parent=np.frombuffer(self.parent_col, dtype=np.int64),
            op=np.frombuffer(self.op_col, dtype=np.int32),
        )


def merge_summaries(summaries) -> dict:
    total = {"calls": {}, "self_s": {}, "failures": {}, "integrand_evals": 0,
             "spectrum_coeff_calls": 0}
    for summary in summaries:
        for key in ("calls", "self_s", "failures"):
            for name, value in summary[key].items():
                total[key][name] = total[key].get(name, 0) + value
        total["integrand_evals"] += summary["integrand_evals"]
        total["spectrum_coeff_calls"] += summary["spectrum_coeff_calls"]
    return total


def layer_metrics(summary: dict) -> dict:
    """Per-layer calls and self time, plus the quadrature and mode counters."""

    def by_layer(table, layer):
        return sum(v for k, v in table.items() if k.split(".", 1)[0] == layer)

    calls, self_s = summary["calls"], summary["self_s"]
    out = {}
    for layer in LAYERS:
        # constants holds one small helper: it is traced so that its time is
        # not charged to callers, but it is not reported as a layer.
        if layer == "constants":
            continue
        out[f"{layer}.calls"] = by_layer(calls, layer)
        out[f"{layer}.self_s"] = by_layer(self_s, layer)
    integrals = sum(calls.get(f"quadrature.{n}", 0) for n in _INTEGRATORS)
    out["quadrature.integrals"] = integrals
    out["quadrature.integrand_evals"] = summary["integrand_evals"]
    out["quadrature.evals_per_integral"] = (
        summary["integrand_evals"] / integrals if integrals else 0.0
    )
    out["quadrature.failures"] = sum(
        summary["failures"].get(f"quadrature.{n}", 0) for n in _INTEGRATORS
    )
    out["greens.mode_tensor_calls"] = calls.get("greens.greens_cylindrical_mode", 0)
    spectra = calls.get("emission.emission_spectrum", 0)
    out["emission.coeff_calls_per_spectrum"] = (
        summary["spectrum_coeff_calls"] / spectra if spectra else 0.0
    )
    return out
