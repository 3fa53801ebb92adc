"""Span tracing of bergmanlab's public functions, installed from outside.

The package imports its functions by name (``from .kernels import
build_space``), so one function object sits in many module namespaces.
``Tracer.install`` wraps every public function of the layer modules and
rebinds every attribute, in every ``bergmanlab`` module, that holds one of
those function objects; ``Tracer.restore`` puts each original back.

Each call records a span: its name, start, end, parent span, pass id and,
inside ``run_scenario``, the scenario id.  Spans stay in memory until the
run ends.  A span's self time is its duration minus the durations of its
traced children.  Work the tracer itself does after a call (content keys,
shape counts) runs inside a ``trace.hook`` span, so it is charged to the
tracer and not to the caller's self time.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

from bergmanlab.weights import eval_weight

PACKAGE = "bergmanlab"
LAYER_MODULES = (
    "kernels",
    "homotopy",
    "comparison",
    "quantization",
    "spans",
    "battery",
    "scenarios",
    "cli",
)
HOOK_SPAN = "trace.hook"
NO_SCENARIO = -1


def _digest(h, arr) -> None:
    arr = np.ascontiguousarray(arr)
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr)


class PassCounters:
    """Counts made at layer boundaries during one traced pass."""

    def __init__(self):
        self.build_keys = set()
        self.gram_flop = 0
        self.gram_byte = 0
        self.instances = 0
        self.draws = 0
        self.emit_bytes = 0


class Tracer:
    """Wraps the layer functions, records spans and per-pass counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.scenario_names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.pass_id = array("i")
        self.scenario = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[int, PassCounters] = {}
        self._stack: list[int] = []
        self._scenario = NO_SCENARIO
        self._bindings: list[tuple] = []
        self._hook_id = self._intern(HOOK_SPAN)
        self.begin_pass(0)

    # -- span records -------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pass_id.append(self._pass)
        self.scenario.append(self._scenario)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_pass(self, pass_id: int) -> None:
        self._pass = pass_id
        self.counters[pass_id] = PassCounters()

    # -- rebinding ----------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function and rebind every name bound to it."""
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"{PACKAGE}.{short}"]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(value)] = (value, self._wrap(f"{short}.{attr}", value))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def restore(self) -> None:
        """Put back every original function that install replaced."""
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    @property
    def bindings(self) -> list[tuple]:
        return list(self._bindings)

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        after = _AFTER_HOOKS.get(name)
        arg = _argument_reader(fn)
        tracer = self

        if name == "scenarios.run_scenario":

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                outer = tracer._scenario
                config = arg(args, kwargs, "config")
                tracer._scenario = tracer._scenario_index(config.scenario_id)
                try:
                    idx = tracer._open(nid)
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        tracer._close(idx)
                finally:
                    tracer._scenario = outer

            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                hook = tracer._open(tracer._hook_id)
                try:
                    after(tracer.counters[tracer._pass], args, kwargs, arg, result)
                finally:
                    tracer._close(hook)
            return result

        return traced

    def _scenario_index(self, scenario_id: str) -> int:
        if scenario_id not in self.scenario_names:
            self.scenario_names.append(scenario_id)
        return self.scenario_names.index(scenario_id)

    # -- reduction ----------------------------------------------------

    def spans(self):
        """Arrays (name, parent, pass, scenario, duration, self time) of all spans."""
        name = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        pass_id = np.frombuffer(self.pass_id, dtype=np.int32)
        scenario = np.frombuffer(self.scenario, dtype=np.int32)
        duration = np.frombuffer(self.end, dtype=float) - np.frombuffer(
            self.start, dtype=float
        )
        covered = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        return name, parent, pass_id, scenario, duration, duration - covered


def _argument_reader(fn):
    """A reader of one named argument of a call to fn, defaults applied.

    Cheaper than ``inspect.Signature.bind`` on every call.
    """
    params = inspect.signature(fn).parameters
    position = {name: i for i, name in enumerate(params)}
    defaults = {name: p.default for name, p in params.items()}

    def read(args, kwargs, name):
        if name in kwargs:
            return kwargs[name]
        i = position[name]
        return args[i] if i < len(args) else defaults[name]

    return read


def _build_space_key(counters, args, kwargs, arg, space):
    h = hashlib.blake2b(digest_size=16)
    _digest(h, space.span.basis_values)
    _digest(h, space.measure.points)
    _digest(h, space.measure.masses)
    _digest(h, eval_weight(space.weight, space.measure).values)
    h.update(repr(arg(args, kwargs, "rank_tol")).encode())
    counters.build_keys.add(h.digest())


def _assemble_gram_shape(counters, args, kwargs, arg, gram):
    m, d = arg(args, kwargs, "span").basis_values.shape
    # Computed from the shapes, not measured: a complex (d x m)(m x d)
    # product is 8 m d^2 flops; the compulsory traffic reads the (m, d)
    # complex span, the masses and the weight values, and writes the Gram.
    counters.gram_flop += 8 * m * d * d
    counters.gram_byte += 16 * m * d + 16 * m + 16 * d * d


def _generate_instance_draws(counters, args, kwargs, arg, instance):
    counters.instances += 1
    counters.draws += instance.resamples + 1


def _emit_report_bytes(counters, args, kwargs, arg, written):
    counters.emit_bytes += sum(os.path.getsize(path) for path in written)


_AFTER_HOOKS = {
    "kernels.build_space": _build_space_key,
    "kernels.assemble_gram": _assemble_gram_shape,
    "battery.generate_instance": _generate_instance_draws,
    "scenarios.emit_report": _emit_report_bytes,
}
