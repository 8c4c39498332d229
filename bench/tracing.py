"""Spans around the calls into each layer of ``coupled_mzi``, from outside.

The layers are the package's modules.  :class:`Tracer` replaces, in the
namespaces that look them up (``cli``, ``conditioning``, ``stochastic``,
``measurement`` and ``config``), every public function defined in one of
the layer modules by a wrapper that records a span: name, start, end,
parent span and op id.  Nothing in the package changes; removing the
wrappers restores the original objects.

Spans stay in compact in-memory arrays until the run ends.  A span's self
time is its duration minus the durations of its children, so the self
times of one op add up to the duration of its root span (``cli.main``).
"""

from __future__ import annotations

import enum
import importlib
import inspect
import sys
import time
from array import array
from dataclasses import fields, is_dataclass

import numpy as np

PACKAGE = "coupled_mzi"
LAYERS = ("config", "params", "scattering", "measurement", "conditioning",
          "stochastic", "interaction", "cli")
NAMESPACES = ("cli", "conditioning", "stochastic", "measurement", "config")
SIZEOF_SPAN = "trace.sizeof"
SAMPLER_PREFIX = "sample_events"
_SAMPLE_ELEMENTS = 1024


def deep_size(obj) -> int:
    """Bytes held by ``obj`` and what it alone references.

    Objects shared process-wide (enum members, ``None``, booleans, the
    cached small integers) are not counted.  Lists and tuples longer than
    1024 elements are measured on 1024 evenly spaced elements and scaled,
    so the figure is computed, not read from the allocator.
    """
    if isinstance(obj, np.ndarray):
        return sys.getsizeof(obj) + (obj.nbytes if obj.base is not None else 0)
    if isinstance(obj, (list, tuple)) and len(obj) > _SAMPLE_ELEMENTS:
        picks = np.linspace(0, len(obj) - 1, _SAMPLE_ELEMENTS).astype(int)
        per_element = sum(_own_size(obj[i]) for i in picks) / len(picks)
        return sys.getsizeof(obj) + int(round(per_element * len(obj)))
    return _own_size(obj)


def _own_size(obj) -> int:
    if obj is None or isinstance(obj, (bool, enum.Enum)):
        return 0
    if isinstance(obj, int) and -5 <= obj <= 256:
        return 0
    if isinstance(obj, np.ndarray):
        return deep_size(obj)
    size = sys.getsizeof(obj)
    if isinstance(obj, (list, tuple)):
        return size + sum(_own_size(item) for item in obj)
    if is_dataclass(obj):
        return size + sum(_own_size(getattr(obj, f.name)) for f in fields(obj))
    return size


class Tracer:
    """Records spans of the op set by :meth:`run_op`; passes through otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.name_id: array = array("i")
        self.parent: array = array("i")
        self.op: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.raised: dict[int, str] = {}
        self.sampled: dict[int, tuple[int, int]] = {}  # span -> (events, container bytes)
        self._stack: list[int] = []
        self._op = -1
        self._sites: list[tuple[object, str, object, object]] | None = None
        self._sizeof_id = self._span_name(SIZEOF_SPAN, "trace")

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every public layer function in every traced namespace."""
        if self._sites is None:
            self._sites = self._find_sites()
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for module, attr, original, _ in self._sites or ():
            setattr(module, attr, original)

    def _find_sites(self) -> list[tuple[object, str, object, object]]:
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    originals[id(value)] = (value, layer)
        wrappers = {}
        sites = []
        for namespace in NAMESPACES:
            module = importlib.import_module(f"{PACKAGE}.{namespace}")
            for attr, value in vars(module).items():
                if id(value) in originals:
                    if id(value) not in wrappers:
                        wrappers[id(value)] = self._wrap(*originals[id(value)])
                    sites.append((module, attr, value, wrappers[id(value)]))
        return sites

    def _span_name(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        return len(self.names) - 1

    def _wrap(self, func, layer: str):
        name_id = self._span_name(func.__name__, layer)
        sampler = func.__name__.startswith(SAMPLER_PREFIX)
        signature = inspect.signature(func) if sampler else None
        clock = time.perf_counter
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op < 0:
                return func(*args, **kwargs)
            index = len(tracer.start)
            tracer.name_id.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer._op)
            tracer.end.append(0.0)
            stack.append(index)
            tracer.start.append(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer.end[index] = clock()
                stack.pop()
                tracer.raised[index] = type(exc).__name__
                raise
            tracer.end[index] = clock()
            stack.pop()
            if sampler:
                tracer._measure_container(index, signature, args, kwargs, result)
            return result

        traced.__name__ = func.__name__
        return traced

    def _measure_container(self, span, signature, args, kwargs, result) -> None:
        """Events and deep size of a sampler's result, in a span of its own."""
        index = len(self.start)
        self.name_id.append(self._sizeof_id)
        self.parent.append(self.parent[span])
        self.op.append(self._op)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        events = int(signature.bind(*args, **kwargs).arguments.get("n", 0))
        self.sampled[span] = (events, deep_size(result))
        self.end[index] = time.perf_counter()

    # ------------------------------------------------------------ running

    def run_op(self, op_id: int, func, *args):
        """Call ``func(*args)`` with spans recorded under ``op_id``."""
        self._op = op_id
        try:
            return func(*args)
        finally:
            self._op = -1
            self._stack.clear()

    # --------------------------------------------------------- reductions

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays plus derived durations and self times."""
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int32)
        duration = end - start
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent],
                               minlength=len(start))
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": parent,
            "op": np.array(self.op, dtype=np.int32),
            "start": start,
            "end": end,
            "duration": duration,
            "self": duration - children,
        }

    def save(self, path) -> None:
        """Write every span to a compressed ``.npz`` file."""
        spans = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self.layers),
            raised_span=np.array(list(self.raised), dtype=np.int64),
            raised_type=np.array(list(self.raised.values()), dtype=str),
            **{k: spans[k] for k in ("name_id", "parent", "op", "start", "end")},
        )
