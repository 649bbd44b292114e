"""Span tracer that observes the sgcvapor layers from outside the package.

Each traced function is replaced, at every module attribute that binds it,
by a wrapper that records one span: name, start, end, parent span and
operation id. Spans live in flat in-memory arrays while the run is going
and are written out once, when it ends. Self time is a span's duration
minus the durations of its direct children.

Patching only the package root would miss calls: ``response_at`` looks up
``steady_state`` in ``sgcvapor.response``, the sweep loop looks up
``response_at`` in ``sgcvapor.sweep``, and so on. ``install`` therefore
scans every package module for the function object and patches each
binding it finds, so a later refactor that imports a function somewhere
new is traced without editing this file.
"""

from __future__ import annotations

import collections
import time
from array import array

import numpy as np

# (defining module, attribute) -> layer metric prefix. These are the
# public entry points of each layer; everything they call that is not in
# this list counts as their self time.
TRACED_FUNCTIONS = (
    ("model", "build_generator"),
    ("model", "unvectorize"),
    ("steady", "steady_state"),
    ("steady", "evolve"),
    ("response", "response_at"),
    ("sweep", "sweep_detuning"),
    ("sweep", "sweep_alignment"),
    ("sweep", "detect_bands"),
    ("sweep", "find_extrema"),
    ("cli", "main"),
    ("cli", "parse_config"),
    ("cli", "run"),
)
PACKAGE_MODULES = ("params", "model", "steady", "response", "sweep", "calibrate", "cli")
ROOT_SPAN = "bench.op"


class Tracer:
    """Records spans from wrapped functions; one instance per traced run."""

    def __init__(self):
        self.names = [ROOT_SPAN]
        self.name_index = {ROOT_SPAN: 0}
        self.name_id = array("i")
        self.parent = array("q")
        self.op_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.current_op = [0]
        self.paused = [False]
        self.raised = collections.Counter()   # (span name, exception class) -> count
        self.rk4_steps = 0
        self.sweep_points = 0
        self.sweep_points_ok = 0
        self._patches = []

    def _id(self, name: str) -> int:
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
        return self.name_index[name]

    def wrap(self, fn, name: str, on_call=None, on_result=None):
        """Return ``fn`` wrapped so that every call records a span."""
        nid = self._id(name)
        name_id, parent, op_id = self.name_id, self.parent, self.op_id
        start, end, stack, current_op = self.start, self.end, self.stack, self.current_op
        paused = self.paused
        raised = self.raised
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if paused[0]:
                return fn(*args, **kwargs)
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            op_id.append(current_op[0])
            start.append(0)
            end.append(0)
            stack.append(i)
            if on_call is not None:
                on_call(*args, **kwargs)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = clock()
                raised[(name, type(exc).__name__)] += 1
                raise
            else:
                t1 = clock()
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                stack.pop()
                start[i] = t0
                end[i] = t1

        traced.__wrapped__ = fn
        return traced

    def _count_rk4(self, params, rho0, t_final, dt=None):
        if dt is None:
            dt = self._default_dt
        self.rk4_steps += int(np.ceil(t_final / dt - 1e-9))

    def _count_sweep(self, table):
        self.sweep_points += len(table.grid)
        self.sweep_points_ok += len(table.grid) - len(table.failures)

    def install(self, package) -> None:
        """Patch every binding of the traced functions inside ``package``."""
        modules = [package] + [getattr(package, m) for m in PACKAGE_MODULES]
        self._default_dt = package.steady.DEFAULT_DT
        hooks = {"evolve": (self._count_rk4, None),
                 "sweep_detuning": (None, self._count_sweep),
                 "sweep_alignment": (None, self._count_sweep)}
        for layer, attr in TRACED_FUNCTIONS:
            original = getattr(getattr(package, layer), attr)
            on_call, on_result = hooks.get(attr, (None, None))
            wrapper = self.wrap(original, f"{layer}.{attr}", on_call, on_result)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        # dataclass __init__ looks __post_init__ up on the class
        params_cls = package.params.SystemParams
        original = params_cls.__post_init__
        self._patches.append((params_cls, "__post_init__", original))
        params_cls.__post_init__ = self.wrap(original, "params.post_init")

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def op(self, fn):
        """Wrap a benchmark operation as the root span of a new op id."""
        traced = self.wrap(fn, ROOT_SPAN)

        def next_op(inp):
            self.current_op[0] += 1
            return traced(inp)
        return next_op

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op_id": np.frombuffer(self.op_id, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def summary(self) -> dict:
        """Per span name: calls, total and self nanoseconds."""
        a = self.arrays()
        duration = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        children = np.zeros_like(duration)
        has_parent = a["parent"] >= 0
        np.add.at(children, a["parent"][has_parent], duration[has_parent])
        self_ns = duration - children
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=duration, minlength=k)
        own = np.bincount(a["name_id"], weights=self_ns, minlength=k)
        return {name: {"calls": int(calls[i]), "total_ns": float(total[i]),
                       "self_ns": float(own[i])}
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write every span to ``path`` (numpy .npz; names in ``names``)."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
