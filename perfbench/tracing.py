"""Span tracer that wraps entrobox's public functions from outside.

:meth:`Tracer.install` replaces each traced function at every module
binding through which it is called (``entrobox.qstate.von_neumann`` and the
copies that ``entrobox.cli`` and ``entrobox.tomography`` imported, for
example) with a wrapper that records a span: name, start, end, parent span
and request id. ``minimize_batch`` is wrapped as bound in
``entrobox.tomography`` so that the objective callable passed to it can be
timed too. Spans stay in memory until :meth:`Tracer.write`; per-layer
metrics, self times included, are derived from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

# Per-layer span name -> (defining module, traced public functions).
LAYERS = {
    "cli.suite": ("entrobox.cli", ("run_suite",)),
    "cli.eval": ("entrobox.cli", ("main",)),
    "cli.ingest": ("entrobox.cli", ("ingest_prob_vec", "ingest_density")),
    "simplex.checks": (
        "entrobox.simplex",
        (
            "subadditivity_gap",
            "strong_subadditivity_gap",
            "conditional_pair",
            "conditional_entropy",
            "conditional_tsallis",
            "tsallis_monotonicity_check",
            "shannon",
            "tsallis",
        ),
    ),
    "simplex.validate": ("entrobox.simplex", ("validate_prob_vec", "normalized_prob_vec")),
    "qstate.von_neumann": ("entrobox.qstate", ("von_neumann",)),
    "qstate.reduce": ("entrobox.qstate", ("reduce",)),
    "qstate.checks": (
        "entrobox.qstate",
        ("quantum_subadditivity", "quantum_strong_subadditivity"),
    ),
    "qstate.validate_density": ("entrobox.qstate", ("validate_density",)),
    "tomography.discord": ("entrobox.tomography", ("discord",)),
    "tomography.tomogram": ("entrobox.tomography", ("tomogram",)),
    "ensembles": (
        "entrobox.ensembles",
        ("dirichlet", "ginibre", "diagonal_density", "haar", "spawn_seeds"),
    ),
    "report": ("entrobox.report", ("make_report",)),
}

# Every module whose namespace may hold a binding of a traced function.
MODULES = (
    "entrobox",
    "entrobox.cli",
    "entrobox.simplex",
    "entrobox.qstate",
    "entrobox.tomography",
    "entrobox.report",
    "entrobox.ensembles",
    "entrobox._neldermead",
)

ROOT = "bench.request"
OBJECTIVE = "tomography.objective"
NELDERMEAD = "neldermead"
# Dimensions the workloads minimize at (eval's readout-min: qubits).
MINIMIZE_DIMS = (2,)

_COUNTED = (
    "cli.ingest",
    "simplex.checks",
    "qstate.von_neumann",
    "qstate.reduce",
    "qstate.checks",
    "qstate.validate_density",
    "tomography.discord",
    "tomography.tomogram",
    "ensembles",
    "report",
)

# Per-layer metrics in output order: name -> (unit, better).
PER_LAYER = {
    "cli.suite.self_s": ("s", "lower"),
    "cli.eval.self_s": ("s", "lower"),
    **{
        f"{layer}.{kind}": unit
        for layer in _COUNTED
        for kind, unit in (("calls", ("count", "lower")), ("s", ("s", "lower")))
    },
    "simplex.validate.calls": ("count", "lower"),
    "simplex.validate.s": ("s", "lower"),
    "tomography.objective.calls": ("count", "lower"),
    "tomography.objective.rows": ("count", "lower"),
    "tomography.objective.s": ("s", "lower"),
    "tomography.objective.rows_per_call": ("rows/call", "higher"),
    **{f"tomography.minimize.d{d}.s": ("s", "lower") for d in MINIMIZE_DIMS},
    "neldermead.calls": ("count", "lower"),
    "neldermead.slots": ("count", "lower"),
    "neldermead.nfev": ("count", "lower"),
    "neldermead.nfev_per_state": ("count", "lower"),
    "neldermead.self_s": ("s", "lower"),
    "neldermead.occupancy": ("ratio", "higher"),
    "bench.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.self_sum_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
}


class Tracer:
    """In-memory spans over rebound entrobox functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self._stack: list[int] = []
        self._request_id = -1
        self._patched: list[tuple[object, str, object]] = []
        self.counts: Counter[str] = Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self._request_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def begin_request(self) -> int:
        """Open the root span of the next request (ids count from 0);
        close it with :meth:`close`."""
        self._request_id += 1
        return self.open(self._id(ROOT))

    def _wrap(self, name: str, fn):
        name_id = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    def _wrap_minimize(self, fn):
        @functools.wraps(fn)
        def traced(states, *args, **kwargs):
            dim = states[0].dim if states else 0
            self.counts["states"] += len(states)
            i = self.open(self._id(f"tomography.minimize.d{dim}"))
            try:
                return fn(states, *args, **kwargs)
            finally:
                self.close(i)

        return traced

    def _wrap_neldermead(self, fn):
        nm_id = self._id(NELDERMEAD)
        obj_id = self._id(OBJECTIVE)

        @functools.wraps(fn)
        def traced(objective, x0, *args, **kwargs):
            slots = np.atleast_2d(x0).shape[0]

            def timed_objective(points, which):
                self.counts["rows"] += len(points)
                self.counts["slot_capacity"] += slots
                j = self.open(obj_id)
                try:
                    return objective(points, which)
                finally:
                    self.close(j)

            self.counts["slots"] += slots
            i = self.open(nm_id)
            try:
                result = fn(timed_objective, x0, *args, **kwargs)
            finally:
                self.close(i)
            self.counts["nfev"] += int(np.sum(result.nfev))
            return result

        return traced

    def _rebind(self, original, wrapper) -> None:
        for mod_name in MODULES:
            mod = importlib.import_module(mod_name)
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        for layer, (mod_name, functions) in LAYERS.items():
            mod = importlib.import_module(mod_name)
            for fn_name in functions:
                original = getattr(mod, fn_name)
                self._rebind(original, self._wrap(layer, original))
        tomography = importlib.import_module("entrobox.tomography")
        original = tomography.minimize_entropy_batch
        self._rebind(original, self._wrap_minimize(original))
        # Only the binding tomography calls through, so that the objective
        # it passes can be wrapped.
        self._patched.append((tomography, "minimize_batch", tomography.minimize_batch))
        tomography.minimize_batch = self._wrap_neldermead(tomography.minimize_batch)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
        )

    def metrics(self, wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        """Every :data:`PER_LAYER` metric from the recorded spans."""
        n = len(self.start)
        k = len(self.names)
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=n)
        own = dur - covered
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_t = np.bincount(names, weights=own, minlength=k)

        def get(arr, name: str) -> float:
            i = self._ids.get(name)
            return 0.0 if i is None else float(arr[i])

        m: dict[str, float] = {
            "cli.suite.self_s": get(self_t, "cli.suite"),
            "cli.eval.self_s": get(self_t, "cli.eval"),
        }
        for layer in _COUNTED:
            m[f"{layer}.calls"] = get(calls, layer)
            m[f"{layer}.s"] = get(total, layer)
        m["simplex.validate.calls"] = get(calls, "simplex.validate")
        m["simplex.validate.s"] = get(total, "simplex.validate")
        obj_calls = get(calls, OBJECTIVE)
        m["tomography.objective.calls"] = obj_calls
        m["tomography.objective.rows"] = float(self.counts["rows"])
        m["tomography.objective.s"] = get(total, OBJECTIVE)
        m["tomography.objective.rows_per_call"] = self.counts["rows"] / obj_calls if obj_calls else 0.0
        for d in MINIMIZE_DIMS:
            m[f"tomography.minimize.d{d}.s"] = get(total, f"tomography.minimize.d{d}")
        m["neldermead.calls"] = get(calls, NELDERMEAD)
        m["neldermead.slots"] = float(self.counts["slots"])
        m["neldermead.nfev"] = float(self.counts["nfev"])
        states = self.counts["states"]
        m["neldermead.nfev_per_state"] = self.counts["nfev"] / states if states else 0.0
        m["neldermead.self_s"] = get(self_t, NELDERMEAD)
        capacity = self.counts["slot_capacity"]
        m["neldermead.occupancy"] = self.counts["rows"] / capacity if capacity else 0.0
        m["bench.self_s"] = get(self_t, ROOT)
        self_sum = float(own.sum())
        m["trace.spans"] = float(n)
        m["trace.self_sum_s"] = self_sum
        m["trace.wall_s"] = wall_s
        m["trace.untraced_wall_s"] = untraced_wall_s
        m["trace.overhead_s"] = wall_s - untraced_wall_s
        m["trace.overhead_share"] = (wall_s - untraced_wall_s) / untraced_wall_s
        m["trace.unattributed_share"] = 1.0 - self_sum / wall_s
        return {name: m[name] for name in PER_LAYER}
