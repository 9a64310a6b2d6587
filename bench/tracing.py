"""Span tracing of the mflangevin layers, done from outside the library.

The tracer replaces every public function defined in the package with a
timing wrapper, in every module namespace that holds a binding to it:
``langevin``, ``studies`` and ``objective`` each import ``forward_paths``,
``train`` or ``entropy_estimate`` by name, so patching the defining module
alone would miss their calls.  The callables of the ``ModelSpec`` that
``build_setup`` returns, and ``TrainerConfig.fine_offsets``, are wrapped
too.  Spans (name, parent, start, end, job repetition) are kept in compact
arrays in memory and written out once at the end.

The span stack is a single list, so the traced program must run on one
thread; every workload runs its study with ``threads = 1``.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import math
import os
import pkgutil
import time
from array import array
from collections import Counter

import numpy as np

MODEL_MAPS = ("phi", "grad_x_phi", "grad_a_phi", "f", "grad_x_f", "grad_a_f",
              "g", "grad_x_g")


def package_modules(package):
    """The package itself and every submodule, imported."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


def rebind(modules, replacements: dict) -> list:
    """Point every module binding of an original function at its replacement.

    ``replacements`` maps original function objects to their substitutes.
    Returns the (module, name, original) triples that :func:`restore` undoes.
    """
    undo = []
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replacements:
                setattr(mod, name, replacements[obj])
                undo.append((mod, name, obj))
    return undo


def restore(undo: list) -> None:
    for mod, name, obj in reversed(undo):
        setattr(mod, name, obj)


def _step_normals_drawn(arguments, result):
    return np.size(arguments["fine_iters"]) * result.size


def _updates(arguments, result):
    return arguments["cfg"].n_iters


def _jacobian_bytes(arguments, result):
    return result.nbytes


def _cli_output_bytes(arguments, result):
    argv = list(arguments.get("argv") or [])
    out = argv[argv.index("--out") + 1] if "--out" in argv else "out"
    return sum(entry.stat().st_size for entry in os.scandir(out)
               if entry.is_file())


# Counters recorded at a layer boundary: span name -> (counter, measure,
# whether the measure reads the call's arguments).  Binding arguments costs
# microseconds, so the model maps, called most often, skip it.
_MEASURES = {
    "rng.step_normals": ("normals", _step_normals_drawn, True),
    "langevin.train": ("updates", _updates, True),
    "cli.main": ("cli_output_bytes", _cli_output_bytes, True),
}
_MODEL_MEASURES = {
    "grad_x_phi": ("jacobian_bytes", _jacobian_bytes, False),
    "grad_a_phi": ("jacobian_bytes", _jacobian_bytes, False),
}


class Tracer:
    """Records one span per call of a wrapped layer function."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.rep = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.current_rep = 0
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name: str, fn, measure=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        sig = inspect.signature(fn) if measure else None
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.rep.append(self.current_rep)
            self.end.append(math.nan)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if measure is not None:
                counter, how, reads_args = measure
                arguments = (sig.bind(*args, **kwargs).arguments
                             if reads_args else None)
                self.counters[counter] += how(arguments, result)
            return result

        return traced

    def traced_model(self, model):
        """Copy of a ModelSpec whose callables record spans."""
        maps = {m: self._wrap(f"models.{m}", getattr(model, m),
                              _MODEL_MEASURES.get(m)) for m in MODEL_MAPS}
        return dataclasses.replace(model, **maps)

    def install(self, package) -> None:
        modules = package_modules(package)
        wrappers = {}
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    span = f"{short}.{name}"
                    wrappers[obj] = self._wrap(span, obj, _MEASURES.get(span))
        config = importlib.import_module(f"{package.__name__}.config")
        traced_build = wrappers[config.build_setup]

        @functools.wraps(config.build_setup)
        def build_setup(*args, **kwargs):
            setup = traced_build(*args, **kwargs)
            return dataclasses.replace(setup,
                                       model=self.traced_model(setup.model))

        wrappers[config.build_setup] = build_setup
        self._undo = rebind(modules, wrappers)
        langevin = importlib.import_module(f"{package.__name__}.langevin")
        cls = langevin.TrainerConfig
        self._undo.append((cls, "fine_offsets", cls.fine_offsets))
        cls.fine_offsets = self._wrap("langevin.fine_offsets", cls.fine_offsets)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    # -- summaries -------------------------------------------------------

    def _arrays(self):
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=dur.size)
        return ids, dur, dur - child

    def layers(self) -> dict:
        """Per span name: calls, total and self seconds, median and p99 ms.

        The p99 is given only where a layer has at least 1,000 calls, so
        that ten calls lie beyond it.
        """
        ids, dur, self_t = self._arrays()
        out = {}
        for nid, name in enumerate(self.names):
            sel = ids == nid
            calls = int(sel.sum())
            if calls == 0:
                continue
            d = dur[sel]
            row = {"calls": calls, "total_s": float(d.sum()),
                   "self_s": float(self_t[sel].sum()),
                   "median_ms": float(np.median(d)) * 1e3}
            if calls >= 1000:
                row["p99_ms"] = float(np.quantile(d, 0.99)) * 1e3
            out[name] = row
        return out

    def write(self, spans_path, layers_path) -> None:
        """Spans as CSV (times in seconds from the first span) and the summary."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(spans_path, "w") as fh:
            fh.write("id,parent,rep,name,start_s,end_s\n")
            for i, (nid, par, rep, s, e) in enumerate(zip(
                    self.name_id, self.parent, self.rep, self.start, self.end)):
                fh.write(f"{i},{par},{rep},{self.names[nid]},"
                         f"{s - t0:.9f},{e - t0:.9f}\n")
        with open(layers_path, "w") as fh:
            json.dump({"layers": self.layers(), "counters": dict(self.counters)},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")


def layer_metrics(tracer: Tracer, n_reps: int, overhead_s) -> dict:
    """The benchmark's per-layer metrics, per traced job, as (value, unit).

    A layer the workload never calls reads 0 calls and 0 ms.
    """
    layers, counters = tracer.layers(), tracer.counters

    def ms(name):
        return layers[name]["median_ms"] if name in layers else 0.0

    def calls(name):
        return layers[name]["calls"] // n_reps if name in layers else 0

    def seconds(name, key):
        return layers[name][key] if name in layers else 0.0

    normals_s = seconds("rng.step_normals", "total_s")
    drift_evals = n_reps * calls("odes.hamiltonian_grad_at")
    study_self = sum(row["self_s"] for name, row in layers.items()
                     if name.startswith("studies.run_"))
    out = {
        "rng.step_normals.ms": (ms("rng.step_normals"), "ms"),
        "rng.step_normals.calls": (calls("rng.step_normals"), "count"),
        "rng.normals_per_s": (counters["normals"] / normals_s
                              if normals_s else 0.0, "1/s"),
    }
    for layer in ("hamiltonian_grad_at", "forward_paths", "adjoint_paths"):
        out[f"odes.{layer}.ms"] = (ms(f"odes.{layer}"), "ms")
        out[f"odes.{layer}.calls"] = (calls(f"odes.{layer}"), "count")
    for m in ("phi", "grad_x_phi", "grad_a_phi"):
        out[f"models.{m}.ms"] = (ms(f"models.{m}"), "ms")
    out.update({
        "models.jacobian_mb": (counters["jacobian_bytes"] / drift_evals / 2**20
                               if drift_evals else 0.0, "MiB"),
        "langevin.update.self_ms": (
            seconds("langevin.train", "self_s") / counters["updates"] * 1e3
            if counters["updates"] else 0.0, "ms"),
        "langevin.fine_offsets.ms": (ms("langevin.fine_offsets"), "ms"),
        "langevin.fine_offsets.calls": (calls("langevin.fine_offsets"), "count"),
        "objective.objective_Jsigma.ms": (ms("objective.objective_Jsigma"), "ms"),
        "objective.objective_J.calls": (calls("objective.objective_J"), "count"),
        "metrics.entropy_estimate.ms": (ms("metrics.entropy_estimate"), "ms"),
        "studies.self_s": (study_self / n_reps, "s"),
        "metrics.paired_distance.ms": (ms("metrics.paired_distance"), "ms"),
        "datasets.generate_dataset.ms": (ms("datasets.generate_dataset"), "ms"),
        "clouds.cloud_init.ms": (ms("clouds.cloud_init"), "ms"),
        "clouds.cloud_to_csv.ms": (ms("clouds.cloud_to_csv"), "ms"),
        "cli.output_bytes": (counters["cli_output_bytes"] // n_reps, "bytes"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return out
