"""The package surface: exported names, names the demos import and the
benchmark wraps, import cost."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import mflangevin
from mflangevin import langevin

DEMOS = Path(__file__).resolve().parents[1] / "demos"
BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_exported_name_resolves():
    missing = [name for name in mflangevin.__all__
               if not hasattr(mflangevin, name)]
    assert not missing


def test_demos_import_only_names_that_exist():
    demos = sorted(DEMOS.glob("*.py"))
    assert demos
    missing = []
    for demo in demos:
        for node in ast.walk(ast.parse(demo.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "mflangevin"):
                module = importlib.import_module(node.module)
                missing += [f"{demo.name}: {node.module}.{alias.name}"
                            for alias in node.names
                            if not hasattr(module, alias.name)]
    assert not missing


def test_benchmark_tracer_names_exist():
    # bench/tracing.py wraps these by name; a rename would make a traced
    # benchmark run fail.  Its MODEL_MAPS is read without importing bench/.
    tree = ast.parse((BENCH / "tracing.py").read_text())
    [maps] = [ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets]
              == ["MODEL_MAPS"]]
    fields = {f.name for f in dataclasses.fields(mflangevin.ModelSpec)}
    assert maps and not set(maps) - fields
    assert callable(langevin.TrainerConfig.fine_offsets)
    assert callable(langevin.step_normals)
    assert callable(langevin.train)


def _library_modules(tree):
    """Local name -> library module, of each ``from mflangevin import``
    in ``tree``."""
    return {alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "mflangevin"
            for alias in node.names}


def test_benchmark_library_reads_resolve():
    # Every attribute bench/ reads on a module it imports with
    # ``from mflangevin import ...`` must exist, or a benchmark run fails.
    reads = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = _library_modules(tree)
        reads |= {(modules[node.value.id], node.attr)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules}
    assert {("studies", "run_euler_study"), ("langevin", "train"),
            ("odes", "mean_field_drift"), ("objective", "objective_J"),
            ("config", "parse_config"), ("config", "build_setup"),
            ("cli", "main"), ("rng", "step_normals")} <= reads
    missing = [f"{module}.{attr}" for module, attr in sorted(reads)
               if not hasattr(importlib.import_module(f"mflangevin.{module}"),
                              attr)]
    assert not missing


def _library_calls(tree):
    """(module, function, positional count or None, keywords) of every
    call in ``tree`` on a module imported with ``from mflangevin import``."""
    modules = _library_modules(tree)
    for node in ast.walk(tree):
        func = getattr(node, "func", None)
        if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in modules):
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            yield (modules[func.value.id], func.attr,
                   None if starred else len(node.args),
                   [kw.arg for kw in node.keywords if kw.arg])


def _arguments_read(func):
    """The names a measure reads from its bound ``arguments``."""
    names = set()
    for node in ast.walk(func):
        if (isinstance(node, ast.Subscript)
                and getattr(node.value, "id", None) == "arguments"):
            names.add(ast.literal_eval(node.slice))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and getattr(node.func.value, "id", None) == "arguments"):
            names.add(ast.literal_eval(node.args[0]))
    return names


def test_benchmark_library_calls_bind():
    # Every keyword bench/ passes to a library function must bind to its
    # signature, and every argument bench/tracing.py reads from a traced
    # call must be a parameter, or a benchmark run fails.
    calls = []
    for path in sorted(BENCH.glob("*.py")):
        calls += _library_calls(ast.parse(path.read_text()))
    assert ("studies", "run_euler_study", 2,
            ["s_final", "ref_divisor", "slope_bounds", "threads"]) in calls
    unbound = []
    for module, name, n_args, keywords in calls:
        fn = getattr(importlib.import_module(f"mflangevin.{module}"), name)
        try:
            inspect.signature(fn).bind_partial(
                *[None] * (n_args or 0), **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{module}.{name}: {exc}")
    assert not unbound

    tree = ast.parse((BENCH / "tracing.py").read_text())
    funcs = {node.name: node for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    [measures] = [node.value for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets]
                  == ["_MEASURES"]]
    reads = set()
    for span, entry in zip(measures.keys, measures.values):
        _, how, reads_args = entry.elts
        if ast.literal_eval(reads_args):
            reads |= {(ast.literal_eval(span), name)
                      for name in _arguments_read(funcs[how.id])}
    assert reads == {("rng.step_normals", "fine_iters"),
                     ("langevin.train", "cfg"), ("cli.main", "argv")}
    for span, name in reads:
        module, attr = span.split(".")
        fn = getattr(importlib.import_module(f"mflangevin.{module}"), attr)
        assert name in inspect.signature(fn).parameters, (span, name)


def test_import_leaves_w2_and_entropy_dependencies_unloaded():
    # scipy.optimize and scipy.spatial serve only W2 and entropy reports;
    # a training run must not pay for importing them.
    code = ("import sys, mflangevin; print(sorted(m for m in "
            "('scipy.optimize', 'scipy.spatial') if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(mflangevin.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_import_leaves_scipy_special_unloaded():
    # Philox normals load ndtri on their first draw, not at import.
    code = "import sys, mflangevin; print('scipy.special' in sys.modules)"
    src = os.path.dirname(os.path.dirname(mflangevin.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"
