"""The package surface: exported names, names the demos import and the
benchmark wraps, import cost."""

import ast
import dataclasses
import importlib
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
