"""The public surface: exported names and their one import path, the names
the benchmark's tracer wraps, and what importing the package loads."""

import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import power_forge

MODULES = ["power_forge"] + [
    f"power_forge.{info.name}" for info in pkgutil.iter_modules(power_forge.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_function_and_class_is_defined_where_it_is_exported(name):
    module = importlib.import_module(name)
    exported = [getattr(module, attr) for attr in getattr(module, "__all__", ())]
    strays = [obj.__qualname__ for obj in exported
              if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ != name]
    assert not strays


def test_every_name_the_bench_tracer_wraps_exists():
    # bench/layers.py imports nothing from power_forge, so it loads by path
    path = Path(__file__).resolve().parents[1] / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    for layer, (module_name, attrs) in layers.LAYERS.items():
        module = importlib.import_module(module_name)
        for attr in attrs:
            owner, _, name = attr.rpartition(".")
            holder = vars(getattr(module, owner)) if owner else vars(module)
            assert name in holder, (layer, attr)


def _fresh_interpreter(probe):
    """What ``probe`` prints in a new interpreter that imports this tree."""
    src = str(Path(power_forge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_importing_the_cli_loads_no_process_pool():
    probe = "import sys, power_forge.cli; print('concurrent.futures.process' in sys.modules)"
    assert _fresh_interpreter(probe) == "False\n"


def test_importing_the_cli_imports_decimal_nowhere_in_the_package():
    # fractions imports decimal itself, so the probe records who asks for it
    probe = """
import sys

importers = []

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "decimal":
            frame = sys._getframe(1)
            while frame.f_globals["__name__"].startswith(("importlib", "_frozen_importlib")):
                frame = frame.f_back
            importers.append(frame.f_globals["__name__"])

sys.meta_path.insert(0, Spy())
import power_forge.cli
print(importers)
"""
    assert _fresh_interpreter(probe) == "['fractions']\n"


def test_the_package_root_loads_nothing_and_a_submodule_import_binds_the_module():
    probe = ("import sys, types, power_forge; "
             "print([m for m in sys.modules if m.startswith('power_forge.')]); "
             "import power_forge.construct; "
             "print(isinstance(power_forge.construct, types.ModuleType))")
    assert _fresh_interpreter(probe) == "[]\nTrue\n"
