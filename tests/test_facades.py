"""The package facades: what they export, and what importing them costs.

Each ``repro.<pkg>/__init__.py`` is a lazy facade (``repro/_lazy.py``):
importing the package imports none of its submodules, and a name's
owning submodule is imported on first access.  The contract tests pin
that every exported name resolves to its owner's object; the footprint
tests pin, in a fresh interpreter, that an engine-only process never
compiles the §3 crawl pipeline, the device zoo or the full testbed.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")

FACADES = (
    "analysis", "crawler", "ecosystem", "engine", "experiments", "faults", "frontend",
    "iot", "net", "obs", "reporting", "services", "simcore", "testbed", "webapps",
)


def facade_table(package):
    """``{public name: (submodule, attribute)}`` as the facade's source spells it.

    Reads both spellings a facade can have: ``from repro.pkg.sub import
    name [as public]`` lines and a ``_lazy.exports(globals(), {...})``
    table.
    """
    path = os.path.join(SRC, "repro", package, "__init__.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    table = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith(f"repro.{package}."):
            submodule = node.module.rsplit(".", 1)[1]
            for alias in node.names:
                table[alias.asname or alias.name] = (submodule, alias.name)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "exports":
            for submodule, names in ast.literal_eval(node.args[1]).items():
                for entry in names:
                    public, attribute = entry if isinstance(entry, tuple) else (entry, entry)
                    table[public] = (submodule, attribute)
    return table


@pytest.mark.parametrize("package", FACADES)
class TestFacadeContract:
    def test_every_name_is_its_owners_object(self, package):
        pkg = importlib.import_module(f"repro.{package}")
        table = facade_table(package)
        assert set(table) == set(pkg.__all__)
        for name, (submodule, attribute) in table.items():
            owner = importlib.import_module(f"repro.{package}.{submodule}")
            assert getattr(pkg, name) is getattr(owner, attribute), name

    def test_dir_lists_every_export(self, package):
        pkg = importlib.import_module(f"repro.{package}")
        assert set(pkg.__all__) <= set(dir(pkg))

    def test_star_import_binds_exactly_all(self, package):
        namespace = {}
        exec(f"from repro.{package} import *", namespace)
        namespace.pop("__builtins__")
        pkg = importlib.import_module(f"repro.{package}")
        assert set(namespace) == set(pkg.__all__)

    def test_unknown_name_raises_attribute_error_naming_the_package(self, package):
        pkg = importlib.import_module(f"repro.{package}")
        with pytest.raises(AttributeError, match=f"repro.{package}"):
            pkg.NoSuchName

    def test_all_has_no_duplicates(self, package):
        pkg = importlib.import_module(f"repro.{package}")
        assert len(pkg.__all__) == len(set(pkg.__all__))


def loaded_after(statement):
    """The ``repro`` modules a fresh interpreter holds after *statement*."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


class TestImportFootprint:
    def test_facades_import_no_submodule(self):
        statement = "\n".join(f"import repro.{package}" for package in FACADES)
        expected = {"repro", "repro._lazy"} | {f"repro.{package}" for package in FACADES}
        assert loaded_after(statement) == expected

    def test_engine_facade_alone(self):
        assert loaded_after("import repro.engine") == {"repro", "repro._lazy", "repro.engine"}

    def test_engine_world_skips_the_crawl_pipeline_and_the_testbed(self):
        loaded = loaded_after("import repro.testbed.chaos, repro.testbed.workload")
        section3 = ("ecosystem", "crawler", "frontend", "analysis", "reporting",
                    "experiments", "webapps")
        assert not [m for m in loaded if m.partition(".")[2].split(".")[0] in section3]
        assert not loaded & {
            "repro.services.official",
            "repro.services.custom",
            "repro.testbed.testbed",
            "repro.testbed.scenarios",
            "repro.testbed.corpus_bridge",
        }
        assert {"repro.testbed.chaos", "repro.testbed.workload"} <= loaded
