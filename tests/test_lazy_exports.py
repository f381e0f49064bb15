"""dualkit.models and dualkit.equivariant export their names lazily.

Each package keeps a table of its public names by home submodule; a
name is imported from its home on first access.  These tests check that
the packages still behave as if they imported every name eagerly, and
that importing a package alone loads none of its submodules.
"""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualkit.equivariant
import dualkit.models

SRC = Path(dualkit.__file__).resolve().parent.parent
PACKAGES = [dualkit.models, dualkit.equivariant]
IDS = [package.__name__ for package in PACKAGES]


def fresh(code: str) -> str:
    """The standard output of code, run in a new interpreter with src
    on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


@pytest.mark.parametrize("package", PACKAGES, ids=IDS)
def test_every_name_is_the_object_of_its_home(package):
    table = [(sub, name) for sub, names in package._EXPORTS.items()
             for name in names]
    assert package.__all__ == [name for _, name in table]
    assert len(set(package.__all__)) == len(package.__all__)
    for sub, name in table:
        home = importlib.import_module(f"{package.__name__}.{sub}")
        value = getattr(package, name)
        assert value is getattr(home, name)
        assert name in vars(package)        # kept after the first access
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__ == home.__name__


@pytest.mark.parametrize("package", PACKAGES, ids=IDS)
def test_dir_lists_every_export(package):
    assert set(package.__all__) <= set(dir(package))
    assert dir(package) == sorted(dir(package))


@pytest.mark.parametrize("package", PACKAGES, ids=IDS)
def test_an_unknown_name_is_an_attribute_error(package):
    with pytest.raises(AttributeError,
                       match=f"module '{package.__name__}' has no attribute "
                             "'no_such_name'"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {package.__name__} import no_such_name", {})


@pytest.mark.parametrize("package", PACKAGES, ids=IDS)
def test_star_import_binds_exactly_all(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(package.__all__)
    assert all(namespace[name] is getattr(package, name)
               for name in package.__all__)


@pytest.mark.parametrize("name", IDS)
def test_importing_the_package_loads_no_submodule(name):
    out = fresh(f"import sys, {name}\n"
                "print(sorted(m for m in sys.modules "
                "if m.startswith('dualkit')))")
    assert out == f"{['dualkit', name]}\n"


def test_a_name_loads_only_its_home():
    out = fresh("import sys\n"
                "from dualkit.equivariant import get_group\n"
                "from dualkit.models import SpanFin\n"
                "print(sorted(m for m in sys.modules "
                "if m.startswith('dualkit')))")
    assert out == str(sorted([
        "dualkit", "dualkit.equivariant", "dualkit.equivariant.groups",
        "dualkit.equivariant.presets", "dualkit.exactlin", "dualkit.introws",
        "dualkit.models", "dualkit.models.base",
        "dualkit.models.spanfin"])) + "\n"


def test_diagram_functions_are_not_replaced_by_their_submodules():
    # dualkit.diagram stays eager: evaluate and signature name both a
    # submodule and the function the package exports from it
    out = fresh("import inspect\n"
                "import dualkit.diagram.evaluate\n"
                "import dualkit.diagram.signature\n"
                "import dualkit.diagram as dg\n"
                "print(inspect.isfunction(dg.evaluate), "
                "inspect.isfunction(dg.signature))")
    assert out == "True True\n"
    import dualkit.diagram as dg
    assert inspect.isfunction(dg.evaluate)
    assert inspect.isfunction(dg.signature)
