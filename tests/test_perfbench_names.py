"""Every dualkit name the benchmark under ``perfbench/`` uses still resolves.

``perfbench/tracing.py`` wraps functions and methods by name for the
traced runs (``run.py --trace 1``), and the ``perfbench/wl_*.py``
workloads import dualkit at load time.  A rename or deletion in dualkit
would first show up there, in a benchmark run; these tests make it fail
here instead.  Names are resolved the way ``Tracer.install`` resolves
them, without installing any wrapper, and nothing under ``perfbench/``
is modified.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = sorted(p.stem for p in PERFBENCH.glob("wl_*.py"))


@pytest.fixture(scope="module", autouse=True)
def perfbench_on_path():
    # the workloads import their siblings (common, refs) by plain name
    sys.path.insert(0, str(PERFBENCH))
    yield
    sys.path.remove(str(PERFBENCH))


def unresolved(targets) -> list:
    """The (module, qualified name) pairs that ``Tracer.install`` could
    not wrap: a method must be in its own class's ``__dict__`` (an
    inherited one is not), a function an attribute of its module."""
    missing = []
    for module_name, qualname, *_ in targets:
        module = importlib.import_module(module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(module, cls_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            raw = getattr(raw, "__func__", raw)  # a staticmethod
        else:
            raw = getattr(module, qualname, None)
        if not callable(raw):
            missing.append((module_name, qualname))
    return missing


def test_the_workloads_are_found():
    assert WORKLOADS == ["wl_cli", "wl_diagrams", "wl_equivariant",
                         "wl_exact_models"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_each_workload_imports(name):
    importlib.import_module(name)


def test_every_traced_target_resolves():
    targets = importlib.import_module("tracing").TARGETS
    assert len(targets) > 100
    assert unresolved(targets) == []


def test_a_renamed_or_inherited_name_is_reported():
    targets = [
        ("dualkit.models.evconst", "EvConst.compose", "s", ()),
        ("dualkit.models.evconst", "EvConst.no_such_method", "s", ()),
        ("dualkit.models.evconst", "EvConst.mor_eq", "s", ()),  # inherited
        ("dualkit.models.evconst", "NoSuchClass.compose", "s", ()),
        ("dualkit.exactlin", "Matrix.identity", "s", ()),  # staticmethod
        ("dualkit.exactlin", "no_such_function", "s", ()),
    ]
    assert unresolved(targets) == [
        ("dualkit.models.evconst", "EvConst.no_such_method"),
        ("dualkit.models.evconst", "EvConst.mor_eq"),
        ("dualkit.models.evconst", "NoSuchClass.compose"),
        ("dualkit.exactlin", "no_such_function"),
    ]
