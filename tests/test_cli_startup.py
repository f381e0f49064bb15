"""The CLI loads only the layer a command runs, and every exception
dualkit defines is a domain failure of one family.

Each README command runs here as a fresh ``python -m dualkit.cli``
process under ``-X importtime``; its standard output must equal the
in-process output through click's test runner, and the dualkit layers it
imported must be exactly the ones the command needs.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import dualkit
from dualkit import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import cli_timings  # noqa: E402

MODELS = ("exactlin", "models")
LAYERS_OF = {
    "diagrams": ("diagram",),
    "span": MODELS,
    "evconst": MODELS,
    "idem": ("exactlin", "idem", "models"),
    "equi": ("equivariant",),
}
README = cli_timings.readme_commands()


def expected_layers(argv):
    if argv[:2] == ["evconst", "split"]:
        return LAYERS_OF["idem"]
    return LAYERS_OF[argv[0]]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs")
    cli_timings.write_inputs(path)
    return path


def test_readme_lists_every_command_group():
    assert len(README) == 12
    assert {argv[0] for argv in README} == set(LAYERS_OF)


def test_importing_the_cli_loads_no_layer(inputs):
    out, layers = cli_timings.layers_loaded(["-c", "import dualkit.cli"],
                                            inputs)
    assert out.returncode == 0
    assert layers == ()


@pytest.mark.parametrize("argv", README, ids=[" ".join(a[:3]) for a in README])
def test_fresh_process_matches_in_process(argv, inputs, monkeypatch):
    out, layers = cli_timings.layers_loaded(["-m", "dualkit.cli", *argv],
                                            inputs)
    monkeypatch.chdir(inputs)
    res = CliRunner().invoke(cli.main, argv)
    assert out.returncode == res.exit_code == 0
    assert out.stdout == res.stdout
    assert layers == expected_layers(argv)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def defined_exceptions() -> dict:
    """Every Exception subclass that a dualkit module defines, keyed by
    "<layer>-<name>", where the layer is the module's name below dualkit
    ("dualkit" for the package itself)."""
    for info in pkgutil.walk_packages(dualkit.__path__, "dualkit."):
        importlib.import_module(info.name)
    found = {}
    for exc in _subclasses(Exception):
        package, *below = exc.__module__.split(".")
        if package == "dualkit":
            layer = below[0] if below else package
            found[f"{layer}-{exc.__name__}"] = exc
    return dict(sorted(found.items()))


EXCEPTIONS = defined_exceptions()


def test_the_walk_reaches_every_layer():
    assert {"dualkit-MalformedInput", "exactlin-FactorBudgetExceeded",
            "models-UnsupportedShape", "idem-NotTwistedTrivial",
            "diagram-RewriteError", "equivariant-GroupTooLarge"} <= set(
                EXCEPTIONS)


@pytest.mark.parametrize("exc", EXCEPTIONS.values(), ids=EXCEPTIONS.keys())
def test_domain_exceptions_share_one_base(exc):
    assert issubclass(exc, dualkit.DomainError)


def test_rep_names_match_the_presets():
    from dualkit.equivariant import REP_PRESETS
    assert cli.REP_NAMES == tuple(sorted(REP_PRESETS))
