"""The CLI loads only the layer a command runs, and domain failures are
one exception family.

Each README command runs here as a fresh ``python -m dualkit.cli``
process under ``-X importtime``; its standard output must equal the
in-process output through click's test runner, and the dualkit layers it
imported must be exactly the ones the command needs.
"""

import importlib
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


@pytest.mark.parametrize("module, name", [
    ("exactlin", "DimensionMismatch"), ("exactlin", "NotInvertible"),
    ("exactlin", "PrimalityUnproven"), ("models", "UnsupportedShape"),
    ("idem", "NotTwistedTrivial"), ("equivariant", "GroupTooLarge"),
    ("equivariant", "InvalidAction"), ("equivariant", "NotADownset"),
    ("equivariant", "NotConvex"), ("equivariant", "NonIntegralAverage"),
    ("equivariant", "RepresentationError"), ("diagram", "RewriteError"),
    ("diagram", "TypingError"), ("diagram", "EvaluationError"),
])
def test_domain_exceptions_share_one_base(module, name):
    exc = getattr(importlib.import_module(f"dualkit.{module}"), name)
    assert issubclass(exc, dualkit.DomainError)


def test_rep_names_match_the_presets():
    from dualkit.equivariant import REP_PRESETS
    assert cli.REP_NAMES == tuple(sorted(REP_PRESETS))
