"""The CLI loads only the layer a command runs, and every exception
dualkit defines is a domain failure of one family.

Each README command runs here as a fresh ``python -m dualkit.cli``
process under ``-X importtime``; its standard output must equal the
in-process output through ``cli_runner.run_cli``, the dualkit layers it
imported must be exactly the ones the command needs, and it must import
neither ``click`` nor, unless ``python -c pass`` already imports them,
``dataclasses`` and ``inspect``.  Within ``dualkit.models`` and
``dualkit.equivariant``, a command must load the submodules it runs and
none of those it does not.  Three README commands must print the same
JSON bytes under two hash seeds, and a reader that closes standard
output early gets no traceback.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from cli_runner import run_cli

import dualkit
from dualkit import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import cli_timings  # noqa: E402

SRC = cli_timings.SRC

MODELS = ("exactlin", "models")
LAYERS_OF = {
    "diagrams": ("diagram",),
    "span": MODELS,
    "evconst": MODELS,
    "idem": ("exactlin", "idem", "models"),
    "equi": ("equivariant",),
}
README = cli_timings.readme_commands()

# Per command: dualkit submodules it must load and submodules it must
# not, since the command does not run them.
EQUI_GROUPS = (("equivariant.groups", "equivariant.presets"),
               ("equivariant.rep", "equivariant.actions",
                "equivariant.certificate", "equivariant.spheres", "introws"))
EQUI_CERTIFICATE = (("equivariant.certificate", "equivariant.groups",
                     "equivariant.presets"),
                    ("equivariant.rep", "equivariant.actions",
                     "equivariant.spheres", "introws"))
SUBMODULES_OF = {
    "span": (("models.spanfin",), ("models.evconst", "models.product")),
    "evconst": (("models.evconst",), ("models.spanfin", "models.product")),
    "equi lattice": EQUI_GROUPS,
    "equi weyl": EQUI_GROUPS,
    "equi collapse": EQUI_CERTIFICATE,
    "equi validate": EQUI_CERTIFICATE,
}


def submodules_of(argv):
    """(must load, must not load) for argv, or None if it is unmapped."""
    return SUBMODULES_OF.get(" ".join(argv[:2]), SUBMODULES_OF.get(argv[0]))


SUBMODULE_COMMANDS = [argv for argv in README if submodules_of(argv)] + [
    ["equi", "weyl", "--group", "s3"],
    ["equi", "weyl", "--group", "d4", "--class", "2"]]


def expected_layers(argv):
    if argv[:2] == ["evconst", "split"]:
        return LAYERS_OF["idem"]
    return LAYERS_OF[argv[0]]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs")
    cli_timings.write_inputs(path)
    return path


@pytest.fixture(scope="module")
def allowed(inputs):
    """The exemptable forbidden modules that the interpreter alone
    imports."""
    return cli_timings.interpreter_imports(inputs)


def test_the_forbidden_modules_are_seen():
    names = {"click.core", "dataclasses", "inspect", "dualkit.cli"}
    assert cli_timings.forbidden_imports(names) == cli_timings.FORBIDDEN
    assert cli_timings.forbidden_imports(names, ("inspect",)) == (
        "click", "dataclasses")
    assert cli_timings.forbidden_imports({"clicker", "inspection"}) == ()


def test_click_is_never_allowed(monkeypatch):
    names = {"click.core", "dataclasses", "inspect"}
    assert cli_timings.forbidden_imports(names, cli_timings.FORBIDDEN) == (
        "click",)
    # an interpreter whose start-up imports all three exempts two
    monkeypatch.setattr(cli_timings, "imports",
                        lambda args, cwd: (None, names))
    assert cli_timings.interpreter_imports(None) == ("dataclasses", "inspect")


def test_readme_lists_every_command_group():
    assert len(README) == 12
    assert {argv[0] for argv in README} == set(LAYERS_OF)


def test_importing_the_cli_loads_no_layer(inputs, allowed):
    out, names = cli_timings.imports(["-c", "import dualkit.cli"], inputs)
    assert out.returncode == 0
    assert cli_timings.layers_of(cli_timings.dualkit_modules(names)) == ()
    assert cli_timings.forbidden_imports(names, allowed) == ()
    assert "argparse" not in names


@pytest.mark.parametrize("argv", README, ids=[" ".join(a[:3]) for a in README])
def test_fresh_process_matches_in_process(argv, inputs, allowed,
                                          monkeypatch):
    out, names = cli_timings.imports(["-m", "dualkit.cli", *argv], inputs)
    monkeypatch.chdir(inputs)
    res = run_cli(argv)
    assert out.returncode == res.exit_code == 0
    assert out.stdout == res.stdout
    assert cli_timings.layers_of(cli_timings.dualkit_modules(names)) == \
        expected_layers(argv)
    assert cli_timings.forbidden_imports(names, allowed) == ()


@pytest.mark.parametrize("argv", [
    ["equi", "collapse", "--group", "d4"],
    ["evconst", "split", "--m", "12"],
    ["span", "cofiber", "--shape", "backward", "--sizes", "2,1"],
], ids=" ".join)
def test_json_is_byte_identical_across_hash_seeds(argv, inputs):
    outs = [cli_timings.run(["-m", "dualkit.cli", *argv, "--format", "json"],
                            inputs, PYTHONHASHSEED=seed) for seed in "01"]
    assert outs[0].returncode == outs[1].returncode == 0
    assert outs[0].stdout.encode() == outs[1].stdout.encode()
    assert outs[0].stdout.startswith("{")


@pytest.mark.parametrize("argv", SUBMODULE_COMMANDS,
                         ids=[" ".join(a[:3]) for a in SUBMODULE_COMMANDS])
def test_fresh_process_loads_only_the_submodules_it_runs(argv, inputs):
    out, modules = cli_timings.modules_loaded(["-m", "dualkit.cli", *argv],
                                              inputs)
    assert out.returncode == 0
    loaded, unused = submodules_of(argv)
    assert set(loaded) <= set(modules)
    assert set(unused).isdisjoint(modules)


@pytest.mark.parametrize("argv", [
    ["span", "compose", "--left", '{"dom":2,"cod":2}', "--right", "{}"],
    ["span", "cofiber", "--morphism", "[[1]]"],
    ["evconst", "cofiber", "--morphism", "[1]"],
    ["evconst", "compose", "--left", "{", "--right", '{"free": [[1]]}'],
    ["span", "cofiber", "--morphism",
     '{"dom": 1, "cod": 257, "matrix": [%s]}' % ", ".join(["[1]"] * 257)],
    ["evconst", "cofiber", "--morphism", '{"free": [[%s]]}' % ", ".join(
        ["1"] * 257)],
], ids=["span-compose", "span-cofiber", "evconst-cofiber", "evconst-compose",
        "span-257x1", "evconst-1x257"])
def test_a_malformed_json_option_loads_no_layer(argv, inputs):
    out, layers = cli_timings.layers_loaded(["-m", "dualkit.cli", *argv],
                                            inputs)
    assert out.returncode == 2
    assert layers == ()


def test_a_reader_that_leaves_early_gets_no_traceback(inputs):
    # standard output closes before the command prints, as under | head;
    # the report is not delivered, so the command exits 1
    proc = subprocess.Popen([sys.executable, "-m", "dualkit.cli", "diagrams",
                             "verify", "--all"], cwd=inputs,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=str(SRC)))
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert stderr == b""


def test_submodule_map_covers_the_readme():
    assert {" ".join(a[:2]) for a in SUBMODULE_COMMANDS} == {
        "span compose", "span dual-check", "span cofiber", "evconst cofiber",
        "evconst split", "equi lattice", "equi weyl", "equi collapse",
        "equi validate"}


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


# The CLI's usage error is the one exception outside the family: a
# command body raises it for an input its options' types cannot reject,
# and it exits 2 where a domain failure exits 1.
USAGE_ERRORS = {"cli-_UsageError": cli._UsageError}
EXCEPTIONS = {key: exc for key, exc in defined_exceptions().items()
              if key not in USAGE_ERRORS}


def test_the_walk_reaches_every_layer():
    assert {"dualkit-MalformedInput", "exactlin-FactorBudgetExceeded",
            "models-UnsupportedShape", "idem-NotTwistedTrivial",
            "diagram-RewriteError", "equivariant-GroupTooLarge"} <= set(
                EXCEPTIONS)
    assert {**EXCEPTIONS, **USAGE_ERRORS} == defined_exceptions()


@pytest.mark.parametrize("exc", EXCEPTIONS.values(), ids=EXCEPTIONS.keys())
def test_domain_exceptions_share_one_base(exc):
    assert issubclass(exc, dualkit.DomainError)


def test_the_usage_error_is_not_a_domain_error():
    assert not issubclass(cli._UsageError, dualkit.DomainError)


def test_rep_names_match_the_presets():
    from dualkit.equivariant import REP_PRESETS
    assert cli.REP_NAMES == tuple(sorted(REP_PRESETS))
