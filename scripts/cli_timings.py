"""Time every README ``dualkit`` command as a fresh process.

Run from the repository root:

    python3 scripts/cli_timings.py [repeats]

The commands are read from the CLI block of README.md.  Each runs as
``python3 -m dualkit.cli ...`` with ``src`` on the path, in a temporary
directory holding the ``cert.json`` that ``equi validate`` reads.  The
script prints the median wall time of ``repeats`` runs (default 5) of
``import dualkit.cli`` and of each command, then, read from one run
under ``python -X importtime``, the total self time of its imports, the
dualkit layers and submodules it loaded and which of the modules
``click``, ``dataclasses`` and ``inspect`` it imported.  It exits with
status 1 if ``import dualkit.cli`` alone loads a layer, or if it or any
command imports ``click``, or ``dataclasses`` or ``inspect`` where
``python -c pass`` does not already import that module.
"""

from __future__ import annotations

import json
import os
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAYERS = ("diagram", "equivariant", "idem", "models", "exactlin")
# Modules no command may import: click is no dependency, and dataclasses
# costs several milliseconds per process, most of them importing inspect.
FORBIDDEN = ("click", "dataclasses", "inspect")
# Those of them that an interpreter's own start-up (a .pth file, say) may
# import, so that a process is not at fault for them there; click never is.
EXEMPTABLE = ("dataclasses", "inspect")
_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)$")


def readme_commands() -> list:
    """The argument lists of the ``dualkit`` commands in README.md's CLI
    block, in order."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    block = block.replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("dualkit ")]


def write_inputs(directory: Path) -> None:
    """Write the files the README commands read (``cert.json``)."""
    sys.path.insert(0, str(SRC))
    from dualkit.equivariant import (enumerate_subgroup_classes,
                                     generate_collapse_certificate, get_group)
    poset = enumerate_subgroup_classes(get_group("d4"))
    cert = generate_collapse_certificate(poset, "reduced-regular")
    (directory / "cert.json").write_text(json.dumps(cert.to_json()))


def run(python_args: list, cwd: Path, **env) -> subprocess.CompletedProcess:
    """One run of the interpreter with ``src`` on the path and the
    variables of env set."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **env)
    return subprocess.run([sys.executable, *python_args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def import_times(python_args: list, cwd: Path) -> tuple:
    """(completed process, {name: self time in microseconds} of every
    module it imported) for one run under ``-X importtime``."""
    out = run(["-X", "importtime", *python_args], cwd)
    return out, {m.group(2): int(m.group(1)) for m in map(
        _IMPORT_LINE.match, out.stderr.splitlines()) if m}


def imports(python_args: list, cwd: Path) -> tuple:
    """(completed process, set of the names of every module it imported)
    for one run under ``-X importtime``."""
    out, times = import_times(python_args, cwd)
    return out, set(times)


def dualkit_modules(names) -> tuple:
    """The sorted names below ``dualkit`` of the dualkit modules among
    names, such as "models.spanfin"."""
    return tuple(sorted(name.removeprefix("dualkit.") for name in names
                        if name.startswith("dualkit.")))


def forbidden_imports(names, allowed=()) -> tuple:
    """The modules of FORBIDDEN that names hold, as themselves or
    through a submodule, leaving out those that both allowed and
    EXEMPTABLE hold."""
    tops = {name.partition(".")[0] for name in names}
    return tuple(m for m in FORBIDDEN if m in tops
                 and not (m in allowed and m in EXEMPTABLE))


def interpreter_imports(cwd: Path) -> tuple:
    """The modules of EXEMPTABLE that ``python -c pass`` imports: the
    interpreter's start-up, not dualkit, loads them."""
    names = imports(["-c", "pass"], cwd)[1]
    return tuple(m for m in forbidden_imports(names) if m in EXEMPTABLE)


def modules_loaded(python_args: list, cwd: Path) -> tuple:
    """(completed process, sorted names below ``dualkit`` of the dualkit
    modules it imported) for one run under ``-X importtime``."""
    out, names = imports(python_args, cwd)
    return out, dualkit_modules(names)


def layers_of(modules: tuple) -> tuple:
    """The sorted dualkit layers among modules."""
    return tuple(layer for layer in sorted(LAYERS) if layer in modules)


def layers_loaded(python_args: list, cwd: Path) -> tuple:
    """(completed process, sorted dualkit layers it imported) for one run
    under ``-X importtime``."""
    out, modules = modules_loaded(python_args, cwd)
    return out, layers_of(modules)


def median_s(python_args: list, cwd: Path, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run(python_args, cwd)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        write_inputs(cwd)
        cases = [("import dualkit.cli", ["-c", "import dualkit.cli"])] + [
            (shlex.join(argv)[:40], ["-m", "dualkit.cli", *argv])
            for argv in readme_commands()]
        allowed = interpreter_imports(cwd)
        bare_layers, offenders = (), []
        for i, (name, args) in enumerate(cases):
            _, times = import_times(args, cwd)
            modules = dualkit_modules(times)
            layers = layers_of(modules)
            if i == 0:
                bare_layers = layers
            found = forbidden_imports(times)
            if forbidden_imports(times, allowed):
                offenders.append(name)
            print(f"{name:40s} {median_s(args, cwd, repeats) * 1e3:7.1f} ms"
                  f"  imports: {sum(times.values()) / 1e3:.1f} ms"
                  f"\n{'':53s}layers: {', '.join(layers) or '-'}"
                  f"\n{'':53s}modules: {', '.join(modules) or '-'}"
                  f"\n{'':53s}forbidden: {', '.join(found) or '-'}")
    if allowed:
        print(f"python -c pass imports {', '.join(allowed)}")
    if offenders:
        print(f"imported a forbidden module: {'; '.join(offenders)}")
    return 1 if bare_layers or offenders else 0


if __name__ == "__main__":
    sys.exit(main())
