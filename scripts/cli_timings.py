"""Time every README ``dualkit`` command as a fresh process.

Run from the repository root:

    python3 scripts/cli_timings.py [repeats]

The commands are read from the CLI block of README.md.  Each runs as
``python3 -m dualkit.cli ...`` with ``src`` on the path, in a temporary
directory holding the ``cert.json`` that ``equi validate`` reads.  The
script prints the median wall time of ``repeats`` runs (default 5) of
``import dualkit.cli`` and of each command, with the dualkit layers and
the dualkit submodules the process loaded (read from ``python -X
importtime``).  It exits with status 1 if ``import dualkit.cli`` alone
loads a layer.
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
_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+\d+ \|\s+(\S+)$")


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


def run(python_args: list, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *python_args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def modules_loaded(python_args: list, cwd: Path) -> tuple:
    """(completed process, sorted names below ``dualkit`` of the dualkit
    modules it imported, such as "models.spanfin") for one run under
    ``-X importtime``."""
    out = run(["-X", "importtime", *python_args], cwd)
    names = {m.group(1) for m in map(_IMPORT_LINE.match,
                                     out.stderr.splitlines()) if m}
    return out, tuple(sorted(name.removeprefix("dualkit.") for name in names
                             if name.startswith("dualkit.")))


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
        bare_layers = ()
        for i, (name, args) in enumerate(cases):
            _, modules = modules_loaded(args, cwd)
            layers = layers_of(modules)
            if i == 0:
                bare_layers = layers
            print(f"{name:40s} {median_s(args, cwd, repeats) * 1e3:7.1f} ms"
                  f"  layers: {', '.join(layers) or '-'}\n{'':53s}"
                  f"modules: {', '.join(modules) or '-'}")
    return 1 if bare_layers else 0


if __name__ == "__main__":
    sys.exit(main())
