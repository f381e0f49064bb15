"""Run ``dualkit.cli.main`` in-process, as the CLI tests do.

``run_cli(argv, env)`` calls ``main(argv)`` with standard output and
standard error captured and with the variables of ``env`` set in
``os.environ`` for the call, catches the ``SystemExit`` that ends every
command, and returns its exit code and both streams.  Any other
exception propagates.
"""

import contextlib
import io
import os
from dataclasses import dataclass
from unittest import mock

from dualkit.cli import main


@dataclass(frozen=True)
class Result:
    exit_code: int
    stdout: str
    stderr: str


def run_cli(argv, env=None) -> Result:
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with mock.patch.dict(os.environ, env or {}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return Result(code, out.getvalue(), err.getvalue())
