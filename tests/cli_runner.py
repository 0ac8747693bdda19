"""In-process runs of the ``stonekit`` command for the tests."""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from typing import NamedTuple

from stonekit.cli import main


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """stdout followed by stderr."""
        return self.stdout + self.stderr


def invoke(args) -> Result:
    """Run ``stonekit <args>`` in this process, capturing both streams.

    An exception other than ``SystemExit`` propagates, so a traceback
    is a test error, never an exit code."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with redirect_stdout(out), redirect_stderr(err):
        try:
            main(list(args))
        except SystemExit as e:
            code = 0 if e.code is None else e.code
    return Result(code, out.getvalue(), err.getvalue())
