"""Run the ``modcoherence`` command in this process, capturing its output.

``invoke(args)`` calls ``modcoherence.cli.main`` with stdout and stderr
redirected and returns a :class:`Result`: the exit code, the stdout and
stderr text, and any exception other than ``SystemExit`` that ended the run
(``None`` when the command exited normally).
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass

from modcoherence import cli


@dataclass(frozen=True)
class Result:
    exit_code: int
    output: str
    stderr: str
    exception: BaseException | None


def invoke(args) -> Result:
    out, err = io.StringIO(), io.StringIO()
    code, exception = 0, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(args=list(args))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # noqa: BLE001 - reported to the caller, as a crash
            code, exception = 1, exc
    return Result(code, out.getvalue(), err.getvalue(), exception)
