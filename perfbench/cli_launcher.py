"""Run one ``modcoherence`` command with spans around its layer calls.

Usage: python3 perfbench/cli_launcher.py <command> --spec <file> [options]

Behaves like ``python -m modcoherence.cli`` (same stdout, same exit code),
and in addition prints one line to stderr, prefixed ``PERFBENCH_TRACE``,
holding the import time of ``modcoherence.cli``, the spans of the command
and their per-layer summary.
"""

from __future__ import annotations

import json
import sys
import time

import spans

MARKER = "PERFBENCH_TRACE "


def main() -> int:
    start = time.perf_counter()
    import modcoherence.cli

    import_s = time.perf_counter() - start
    tracer = spans.Tracer()
    tracer.install()
    code = 0
    with tracer.job("cli", name="cli.main", layer="cli"):
        try:
            modcoherence.cli.main(args=sys.argv[1:], prog_name="modcoherence")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    sys.stdout.flush()
    main_span = tracer.spans[0]
    record = {
        "import_s": import_s,
        "main_s": main_span[3] - main_span[2],
        "summary": spans.summarize(tracer.spans),
        "spans": tracer.spans,
    }
    print(MARKER + json.dumps(record), file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
