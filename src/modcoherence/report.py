"""Machine- and human-readable run reports.

The machine form is canonical JSON (sorted keys, two-space indent), so a
report built again from its parsed fields prints the same bytes.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from . import Record

if TYPE_CHECKING:
    from .ci import Proof

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


class Report(Record):
    command: str
    status: str  # "pass" | "fail" | "error"
    results: dict
    options: dict = None  # a fresh {} per report

    def _validate(self) -> None:
        if self.options is None:
            object.__setattr__(self, "options", {})

    @property
    def exit_code(self) -> int:
        if self.status == "pass":
            return EXIT_OK
        if self.status == "fail":
            return EXIT_CHECK_FAILED
        return EXIT_INPUT_ERROR

    def to_dict(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "command": self.command,
            "status": self.status,
            "options": self.options,
            "results": self.results,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def proof_to_dict(proof: Proof) -> dict:
    """Each step input is numbered by its statement's first position among
    the premises, then the step outputs."""
    number: dict = {}
    for i, s in enumerate(proof.statements()):
        number.setdefault(s, i)
    return {
        "premises": [s.render() for s in proof.premises],
        "steps": [
            {
                "rule": step.rule,
                "inputs": [number[s] for s in step.inputs],
                "selection": sorted(step.selection),
                "output": step.output.render(),
            }
            for step in proof.steps
        ],
        "goal": proof.goal.render(),
    }


def render_human(report: Report, quiet: bool = False) -> str:
    """Plain-text rendering; proof traces are truncated under --quiet."""
    lines = [f"command: {report.command}", f"status: {report.status}"]
    if report.options:
        opts = ", ".join(f"{k}={v}" for k, v in sorted(report.options.items()))
        lines.append(f"options: {opts}")
    lines.append("")
    lines.extend(_render_value(report.results, indent=0, quiet=quiet))
    return "\n".join(lines) + "\n"


def _render_value(value: Any, indent: int, quiet: bool, key: str = "") -> list[str]:
    pad = "  " * indent
    out: list[str] = []
    if isinstance(value, dict):
        if key:
            out.append(f"{pad}{key}:")
        for k, v in value.items():
            out.extend(_render_value(v, indent + bool(key), quiet, key=str(k)))
        return out
    if isinstance(value, list):
        if quiet and key in ("steps", "premises"):
            out.append(f"{pad}{key}: <{len(value)} entries elided>")
            return out
        out.append(f"{pad}{key}: [{len(value)}]" if key else f"{pad}[{len(value)}]")
        for v in value:
            if isinstance(v, (dict, list)):
                out.extend(_render_value(v, indent + 1, quiet))
            else:
                out.append(f"{pad}  - {v}")
        return out
    out.append(f"{pad}{key}: {value}" if key else f"{pad}{value}")
    return out
