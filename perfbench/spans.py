"""In-memory spans around calls into modcoherence's layers.

A wrapper is installed at the binding each caller looks up: for example
``modcoherence.protocol.derive`` (what ``verify_coherence`` calls) and
``modcoherence.cli.verify_coherence`` (what the ``check`` command calls).
Each wrapped call appends one span (name, layer, start, end, parent, job)
and the counters read from its return value.  Spans are kept in memory and
written out by the caller when the run ends.

Stdlib only: the orchestrator imports this module for the metric names
without importing the program.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# (module or class path, attribute, layer).  Only bindings whose module is
# already imported are wrapped, so a worker that never imports the CLI never
# pays for it.
BINDINGS = (
    ("modcoherence.cli", "parse_spec", "specfile"),
    ("modcoherence.cli", "verify_coherence", "protocol"),
    ("modcoherence.cli", "base_statements", "protocol"),
    ("modcoherence.cli", "run_ablate", "protocol"),
    ("modcoherence.cli", "ci_derive", "ci"),
    ("modcoherence.cli", "d_separated", "dag"),
    ("modcoherence.cli", "proof_to_dict", "report"),
    ("modcoherence.cli", "render_human", "report"),
    ("modcoherence.report:Report", "to_json", "report"),
    ("modcoherence.protocol", "verify_coherence", "protocol"),
    ("modcoherence.protocol", "derive", "ci"),
    ("modcoherence.protocol", "derive_through", "ci"),
    ("modcoherence.protocol", "d_separated", "dag"),
    ("modcoherence.ci", "derive", "ci"),
    ("modcoherence.panels", "beta_grid", "panels"),
    ("modcoherence.panels", "panel_update_conjugate", "panels"),
    ("modcoherence.panels", "panel_update_grid", "panels"),
    ("modcoherence.panels", "compose_product", "panels"),
    ("modcoherence.panels", "joint_oracle", "panels"),
    ("modcoherence.panels", "divergence", "panels"),
    ("modcoherence.panels", "functional_expectation", "panels"),
    ("modcoherence.panels", "separability_check_symbolic", "panels"),
    ("modcoherence.panels", "separability_check_numeric", "panels"),
)

# span name -> per-layer function metric that reports its self time
FUNCTION_METRICS = {
    "panels.joint_oracle": "panels.joint_oracle_s",
    "panels.compose_product": "panels.compose_s",
    "panels.separability_check_numeric": "panels.separability_s",
    "panels.beta_grid": "panels.prior_grid_s",
}


def _counters(name: str, result) -> dict:
    """Deterministic counters read from a wrapped call's return value."""
    if name == "ci.derive":
        return {
            "ci.statements_generated": result.generated,
            "ci.proof_steps": len(result.proof.steps) if result.proof is not None else 0,
            "ci.not_derivable": int(result.status == "not_derivable"),
            "ci.budget_exhausted": int(result.status == "budget_exhausted"),
        }
    if name == "dag.d_separated":
        return {"dag.queries": 1}
    if name in ("report.to_json", "report.render_human"):
        return {"report.bytes": len(result.encode())}
    weights = getattr(result, "weights", None)
    if name.startswith("panels.") and weights is not None:
        out = {"panels.computed_bytes": int(weights.nbytes)}
        if weights.ndim > 1:  # a product-grid posterior, not a single block
            out["panels.cells"] = int(weights.size)
        return out
    return {}


class Tracer:
    """Collects spans while a job span is open; idle otherwise."""

    def __init__(self) -> None:
        # [name, layer, start, end, parent index, job id, counters]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._job = None
        self._installed: list[tuple] = []

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent, self._job, {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def job(self, job_id: str, name: str = "job", layer: str = "bench"):
        """Root span of one job; yields the index of its first span."""
        self._job = job_id
        index = self._open(name, layer)
        try:
            yield index
        finally:
            self._close(index)
            self._job = None

    def wrap(self, name: str, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            index = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
                self.spans[index][6] = _counters(name, result)
                return result
            finally:
                self._close(index)

        return traced

    def install(self) -> None:
        """Wrap every binding whose module is imported."""
        if self._installed:
            return
        for path, attr, layer in BINDINGS:
            module_name, _, cls = path.partition(":")
            if module_name not in sys.modules:
                continue
            owner = importlib.import_module(module_name)
            if cls:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            self._installed.append((owner, attr, original))
            # named after the function, not the binding: cli's ``ci_derive``
            # is ``ci.derive``, so its counters are read like every other's
            setattr(owner, attr, self.wrap(f"{layer}.{original.__name__}", layer, original))

    def uninstall(self) -> None:
        """Put back the bindings ``install`` replaced."""
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def job_spans(self, first: int) -> list[list]:
        """Spans recorded since index ``first``, re-based to start at 0."""
        out = []
        for name, layer, start, end, parent, job, counters in self.spans[first:]:
            out.append([name, layer, start, end, parent - first if parent >= 0 else -1, job, counters])
        return out


def summarize(spans: list[list]) -> dict:
    """Per-layer self time, per-function self time and counters of one job."""
    child_time = [0.0] * len(spans)
    for name, layer, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layer_self: dict[str, float] = {}
    fn_self: dict[str, float] = {}
    counts: dict[str, int] = {"ci.calls": 0, "ci.saturations": 0, "protocol.verdicts": 0}
    for index, (name, layer, start, end, parent, _, counters) in enumerate(spans):
        own = (end - start) - child_time[index]
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        if name in FUNCTION_METRICS:
            metric = FUNCTION_METRICS[name]
            fn_self[metric] = fn_self.get(metric, 0.0) + own
        for key, value in counters.items():
            counts[key] = counts.get(key, 0) + value
        if layer == "ci":
            counts["ci.calls"] += 1
        if name == "protocol.verify_coherence":
            counts["protocol.verdicts"] += 1
        if name == "ci.derive":
            # a saturation run on behalf of a verdict: nearest non-ci ancestor is protocol
            up = parent
            while up >= 0 and spans[up][1] == "ci":
                up = spans[up][4]
            if up >= 0 and spans[up][1] == "protocol":
                counts["ci.saturations"] += 1
    return {"self": layer_self, "fn": fn_self, "count": counts}
