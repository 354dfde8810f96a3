"""Plain values the spec parser reads, importable without any engine.

The numeric models' value types: the spec parser builds them from
``models``, and ``panels`` re-exports them and does the numeric work.  The
protocol's condition kinds and the prover's default budget: the parser's
defaults and checks read them, and ``protocol`` and ``ci`` re-export them.
Keeping them here lets the symbolic commands start without numpy, the
numeric ones without the prover, d-separation or the protocol, and ``dsep``
without the protocol.
"""

from __future__ import annotations

import enum

from . import ModcoherenceError, Record

# the most statements one saturation may hold, unless run.budget says otherwise
DEFAULT_BUDGET = 200_000


class ConditionKind(enum.Enum):
    DELEGABLE = "delegable"
    SEPARATELY_INFORMED = "separately_informed"
    CUTTING = "cutting"
    COMMONLY_SEPARATED = "commonly_separated"


ALL_CONDITIONS = tuple(ConditionKind)


class PanelsError(ModcoherenceError):
    pass


class BetaParams(Record):
    alpha: float
    beta: float

    def _validate(self) -> None:
        if not (self.alpha > 0 and self.beta > 0):
            raise PanelsError(f"Beta parameters must be positive: ({self.alpha}, {self.beta})")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)


class Factor(Record):
    name: str
    scope: frozenset  # panel numbers: the term is strength · Π_{i ∈ scope} θᵢ
    strength: float

    def _validate(self) -> None:
        object.__setattr__(self, "scope", frozenset(self.scope))
