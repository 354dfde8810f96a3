"""Plain value types of the numeric models, importable without numpy.

The spec parser builds these from ``models``; ``panels`` re-exports them and
does the numeric work.  Keeping them here lets the symbolic commands
(``check``, ``derive``, ``dsep``, ``ablate``) start without importing numpy.
"""

from __future__ import annotations

from . import ModcoherenceError, Record


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
    scope: frozenset  # panel ids touched by this factor

    def _validate(self) -> None:
        object.__setattr__(self, "scope", frozenset(self.scope))
