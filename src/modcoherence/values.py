"""Plain value types of the numeric models, importable without numpy.

The spec parser builds these from ``models``; ``panels`` re-exports them and
does the numeric work.  Keeping them here lets the symbolic commands
(``check``, ``derive``, ``dsep``, ``ablate``) start without importing numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ModcoherenceError


class PanelsError(ModcoherenceError):
    pass


@dataclass(frozen=True)
class BetaParams:
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0 and self.beta > 0):
            raise PanelsError(f"Beta parameters must be positive: ({self.alpha}, {self.beta})")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)


@dataclass(frozen=True)
class Factor:
    name: str
    scope: frozenset  # panel ids touched by this factor

    def __post_init__(self) -> None:
        object.__setattr__(self, "scope", frozenset(self.scope))
