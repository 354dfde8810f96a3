"""Verification and simulation toolkit for coherent modularized inference.

Subpackages:

- ``ci``: conditional-independence statement algebra and saturation prover
- ``dag``: DAGs with an exact (determinism-aware) d-separation oracle
- ``protocol``: m-panel admissibility protocols and coherence verification
- ``panels``: distributed versus full-joint numeric posterior updating
- ``values``: the numeric models' plain value types, importable without numpy
- ``specfile`` / ``report`` / ``cli``: run-spec parsing, reports, front end
"""

__version__ = "0.1.0"


class ModcoherenceError(Exception):
    """Base of the package's exception classes (``CIError``, ``DagError``,
    ``ProtocolError``, ``PanelsError``, ``SpecError``); the CLI reports any of
    them as an input error, exit code 2."""
