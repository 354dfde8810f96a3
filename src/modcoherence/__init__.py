"""Verification and simulation toolkit for coherent modularized inference.

Subpackages:

- ``ci``: conditional-independence statement algebra and saturation prover
- ``dag``: DAGs with an exact (determinism-aware) d-separation oracle
- ``protocol``: m-panel admissibility protocols and coherence verification
- ``panels``: distributed versus full-joint numeric posterior updating
- ``values``: the plain values the spec parser reads (the numeric models'
  types, the protocol's condition kinds, the prover's default budget),
  importable without any engine
- ``specfile`` / ``report`` / ``cli``: run-spec parsing, reports, front end
"""

__version__ = "0.1.0"


class ModcoherenceError(Exception):
    """Base of the package's exception classes (``CIError``, ``DagError``,
    ``ProtocolError``, ``PanelsError``, ``SpecError``); the CLI reports any of
    them as an input error, exit code 2."""


class Record:
    """Frozen value record whose methods read the fields at run time, so
    defining one generates no code.

    A subclass's fields are its own annotated names, in order, and a field's
    default is the class attribute of the same name.  ``__init__`` takes the
    fields by position or keyword, then calls ``_validate``, which may check
    them and replace one through ``object.__setattr__``.  Two records are
    equal when they are of the same class with equal field tuples, and the
    hash is the hash of that tuple.  Assigning or deleting an attribute
    raises ``AttributeError``.

    Every record takes these methods from this class but ``CIStatement``,
    built and hashed in bulk by the prover and in every base, slice and
    table key: it has ``__slots__`` and no defaults, and writes its own
    ``__init__``, ``__eq__`` and ``__hash__`` to the same contract.
    """

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        if "__slots__" not in cls.__dict__:  # else the names are slot descriptors
            cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        values = zip(fields, args)
        if len(args) != len(fields) or kwargs:  # else all are given by position
            values = dict(values)
            name = type(self).__qualname__
            if len(args) > len(fields):
                raise TypeError(f"{name} takes {len(fields)} fields, got {len(args)}")
            for field in fields[len(args):]:
                if field in kwargs:
                    values[field] = kwargs.pop(field)
                elif field in self._defaults:
                    values[field] = self._defaults[field]
                else:
                    raise TypeError(f"{name} is missing field {field!r}")
            if kwargs:
                raise TypeError(f"{name} got unknown or repeated fields {sorted(kwargs)}")
        self.__dict__.update(values)
        self._validate()

    def _validate(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")
