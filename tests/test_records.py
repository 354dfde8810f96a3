"""The record contract every value type of the package keeps: every record
takes its fields, ``__init__``, equality, hash and repr from
``modcoherence.Record`` but ``CIStatement``, which the prover builds and
hashes in bulk: it has ``__slots__`` and writes its own ``__init__``,
``__eq__`` and ``__hash__`` to the same contract.

The hash is the hash of the field tuple, as a frozen dataclass's was, so set
and dict iteration orders, and with them proof search and traces, do not
change with the record implementation."""

import pytest

from modcoherence import Record, ci, dag, panels, protocol, report, specfile, values
from modcoherence.ci import CIError, SelfDependency, normalize

S = normalize({"A"}, {"B"}, {"C"})
STEP = ci.ProofStep("symmetry", (S,), frozenset(), S)
PROOF = ci.Proof((S,), (STEP,), S)
DAG = dag.build_dag(("A", "B"), (("A", "B"),))
BETA = values.BetaParams(2.0, 3.0)
GRID = panels.uniform_grid(3)
RUN = specfile.RunOptions(101, 5)

# one instance's field values per record class, in field order
EXAMPLES = {
    ci.CIStatement: (frozenset({"A"}), frozenset({"B"}), frozenset({"C"})),
    ci.FunctionalDependency: (frozenset({"X"}), frozenset({"Y", "Z"})),
    ci.ProofStep: ("symmetry", (S,), frozenset(), S),
    ci.Proof: ((S,), (STEP,), S),
    ci.ClosureResult: (frozenset({S}), True, 1),
    ci.DeriveResult: ("proved", PROOF, 2),
    dag.Dag: (("A", "B"), (("A", "B"),), ()),
    protocol.PanelSystem: (2,),
    protocol.AxiomaticMode: ((S,), 10),
    protocol.GraphicalMode: (DAG,),
    protocol.ConditionStatus: (protocol.ConditionKind.CUTTING, (S,), "holds", (PROOF,)),
    protocol.GoalResult: (1, "panel_independence", S, "proved", PROOF),
    protocol.Verdict: ((), (), True),
    protocol.Lumping: (frozenset({"A"}), len, len, {(1, "panel_independence"): (S,)}),
    report.Report: ("check", "pass", {"goals": []}, {"grid": 3}),
    values.BetaParams: (2.0, 3.0),
    values.Factor: ("f", frozenset({1, 2})),
    specfile.Models: ((BETA, BETA), 0.5, None, None),
    specfile.Data: (((1, 2), (0, 1)), None),
    specfile.RunOptions: (101, 5),
    specfile.SpecFile: (None, (), (S,), S, DAG, None, None, None, RUN),
    panels.Divergence: (0.0, 0.5),
    panels.SeparabilityVerdict: (True, (), 0.0),
    panels.GridComparison: (panels.block_product, GRID, GRID, panels.Divergence(0.0, 0.0)),
}
HOT = (ci.CIStatement,)  # slotted, with its own __init__, __eq__ and __hash__
PROVER = (ci.ProofStep, ci.Proof, ci.DeriveResult)  # built in bulk, but plain records


def _records(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("modcoherence."):
            yield sub
        yield from _records(sub)


def _fields(cls) -> tuple:
    return tuple(cls.__annotations__)


def _hash(value):
    """The hash, or the error for an unhashable value (``Report`` holds dicts)."""
    try:
        return hash(value)
    except TypeError as exc:
        return type(exc)


CASES = pytest.mark.parametrize("cls", EXAMPLES, ids=lambda cls: cls.__name__)


def test_every_record_class_has_an_example():
    assert set(_records()) == set(EXAMPLES)


@CASES
def test_equal_fields_give_equal_records_with_equal_hashes(cls):
    values = EXAMPLES[cls]
    x, y = cls(*values), cls(**dict(zip(_fields(cls), values)))
    assert x == y and not x != y
    assert _hash(x) == _hash(y)
    assert tuple(getattr(x, f) for f in _fields(cls)) == values


@CASES
def test_hash_is_the_hash_of_the_field_tuple(cls):
    x = cls(*EXAMPLES[cls])
    assert _hash(x) == _hash(tuple(getattr(x, f) for f in _fields(cls)))


@CASES
def test_never_equal_to_a_tuple_or_another_record_class(cls):
    values = EXAMPLES[cls]
    x = cls(*values)
    assert x != values and values != x
    other = type(cls.__name__, (Record,), {"__annotations__": dict(cls.__annotations__)})
    assert x != other(*values) and other(*values) != x


@CASES
def test_fields_cannot_be_assigned_or_deleted(cls):
    x = cls(*EXAMPLES[cls])
    for name in _fields(cls) + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    for name in _fields(cls):
        with pytest.raises(AttributeError):
            delattr(x, name)
        getattr(x, name)


@CASES
def test_repr_names_the_class_and_each_field(cls):
    x = cls(*EXAMPLES[cls])
    if cls is ci.CIStatement:  # a statement shows as it reads
        assert repr(x) == "<A _||_ B | C>"
        return
    fields = ", ".join(f"{f}={getattr(x, f)!r}" for f in _fields(cls))
    assert repr(x) == f"{cls.__name__}({fields})"


def test_repr_literal():
    assert repr(values.BetaParams(2.0, 3.0)) == "BetaParams(alpha=2.0, beta=3.0)"
    assert repr(protocol.PanelSystem(2)) == "PanelSystem(m=2)"


@pytest.mark.parametrize("cls", HOT, ids=lambda cls: cls.__name__)
def test_hot_records_have_slots(cls):
    assert not hasattr(cls(*EXAMPLES[cls]), "__dict__")


@pytest.mark.parametrize("cls", PROVER, ids=lambda cls: cls.__name__)
def test_prover_records_take_the_record_methods(cls):
    assert not {"__init__", "__slots__", "__eq__", "__hash__"} & set(vars(cls))
    assert cls.__init__ is Record.__init__ and cls.__hash__ is Record.__hash__
    assert hasattr(cls(*EXAMPLES[cls]), "__dict__")


def test_only_the_statement_writes_its_own_init_or_slots():
    own = {cls for cls in _records() if {"__init__", "__slots__"} & set(vars(cls))}
    assert own == set(HOT)


def test_constructor_refuses_wrong_fields():
    with pytest.raises(TypeError, match="takes 2 fields, got 3"):
        values.BetaParams(1.0, 2.0, 3.0)
    with pytest.raises(TypeError, match="missing field 'beta'"):
        values.BetaParams(1.0)
    with pytest.raises(TypeError, match="unknown or repeated"):
        values.BetaParams(1.0, 2.0, gamma=3.0)
    with pytest.raises(TypeError, match="unknown or repeated"):
        values.BetaParams(1.0, 2.0, alpha=3.0)


def test_defaults_come_from_class_attributes():
    assert specfile.RunOptions() == specfile.RunOptions(101, ci.DEFAULT_BUDGET)
    assert specfile.SpecFile().run == specfile.RunOptions()
    assert protocol.GoalResult(1, "panel_independence", S, "proved").proof is None
    assert specfile.Models().priors == ()


def test_mutable_defaults_are_fresh_per_instance():
    a, b = report.Report("check", "pass", {}), report.Report("check", "pass", {})
    assert a.options == {} and a.options is not b.options


def test_a_frozen_default_is_shared():
    """A spec's run section defaults to one ``RunOptions``, which no spec
    can change, as its conditions default to one tuple."""
    a, b = specfile.SpecFile(), specfile.SpecFile()
    assert a.run is b.run and a.conditions is b.conditions
    with pytest.raises(AttributeError, match="frozen"):
        a.run.grid = 3


def test_class_constants_are_not_fields():
    system = protocol.PanelSystem(2)
    assert _fields(protocol.PanelSystem) == ("m",)
    assert (system.common, system.own_evidence_pool, system.full_pool) == (
        "I_0^0", "I_*^0", "I_+^0"
    )


def test_cached_properties_leave_equality_and_hash_alone():
    fresh, used = dag.Dag(*EXAMPLES[dag.Dag]), dag.Dag(*EXAMPLES[dag.Dag])
    assert used.node_names == frozenset({"A", "B"})
    assert fresh == used and hash(fresh) == hash(used)


def test_validations_are_unchanged():
    for alpha, beta in ((0.0, 1.0), (1.0, -1.0), (float("nan"), 1.0)):
        with pytest.raises(values.PanelsError, match="must be positive"):
            values.BetaParams(alpha, beta)
    with pytest.raises(SelfDependency):
        ci.FunctionalDependency({"A"}, {"A", "B"})
    with pytest.raises(CIError, match="collection of symbols"):
        ci.FunctionalDependency({"A"}, "BC")
    with pytest.raises(CIError, match="collection of symbols"):
        ci.FunctionalDependency("A", {"B"})
    assert ci.FunctionalDependency(["A"], ["B", "C"]).determiners == frozenset({"B", "C"})
    assert type(ci.FunctionalDependency(["A"], ["B"]).determined) is frozenset
    assert type(ci.FunctionalDependency(["A"], ["B"]).determiners) is frozenset
    assert values.Factor("f", [1, 2]).scope == frozenset({1, 2})
    assert type(values.Factor("f", [1]).scope) is frozenset
