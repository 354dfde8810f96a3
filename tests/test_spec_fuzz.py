"""Fuzzing the input boundary.

One field of a bundled spec is replaced by a small JSON value; the parser
must accept the result or reject it with a ``SpecError``, and the spec's
command must exit 0, 1 or 2 without a traceback, with the same bytes on a
rerun.  ``ablate`` is left out (a full ablation is long by design); the
integers drawn stay below 4, so no protocol grows beyond m = 3.
"""

import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from modcoherence.specfile import SpecError, parse_spec_dict

from .cli_runner import invoke

SPECS = Path(__file__).resolve().parent.parent / "specs"

COMMANDS = {
    "canonical_graph": "check",
    "chain_dsep": "dsep",
    "coherence_m2": "derive",
    "coherence_m3": "check",
    "confounded": "check",
    "food_example": "simulate",
    "interaction_pair": "separability",
    "separable_pair": "separability",
}

SCALARS = st.one_of(
    st.integers(-2, 3), st.text(max_size=3), st.booleans(), st.none(), st.floats()
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=2)
    ),
    max_leaves=4,
)


def leaf_paths(node, path=()):
    """The path of every scalar and of every empty list or object."""
    if isinstance(node, (dict, list)) and node:
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from leaf_paths(value, path + (key,))
    else:
        yield path


def replaced(spec, path, value):
    spec = json.loads(json.dumps(spec))
    node = spec
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return spec


@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_one_changed_field_never_escapes(name, data):
    bundled = json.loads((SPECS / f"{name}.spec").read_text())
    path = data.draw(st.sampled_from(sorted(leaf_paths(bundled), key=str)), label="path")
    spec = replaced(bundled, path, data.draw(VALUES, label="value"))
    try:
        parse_spec_dict(spec)
    except SpecError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = Path(tmp) / "fuzz.spec"
        spec_path.write_text(json.dumps(spec))
        runs = [
            invoke([COMMANDS[name], "--spec", str(spec_path), "--format", "machine"])
            for _ in range(2)
        ]
    for result in runs:
        assert result.exit_code in (0, 1, 2), result.output
        assert result.exception is None, repr(result.exception)
    assert runs[0].output == runs[1].output
