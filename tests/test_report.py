"""The JSON report encoder: byte-equal to one ``json.dumps(indent=2)`` call.

``bundle_to_json_text`` encodes each table's rows with one C-encoder call and
rebuilds the indent-2 layout; the pure-Python encoder it replaced is the
oracle ``tests/oracles.py::report_json_by_pure_python_encoder``.  Compared
on every default scenario report and on generated bundles: names, columns
and string cells hold unicode, NUL, backslashes, quotes, brackets and the
separator text ``]\\x00[`` itself; tables may be absent, empty, repeat a
name or have no columns; rows may be tuples; cells span −0.0, subnormals,
1e308, ints past 2⁶³ and numpy scalars.  A container cell, or any other
cell that is not a scalar, is a TypeError in JSON and CSV alike, as is a
numpy array with a dimension, while a 0-d array
counts as its scalar; a NaN or infinity is a NumericError that names where
it sits.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from obskit import NumericError
from obskit.config import SCENARIOS, default_config
from obskit.report import (
    ReportBundle,
    Table,
    Verdict,
    bundle_to_csv_texts,
    bundle_to_json_text,
    table_to_csv_text,
)
from obskit.scenarios import run_scenario
from oracles import report_json_by_pure_python_encoder


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_default_report_equals_pure_python_encoder(scenario):
    bundle = run_scenario(default_config(scenario))
    assert bundle_to_json_text(bundle) == report_json_by_pure_python_encoder(bundle)


texts = st.one_of(
    st.text(alphabet=st.sampled_from('ab\x00\\"[]:,{} \n\té→ \U0001f600'), max_size=6),
    st.text(max_size=4),
    st.sampled_from(["]\x00[", "]\\u0000[", "\x00", "[]", ""]),
)
floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1.7976931348623157e308]),
)
cells = st.one_of(
    floats,
    st.integers(),
    st.sampled_from([2**63, -(2**63) - 1, 2**64 + 1, 10**40]),
    st.booleans(),
    st.none(),
    texts,
    floats.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)


@st.composite
def tables(draw, names):
    width = draw(st.integers(0, 3))
    row = st.lists(cells, min_size=width, max_size=width)
    rows = draw(st.lists(st.one_of(row, row.map(tuple)), max_size=4))
    return Table(draw(names), draw(st.lists(texts, min_size=width, max_size=width)), rows)


bundles = st.builds(
    ReportBundle,
    scenario=texts,
    toolkit_version=texts,
    config_sha256=texts,
    seed=st.integers(0, 2**64),
    constants=st.dictionaries(texts, cells, max_size=3),
    notes=st.lists(texts, max_size=2),
    verdicts=st.lists(st.builds(Verdict, texts, st.booleans(), texts), max_size=2),
    # a few names, so that some bundles repeat one
    tables=st.lists(tables(st.one_of(st.sampled_from(["t", "]\x00["]), texts)), max_size=4),
)


@given(bundles)
def test_generated_report_equals_pure_python_encoder(bundle):
    assert bundle_to_json_text(bundle) == report_json_by_pure_python_encoder(bundle)


def _bundle(constants=None, rows=((1.0, 2),)):
    return ReportBundle(
        scenario="s",
        toolkit_version="0",
        config_sha256="0",
        seed=0,
        constants=dict(constants or {}),
        tables=[Table("t", ["a", "b"], [list(row) for row in rows])],
    )


@pytest.mark.parametrize(
    "cell", [[1.0], (1.0,), {"x": 1.0}, []], ids=["list", "tuple", "dict", "empty-list"]
)
@pytest.mark.parametrize("encode", [bundle_to_json_text, bundle_to_csv_texts], ids=["json", "csv"])
def test_container_cell_is_type_error(encode, cell):
    with pytest.raises(TypeError, match="^table 't' has a .* cell; cells are scalars$"):
        encode(_bundle(rows=[(1.0, 2), (3.0, cell)]))


def test_a_ragged_row_is_rejected_where_the_table_is_built():
    with pytest.raises(ValueError, match="^table 't' row 1 has 1 cells for 2 columns$"):
        Table("t", ["a", "b"], [[1.0, 2.0], [3.0]])


def test_csv_table_with_container_cells_is_type_error():
    # The CSV writer would otherwise write their Python repr: "[1.0, 2.0]",{'x': 1}.
    with pytest.raises(TypeError, match="^table 't' has a (list|dict) cell; cells are scalars$"):
        table_to_csv_text(Table("t", ["a", "b"], [[[1.0, 2.0], {"x": 1}]]))


@pytest.mark.parametrize("encode", [bundle_to_json_text, bundle_to_csv_texts], ids=["json", "csv"])
@pytest.mark.parametrize("cell", [object(), {1.0}, b"x"], ids=["object", "set", "bytes"])
def test_unknown_cell_type_is_type_error(encode, cell):
    with pytest.raises(TypeError, match=f"cannot serialize {type(cell).__name__} into a report"):
        encode(_bundle(rows=[(1.0, cell)]))


@pytest.mark.parametrize(
    "value", [np.array([1.5]), np.array([1.0, 2.0]), np.zeros((2, 0))], ids=["one", "two", "empty-2d"]
)
@pytest.mark.parametrize("encode", [bundle_to_json_text, bundle_to_csv_texts], ids=["json", "csv"])
def test_array_with_a_dimension_is_type_error(encode, value):
    for bundle in (_bundle(rows=[(1.0, 2), (3.0, value)]), _bundle(constants={"c": value})):
        with pytest.raises(TypeError, match="cannot serialize ndarray into a report"):
            encode(bundle)


def test_zero_d_array_is_written_as_its_scalar():
    arrays = _bundle(constants={"c": np.array(0.1)}, rows=[(np.array(2.5), np.array(3))])
    scalars = _bundle(constants={"c": 0.1}, rows=[(2.5, 3)])
    assert bundle_to_json_text(arrays) == bundle_to_json_text(scalars)
    assert bundle_to_csv_texts(arrays) == bundle_to_csv_texts(scalars)


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, np.float64(np.nan), np.float32(np.inf)],
    ids=["nan", "inf", "-inf", "float64-nan", "float32-inf"],
)
def test_non_finite_constant_is_numeric_error(value):
    with pytest.raises(NumericError, match=r"^constant 'c' is .*(nan|inf)"):
        bundle_to_json_text(_bundle(constants={"ok": 1.0, "c": value}))


@pytest.mark.parametrize(
    "value", [math.nan, math.inf, -math.inf, np.float64(-np.inf), np.float32(np.nan)],
    ids=["nan", "inf", "-inf", "float64-inf", "float32-nan"],
)
def test_non_finite_cell_is_numeric_error(value):
    with pytest.raises(NumericError, match=r"^table 't' row 2 column 'b' is .*(nan|inf)"):
        bundle_to_json_text(_bundle(rows=[(1.0, 2), (3.0, 4), (5.0, value)]))
