"""Report rendering: the bulk route writes the same bytes as the per-value one."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import fanning.report as report_mod
from fanning.report import dumps_csv, dumps_json, matrix_rows
from conftest import dumps_json_reference, matrix_rows_reference


def nested(value, level):
    """``value`` under ``level`` layers of dict, list and tuple."""
    for i in range(level):
        value = ({"x": value, "n": i}, [value, 1.5], (value,))[i % 3]
    return value


def assert_json_matches(obj):
    assert dumps_json(obj) == dumps_json_reference(obj)


def finite_array(shape, rng):
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)


class TestJson:
    @pytest.mark.parametrize("shape", [(1,), (4,), (1, 1), (3, 2), (2, 3, 4), (2, 1, 3, 2)])
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_finite_arrays(self, shape, level, rng):
        assert_json_matches(nested(finite_array(shape, rng), level))

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, np.nan, 2.0],
            [np.inf, 0.5],
            [-np.inf, 0.5],
            [-0.0, 0.0, 5e-324, -5e-324],
            [1e308, 1e308],
            [-1e308, -1e308, 1.0],
        ],
        ids=["nan", "inf", "-inf", "signed-zero-subnormal", "overflowing-sum", "overflowing-negative"],
    )
    @pytest.mark.parametrize("level", [0, 2])
    def test_special_values(self, values, level):
        a = np.array(values)
        assert_json_matches(nested(a, level))
        assert_json_matches(nested(a.reshape(1, -1, 1), level))

    def test_nulls_and_negative_zero(self):
        text = dumps_json(np.array([np.nan, -0.0, np.inf]))
        assert text == "[\n  null,\n  -0,\n  null\n]\n"

    @pytest.mark.parametrize(
        "a",
        [
            np.array([[0.1, -2.5], [3e-8, 7.0]], dtype=np.float32),
            np.arange(6).reshape(2, 3),
            np.arange(4, dtype=np.uint8),
            np.array([[True, False]]),
        ],
        ids=["float32", "int64", "uint8", "bool"],
    )
    def test_other_dtypes(self, a):
        assert_json_matches(nested(a, 1))

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 3)])
    def test_empty_arrays(self, shape):
        assert_json_matches(nested(np.zeros(shape), 1))

    @pytest.mark.parametrize("value", [np.array(2.5), np.array(np.nan), np.array(3), np.array(True)])
    def test_zero_dimensional_arrays(self, value):
        assert_json_matches({"v": value})

    def test_scalars_and_containers(self):
        obj = {
            "f": np.float64(0.1),
            "g": np.float32(1.5),
            "i": np.int32(-7),
            "b": True,
            "none": None,
            "s": 'a "quoted" \\ string',
            "list": [1, 2.0, -0.0, float("inf"), [], {}, ()],
            "tuple": (np.float64(np.nan), [np.eye(2)]),
            "empty": {},
        }
        assert_json_matches(obj)

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError, match="cannot serialize object"):
            dumps_json({"x": object()})

    def test_finite_arrays_skip_the_per_value_route(self, monkeypatch, rng):
        obj = {"m": finite_array((3, 4, 2), rng), "h": [finite_array((2, 2), rng)]}
        expected = dumps_json_reference(obj)
        monkeypatch.setattr(report_mod, "_fmt", lambda x: pytest.fail("per-value route taken"))
        assert dumps_json(obj) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        a=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=4),
            elements=st.floats(allow_nan=True, allow_infinity=True),
        ),
        level=st.integers(0, 3),
    )
    def test_random_arrays(self, a, level):
        assert_json_matches(nested(a, level))


class TestCsv:
    @pytest.mark.parametrize("t", [None, 0.1, -0.0, 1e300])
    @pytest.mark.parametrize(
        "value",
        [
            2.5,
            np.float64(-0.0),
            3,
            np.nan,
            np.array([1.0, -2.0]),
            np.array([[1.0, np.inf], [5e-324, 2.0]]),
            np.array([[1e308, 1e308]]),
            np.arange(6.0).reshape(2, 3) / 7.0,
            np.array([[0.25, 0.5]], dtype=np.float32),
            np.zeros((3, 0)),
            np.zeros((0, 2)),
        ],
        ids=[
            "float", "negative-zero", "int", "nan", "vector", "inf-subnormal",
            "overflowing-sum", "matrix", "float32", "3x0", "0x2",
        ],
    )
    def test_rows_match(self, t, value):
        assert matrix_rows(t, "q2", value) == matrix_rows_reference(t, "q2", value)

    def test_empty_matrix_has_no_rows(self):
        assert matrix_rows(0.5, "x", np.zeros((3, 0))) == []

    def test_dumps_csv(self, rng):
        entries = [(None, "verdict_congruent", 1.0), (0.2, "x", finite_array((2, 2), rng)),
                   (0.4, "kappa", np.array([[np.nan]]))]
        rows = [row for t, name, value in entries for row in matrix_rows_reference(t, name, value)]
        assert dumps_csv(entries) == "\n".join(["t,name,i,j,value", *rows]) + "\n"

    def test_finite_matrices_skip_the_per_value_route(self, monkeypatch, rng):
        m = finite_array((3, 2), rng)
        expected = matrix_rows_reference(None, "ambient", m)
        monkeypatch.setattr(report_mod, "_fmt", lambda x: pytest.fail("per-value route taken"))
        assert matrix_rows(None, "ambient", m) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        a=hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5),
            elements=st.floats(allow_nan=True, allow_infinity=True),
        ),
        t=st.one_of(st.none(), st.floats()),
    )
    def test_random_matrices(self, a, t):
        assert matrix_rows(t, "m", a) == matrix_rows_reference(t, "m", a)


def point_columns(k, n, count, rng, jacobi=False):
    """Columns keyed as an ``invariants`` point, with random finite values."""
    columns = {
        "t": np.linspace(0.0, 1.0, count),
        "fanning_condition": finite_array((count,), rng),
        "was_normal": rng.random(count) < 0.5,
        "kappa": finite_array((count, n, n), rng),
        "schwarzian": finite_array((count, n, n), rng),
        "h": [finite_array((count, n, n), rng) for _ in range(k - 2)],
        "reflection_eigencounts": {
            "minus_one": rng.integers(0, k * n, count),
            "plus_one": rng.integers(0, k * n, count),
        },
    }
    if jacobi:
        columns["jacobi"] = finite_array((count, k * n, k * n), rng)
    return columns


def point_dicts(columns):
    """The columns as the list of per-point dicts that the per-value renderer takes."""
    counts = columns["reflection_eigencounts"]
    points = []
    for i, t in enumerate(columns["t"]):
        point = {
            "t": float(t),
            "fanning_condition": float(columns["fanning_condition"][i]),
            "was_normal": bool(columns["was_normal"][i]),
            "kappa": columns["kappa"][i],
            "schwarzian": columns["schwarzian"][i],
            "h": [h[i] for h in columns["h"]],
            "reflection_eigencounts": {key: int(c[i]) for key, c in counts.items()},
        }
        if "jacobi" in columns:
            point["jacobi"] = columns["jacobi"][i]
        points.append(point)
    return points


def csv_columns(columns):
    """The CSV columns of an ``invariants`` report made from ``columns``."""
    csv = {"t": columns["t"], "fanning_condition": columns["fanning_condition"],
           "kappa": columns["kappa"]}
    csv.update({f"h{j}": h for j, h in enumerate(columns["h"], start=1)})
    csv.update({f"reflection_{key}": c
                for key, c in columns["reflection_eigencounts"].items()})
    if "jacobi" in columns:
        csv["jacobi"] = columns["jacobi"]
    return csv


def csv_rows_reference(columns):
    return [
        row
        for i, t in enumerate(columns["t"])
        for name, value in columns.items()
        if name != "t"
        for row in matrix_rows_reference(t, name, value[i])
    ]


def assert_columns_match(columns):
    report = {"command": "invariants", "points": report_mod.Columns(columns), "tolerance": 1e-7}
    expected = {**report, "points": point_dicts(columns)}
    assert dumps_json(report) == dumps_json_reference(expected)
    entries = [(None, "first", 1.0), report_mod.Columns(csv_columns(columns)), (0.5, "last", 2.0)]
    rows = ["t,name,i,j,value", ",first,0,0,1", *csv_rows_reference(csv_columns(columns)),
            "0.5,last,0,0,2"]
    assert dumps_csv(entries) == "\n".join(rows) + "\n"


class TestColumns:
    """A Columns report renders as the per-value renderer writes its list of points."""

    @pytest.mark.parametrize("k, n", [(2, 1), (2, 3), (3, 2), (5, 1)])
    @pytest.mark.parametrize("jacobi", [False, True])
    def test_points_match(self, k, n, jacobi, rng):
        assert_columns_match(point_columns(k, n, 7, rng, jacobi))

    def test_k2_has_an_empty_h(self, rng):
        columns = point_columns(2, 2, 3, rng)
        assert columns["h"] == []
        assert '"h": []' in dumps_json(report_mod.Columns(columns))
        assert_columns_match(columns)

    def test_one_point(self, rng):
        assert_columns_match(point_columns(3, 2, 1, rng, jacobi=True))

    def test_negative_zero(self, rng):
        columns = point_columns(3, 1, 4, rng, jacobi=True)
        columns["t"][0] = -0.0
        columns["kappa"][1, 0, 0] = -0.0
        columns["h"][0][2] = -0.0
        columns["jacobi"][3] = -0.0
        assert_columns_match(columns)
        assert dumps_json(report_mod.Columns(columns)).startswith('[\n  {\n    "t": -0,\n')

    @pytest.mark.parametrize("where", ["t", "fanning_condition", "kappa", "h", "jacobi"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_takes_the_per_value_route(self, where, value, rng):
        columns = point_columns(3, 2, 5, rng, jacobi=True)
        leaf = columns[where][0] if where == "h" else columns[where]
        leaf.reshape(5, -1)[2, -1] = value
        assert_columns_match(columns)
        assert "null" in dumps_json(report_mod.Columns(columns))

    def test_longer_than_one_fill_block(self, rng):
        count = 2 * report_mod.FILL_POINTS + 3
        columns = point_columns(3, 1, count, rng)
        assert_columns_match(columns)
        # A non-finite value sends only its own block down the per-value route.
        columns["kappa"][report_mod.FILL_POINTS + 1, 0, 0] = np.nan
        assert_columns_match(columns)

    def test_finite_columns_skip_the_per_value_route(self, monkeypatch, rng):
        columns = point_columns(4, 2, 9, rng, jacobi=True)
        expected = dumps_json_reference({"points": point_dicts(columns)})
        expected_csv = "\n".join(["t,name,i,j,value", *csv_rows_reference(csv_columns(columns))])
        formatted = []
        fmt = report_mod._fmt

        def counted(x):
            formatted.append(x)
            return fmt(x)

        monkeypatch.setattr(report_mod, "_fmt", counted)
        assert dumps_json({"points": report_mod.Columns(columns)}) == expected
        assert formatted == []
        assert dumps_csv([report_mod.Columns(csv_columns(columns))]) == expected_csv + "\n"
        # Only each point's time text, once.
        assert formatted == columns["t"].tolist()
