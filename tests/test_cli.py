import argparse
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import towerforms.cli as cli
from towerforms.cli import MAX_TIME_GRID_ROWS, main, _parse_time_grid
from towerforms.tower import (
    AlgebraElement,
    element_from_json,
    element_to_json,
    random_element,
    save_element,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_time_grid_colon_form():
    grid = _parse_time_grid("0:0.5:2")
    np.testing.assert_allclose(grid, [0.0, 0.5, 1.0, 1.5, 2.0], atol=1e-12)


def test_time_grid_comma_form():
    assert _parse_time_grid("0.1,1,10") == (0.1, 1.0, 10.0)


def test_time_grid_bad_input_rejected():
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_time_grid("0:0:1:2")
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_time_grid("a,b")


@pytest.mark.parametrize(
    "text, reason",
    [
        ("0:1:inf", "stop must be finite"),
        ("0:1:1e300", "more than"),
        ("0:5e-324:1", "more than"),
        ("0:1e-9:1", "more than"),
        ("nan:1:2", "start must be finite"),
        ("0:nan:1", "step must be finite"),
        ("0:-1:1", "step must be finite and nonnegative"),
        ("0:0:1", "step must be positive"),
        ("0:1:-1", "stop must be finite and nonnegative"),
        ("2:1:1", "below its start"),
        ("-1:1:2", "start must be finite and nonnegative"),
        ("nan,1", "semigroup time must be finite"),
        ("0,inf", "semigroup time must be finite"),
        ("1,0.5", "ascending"),
        ("", "could not convert"),
    ],
)
def test_time_grid_fails_closed(text, reason):
    with pytest.raises(argparse.ArgumentTypeError, match=reason):
        _parse_time_grid(text)


def test_time_grid_row_cap_is_inclusive():
    assert len(_parse_time_grid(f"0:1:{MAX_TIME_GRID_ROWS - 1}")) == MAX_TIME_GRID_ROWS
    with pytest.raises(argparse.ArgumentTypeError, match="more than"):
        _parse_time_grid(f"0:1:{MAX_TIME_GRID_ROWS}")


_grid_numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3),
    st.sampled_from(["nan", "inf", "-0", "1e-300", "5e-324", "1e308", "0.1", ""]),
).map(str)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.text(max_size=20),
        st.tuples(_grid_numbers, _grid_numbers, _grid_numbers).map(":".join),
        st.lists(_grid_numbers, max_size=6).map(",".join),
    )
)
def test_time_grid_property(text):
    """Any string gives a non-empty, finite, ascending grid within the row
    cap or is rejected; the cap is lowered so that large grids stay cheap."""
    cap = 1000
    with mock.patch.object(cli, "MAX_TIME_GRID_ROWS", cap):
        try:
            grid = _parse_time_grid(text)
        except argparse.ArgumentTypeError:
            return
    assert isinstance(grid, tuple) and 1 <= len(grid) <= cap
    assert all(math.isfinite(t) and t >= 0 for t in grid)
    assert all(a <= b for a, b in zip(grid, grid[1:]))


@pytest.mark.parametrize("grid", ["0:1:inf", "nan:1:2", "0:1:-1", "0:nan:1", "1,0"])
def test_evolve_rejects_bad_time_grid_without_output(tmp_path, capsys, grid):
    inp = tmp_path / "x.json"
    save_element(AlgebraElement(1, X), inp)
    out = tmp_path / "traj.csv"
    assert main(["evolve", "--t-grid", grid, "--input", str(inp), "--out", str(out)]) == 2
    assert "--t-grid" in capsys.readouterr().err
    assert not out.exists()


def test_verify_passes_and_writes_reports(tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(
        [
            "verify", "--suite", "all", "--level", "2", "--samples", "20",
            "--seed", "7", "--tol", "1e-10", "--out-dir", str(out),
        ]
    )
    assert code == 0
    assert (out / "summary.csv").exists()
    assert (out / "dirichlet-level1.json").exists()
    captured = capsys.readouterr().out
    assert "0 failures" in captured
    rep = json.loads((out / "markov-level2.json").read_text())
    assert rep["failures"] == 0 and rep["suite"] == "markov"


def test_verify_single_suite(tmp_path):
    code = main(["verify", "--suite", "leibniz", "--level", "2", "--samples", "10"])
    assert code == 0


def test_verify_unknown_suite_lists_names(tmp_path, capsys):
    code = main(["verify", "--suite", "bogus", "--level", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "dirichlet" in err and "markov" in err


@pytest.mark.parametrize("flag", ["--tol", "--eig-tol"])
@pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
def test_verify_rejects_bad_tolerance(flag, value, capsys):
    code = main(
        ["verify", "--suite", "dirichlet,compatibility", "--level", "2", flag, value]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert "finite and nonnegative" in captured.err
    assert "failures" not in captured.out


@pytest.mark.parametrize("flag", ["--tol", "--t"])
@pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
def test_choi_rejects_bad_tolerance_and_time(flag, value, capsys):
    code = main(["choi", "--level", "1", flag, value])
    assert code == 2
    assert f"{flag} must be finite and nonnegative" in capsys.readouterr().err


def test_converge_writes_table(tmp_path):
    a = random_element(3, "hermitian", 500)
    inp = tmp_path / "a.json"
    save_element(a, inp)
    out = tmp_path / "table.csv"
    code = main(["converge", "--level", "3", "--input", str(inp), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "n,E_n,E_Q_n,Q_n_norm_sq,sqrt_gap"
    assert len(lines) == 4


def test_converge_level_mismatch_fails(tmp_path, capsys):
    inp = tmp_path / "a.json"
    save_element(random_element(2, "hermitian", 501), inp)
    code = main(["converge", "--level", "3", "--input", str(inp), "--out", str(tmp_path / "t.csv")])
    assert code == 2
    assert "level" in capsys.readouterr().err


def test_evolve_writes_trajectory(tmp_path):
    inp = tmp_path / "x.json"
    save_element(AlgebraElement(1, X), inp)
    out = tmp_path / "traj.csv"
    code = main(["evolve", "--t-grid", "0:0.5:1", "--input", str(inp), "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,trace_re,trace_im,gns_norm,energy,min_eig,max_eig"
    assert len(lines) == 4
    assert float(lines[1].split(",")[0]) == 0.0


def test_evolve_rejects_nan_time_without_output(tmp_path, capsys):
    inp = tmp_path / "x.json"
    save_element(AlgebraElement(1, X), inp)
    out = tmp_path / "traj.csv"
    code = main(["evolve", "--t-grid", "nan,1", "--input", str(inp), "--out", str(out)])
    assert code == 2
    assert "semigroup time must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_choi_diagonal_is_cp(tmp_path, capsys):
    out = tmp_path / "choi.json"
    code = main(["choi", "--level", "2", "--t", "1.0", "--generator", "diagonal", "--out", str(out)])
    assert code == 0
    assert "completely positive" in capsys.readouterr().out
    obj = json.loads(out.read_text())
    assert obj["dim"] == 16


def test_choi_transpose_control_flagged(capsys):
    code = main(["choi", "--level", "1", "--generator", "transpose"])
    assert code == 1
    out = capsys.readouterr().out
    assert "NOT completely positive" in out
    assert "-1.0" in out or "-1.000000e+00" in out


def test_choi_lindblad_file(tmp_path, capsys):
    p1 = AlgebraElement(1, np.diag([1.0, 0.0]))
    lind = {"ms": [element_to_json(p1)], "h": None}
    path = tmp_path / "lind.json"
    path.write_text(json.dumps(lind))
    code = main(["choi", "--level", "1", "--t", "0.5", "--generator", f"lindblad:{path}"])
    assert code == 0
    assert "completely positive" in capsys.readouterr().out


def test_choi_lindblad_dimension_mismatch(tmp_path, capsys):
    p1 = AlgebraElement(1, np.diag([1.0, 0.0]))
    path = tmp_path / "lind.json"
    path.write_text(json.dumps({"ms": [element_to_json(p1)], "h": None}))
    code = main(["choi", "--level", "2", "--generator", f"lindblad:{path}"])
    assert code == 2
    assert "dimension" in capsys.readouterr().err


def test_verify_sampled_suites_at_level_six(tmp_path):
    out = tmp_path / "reports"
    code = main(
        [
            "verify", "--suite", "dirichlet,leibniz,convergence", "--level", "6",
            "--samples", "3", "--out-dir", str(out),
        ]
    )
    assert code == 0
    reports = [json.loads(p.read_text()) for p in sorted(out.glob("*.json"))]
    assert len(reports) == 13
    assert all(r["failures"] == 0 for r in reports)


def test_verify_sampled_suites_at_level_seven(tmp_path, capsys):
    """dirichlet, leibniz and convergence run at level 7 on sampled
    elements alone."""
    out = tmp_path / "reports"
    code = main(
        [
            "verify", "--suite", "dirichlet,leibniz,convergence", "--level", "7",
            "--samples", "2", "--out-dir", str(out),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("[PASS]") for line in lines) == 15
    assert lines[-1].startswith("15 reports, 0 failures")
    reports = [json.loads(p.read_text()) for p in sorted(out.glob("*.json"))]
    assert len(reports) == 15 and all(r["failures"] == 0 for r in reports)


def test_verify_all_suites_at_level_seven(tmp_path, capsys):
    """No suite densifies the working level, so every suite runs at level 7."""
    out = tmp_path / "reports"
    code = main(
        [
            "verify", "--suite", "all", "--level", "7", "--samples", "2",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("[PASS]") for line in lines) == 33
    assert lines[-1].startswith("33 reports, 0 failures")


def _nan_matrix_json(level):
    obj = element_to_json(AlgebraElement(level, np.eye(2 ** level)))
    obj["re"][0][1] = float("nan")
    return obj


def test_converge_and_evolve_reject_non_finite_input(tmp_path, capsys):
    inp = tmp_path / "nan.json"
    inp.write_text(json.dumps(_nan_matrix_json(1)))
    out = tmp_path / "o.csv"
    assert main(["converge", "--level", "1", "--input", str(inp), "--out", str(out)]) == 2
    assert "'re'" in capsys.readouterr().err
    assert main(["evolve", "--t-grid", "0,1", "--input", str(inp), "--out", str(out)]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field", ["ms", "h"])
def test_choi_lindblad_rejects_non_finite_data(tmp_path, capsys, field):
    p1 = element_to_json(AlgebraElement(1, np.diag([1.0, 0.0])))
    bad = _nan_matrix_json(1)
    lind = {"ms": [bad], "h": None} if field == "ms" else {"ms": [p1], "h": bad}
    path = tmp_path / "lind.json"
    path.write_text(json.dumps(lind))
    code = main(["choi", "--level", "1", "--generator", f"lindblad:{path}"])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("ms", [None, 5, "m"])
def test_choi_lindblad_rejects_ms_that_is_not_a_list(tmp_path, capsys, ms):
    path = tmp_path / "lind.json"
    path.write_text(json.dumps({"ms": ms, "h": None}))
    code = main(["choi", "--level", "1", "--generator", f"lindblad:{path}"])
    assert code == 2
    assert "'ms' list" in capsys.readouterr().err


_json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=5), inner, max_size=3),
    ),
    max_leaves=12,
)
_float_entries = st.one_of(
    st.floats(-1e3, 1e3), st.integers(), st.floats(allow_nan=True, allow_infinity=True)
)


@st.composite
def _hermitian_json(draw):
    """Level-1 matrix JSON, real symmetric (diagonal when b is 0)."""
    a, b, c = (draw(_float_entries) for _ in range(3))
    b = draw(st.sampled_from([0.0, b]))
    return {"level": 1, "re": [[a, b], [b, c]], "im": [[0.0, 0.0], [0.0, 0.0]]}


_matrix_json = st.one_of(
    _hermitian_json(),
    st.fixed_dictionaries(
        {
            "level": st.one_of(
                st.integers(-1, 2), st.integers(), st.booleans(), _json_values
            ),
            "re": _json_values,
            "im": _json_values,
        }
    ),
    _json_values,
)


@settings(max_examples=300, deadline=None)
@given(_matrix_json)
def test_element_from_json_property(obj):
    """Any JSON value is rejected with ValueError or parses to a finite
    element of shape (2^level, 2^level)."""
    try:
        a = element_from_json(obj)
    except ValueError:
        return
    assert type(obj["level"]) is int and a.level == obj["level"]
    assert a.entries.shape == (2 ** a.level, 2 ** a.level)
    assert np.isfinite(a.entries).all()


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.fixed_dictionaries(
            {
                "ms": st.one_of(
                    st.lists(_hermitian_json(), min_size=1, max_size=2),
                    st.lists(_matrix_json, max_size=3),
                    _json_values,
                )
            },
            optional={"h": st.one_of(st.none(), _hermitian_json(), _matrix_json)},
        ),
        _json_values,
    )
)
def test_choi_lindblad_json_property(tmp_path_factory, lind):
    """Any JSON value as Lindblad data gives exit status 0, 1 or 2 and
    never an exception out of main."""
    path = tmp_path_factory.mktemp("lindblad") / "data.json"
    path.write_text(json.dumps(lind))
    assert main(["choi", "--level", "1", "--generator", f"lindblad:{path}"]) in (0, 1, 2)


def test_bad_input_file_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"level": 1, "re": [[1, 0]], "im": [[0, 0]]}))
    code = main(["converge", "--level", "1", "--input", str(bad), "--out", str(tmp_path / "o.csv")])
    assert code == 2
