import numpy as np
import pytest

from reference import (
    diagonal_part,
    diagonal_projection,
    embed,
    gns_inner,
    identity,
    normalized_trace,
    product,
    project_P,
    project_Q,
    random_element,
)
from towerforms.expectations import cond_expect
from towerforms.tower import AlgebraElement

Z = np.diag([1.0, -1.0])
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def partial_trace_oracle(mat: np.ndarray, level: int, target: int) -> np.ndarray:
    """Brute-force partial trace: sum over matching trailing index pairs,
    one tau_1 factor per traced leg."""
    k = level - target
    d_keep, d_tr = 2 ** target, 2 ** k
    out = np.zeros((d_keep, d_keep), dtype=complex)
    for i in range(d_keep):
        for j in range(d_keep):
            acc = 0.0
            for t in range(d_tr):
                acc += mat[i * d_tr + t, j * d_tr + t]
            out[i, j] = acc / d_tr
    return out


def test_cond_expect_frozen_example():
    a = AlgebraElement(2, np.kron(Z, np.diag([3.0, 1.0])))
    expected = partial_trace_oracle(a.entries, 2, 1)
    np.testing.assert_array_equal(expected, np.diag([2.0, -2.0]))
    np.testing.assert_allclose(cond_expect(a, 1).entries, expected, atol=0)


def test_cond_expect_matches_oracle_on_random_input():
    rng = np.random.default_rng(20)
    for level, target in [(3, 1), (3, 2), (4, 2), (2, 0)]:
        d = 2 ** level
        a = AlgebraElement(level, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        np.testing.assert_allclose(
            cond_expect(a, target).entries,
            partial_trace_oracle(a.entries, level, target),
            atol=1e-13,
        )


def test_cond_expect_identity_on_own_level():
    a = random_element(2, "general", 21)
    np.testing.assert_array_equal(cond_expect(a, 2).entries, a.entries)


def test_cond_expect_unital():
    np.testing.assert_allclose(cond_expect(identity(3), 1).entries, np.eye(2), atol=0)


def test_cond_expect_preserves_trace():
    a = random_element(3, "general", 22)
    for n in range(4):
        assert abs(normalized_trace(cond_expect(a, n)) - normalized_trace(a)) < 1e-12


def test_cond_expect_module_property():
    rng = np.random.default_rng(23)
    a = AlgebraElement(3, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    x = AlgebraElement(1, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    y = AlgebraElement(1, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    lhs = cond_expect(product(product(embed(x, 3), a), embed(y, 3)), 1)
    rhs = product(product(x, cond_expect(a, 1)), y)
    np.testing.assert_allclose(lhs.entries, rhs.entries, atol=1e-12)


def test_cond_expect_rejects_higher_target():
    with pytest.raises(ValueError, match="higher level"):
        cond_expect(identity(1), 2)


# --------------------------------------------------------------------------
# P_n and Q_n
# --------------------------------------------------------------------------


def test_project_P_frozen_example():
    a = AlgebraElement(2, np.kron(Z, np.diag([3.0, 1.0])))
    np.testing.assert_allclose(
        project_P(a, 1).entries, np.diag([2.0, 2.0, -2.0, -2.0]), atol=0
    )


def test_projections_are_orthogonal_complements():
    for seed in range(5):
        a = random_element(3, "general", 30 + seed)
        for n in range(4):
            assert abs(gns_inner(project_P(a, n), project_Q(a, n))) < 1e-12
            np.testing.assert_allclose(
                project_P(a, n).entries + project_Q(a, n).entries, a.entries, atol=1e-14
            )


def test_project_P_fixes_embedded_elements():
    b = random_element(1, "general", 31)
    a = embed(b, 3)
    np.testing.assert_allclose(project_P(a, 1).entries, a.entries, atol=1e-14)


def test_project_P_idempotent_and_self_adjoint():
    rng = np.random.default_rng(32)
    for _ in range(10):
        a = AlgebraElement(3, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        b = AlgebraElement(3, rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        for n in range(4):
            pa = project_P(a, n)
            np.testing.assert_allclose(project_P(pa, n).entries, pa.entries, atol=1e-13)
            assert abs(gns_inner(pa, b) - gns_inner(a, project_P(b, n))) < 1e-12


def test_project_P_monotone_composition():
    a = random_element(4, "general", 33)
    for m in range(5):
        for n in range(5):
            lhs = project_P(project_P(a, n), m)
            rhs = project_P(a, min(m, n))
            np.testing.assert_allclose(lhs.entries, rhs.entries, atol=1e-13)


def test_project_P_exhausts_at_working_level():
    a = random_element(3, "general", 34)
    np.testing.assert_array_equal(project_P(a, 3).entries, a.entries)
    assert np.abs(project_Q(a, 3).entries).max() == 0.0


# --------------------------------------------------------------------------
# diagonal expectation
# --------------------------------------------------------------------------


def test_diag_expect_examples():
    a = np.array([[1.0, 5.0], [7.0, 2.0]])
    np.testing.assert_array_equal(diagonal_part(a), np.diag([1.0, 2.0]))
    assert np.abs(diagonal_part(X)).max() == 0.0


def test_diag_expect_idempotent_trace_preserving_positive():
    a = random_element(2, "general", 40)
    da = diagonal_part(a.entries)
    np.testing.assert_array_equal(diagonal_part(da), da)
    assert abs(np.trace(da) - np.trace(a.entries)) < 1e-14
    p = random_element(2, "psd", 41)
    assert np.linalg.eigvalsh(diagonal_part(p.entries))[0] >= -1e-12


def test_diag_expect_is_sum_of_corner_compressions():
    a = random_element(2, "general", 42)
    acc = 0.0
    for i in range(4):
        p = diagonal_projection(2, i).entries
        acc = acc + p @ a.entries @ p
    np.testing.assert_allclose(diagonal_part(a.entries), acc, atol=1e-14)


def test_diagonal_and_tower_expectations_commute():
    """The two expectations form a commuting square: taking the diagonal
    after conditioning equals conditioning the diagonal part."""
    for seed in range(5):
        a = random_element(3, "general", 50 + seed)
        for n in range(4):
            lhs = diagonal_part(cond_expect(a, n).entries)
            rhs = cond_expect(AlgebraElement(3, diagonal_part(a.entries)), n)
            np.testing.assert_allclose(lhs, rhs.entries, atol=1e-13)
