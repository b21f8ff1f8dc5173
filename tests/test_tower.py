import numpy as np
import pytest

from towerforms.tower import (
    AlgebraElement,
    diagonal_projection,
    element_from_json,
    element_to_json,
    embed,
    gns_inner,
    gns_norm,
    identity,
    load_element,
    matrix_unit,
    modular_conjugation,
    normalized_trace,
    random_element,
    save_element,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def embed_oracle(mat: np.ndarray, level: int, target: int) -> np.ndarray:
    """Right-append embedding by index arithmetic: entry (i, j) survives iff
    the appended (least significant) index bits agree."""
    k = target - level
    d_out = 2 ** target
    mask = (1 << k) - 1
    out = np.zeros((d_out, d_out), dtype=complex)
    for i in range(d_out):
        for j in range(d_out):
            if (i & mask) == (j & mask):
                out[i, j] = mat[i >> k, j >> k]
    return out


# --------------------------------------------------------------------------
# element construction
# --------------------------------------------------------------------------


def test_element_shape_validated():
    with pytest.raises(ValueError, match="shape"):
        AlgebraElement(2, np.eye(3))
    with pytest.raises(ValueError, match="nonnegative"):
        AlgebraElement(-1, np.eye(1))


def test_element_entries_are_frozen_copies():
    src = np.eye(2, dtype=complex)
    a = AlgebraElement(1, src)
    src[0, 0] = 99.0
    assert a.entries[0, 0] == 1.0
    with pytest.raises(ValueError):
        a.entries[0, 0] = 5.0


def test_element_arithmetic_checks_levels():
    a = identity(1)
    b = identity(2)
    with pytest.raises(ValueError, match="level mismatch"):
        _ = a + b
    with pytest.raises(ValueError, match="level mismatch"):
        _ = a @ b


# --------------------------------------------------------------------------
# normalized trace
# --------------------------------------------------------------------------


def test_trace_of_unit_is_one():
    assert normalized_trace(identity(1)) == 1.0
    assert normalized_trace(identity(3)) == 1.0


def test_trace_of_rank_one():
    a = AlgebraElement(2, np.diag([1.0, 0.0, 0.0, 0.0]))
    assert normalized_trace(a) == 0.25


def test_trace_of_offdiagonal_is_zero():
    assert normalized_trace(AlgebraElement(1, X)) == 0.0


def test_trace_multiplicative_over_tensor_legs():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lhs = normalized_trace(AlgebraElement(3, np.kron(a, b)))
    rhs = normalized_trace(AlgebraElement(1, a)) * normalized_trace(AlgebraElement(2, b))
    assert abs(lhs - rhs) < 1e-12


def test_trace_is_tracial():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = AlgebraElement(2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        b = AlgebraElement(2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        assert abs(normalized_trace(a @ b) - normalized_trace(b @ a)) < 1e-10


# --------------------------------------------------------------------------
# GNS inner product
# --------------------------------------------------------------------------


def test_gns_examples():
    x = AlgebraElement(1, X)
    p1 = diagonal_projection(1, 0)
    p2 = diagonal_projection(1, 1)
    assert abs(gns_inner(x, x) - 1.0) < 1e-15
    assert abs(gns_inner(p1, p1) - 0.5) < 1e-15
    assert abs(gns_inner(p1, p2)) < 1e-15


def test_gns_conjugate_symmetry_and_positivity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = AlgebraElement(2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        b = AlgebraElement(2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        assert abs(gns_inner(a, b) - np.conj(gns_inner(b, a))) < 1e-10
        assert gns_inner(a, a).real >= 0.0
        assert abs(gns_inner(a, a).imag) < 1e-12


def test_gns_definite():
    a = AlgebraElement(1, np.zeros((2, 2)))
    assert gns_inner(a, a) == 0.0
    assert gns_norm(identity(1)) == 1.0


def test_gns_sesquilinear_in_first_slot():
    x = identity(1)
    assert abs(gns_inner(1j * x, x) - (-1j)) < 1e-15


def test_gns_level_mismatch_rejected():
    with pytest.raises(ValueError, match="level mismatch"):
        gns_inner(identity(1), identity(2))


# --------------------------------------------------------------------------
# embedding
# --------------------------------------------------------------------------


def test_embed_frozen_example():
    a = AlgebraElement(1, np.diag([1.0, 2.0]))
    expected = embed_oracle(a.entries, 1, 2)
    np.testing.assert_array_equal(expected, np.diag([1.0, 1.0, 2.0, 2.0]))
    np.testing.assert_allclose(embed(a, 2).entries, expected, atol=0)


def test_embed_matches_index_oracle_on_random_input():
    rng = np.random.default_rng(3)
    for level, target in [(1, 3), (2, 4), (0, 2)]:
        a = AlgebraElement(
            level,
            rng.standard_normal((2 ** level,) * 2) + 1j * rng.standard_normal((2 ** level,) * 2),
        )
        np.testing.assert_allclose(
            embed(a, target).entries, embed_oracle(a.entries, level, target), atol=1e-15
        )


def test_embed_maps_unit_to_unit():
    np.testing.assert_array_equal(embed(identity(1), 3).entries, identity(3).entries)


def test_embed_preserves_trace():
    a = AlgebraElement(1, np.diag([1.0, 2.0]))
    assert normalized_trace(embed(a, 2)) == normalized_trace(a) == 1.5


def test_embed_star_homomorphism():
    rng = np.random.default_rng(4)
    a = AlgebraElement(1, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    b = AlgebraElement(1, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    np.testing.assert_allclose(
        embed(a @ b, 3).entries, (embed(a, 3) @ embed(b, 3)).entries, atol=1e-12
    )
    np.testing.assert_allclose(
        embed(modular_conjugation(a), 3).entries,
        modular_conjugation(embed(a, 3)).entries,
        atol=1e-15,
    )


def test_embed_is_gns_isometry():
    rng = np.random.default_rng(5)
    a = AlgebraElement(2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    b = AlgebraElement(2, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert abs(gns_inner(embed(a, 4), embed(b, 4)) - gns_inner(a, b)) < 1e-12


def test_embed_below_level_rejected():
    with pytest.raises(ValueError, match="lower level"):
        embed(identity(2), 1)


# --------------------------------------------------------------------------
# modular conjugation
# --------------------------------------------------------------------------


def test_conjugation_example():
    a = AlgebraElement(1, [[0.0, 1j], [0.0, 0.0]])
    np.testing.assert_array_equal(
        modular_conjugation(a).entries, np.array([[0.0, 0.0], [-1j, 0.0]])
    )


def test_conjugation_fixes_hermitian_and_is_involutive():
    h = random_element(2, "hermitian", 6)
    np.testing.assert_allclose(modular_conjugation(h).entries, h.entries, atol=0)
    g = random_element(2, "general", 6)
    np.testing.assert_array_equal(
        modular_conjugation(modular_conjugation(g)).entries, g.entries
    )


def test_conjugation_antilinear():
    a = 1j * identity(1)
    np.testing.assert_array_equal(modular_conjugation(a).entries, -1j * np.eye(2))


def test_conjugation_is_gns_isometry():
    g = random_element(3, "general", 7)
    assert abs(gns_norm(modular_conjugation(g)) - gns_norm(g)) < 1e-12


# --------------------------------------------------------------------------
# random sampling
# --------------------------------------------------------------------------


def test_random_hermitian_is_hermitian():
    h = random_element(3, "hermitian", 8)
    assert np.abs(h.entries - h.entries.conj().T).max() == 0.0


def test_random_contraction_spectrum():
    x = random_element(3, "contraction", 9)
    ev = np.linalg.eigvalsh(x.entries)
    assert ev[0] >= -1e-12 and ev[-1] <= 1.0 + 1e-12


def test_random_psd_spectrum():
    x = random_element(3, "psd", 10)
    assert np.linalg.eigvalsh(x.entries)[0] >= -1e-12


def test_random_is_seed_deterministic():
    a = random_element(2, "general", 11)
    b = random_element(2, "general", 11)
    np.testing.assert_array_equal(a.entries, b.entries)


def test_random_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown kind"):
        random_element(1, "unitary", 0)


# --------------------------------------------------------------------------
# matrix JSON
# --------------------------------------------------------------------------


def test_json_roundtrip(tmp_path):
    a = random_element(2, "general", 12)
    path = tmp_path / "a.json"
    save_element(a, path)
    b = load_element(path)
    assert b.level == a.level
    np.testing.assert_allclose(b.entries, a.entries, atol=0)


def test_json_shape_mismatch_rejected():
    good = element_to_json(identity(1))
    bad = dict(good, re=[[1.0, 0.0]])
    with pytest.raises(ValueError, match="shape"):
        element_from_json(bad)
    ragged = dict(good, im=[[0.0, 0.0], [0.0]])
    with pytest.raises(ValueError):
        element_from_json(ragged)


@pytest.mark.parametrize("field", ["re", "im"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_json_non_finite_entries_rejected(field, value):
    obj = element_to_json(identity(1))
    obj[field][1][0] = value
    with pytest.raises(ValueError, match=f"'{field}' has non-finite"):
        element_from_json(obj)


@pytest.mark.parametrize("entry", ["1.5", True, False, None, [1.0], {"re": 1.0}])
@pytest.mark.parametrize("field", ["re", "im"])
def test_json_entries_must_be_numbers(field, entry):
    obj = element_to_json(identity(1))
    obj[field][0][1] = entry
    with pytest.raises(ValueError, match=f"'{field}'"):
        element_from_json(obj)


def test_json_integer_entries_accepted_and_huge_ones_rejected():
    a = element_from_json({"level": 1, "re": [[1, 0], [0, 2]], "im": [[0, 3], [-3, 0]]})
    np.testing.assert_array_equal(a.entries, [[1, 3j], [-3j, 2]])
    with pytest.raises(ValueError, match="too large"):
        element_from_json({"level": 0, "re": [[10 ** 400]], "im": [[0]]})


def test_json_missing_fields_rejected():
    with pytest.raises(ValueError, match="missing"):
        element_from_json({"level": 1, "re": [[0, 0], [0, 0]]})
    with pytest.raises(ValueError, match="level"):
        element_from_json({"level": -2, "re": [], "im": []})
    eye = element_to_json(identity(1))
    for level in (True, 64, 10 ** 30):
        with pytest.raises(ValueError, match="level"):
            element_from_json(dict(eye, level=level))


def test_matrix_unit_basis():
    e01 = matrix_unit(1, 0, 1)
    assert e01.entries[0, 1] == 1.0 and np.abs(e01.entries).sum() == 1.0
