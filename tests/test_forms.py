import numpy as np
import pytest

from towerforms.tower import (
    AlgebraElement,
    diagonal_projection,
    embed,
    gns_inner,
    identity,
    random_element,
)
from towerforms.expectations import cond_expect, project_P
from towerforms.superop import (
    DiagonalComplement,
    ScaledMap,
    SchurMultiplier,
    densify,
    spectral_resolve,
)
from towerforms.forms import (
    CompatibleFamily,
    FamilyCompatibilityError,
    QuadraticForm,
    amplified_form,
    build_from_family,
    commutator_form,
    commutator_form_eval,
    diagonal_form,
    dirichlet_check,
    energy_inner,
    eval_form,
    eval_form_matrix,
    family_compatibility_margin,
    operator_norm,
    restricted_form,
    wedge_one,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


# --------------------------------------------------------------------------
# convex-projection oracle for the wedge
# --------------------------------------------------------------------------


def _project_psd(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    return (v * np.maximum(w, 0.0)) @ v.conj().T


def _project_below_one(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    return (v * np.minimum(w, 1.0)) @ v.conj().T


def dykstra_interval_projection(mat: np.ndarray, iters: int = 200) -> np.ndarray:
    """Dykstra's alternating projection onto {x >= 0} intersect {x <= 1};
    converges to the Frobenius projection onto the operator interval."""
    x = mat.astype(complex)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(iters):
        y = _project_psd(x + p)
        p = x + p - y
        x_new = _project_below_one(y + q)
        q = y + q - x_new
        if np.abs(x_new - x).max() < 1e-14:
            x = x_new
            break
        x = x_new
    return x


# --------------------------------------------------------------------------
# form evaluation
# --------------------------------------------------------------------------


def test_diagonal_form_on_offdiagonal():
    assert abs(eval_form(diagonal_form(1), AlgebraElement(1, X)) - 1.0) < 1e-15


def test_diagonal_form_kernel():
    F = diagonal_form(1)
    assert eval_form(F, identity(1)) == 0.0
    assert eval_form(F, AlgebraElement(1, np.diag([2.0, -3.0]))) == 0.0


def test_zero_matrix_accepted_everywhere_with_exact_zero():
    z = AlgebraElement(2, np.zeros((4, 4)))
    assert eval_form(diagonal_form(2), z) == 0.0
    assert commutator_form_eval(z, 1) == 0.0
    assert energy_inner(diagonal_form(2), z, z) == 0.0
    assert np.abs(wedge_one(z).entries).max() == 0.0


def test_form_is_quadratic():
    F = diagonal_form(2)
    a = random_element(2, "general", 80)
    lam = 0.3 - 1.7j
    assert abs(eval_form(F, lam * a) - abs(lam) ** 2 * eval_form(F, a)) < 1e-10


def test_form_nonnegative_on_samples():
    F = diagonal_form(2)
    for seed in range(20):
        assert eval_form(F, random_element(2, "general", 100 + seed)) >= -1e-12


def test_eval_form_rejects_level_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        eval_form(diagonal_form(1), identity(2))


def test_spectral_identity_for_form_values():
    F = diagonal_form(2)
    res = spectral_resolve(F.generator)
    for seed in range(5):
        a = random_element(2, "general", 110 + seed)
        coeffs = res.coefficients(a.entries)
        spectral = float(np.sum(res.eigenvalues * np.abs(coeffs) ** 2))
        assert abs(eval_form(F, a) - spectral) < 1e-12


# --------------------------------------------------------------------------
# commutator presentation
# --------------------------------------------------------------------------


def test_commutator_eval_frozen_examples():
    assert abs(commutator_form_eval(AlgebraElement(1, X), 1) - 2.0) < 1e-15
    assert commutator_form_eval(AlgebraElement(1, np.diag([5.0, -1.0])), 1) == 0.0
    x_padded = AlgebraElement(2, np.kron(X, np.eye(2)))
    assert abs(commutator_form_eval(x_padded, 1) - 2.0) < 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_commutator_eval_matches_dense_projection_sum(n):
    """The O(d^2) row/column formula against sum_i ||p_i b - b p_i||^2 / d
    with the rank-one projections built densely."""
    a = random_element(5, "general", 130 + n)
    b = cond_expect(a, n).entries
    d = 2 ** n
    expected = 0.0
    for i in range(d):
        p = diagonal_projection(n, i).entries
        c = p @ b - b @ p
        expected += np.trace(c @ c.conj().T).real / d
    assert abs(commutator_form_eval(a, n) - expected) <= 1e-12 * expected


def test_commutator_form_generator_matches_literal_sum():
    F = commutator_form(2)
    for seed in range(10):
        a = random_element(2, "general", 120 + seed)
        assert abs(eval_form(F, a) - commutator_form_eval(a, 2)) < 1e-12


def test_normalization_bridge():
    """The literal commutator sum is exactly twice the diagonal-form energy
    of the conditioned element."""
    for n in (1, 2, 3):
        F = diagonal_form(n)
        for seed in range(30):
            a = random_element(3, "general", 200 + seed)
            lhs = commutator_form_eval(a, n)
            rhs = 2.0 * eval_form(F, cond_expect(a, n))
            assert abs(lhs - rhs) <= 1e-12


# --------------------------------------------------------------------------
# wedge
# --------------------------------------------------------------------------


def test_wedge_frozen_examples_against_oracle():
    a = np.diag([2.0, -1.0])
    oracle = dykstra_interval_projection(a)
    np.testing.assert_allclose(oracle, np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(
        wedge_one(AlgebraElement(1, a)).entries, np.diag([1.0, 0.0]), atol=1e-14
    )

    b = np.array([[0.0, 2.0], [2.0, 0.0]])
    oracle_b = dykstra_interval_projection(b)
    np.testing.assert_allclose(oracle_b, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
    np.testing.assert_allclose(
        wedge_one(AlgebraElement(1, b)).entries, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14
    )


def test_wedge_matches_oracle_on_random_hermitian():
    for seed in range(10):
        a = random_element(2, "hermitian", 130 + seed)
        np.testing.assert_allclose(
            wedge_one(a).entries,
            dykstra_interval_projection(a.entries),
            atol=1e-10,
        )


def test_wedge_fixes_elements_already_in_interval():
    a = random_element(2, "contraction", 140)
    np.testing.assert_allclose(wedge_one(a).entries, a.entries, atol=1e-13)


def test_wedge_output_spectrum_in_interval():
    a = random_element(3, "hermitian", 141)
    ev = np.linalg.eigvalsh(wedge_one(a).entries)
    assert ev[0] >= -1e-13 and ev[-1] <= 1.0 + 1e-13


def test_wedge_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        wedge_one(AlgebraElement(1, [[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_wedge_rejects_non_finite_elements(value):
    with pytest.raises(ValueError, match="non-finite"):
        wedge_one(AlgebraElement(1, [[1.0, value], [value, 0.0]]))


# --------------------------------------------------------------------------
# Dirichlet property
# --------------------------------------------------------------------------


def test_dirichlet_frozen_example_values():
    F = diagonal_form(1)
    a = AlgebraElement(1, [[0.0, 2.0], [2.0, 0.0]])
    assert abs(eval_form(F, a) - 4.0) < 1e-14
    assert abs(eval_form(F, wedge_one(a)) - 0.25) < 1e-14


def test_dirichlet_equality_when_already_in_interval():
    F = diagonal_form(2)
    a = random_element(2, "contraction", 150)
    assert abs(eval_form(F, wedge_one(a)) - eval_form(F, a)) < 1e-12


def test_dirichlet_check_passes_for_diagonal_form():
    for n in (1, 2, 3):
        rep = dirichlet_check(diagonal_form(n), samples=200, seed=151, tol=1e-10)
        assert rep.failures == 0
        assert rep.suite == "dirichlet" and rep.level == n


def test_dirichlet_check_flags_a_non_dirichlet_form():
    """Negative control: flipping the generator sign breaks the contraction
    property and the suite must report it."""
    bad = QuadraticForm(ScaledMap(-1.0, diagonal_form(1).generator), label="minus")
    rep = dirichlet_check(bad, samples=100, seed=152, tol=1e-10)
    assert rep.failures > 0
    assert rep.worst_margin > 0.1


def test_dirichlet_check_fails_closed_on_nan_generator():
    nan_form = QuadraticForm(
        ScaledMap(float("nan"), DiagonalComplement(4)), label="nan"
    )
    rep = dirichlet_check(nan_form, samples=5, seed=153, tol=1e-10)
    assert rep.failures == 5
    assert np.isnan(rep.worst_margin)
    assert not rep.passed


# --------------------------------------------------------------------------
# amplification
# --------------------------------------------------------------------------


def test_amplified_k1_is_same_form():
    F = diagonal_form(2)
    assert amplified_form(F, 1) is F


def test_amplified_single_block_energy():
    F = diagonal_form(1)
    amp = amplified_form(F, 2)
    big = np.zeros((4, 4), dtype=complex)
    big[0:2, 0:2] = X
    assert abs(eval_form_matrix(amp, big) - 1.0) < 1e-14


def test_amplified_energy_is_blockwise_sum():
    F = diagonal_form(1)
    amp = amplified_form(F, 3)
    rng = np.random.default_rng(153)
    big = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    total = sum(
        eval_form(F, AlgebraElement(1, big[2 * i:2 * i + 2, 2 * j:2 * j + 2]))
        for i in range(3)
        for j in range(3)
    )
    assert abs(eval_form_matrix(amp, big) - total) < 1e-12


def test_amplified_dirichlet_contraction_k2_k3():
    for n in (1, 2):
        F = diagonal_form(n)
        for k in (2, 3):
            rep = dirichlet_check(
                amplified_form(F, k), samples=100, seed=154, tol=1e-10, level=n
            )
            assert rep.failures == 0


def test_amplified_budget_rejected():
    with pytest.raises(ValueError, match="cap"):
        amplified_form(diagonal_form(4), 5)


def test_amplified_invalid_k_rejected():
    with pytest.raises(ValueError, match=">= 1"):
        amplified_form(diagonal_form(1), 0)


# --------------------------------------------------------------------------
# restriction
# --------------------------------------------------------------------------


def test_restricted_to_own_level_is_same_form():
    F = diagonal_form(2)
    assert restricted_form(F, 2) is F


def test_restricted_fixes_embedded_low_level_elements():
    F = diagonal_form(2)
    F1 = restricted_form(F, 1)
    a = embed(AlgebraElement(1, X), 2)
    assert abs(eval_form(F1, a) - 1.0) < 1e-14
    assert abs(eval_form(F1, a) - eval_form(F, project_P(a, 1))) < 1e-14


def test_restricted_kills_higher_level_detail():
    F = diagonal_form(2)
    F1 = restricted_form(F, 1)
    a = AlgebraElement(2, np.kron(X, X))  # vanishing level-1 expectation
    assert abs(eval_form(F1, a)) < 1e-14


def test_restricted_form_is_bounded_and_dirichlet():
    F = diagonal_form(3)
    F1 = restricted_form(F, 1)
    assert operator_norm(F1) <= operator_norm(F) + 1e-12 == 1.0 + 1e-12
    rep = dirichlet_check(F1, samples=100, seed=155, tol=1e-10)
    assert rep.failures == 0


def test_restricted_rejects_higher_level():
    with pytest.raises(ValueError, match="higher level"):
        restricted_form(diagonal_form(1), 3)


def test_restricted_values_nonnegative_and_exact_at_top():
    F = diagonal_form(3)
    for seed in range(10):
        a = random_element(3, "general", 310 + seed)
        e = eval_form(F, a)
        for n in (1, 2, 3):
            e_n = eval_form(restricted_form(F, n), a)
            assert e_n >= -1e-12
        assert abs(eval_form(restricted_form(F, 3), a) - e) == 0.0


# --------------------------------------------------------------------------
# energy inner product
# --------------------------------------------------------------------------


def test_energy_inner_frozen_examples():
    F = diagonal_form(1)
    x = AlgebraElement(1, X)
    assert abs(energy_inner(F, x, x) - 2.0) < 1e-14
    one = identity(1)
    assert abs(energy_inner(F, one, one) - 1.0) < 1e-14


def test_energy_inner_conjugate_symmetry_and_domination():
    F = diagonal_form(2)
    for seed in range(10):
        a = random_element(2, "general", 160 + seed)
        b = random_element(2, "general", 170 + seed)
        assert abs(energy_inner(F, a, b) - np.conj(energy_inner(F, b, a))) < 1e-10
        assert energy_inner(F, a, a).real >= gns_inner(a, a).real - 1e-10


def test_energy_inner_rejects_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        energy_inner(diagonal_form(1), identity(1), identity(2))


# --------------------------------------------------------------------------
# compatible families
# --------------------------------------------------------------------------


def _commutator_family(top: int) -> CompatibleFamily:
    return CompatibleFamily(tuple(commutator_form(n) for n in range(1, top + 1)))


def test_commutator_family_is_compatible():
    worst, witness = family_compatibility_margin(_commutator_family(3))
    assert worst <= 1e-12


def test_compatibility_by_direct_evaluation():
    fam = _commutator_family(3)
    for n in (1, 2):
        for seed in range(10):
            a = random_element(n, "general", 180 + seed)
            lhs = eval_form(fam.forms[n - 1], a)
            rhs = eval_form(fam.forms[n], embed(a, n + 1))
            assert abs(lhs - rhs) < 1e-12


def test_build_from_family_recovers_top_form():
    fam = _commutator_family(3)
    recovered = build_from_family(fam, ambient_level=3)
    direct = commutator_form(3)
    dev = np.abs(
        densify(recovered.generator).matrix - densify(direct.generator).matrix
    ).max()
    assert dev <= 1e-12
    a = random_element(3, "general", 190)
    assert abs(eval_form(recovered, a) - commutator_form_eval(a, 3)) < 1e-12


def test_build_from_zero_family():
    fam = CompatibleFamily(
        tuple(
            QuadraticForm(SchurMultiplier(np.zeros((2 ** n, 2 ** n))), label="zero")
            for n in (1, 2)
        )
    )
    recovered = build_from_family(fam)
    assert eval_form(recovered, random_element(2, "general", 191)) == 0.0


def test_perturbed_family_rejected_with_witness():
    forms = list(_commutator_family(3).forms)
    forms[1] = QuadraticForm(ScaledMap(2.0, forms[1].generator), label="x2")
    fam = CompatibleFamily(tuple(forms))
    with pytest.raises(FamilyCompatibilityError) as err:
        build_from_family(fam)
    assert err.value.level in (1, 2)
    assert err.value.unit is not None
    assert abs(err.value.lhs - err.value.rhs) > 1e-6


def test_nan_family_member_is_kept_as_worst_and_rejected():
    forms = list(_commutator_family(3).forms)
    forms[1] = QuadraticForm(ScaledMap(float("nan"), forms[1].generator), label="nan")
    fam = CompatibleFamily(tuple(forms))
    worst, witness = family_compatibility_margin(fam)
    assert np.isnan(worst)
    assert witness[0] == 1  # the first level pair that touches the NaN member
    with pytest.raises(FamilyCompatibilityError):
        build_from_family(fam)


def test_family_levels_validated():
    with pytest.raises(ValueError, match="level"):
        CompatibleFamily((commutator_form(2),))


def test_build_from_family_checks_ambient_level():
    with pytest.raises(ValueError, match="ambient"):
        build_from_family(_commutator_family(2), ambient_level=3)


# --------------------------------------------------------------------------
# convergence of restricted energies
# --------------------------------------------------------------------------


def test_convergence_chain_and_tail_bound():
    """|sqrt(E_n) - sqrt(E)| <= sqrt(E(Q_n a)) and E(Q_n a) <= ||Q_n a||^2
    for the diagonal form (generator norm one), rowwise for n <= N."""
    from towerforms.expectations import project_Q

    F = diagonal_form(3)
    for seed in range(20):
        a = random_element(3, "general", 300 + seed)
        e = eval_form(F, a)
        for n in (1, 2, 3):
            e_n = eval_form(F, project_P(a, n))
            qa = project_Q(a, n)
            e_q = eval_form(F, qa)
            assert abs(np.sqrt(e_n) - np.sqrt(e)) <= np.sqrt(e_q) + 1e-10
            assert e_q <= gns_inner(qa, qa).real + 1e-10
        assert eval_form(F, project_Q(a, 3)) <= 1e-12
