import numpy as np
import pytest

from reference import (
    SchurMultiplier,
    amplified_form,
    apply,
    diagonal_projection,
    eigenvectors,
    embed,
    eval_form,
    gaussian_hermitian,
    gns_inner,
    identity,
    project_P,
    project_Q,
    random_element,
    wedge_one,
)
from towerforms.tower import AlgebraElement
from towerforms.expectations import cond_expect, partial_trace_matrix
from towerforms.superop import (
    ComposedMap,
    DiagonalComplement,
    ScaledMap,
    densify,
    spectral_resolve,
)
from towerforms.forms import (
    STABILIZATION_TOL,
    CompatibleFamily,
    FamilyCompatibilityError,
    build_from_family,
    commutator_form_eval,
    commutator_generator,
    dirichlet_check,
    eval_form_matrix,
    family_compatibility_margin,
    _stabilization_values,
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
    assert abs(eval_form(DiagonalComplement(2), AlgebraElement(1, X)) - 1.0) < 1e-15


def test_diagonal_form_kernel():
    F = DiagonalComplement(2)
    assert eval_form(F, identity(1)) == 0.0
    assert eval_form(F, AlgebraElement(1, np.diag([2.0, -3.0]))) == 0.0


def test_zero_matrix_accepted_everywhere_with_exact_zero():
    z = AlgebraElement(2, np.zeros((4, 4)))
    assert eval_form(DiagonalComplement(4), z) == 0.0
    assert commutator_form_eval(z, 1) == 0.0
    assert _energy_inner(DiagonalComplement(4), z, z) == 0.0
    assert np.abs(wedge_one(z).entries).max() == 0.0


def test_form_is_quadratic():
    F = DiagonalComplement(4)
    a = random_element(2, "general", 80)
    lam = 0.3 - 1.7j
    scaled = AlgebraElement(2, lam * a.entries)
    assert abs(eval_form(F, scaled) - abs(lam) ** 2 * eval_form(F, a)) < 1e-10


def test_form_nonnegative_on_samples():
    F = DiagonalComplement(4)
    for seed in range(20):
        assert eval_form(F, random_element(2, "general", 100 + seed)) >= -1e-12


def test_eval_form_rejects_level_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        eval_form(DiagonalComplement(2), identity(2))


def test_spectral_identity_for_form_values():
    F = DiagonalComplement(4)
    res = spectral_resolve(F)
    for seed in range(5):
        a = random_element(2, "general", 110 + seed)
        coeffs = np.einsum("kij,ij->k", eigenvectors(res).conj(), a.entries) / 4
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
    F = commutator_generator(2)
    for seed in range(10):
        a = random_element(2, "general", 120 + seed)
        assert abs(eval_form(F, a) - commutator_form_eval(a, 2)) < 1e-12


def test_normalization_bridge():
    """The literal commutator sum is exactly twice the diagonal-form energy
    of the conditioned element."""
    for n in (1, 2, 3):
        F = DiagonalComplement(2 ** n)
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
    F = DiagonalComplement(2)
    a = AlgebraElement(1, [[0.0, 2.0], [2.0, 0.0]])
    assert abs(eval_form(F, a) - 4.0) < 1e-14
    assert abs(eval_form(F, wedge_one(a)) - 0.25) < 1e-14


def test_dirichlet_equality_when_already_in_interval():
    F = DiagonalComplement(4)
    a = random_element(2, "contraction", 150)
    assert abs(eval_form(F, wedge_one(a)) - eval_form(F, a)) < 1e-12


def test_dirichlet_check_passes_for_diagonal_form():
    for n in (1, 2, 3):
        rep = dirichlet_check(
            DiagonalComplement(2 ** n), samples=200, seed=151, tol=1e-10
        )
        assert rep.failures == 0
        assert rep.suite == "dirichlet" and rep.level == n


def test_dirichlet_check_flags_a_non_dirichlet_form():
    """Negative control: flipping the generator sign breaks the contraction
    property and the suite must report it."""
    bad = ScaledMap(-1.0, DiagonalComplement(2))
    rep = dirichlet_check(bad, samples=100, seed=152, tol=1e-10)
    assert rep.failures > 0
    assert rep.worst_margin > 0.1


def test_dirichlet_check_fails_closed_on_nan_generator():
    nan_form = ScaledMap(float("nan"), DiagonalComplement(4))
    rep = dirichlet_check(nan_form, samples=5, seed=153, tol=1e-10)
    assert rep.failures == 5
    assert np.isnan(rep.worst_margin)
    assert not rep.passed


@pytest.mark.parametrize("samples", [0, -3])
def test_dirichlet_check_rejects_fewer_than_one_sample(samples):
    """No sample is no check: it raises instead of passing vacuously."""
    with pytest.raises(ValueError, match=r"samples must be >= 1"):
        dirichlet_check(DiagonalComplement(4), samples=samples, seed=1, tol=1e-10)


# --------------------------------------------------------------------------
# amplification
# --------------------------------------------------------------------------


def test_amplified_k1_is_same_form():
    F = DiagonalComplement(4)
    assert amplified_form(F, 1) is F


def test_amplified_single_block_energy():
    F = DiagonalComplement(2)
    amp = amplified_form(F, 2)
    big = np.zeros((4, 4), dtype=complex)
    big[0:2, 0:2] = X
    assert abs(eval_form_matrix(amp, big) - 1.0) < 1e-14


def test_amplified_energy_is_blockwise_sum():
    F = DiagonalComplement(2)
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
        F = DiagonalComplement(2 ** n)
        for k in (2, 3):
            rep = dirichlet_check(amplified_form(F, k), samples=100, seed=154, tol=1e-10)
            assert rep.failures == 0 and rep.level == n and rep.samples == 100


def test_amplified_budget_rejected():
    with pytest.raises(ValueError, match="cap"):
        amplified_form(DiagonalComplement(16), 5)


def test_amplified_invalid_k_rejected():
    with pytest.raises(ValueError, match=">= 1"):
        amplified_form(DiagonalComplement(2), 0)


# --------------------------------------------------------------------------
# restriction
# --------------------------------------------------------------------------


def test_restricted_to_own_level_is_same_form():
    """The restricted form a -> E(P_n a) is the form itself at n = level."""
    F = DiagonalComplement(4)
    a = random_element(2, "general", 330)
    assert np.array_equal(project_P(a, 2).entries, a.entries)
    assert eval_form(F, project_P(a, 2)) == eval_form(F, a)


def test_restricted_fixes_embedded_low_level_elements():
    F = DiagonalComplement(4)
    a = embed(AlgebraElement(1, X), 2)
    assert abs(eval_form(F, project_P(a, 1)) - 1.0) < 1e-14
    assert abs(eval_form(F, project_P(a, 1)) - eval_form(F, a)) < 1e-14


def test_restricted_kills_higher_level_detail():
    F = DiagonalComplement(4)
    a = AlgebraElement(2, np.kron(X, X))  # vanishing level-1 expectation
    assert abs(eval_form(F, project_P(a, 1))) < 1e-14


def _operator_norm(gen) -> float:
    """Largest generator eigenvalue magnitude: max|c| for a Schur generator
    with real coefficients c, whose body diag(vec(c)) has spectrum c."""
    return float(np.abs(gen.schur).max())


def test_restricted_form_is_bounded_and_dirichlet():
    """a -> E(P_1 a) at level 3: its generator P_1 L P_1 has spectrum in
    [0, ||L||] = [0, 1], and it is a Dirichlet form, E(P_1 (a ^ 1)) <=
    E(P_1 a) for Hermitian a and E(P_1 a*) = E(P_1 a)."""
    F, d = DiagonalComplement(8), 8
    units = [AlgebraElement(3, np.sqrt(d) * e) for e in np.eye(d * d).reshape(-1, d, d)]
    projected = [project_P(u, 1) for u in units]  # u orthonormal for <., .>_2
    gram = np.array(
        [[gns_inner(p, apply(F, q)) for q in projected] for p in projected]
    )
    eigenvalues = np.linalg.eigvalsh(gram)
    assert eigenvalues[0] >= -1e-12
    assert eigenvalues[-1] <= _operator_norm(F) + 1e-12 == 1.0 + 1e-12
    for seed in range(100):
        a = random_element(3, "hermitian", 155 + seed)
        energy = eval_form(F, project_P(a, 1))
        assert eval_form(F, project_P(wedge_one(a), 1)) <= energy + 1e-10
        g = random_element(3, "general", 1155 + seed)
        adjoint = AlgebraElement(3, g.entries.conj().T)
        reality = eval_form(F, project_P(adjoint, 1)) - eval_form(F, project_P(g, 1))
        assert abs(reality) <= 1e-10


def test_restricted_rejects_higher_level():
    with pytest.raises(ValueError, match="higher level"):
        project_P(random_element(1, "general", 364), 3)


def test_restricted_values_nonnegative_and_exact_at_top():
    F = DiagonalComplement(8)
    for seed in range(10):
        a = random_element(3, "general", 310 + seed)
        e = eval_form(F, a)
        for n in (1, 2, 3):
            e_n = eval_form(F, project_P(a, n))
            assert e_n >= -1e-12
        assert abs(eval_form(F, project_P(a, 3)) - e) == 0.0


# --------------------------------------------------------------------------
# energy inner product
# --------------------------------------------------------------------------


def _energy_inner(gen, a, b) -> complex:
    """<a, b>_1 = <gen(a), b>_2 + <a, b>_2."""
    return gns_inner(apply(gen, a), b) + gns_inner(a, b)


def test_energy_inner_frozen_examples():
    F = DiagonalComplement(2)
    x = AlgebraElement(1, X)
    assert abs(_energy_inner(F, x, x) - 2.0) < 1e-14
    one = identity(1)
    assert abs(_energy_inner(F, one, one) - 1.0) < 1e-14


def test_energy_inner_conjugate_symmetry_and_domination():
    F = DiagonalComplement(4)
    for seed in range(10):
        a = random_element(2, "general", 160 + seed)
        b = random_element(2, "general", 170 + seed)
        assert abs(_energy_inner(F, a, b) - np.conj(_energy_inner(F, b, a))) < 1e-10
        assert _energy_inner(F, a, a).real >= gns_inner(a, a).real - 1e-10


def test_energy_inner_rejects_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        _energy_inner(DiagonalComplement(2), identity(1), identity(2))
    with pytest.raises(ValueError, match="mismatch"):
        _energy_inner(DiagonalComplement(2), identity(2), identity(2))


# --------------------------------------------------------------------------
# compatible families
# --------------------------------------------------------------------------


def _commutator_family(top: int) -> CompatibleFamily:
    return CompatibleFamily(tuple(commutator_generator(n) for n in range(1, top + 1)))


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
    recovered = build_from_family(fam)
    direct = commutator_generator(3)
    dev = np.abs(densify(recovered).matrix - densify(direct).matrix).max()
    assert dev <= 1e-12
    a = random_element(3, "general", 190)
    assert abs(eval_form(recovered, a) - commutator_form_eval(a, 3)) < 1e-12


def test_build_from_family_returns_the_top_generator_itself():
    """A form is its generator: the recovered form is the family's top
    member, not a copy or a wrapper of it."""
    fam = _commutator_family(3)
    assert build_from_family(fam) is fam.forms[-1]


def test_build_from_zero_family():
    fam = CompatibleFamily(
        tuple(SchurMultiplier(np.zeros((2 ** n, 2 ** n))) for n in (1, 2))
    )
    recovered = build_from_family(fam)
    assert eval_form(recovered, random_element(2, "general", 191)) == 0.0


def test_perturbed_family_rejected_with_witness():
    forms = list(_commutator_family(3).forms)
    forms[1] = ScaledMap(2.0, forms[1])
    fam = CompatibleFamily(tuple(forms))
    with pytest.raises(FamilyCompatibilityError) as err:
        build_from_family(fam)
    assert err.value.level in (1, 2)
    assert err.value.unit is not None
    assert abs(err.value.lhs - err.value.rhs) > 1e-6


def test_nan_family_member_is_kept_as_worst_and_rejected():
    forms = list(_commutator_family(3).forms)
    forms[1] = ScaledMap(float("nan"), forms[1])
    fam = CompatibleFamily(tuple(forms))
    worst, witness = family_compatibility_margin(fam)
    assert np.isnan(worst)
    assert witness[0] == 1  # the first level pair that touches the NaN member
    with pytest.raises(FamilyCompatibilityError):
        build_from_family(fam)


def test_family_levels_validated():
    with pytest.raises(ValueError, match="level"):
        CompatibleFamily((commutator_generator(2),))


def test_non_schur_member_deviates_by_inf_and_is_rejected():
    forms = list(_commutator_family(3).forms)
    forms[2] = ComposedMap([forms[2]])
    fam = CompatibleFamily(tuple(forms))
    assert family_compatibility_margin(fam) == (np.inf, (2, None, None, None, None))
    with pytest.raises(FamilyCompatibilityError, match="no Schur coefficients") as err:
        build_from_family(fam)
    assert err.value.level == 2 and err.value.unit is None
    forms[1] = ScaledMap(float("nan"), forms[1])
    worst, witness = family_compatibility_margin(CompatibleFamily(tuple(forms)))
    assert np.isnan(worst) and witness[:3] == (1, (0, 0), (0, 0))  # NaN beats inf


@pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
def test_build_from_family_rejects_a_tolerance_that_is_not_finite(tol):
    with pytest.raises(ValueError, match="tol"):
        build_from_family(_commutator_family(2), tol=tol)


def test_commutator_generator_builds_no_dense_projections():
    """The 2^n rank-one projections are given as their diagonals: at level
    8 (256 x 256, 1 MiB per complex matrix) building the generator stays
    within a few coefficient arrays."""
    import tracemalloc

    tracemalloc.start()
    try:
        gen = commutator_generator(8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20
    np.testing.assert_array_equal(gen.schur, 2.0 * (1.0 - np.eye(256)))


# --------------------------------------------------------------------------
# the matrix-unit probe reference for compatible families
# --------------------------------------------------------------------------


def _probe_margin(family):
    """family_compatibility_margin by probing every pair of matrix units:
    the value of each member on e_ij against the level-n compression of
    the next member on e_ij kron I."""
    worst = 0.0
    witness = None
    for n in range(1, family.top_level):
        low = family.forms[n - 1]
        high = family.forms[n]
        d = 2 ** n
        probe = np.zeros((d, d), dtype=np.complex128)
        for i in range(d):
            for j in range(d):
                probe[i, j] = 1.0
                lhs_mat = low.apply_matrix(probe) / d
                image = high.apply_matrix(np.kron(probe, np.eye(2)))
                rhs_mat = partial_trace_matrix(image, n + 1, n) / d
                probe[i, j] = 0.0
                dev = np.abs(lhs_mat - rhs_mat)
                local = float(dev.max(initial=0.0))
                if not local <= worst and not np.isnan(worst):
                    k, l = np.unravel_index(np.argmax(dev), dev.shape)
                    worst = local
                    witness = (
                        n,
                        (i, j),
                        (int(k), int(l)),
                        complex(np.conj(lhs_mat[k, l])),
                        complex(np.conj(rhs_mat[k, l])),
                    )
    return worst, witness


def _probe_spreads(family):
    """For each level m below the top, the spread over n = m..N of the
    level-n energies of every level-m matrix unit lifted to the top."""
    top = family.top_level
    spreads = []
    for m in range(1, top):
        d = 2 ** m
        spread = np.empty((d, d))
        for i in range(d):
            for j in range(d):
                probe = np.zeros((d, d), dtype=np.complex128)
                probe[i, j] = 1.0
                lifted = AlgebraElement(top, np.kron(probe, np.eye(2 ** (top - m))))
                values = [
                    eval_form(family.forms[n - 1], cond_expect(lifted, n))
                    for n in range(m, top + 1)
                ]
                spread[i, j] = np.ptp(values)
        spreads.append(spread)
    return spreads


def _probe_accepts(family) -> bool:
    worst, _ = _probe_margin(family)
    spreads = _probe_spreads(family)
    return worst <= 1e-12 and all((s <= STABILIZATION_TOL).all() for s in spreads)


def _family_case(name: str, top: int) -> CompatibleFamily:
    """Named families at levels 1..top: the commutator family, the zero
    family, the x2 and NaN controls (member 2 scaled), random Hermitian
    Schur families ("random-k") and random compatible Schur families
    ("compatible-k", each member the partial trace of the next)."""
    kind, _, k = name.partition("-")
    if kind == "random":
        rng = np.random.default_rng([int(k), top])
        coeffs = [gaussian_hermitian(2 ** n, rng) for n in range(1, top + 1)]
    elif kind == "compatible":
        rng = np.random.default_rng([int(k), top, 1])
        coeffs = [gaussian_hermitian(2 ** top, rng)]
        for n in range(top - 1, 0, -1):
            coeffs.insert(0, partial_trace_matrix(coeffs[0], n + 1, n))
    elif kind == "zero":
        coeffs = [np.zeros((2 ** n, 2 ** n)) for n in range(1, top + 1)]
    else:
        forms = list(_commutator_family(top).forms)
        factor = {"commutator": None, "x2": 2.0, "nan": float("nan")}[kind]
        if factor is not None:
            forms[1] = ScaledMap(factor, forms[1])
        return CompatibleFamily(tuple(forms))
    return CompatibleFamily(tuple(SchurMultiplier(c) for c in coeffs))


_MARGIN_CASES = ["commutator", "zero"] + [f"random-{k}" for k in range(5)]
_CONTROL_CASES = ["x2", "nan"]
_COMPATIBLE_CASES = ["commutator", "zero"] + [f"compatible-{k}" for k in range(5)]


def _witness_bits(witness):
    if witness is None:
        return None
    level, unit, entry, lhs, rhs = witness
    return level, unit, entry, np.complex128(lhs).tobytes(), np.complex128(rhs).tobytes()


@pytest.mark.parametrize(
    "name, top",
    [(name, top) for name in _MARGIN_CASES for top in range(1, 6)]
    + [(name, top) for name in _CONTROL_CASES for top in range(2, 6)],
)
def test_closed_form_margin_equals_probe_reference_bitwise(name, top):
    fam = _family_case(name, top)
    worst, witness = family_compatibility_margin(fam)
    ref_worst, ref_witness = _probe_margin(fam)
    assert np.float64(worst).tobytes() == np.float64(ref_worst).tobytes()
    assert _witness_bits(witness) == _witness_bits(ref_witness)
    if name == "nan":
        assert np.isnan(worst) and witness[0] == 1
    if name == "x2":
        assert worst == 1.0  # |2/2 - (4 + 4)/2/2| at level 1


@pytest.mark.parametrize(
    "name", _MARGIN_CASES + _CONTROL_CASES + _COMPATIBLE_CASES[2:]
)
@pytest.mark.parametrize("top", [2, 3, 4, 5])
def test_build_from_family_rejects_what_the_probe_reference_rejects(name, top):
    fam = _family_case(name, top)
    try:
        build_from_family(fam)
    except FamilyCompatibilityError:
        accepted = False
    else:
        accepted = True
    assert accepted == _probe_accepts(fam)
    assert accepted == (name in _COMPATIBLE_CASES)


@pytest.mark.parametrize("name", _COMPATIBLE_CASES + ["x2"] + _MARGIN_CASES[2:])
@pytest.mark.parametrize("top", [2, 3, 4, 5])
def test_stabilization_spreads_match_probe_reference(name, top):
    fam = _family_case(name, top)
    for m, reference in enumerate(_probe_spreads(fam), start=1):
        spread = np.ptp(_stabilization_values(fam, m), axis=0)
        assert np.abs(spread - reference).max() <= 1e-15, m


# --------------------------------------------------------------------------
# convergence of restricted energies
# --------------------------------------------------------------------------


def test_convergence_chain_and_tail_bound():
    """|sqrt(E_n) - sqrt(E)| <= sqrt(E(Q_n a)) and E(Q_n a) <= ||Q_n a||^2
    for the diagonal form (generator norm one), rowwise for n <= N."""
    F = DiagonalComplement(8)
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
