import numpy as np
import pytest

from towerforms.tower import AlgebraElement, identity, random_element
from towerforms.expectations import diag_expect
from towerforms.superop import (
    _from_hermitian_units,
    _hermitian_defect,
    _to_hermitian_units,
    BlockwiseMap,
    ComposedMap,
    DenseMap,
    DiagonalComplement,
    DoubleCommutatorFamily,
    ScaledMap,
    SchurMultiplier,
    SemigroupMap,
    SumMap,
    TowerProjection,
    TransposeMap,
    apply,
    choi_matrix,
    choi_min_eigenvalue,
    densify,
    markov_check,
    semigroup_apply,
    spectral_resolve,
    square_matrix_to_json,
    symmetry_conservativity_check,
    unvec,
    vec,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def maximally_entangled_choi(dim: int) -> np.ndarray:
    """Rank-one oracle for the Choi matrix of the identity map: the outer
    product of the unnormalized maximally entangled vector."""
    omega = np.zeros(dim * dim, dtype=complex)
    for k in range(dim):
        omega[k * dim + k] = 1.0
    return np.outer(omega, omega.conj())


def swap_matrix(dim: int) -> np.ndarray:
    """Oracle for the Choi matrix of the transpose map."""
    s = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            s[i * dim + j, j * dim + i] = 1.0
    return s


# --------------------------------------------------------------------------
# apply
# --------------------------------------------------------------------------


def test_diagonal_complement_on_offdiagonal_and_diagonal():
    dc = DiagonalComplement(2)
    x = AlgebraElement(1, X)
    np.testing.assert_array_equal(apply(dc, x).entries, X)
    d = AlgebraElement(1, np.diag([3.0, -1.0]))
    assert np.abs(apply(dc, d).entries).max() == 0.0


def test_double_commutator_single_projection_frozen():
    # [p_1, [p_1, X]] = X by direct 2x2 computation
    p1 = np.diag([1.0, 0.0])
    gen = DoubleCommutatorFamily([p1])
    np.testing.assert_allclose(gen.apply_matrix(X), X, atol=0)


def test_double_commutator_with_h_term():
    h = np.diag([1.0, 0.0])
    gen = DoubleCommutatorFamily([np.zeros((2, 2))], h=h)
    a = np.eye(2, dtype=complex)
    np.testing.assert_allclose(gen.apply_matrix(a), 2.0 * h, atol=0)


def test_apply_is_linear():
    rng = np.random.default_rng(60)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    ops = [
        DiagonalComplement(4),
        DoubleCommutatorFamily([0.5 * (m + m.conj().T)]),
        TransposeMap(4),
        SchurMultiplier(np.eye(4)),
        TowerProjection(2, 1),
    ]
    for op in ops:
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lam = 0.7 - 1.3j
        lhs = op.apply_matrix(lam * a + b)
        rhs = lam * op.apply_matrix(a) + op.apply_matrix(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_apply_rejects_level_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        apply(DiagonalComplement(2), identity(2))


def test_hermiticity_preserving_flags_hold():
    rng = np.random.default_rng(61)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    ops = [
        DiagonalComplement(4),
        DoubleCommutatorFamily([0.5 * (m + m.conj().T)], h=np.eye(4)),
        TransposeMap(4),
        TowerProjection(2, 1),
        SchurMultiplier(0.5 * (m + m.conj().T)),
    ]
    h = random_element(2, "hermitian", 62).entries
    for op in ops:
        out = op.apply_matrix(h)
        assert np.abs(out - out.conj().T).max() < 1e-12


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_schur_multiplier_rejects_non_finite_coefficients(value):
    for coeffs in ([[1.0, value], [value, 1.0]], [[value, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="non-finite"):
            SchurMultiplier(np.array(coeffs))


def test_double_commutator_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        DoubleCommutatorFamily([np.array([[0.0, 1.0], [0.0, 0.0]])])


# --------------------------------------------------------------------------
# densify
# --------------------------------------------------------------------------


def test_densify_diagonal_complement_level1_spectrum():
    dense = densify(DiagonalComplement(2))
    ev = np.linalg.eigvalsh(dense.matrix)
    np.testing.assert_allclose(ev, [0.0, 0.0, 1.0, 1.0], atol=1e-14)


def test_densify_identity():
    np.testing.assert_array_equal(densify(SchurMultiplier(np.ones((2, 2)))).matrix, np.eye(4))


def test_densify_round_trip_on_random_inputs():
    rng = np.random.default_rng(63)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    op = DoubleCommutatorFamily([0.5 * (m + m.conj().T)])
    dense = densify(op)
    for _ in range(20):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        np.testing.assert_allclose(
            dense.apply_matrix(a), op.apply_matrix(a), atol=1e-12
        )


def test_densify_budget_rejected():
    with pytest.raises(ValueError, match="cap"):
        densify(DiagonalComplement(2 ** 7))


def test_vec_unvec_row_stacking():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(vec(a), [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(unvec(vec(a), 2), a)


# --------------------------------------------------------------------------
# spectral resolution
# --------------------------------------------------------------------------


def test_spectral_multiplicities_of_diagonal_complement():
    for n in (1, 2, 3):
        res = spectral_resolve(DiagonalComplement(2 ** n))
        zeros = int(np.sum(np.abs(res.eigenvalues) < 1e-12))
        ones = int(np.sum(np.abs(res.eigenvalues - 1.0) < 1e-12))
        assert zeros == 2 ** n
        assert ones == 4 ** n - 2 ** n
        assert zeros + ones == res.eigenvalues.size


def test_spectral_eigenvalues_in_zero_one_only():
    res = spectral_resolve(DiagonalComplement(4))
    dist = np.minimum(np.abs(res.eigenvalues), np.abs(res.eigenvalues - 1.0))
    assert dist.max() < 1e-12


def test_spectral_of_zero_map():
    res = spectral_resolve(SchurMultiplier(np.zeros((2, 2))))
    assert np.abs(res.eigenvalues).max() == 0.0


def test_spectral_modes_are_gns_orthonormal_eigenvectors():
    op = DiagonalComplement(2)
    res = spectral_resolve(op)
    d = op.dim
    for k in range(res.eigenvalues.size):
        u = res.eigenvectors[k]
        img = op.apply_matrix(u)
        np.testing.assert_allclose(img, res.eigenvalues[k] * u, atol=1e-12)
        for j in range(res.eigenvalues.size):
            g = np.vdot(res.eigenvectors[j], u) / d
            assert abs(g - (1.0 if j == k else 0.0)) < 1e-12


def test_spectral_reconstruction_and_parseval():
    rng = np.random.default_rng(64)
    op = DiagonalComplement(4)
    res = spectral_resolve(op)
    for _ in range(5):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        np.testing.assert_allclose(res.reconstruct(a), op.apply_matrix(a), atol=1e-12)
        direct = np.vdot(op.apply_matrix(a), a).real / 4
        coeffs = res.coefficients(a)
        spectral = float(np.sum(res.eigenvalues * np.abs(coeffs) ** 2))
        assert abs(direct - spectral) < 1e-10


def test_spectral_rejects_non_self_adjoint():
    k = np.array([[0.0, 1.0], [0.0, 0.0]])  # left multiplication by a nilpotent
    dense = densify(SchurMultiplier(np.ones((2, 2)))).matrix @ np.kron(k, np.eye(2))
    with pytest.raises(ValueError, match="self-adjoint"):
        spectral_resolve(DenseMap(dense))


# --------------------------------------------------------------------------
# semigroup
# --------------------------------------------------------------------------


def test_semigroup_closed_form_on_offdiagonal():
    dc = DiagonalComplement(2)
    x = AlgebraElement(1, X)
    for t in (0.1, 1.0, 10.0):
        np.testing.assert_allclose(
            semigroup_apply(dc, t, x).entries, np.exp(-t) * X, atol=1e-15
        )


def test_semigroup_preserves_unit():
    dc = DiagonalComplement(4)
    one = identity(2)
    for t in (0.0, 0.5, 3.0):
        np.testing.assert_allclose(semigroup_apply(dc, t, one).entries, np.eye(4), atol=1e-15)


def _schur_generators(n):
    """Schur generators at level n with real nonnegative coefficients: the
    diagonal complement, a collapsed commutator family with diagonal h >= 0
    and a Schur multiplier."""
    d = 2 ** n
    rng = np.random.default_rng([85, n])
    ms = [_real_diagonal(rng, d) for _ in range(2)]
    h = np.diag(rng.uniform(0.0, 1.0, d))
    c = rng.uniform(0.0, 1.0, (d, d))
    return [
        DiagonalComplement(d),
        DoubleCommutatorFamily(ms, h=h),
        SchurMultiplier(c + c.T),
    ]


def test_semigroup_closed_form_matches_spectral_exponential():
    """The Schur closed form e^{-tc} (semigroup_apply and the semigroup
    body) against the spectral path on a dense map of the same body."""
    for n in (1, 2, 3, 4):
        a = random_element(n, "general", 65)
        for gen in _schur_generators(n):
            assert gen.schur is not None
            dense = densify(gen)  # no Schur coefficients: the spectral route
            for t in (0.1, 1.0, 10.0):
                closed = semigroup_apply(gen, t, a).entries
                spectral = semigroup_apply(dense, t, a).entries
                scale = 1.0 + np.abs(a.entries).max()
                assert np.abs(closed - spectral).max() <= 1e-13 * scale, (n, gen)
                body = SemigroupMap(gen, t).dense_body()
                spectral_body = SemigroupMap(dense, t).dense_body()
                assert np.abs(body - spectral_body).max() <= 1e-13, (n, gen)


def test_schur_semigroup_rejects_complex_negative_and_nan_coefficients():
    complex_hermitian = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
    negative = np.array([[1.0, -1e-11], [-1e-11, 1.0]])
    nan = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        SchurMultiplier(nan)
    nan_gen = SchurMultiplier(np.ones((2, 2)))
    nan_gen.schur = nan  # past the constructor: the semigroup still fails closed
    for gen, match in (
        (SchurMultiplier(complex_hermitian), "self-adjoint"),
        (SchurMultiplier(negative), "min eigenvalue"),
        (nan_gen, "self-adjoint"),
    ):
        for _ in range(2):  # a failing map caches nothing: every call fails
            with pytest.raises(ValueError, match=match):
                semigroup_apply(gen, 1.0, identity(1))
            with pytest.raises(ValueError, match=match):
                SemigroupMap(gen, 1.0).dense_body()


def test_semigroup_law():
    rng = np.random.default_rng(66)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    gen = DoubleCommutatorFamily([0.5 * (m + m.conj().T)])
    a = random_element(2, "general", 67)
    lhs = semigroup_apply(gen, 0.7 + 0.4, a)
    rhs = semigroup_apply(gen, 0.7, semigroup_apply(gen, 0.4, a))
    np.testing.assert_allclose(lhs.entries, rhs.entries, atol=1e-11)


def test_semigroup_rejects_negative_time():
    with pytest.raises(ValueError, match="nonnegative"):
        semigroup_apply(DiagonalComplement(2), -0.1, identity(1))


def test_semigroup_rejects_non_positive_generator():
    bad = ScaledMap(-1.0, densify(DiagonalComplement(2)))
    with pytest.raises(ValueError, match="min eigenvalue"):
        semigroup_apply(bad, 1.0, identity(1))


def test_semigroup_map_object_matches_apply():
    dc = DiagonalComplement(2)
    phi = SemigroupMap(dc, 0.3)
    a = random_element(1, "general", 68)
    np.testing.assert_allclose(
        phi.apply_matrix(a.entries), semigroup_apply(dc, 0.3, a).entries, atol=0
    )


# --------------------------------------------------------------------------
# Choi matrices
# --------------------------------------------------------------------------


def test_choi_identity_map_is_maximally_entangled():
    choi = choi_matrix(SchurMultiplier(np.ones((2, 2))))
    np.testing.assert_array_equal(choi, maximally_entangled_choi(2))
    np.testing.assert_allclose(np.linalg.eigvalsh(choi), [0.0, 0.0, 0.0, 2.0], atol=1e-14)


def test_choi_of_diagonal_semigroup_is_psd():
    """At level 2 and t = 1 the map is Schur multiplication by a PSD
    coefficient matrix, so its Choi matrix must be PSD."""
    t = 1.0
    coeffs = np.exp(-t) * np.ones((4, 4)) + (1.0 - np.exp(-t)) * np.eye(4)
    assert np.linalg.eigvalsh(coeffs)[0] >= -1e-14  # oracle: coefficients PSD
    phi = SemigroupMap(DiagonalComplement(4), t)
    schur = SchurMultiplier(coeffs)
    a = random_element(2, "general", 69)
    np.testing.assert_allclose(
        phi.apply_matrix(a.entries), schur.apply_matrix(a.entries), atol=1e-14
    )
    assert choi_min_eigenvalue(phi) >= -1e-12


def test_choi_transpose_map_is_swap_with_negative_eigenvalue():
    choi = choi_matrix(TransposeMap(2))
    np.testing.assert_array_equal(choi, swap_matrix(2))
    assert abs(choi_min_eigenvalue(TransposeMap(2)) + 1.0) < 1e-14


def test_choi_budget_rejected():
    with pytest.raises(ValueError, match="cap"):
        choi_matrix(DiagonalComplement(2 ** 7))


def test_cp_definition_inequality_on_sampled_families():
    """Corroborate the Choi certificate against the defining inequality:
    sum_ij b_i* Phi_t(a_i* a_j) b_j is PSD for sampled operator families of
    size up to 3."""
    rng = np.random.default_rng(79)
    for n in (1, 2):
        d = 2 ** n
        phi = SemigroupMap(DiagonalComplement(d), 0.7)
        for size in (1, 2, 3):
            for _ in range(10):
                a_ops = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(size)]
                b_ops = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(size)]
                acc = np.zeros((d, d), dtype=complex)
                for ai, bi in zip(a_ops, b_ops):
                    for aj, bj in zip(a_ops, b_ops):
                        acc += bi.conj().T @ phi.apply_matrix(ai.conj().T @ aj) @ bj
                assert np.linalg.eigvalsh(0.5 * (acc + acc.conj().T))[0] >= -1e-10


def test_choi_of_double_commutator_semigroup_is_psd():
    rng = np.random.default_rng(70)
    m1 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m2 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = h @ h.conj().T  # PSD so the generator stays positive
    gen = DoubleCommutatorFamily(
        [0.5 * (m1 + m1.conj().T), 0.5 * (m2 + m2.conj().T)], h=h
    )
    for t in (0.1, 1.0):
        assert choi_min_eigenvalue(SemigroupMap(gen, t)) >= -1e-10


# --------------------------------------------------------------------------
# randomized suites
# --------------------------------------------------------------------------


def test_markov_check_passes_for_diagonal_generator():
    for n, samples in ((1, 100), (2, 100), (3, 100), (4, 50)):
        rep = markov_check(
            DiagonalComplement(2 ** n), t_samples=(0.1, 1.0, 10.0),
            n_samples=samples, seed=71, tol=1e-10,
        )
        assert rep.failures == 0
        assert rep.worst_margin <= 1e-10
        assert rep.suite == "markov" and rep.level == n


def test_markov_at_time_zero_is_identity():
    dc = DiagonalComplement(4)
    x = random_element(2, "contraction", 72)
    np.testing.assert_array_equal(semigroup_apply(dc, 0.0, x).entries, x.entries)


def test_markov_fixed_point_of_diagonal_contraction():
    dc = DiagonalComplement(4)
    x = diag_expect(random_element(2, "contraction", 73))
    for t in (0.2, 2.0):
        np.testing.assert_allclose(semigroup_apply(dc, t, x).entries, x.entries, atol=1e-15)


def test_symmetry_conservativity_passes_for_diagonal_generator():
    rep = symmetry_conservativity_check(DiagonalComplement(4), samples=50, seed=74, tol=1e-10)
    assert rep.failures == 0


def test_symmetry_conservativity_passes_for_zero_generator():
    rep = symmetry_conservativity_check(
        SchurMultiplier(np.zeros((4, 4))), samples=20, seed=75, tol=1e-10
    )
    assert rep.failures == 0


def test_conservativity_fails_with_nonzero_h():
    # generator gains the anticommutator with a projection: Phi_t(1) != 1
    h = np.diag([1.0, 0.0])
    gen = DoubleCommutatorFamily([np.diag([1.0, 0.0])], h=h)
    assert np.abs(gen.apply_matrix(np.eye(2)) - 2.0 * h).max() < 1e-15
    rep = symmetry_conservativity_check(gen, samples=20, seed=76, tol=1e-10)
    assert rep.failures >= 1
    assert rep.worst_margin > 1e-3


# --------------------------------------------------------------------------
# composite bodies and export
# --------------------------------------------------------------------------


def test_sum_scaled_composed_maps():
    dc = DiagonalComplement(2)
    twice = SumMap([dc, dc])
    scaled = ScaledMap(2.0, dc)
    a = random_element(1, "general", 77)
    np.testing.assert_allclose(twice.apply_matrix(a.entries), scaled.apply_matrix(a.entries), atol=0)
    comp = ComposedMap([dc, dc])  # projection: composing changes nothing
    np.testing.assert_allclose(comp.apply_matrix(a.entries), dc.apply_matrix(a.entries), atol=0)


def test_blockwise_map_acts_on_blocks():
    dc = DiagonalComplement(2)
    amp = BlockwiseMap(dc, 3)
    assert amp.dim == 6
    rng = np.random.default_rng(78)
    big = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    out = amp.apply_matrix(big)
    for i in range(3):
        for j in range(3):
            blk = big[2 * i:2 * i + 2, 2 * j:2 * j + 2]
            np.testing.assert_allclose(
                out[2 * i:2 * i + 2, 2 * j:2 * j + 2], dc.apply_matrix(blk), atol=0
            )


def test_tower_projection_generator_identity():
    """Double commutators over all diagonal projections densify to exactly
    twice the diagonal complement."""
    for n in (1, 2, 3):
        d = 2 ** n
        ps = [np.diag((np.arange(d) == i).astype(float)) for i in range(d)]
        double = densify(DoubleCommutatorFamily(ps)).matrix
        twice = 2.0 * densify(DiagonalComplement(d)).matrix
        assert np.abs(double - twice).max() <= 1e-12


def test_square_matrix_export_uses_dim_key():
    obj = square_matrix_to_json(densify(DiagonalComplement(2)).matrix)
    assert obj["dim"] == 4
    assert len(obj["re"]) == 4 and len(obj["im"]) == 4


def test_level_of_non_power_of_two_dim_rejected():
    amp = BlockwiseMap(DiagonalComplement(2), 3)
    with pytest.raises(ValueError, match="power of two"):
        _ = amp.level


# --------------------------------------------------------------------------
# closed-form dense bodies against the matrix-unit probe reference
# --------------------------------------------------------------------------


def _hermitian(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (m + m.conj().T)


def _real_diagonal(rng, d):
    return np.diag(rng.standard_normal(d)).astype(complex)


def _closed_form_cases(n):
    """(name, map) pairs covering every closed-form dense body at level n."""
    d = 2 ** n
    rng = np.random.default_rng([81, n])
    diag_ms = [_real_diagonal(rng, d) for _ in range(3)]
    full_ms = [_hermitian(rng, d) / d for _ in range(3)]
    psd = _hermitian(rng, d)
    psd = psd @ psd / d
    lindblad = DoubleCommutatorFamily(full_ms, h=psd)
    return [
        ("diagonal complement", DiagonalComplement(d)),
        ("schur", SchurMultiplier(_hermitian(rng, d))),
        ("transpose", TransposeMap(d)),
        ("commutator diag m, diag h",
         DoubleCommutatorFamily(diag_ms, h=_real_diagonal(rng, d))),
        ("commutator diag m, full h", DoubleCommutatorFamily(diag_ms, h=psd)),
        ("commutator full m, h", lindblad),
        ("scaled", ScaledMap(0.7 - 0.2j, lindblad)),
        ("semigroup diagonal", SemigroupMap(DiagonalComplement(d), 0.5)),
        ("semigroup lindblad", SemigroupMap(lindblad, 0.5)),
        ("dense", DenseMap(rng.standard_normal((d * d, d * d)))),
    ]


def _probe_body(op):
    """The matrix-unit probe reference: column k*d + l is vec(op(e_kl))."""
    d = op.dim
    body = np.empty((d * d, d * d), dtype=complex)
    for k in range(d):
        for l in range(d):
            e_kl = np.zeros((d, d), dtype=complex)
            e_kl[k, l] = 1.0
            body[:, k * d + l] = vec(op.apply_matrix(e_kl))
    return body


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_bodies_match_probe_reference(n):
    for name, op in _closed_form_cases(n):
        body = op.dense_body()
        reference = _probe_body(op)
        scale = 1.0 + np.abs(reference).max()
        assert np.abs(body - reference).max() <= 1e-13 * scale, name
        np.testing.assert_array_equal(densify(op).matrix, body)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_commutator_family_collapses_only_when_exactly_diagonal(n):
    d = 2 ** n
    rng = np.random.default_rng([82, n])
    diag_ms = [_real_diagonal(rng, d) for _ in range(2)]
    eta = rng.standard_normal(d)
    collapsed = DoubleCommutatorFamily(diag_ms, h=np.diag(eta))
    expected = eta[:, None] + eta[None, :]
    for m in diag_ms:
        mu = np.diag(m)
        expected = expected + (mu[:, None] - mu[None, :]) ** 2
    np.testing.assert_allclose(collapsed.schur, expected, rtol=0, atol=1e-13)
    full_h = np.diag(eta).astype(complex)
    full_h[0, 1] = full_h[1, 0] = 1e-300
    assert DoubleCommutatorFamily(diag_ms, h=full_h).schur is None
    assert DoubleCommutatorFamily([_hermitian(rng, d)]).schur is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_choi_matrix_is_block_of_images(n):
    d = 2 ** n
    ops = [op for _, op in _closed_form_cases(n)]
    ops += [TowerProjection(n, n - 1), ComposedMap([TransposeMap(d), DiagonalComplement(d)])]
    for op in ops:
        blocks = np.zeros((d * d, d * d), dtype=complex)
        for k in range(d):
            for l in range(d):
                e_kl = np.zeros((d, d), dtype=complex)
                e_kl[k, l] = 1.0
                blocks[k * d:(k + 1) * d, l * d:(l + 1) * d] = op.apply_matrix(e_kl)
        scale = 1.0 + np.abs(blocks).max()
        assert np.abs(choi_matrix(op) - blocks).max() <= 1e-13 * scale, repr(op)


def test_semigroup_body_rejects_non_positive_generator():
    phi = SemigroupMap(ScaledMap(-1.0, densify(DiagonalComplement(2))), 1.0)
    with pytest.raises(ValueError, match="min eigenvalue"):
        phi.apply_matrix(np.eye(2))
    with pytest.raises(ValueError, match="min eigenvalue"):
        phi.dense_body()
    with pytest.raises(ValueError, match="min eigenvalue"):
        choi_matrix(phi)


@pytest.mark.parametrize("t", [-0.1, float("nan"), float("inf")])
def test_semigroup_rejects_bad_time(t):
    with pytest.raises(ValueError, match="semigroup time"):
        SemigroupMap(DiagonalComplement(2), t)
    with pytest.raises(ValueError, match="semigroup time"):
        semigroup_apply(DiagonalComplement(2), t, identity(1))


def test_spectral_cache_holds_only_resolved_maps():
    rng = np.random.default_rng(83)
    body = densify(DoubleCommutatorFamily([_hermitian(rng, 2)])).matrix
    op = DenseMap(body)
    res = spectral_resolve(op)
    assert spectral_resolve(op) is res
    skewed = DenseMap(body + 1e-6 * rng.standard_normal(body.shape))  # not self-adjoint
    for _ in range(2):
        with pytest.raises(ValueError, match="self-adjoint"):
            spectral_resolve(skewed)
    assert skewed._spectral is None


def test_choi_certificate_rejects_nan_map():
    with pytest.raises(ValueError, match="not Hermitian"):
        choi_min_eigenvalue(ScaledMap(float("nan"), SchurMultiplier(np.ones((2, 2)))))


def test_nan_generator_fails_markov_and_symmetry_closed():
    bad = ScaledMap(float("nan"), DiagonalComplement(2))
    with pytest.raises(ValueError, match="self-adjoint"):
        markov_check(bad, t_samples=(1.0,), n_samples=2, seed=84, tol=1e-10)
    with pytest.raises(ValueError, match="self-adjoint"):
        symmetry_conservativity_check(bad, samples=2, seed=84, tol=1e-10)


# --------------------------------------------------------------------------
# the Hermitian matrix-unit basis
# --------------------------------------------------------------------------


def _hermitian_unit_matrix(d):
    """Reference U: column k*d + k is vec(e_kk); for k < l, column k*d + l
    is vec((e_kl + e_lk)/sqrt 2) and column l*d + k is vec(i(e_kl - e_lk)/sqrt 2)."""
    u = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for l in range(d):
            unit = np.zeros((d, d), dtype=complex)
            if k == l:
                unit[k, k] = 1.0
            elif k < l:
                unit[k, l] = unit[l, k] = np.sqrt(0.5)
            else:
                unit[l, k], unit[k, l] = 1j * np.sqrt(0.5), -1j * np.sqrt(0.5)
            u[:, k * d + l] = vec(unit)
    return u


def _in_units(mat):
    out = np.array(mat, dtype=complex)
    _to_hermitian_units(out)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hermitian_unit_basis_is_unitary_and_round_trips(n):
    d = 2 ** n
    u = _hermitian_unit_matrix(d)
    for col in range(d * d):
        unit = unvec(u[:, col], d)
        assert np.array_equal(unit, unit.conj().T)
    assert np.abs(u.conj().T @ u - np.eye(d * d)).max() <= 1e-15
    assert np.abs(_in_units(np.eye(d * d)) - np.eye(d * d)).max() <= 1e-15
    rng = np.random.default_rng([86, n])
    x = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    scale = np.abs(x).max()
    for layout in (x, np.asfortranarray(x)):
        there = np.array(layout, order="K")
        _to_hermitian_units(there)
        assert np.abs(there - u.conj().T @ x @ u).max() <= 1e-14 * scale
        _from_hermitian_units(there)
        assert np.abs(there - x).max() <= 1e-15 * scale


def _lindblad(n, seed):
    d = 2 ** n
    rng = np.random.default_rng([seed, n])
    psd = _hermitian(rng, d)
    return DoubleCommutatorFamily([_hermitian(rng, d) / d for _ in range(3)], h=psd @ psd / d)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bodies_are_real_in_hermitian_units(n):
    d = 2 ** n
    for op in (DiagonalComplement(d), TransposeMap(d), _lindblad(n, 87)):
        body = op.dense_body()
        assert np.abs(_in_units(body).imag).max() <= 1e-14 * np.abs(body).max()
    x = _hermitian(np.random.default_rng([88, n]), d)
    left = DenseMap(np.kron(x, np.eye(d)))  # a -> x a: self-adjoint, not real
    assert np.abs(_in_units(left.matrix).imag).max() > 1e-3 * np.abs(x).max()
    res = spectral_resolve(left)
    assert np.iscomplexobj(res.basis)  # the complex path
    np.testing.assert_allclose(
        res.eigenvalues, np.linalg.eigvalsh(left.matrix), rtol=0, atol=1e-12
    )
    a = random_element(n, "general", 89).entries
    np.testing.assert_allclose(res.reconstruct(a), x @ a, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_spectral_resolution_matches_complex_eigh_reference(n):
    d = 2 ** n
    gen = _lindblad(n, 90)
    body = gen.dense_body()
    w, v = np.linalg.eigh(0.5 * (body + body.conj().T))
    res = spectral_resolve(gen)
    assert np.isrealobj(res.basis)
    scale = 1.0 + np.abs(w).max()
    assert np.abs(res.eigenvalues - w).max() <= 1e-12 * scale
    for t in (0.1, 1.0):
        reference = (v * np.exp(-t * w)) @ v.conj().T
        got = res.function_body(lambda lam: np.exp(-t * lam))
        assert np.abs(got - reference).max() <= 1e-12
    for k in (0, d * d - 1):
        u = res.eigenvectors[k]
        assert np.abs(u - u.conj().T).max() <= 1e-14
        assert np.abs(gen.apply_matrix(u) - res.eigenvalues[k] * u).max() <= 1e-12 * scale


def test_schur_maps_resolve_in_closed_form():
    coeffs = np.array(
        [[0.0, 2.0, 1.0, 3.0], [2.0, 0.0, 3.0, 1.0], [1.0, 3.0, 0.0, 2.0], [3.0, 1.0, 2.0, 0.5]]
    )
    res = spectral_resolve(SchurMultiplier(coeffs))
    np.testing.assert_array_equal(res.eigenvalues, np.sort(vec(coeffs), kind="stable"))
    assert not res.hermitian_units
    for k in range(16):
        u = res.eigenvectors[k]
        assert np.count_nonzero(u) == 1 and np.abs(u).max() == 2.0  # sqrt(d) e_kl
        np.testing.assert_array_equal(
            SchurMultiplier(coeffs).apply_matrix(u), res.eigenvalues[k] * u
        )
    assert spectral_resolve(DiagonalComplement(8)).max_eigenvalue == 1.0


def _choi_reference(op):
    choi = choi_matrix(op)
    return float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0]), np.abs(choi).max()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_choi_min_eigenvalue_matches_dense_reference(n):
    d = 2 ** n
    rng = np.random.default_rng([91, n])
    k = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    conjugation = DenseMap(np.kron(k, k.conj()))  # a -> k a k*: CP, not self-adjoint
    assert np.abs(_in_units(choi_matrix(conjugation)).imag).max() > 1e-3
    cases = [
        SemigroupMap(_lindblad(n, 92), 0.5),
        SemigroupMap(DiagonalComplement(d), 1.0),
        TransposeMap(d),
        conjugation,
    ]
    for op in cases:
        expected, scale = _choi_reference(op)
        assert abs(choi_min_eigenvalue(op) - expected) <= 1e-12 * (1.0 + scale), repr(op)
    assert choi_min_eigenvalue(conjugation) >= -1e-12 * np.abs(k).max() ** 2
    assert abs(choi_min_eigenvalue(TransposeMap(d)) + 1.0) <= 1e-14


def test_nan_maps_rejected_in_hermitian_units():
    bad = ScaledMap(float("nan"), TransposeMap(2))
    with pytest.raises(ValueError, match="self-adjoint"):
        spectral_resolve(bad)
    with pytest.raises(ValueError, match="not Hermitian"):
        choi_min_eigenvalue(bad)
    with pytest.raises(ValueError, match="self-adjoint"):
        SemigroupMap(ScaledMap(float("nan"), _lindblad(1, 93)), 1.0).dense_body()


def test_infinite_maps_rejected_in_hermitian_units():
    body = np.eye(4, dtype=complex)
    body[0, 1] = np.inf  # its mirror entry is finite: an infinite defect
    with pytest.raises(ValueError, match="self-adjoint"):
        spectral_resolve(DenseMap(body))
    with pytest.raises(ValueError, match="not Hermitian"):
        choi_min_eigenvalue(DenseMap(body))


# --------------------------------------------------------------------------
# positivity relative to the generator's scale, overflow
# --------------------------------------------------------------------------


@pytest.mark.parametrize("scale", [1e2, 1e3])
def test_positive_generator_of_large_scale_is_accepted(scale):
    """The least eigenvalue of a positive generator carries a rounding
    error proportional to its norm (about -7e-11 at entries 1e3), which an
    absolute eig_tol = 1e-12 rejected."""
    gen = DoubleCommutatorFamily([np.array([[1.0, 0.37], [0.37, -0.2]]) * scale])
    phi = SemigroupMap(gen, 0.5)
    assert choi_min_eigenvalue(phi) >= -1e-10
    y = semigroup_apply(gen, 0.5, identity(1)).entries
    np.testing.assert_allclose(y, np.eye(2), rtol=0, atol=1e-10)


def test_negative_generator_of_large_scale_stays_rejected():
    m = np.array([[1.0, 0.37], [0.37, -0.2]]) * 1e3
    gen = DoubleCommutatorFamily([m], h=-1e-3 * np.eye(2))  # eigenvalue -2e-3
    with pytest.raises(ValueError, match="min eigenvalue"):
        semigroup_apply(gen, 0.5, identity(1))
    with pytest.raises(ValueError, match="min eigenvalue"):
        choi_min_eigenvalue(SemigroupMap(gen, 0.5))
    schur = SchurMultiplier(np.array([[1e3, -1e-3], [-1e-3, 1e3]]))
    with pytest.raises(ValueError, match="min eigenvalue"):
        semigroup_apply(schur, 0.5, identity(1))


@pytest.mark.parametrize(
    "ms, h",
    [
        ([np.diag([1e200, -1e200])], None),
        ([np.diag([1.0, 0.0])], np.diag([1e308, 1e308])),
        ([np.array([[1e200, 1.0], [1.0, 0.0]])], None),
        ([np.array([[1e154, 1.0], [1.0, 0.0]])], None),
    ],
)
def test_overflowing_commutator_family_rejected(ms, h):
    with pytest.raises(ValueError, match="overflows"):
        DoubleCommutatorFamily(ms, h=h)


def test_non_finite_commutator_family_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        DoubleCommutatorFamily([np.array([[np.nan, 1.0], [1.0, 0.0]])])
    with pytest.raises(ValueError, match="non-finite"):
        DoubleCommutatorFamily([np.eye(2)], h=np.diag([np.inf, 0.0]))


def test_semigroup_overflow_fails_closed_without_warnings():
    """A rate within the relative positivity tolerance below zero (-1e7
    against a norm of 1e20) overflows e^{-t rate}, which is an error; a
    product t * rate that rounds to inf is the limit e^(-inf) = 0."""
    tolerated = SchurMultiplier(np.array([[1e20, -1e7], [-1e7, 1e20]]))
    with pytest.raises(ValueError, match="overflows"):
        semigroup_apply(tolerated, 1.0, identity(1))
    fast = SchurMultiplier(np.array([[0.0, 1e10], [1e10, 0.0]]))
    y = semigroup_apply(fast, 1e300, AlgebraElement(1, X + np.eye(2))).entries
    np.testing.assert_array_equal(y, np.eye(2))
    body = SemigroupMap(DenseMap(densify(fast).matrix), 1e300).dense_body()
    np.testing.assert_allclose(body, np.diag([1.0, 0.0, 0.0, 1.0]), rtol=0, atol=1e-15)


def test_blockwise_hermitian_defect_matches_whole_matrix():
    """The defect, its first witness and max|mat| over blocks of rows equal
    the whole-matrix values; a NaN in a later block wins."""
    rng = np.random.default_rng(94)
    mat = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    mat[200, 7] = mat[7, 200].conj() + 50.0  # largest defect, twice: (200, 7), (7, 200)
    herm = np.conjugate(mat.T, order="C")
    asym = np.abs(mat - herm)
    defect, where, size = _hermitian_defect(mat, herm)
    assert defect == asym.max() and size == np.abs(mat).max()
    assert where == np.unravel_index(np.argmax(asym), asym.shape) == (7, 200)
    mat[250, 3] = np.nan
    defect, where, _ = _hermitian_defect(mat, np.conjugate(mat.T, order="C"))
    assert np.isnan(defect) and where == (3, 250)
