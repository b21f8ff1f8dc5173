import tracemalloc

import numpy as np
import pytest

from reference import (
    BlockwiseMap,
    SchurMultiplier,
    apply,
    choi_reshuffle,
    diagonal_part,
    eigenvectors,
    gaussian_hermitian,
    hermitian_in_units,
    identity,
    random_element,
)
from towerforms import superop
from towerforms.tower import POOL_CHUNK_BYTES, AlgebraElement
from towerforms.expectations import partial_trace_matrix
from towerforms.superop import (
    SEMIGROUP_TIMES,
    _check_budget,
    _NOT_SELF_ADJOINT,
    _from_hermitian_units,
    _hermitian_defect,
    _hermitian_in_units,
    _to_hermitian_units,
    ComposedMap,
    DenseMap,
    DiagonalComplement,
    DoubleCommutatorFamily,
    ScaledMap,
    SemigroupMap,
    SpectralResolution,
    TowerProjection,
    TransposeMap,
    choi_matrix,
    choi_min_eigenvalue,
    densify,
    markov_check,
    spectral_resolve,
    square_matrix_to_json,
    symmetry_conservativity_check,
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


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_diagonal_complement_keeps_the_bits_of_subtracting_the_diagonal(n):
    """One copy with its diagonal zeroed as x - x gives mat - diagonal_part(mat)
    bit for bit, NaN and -0.0 included, for any layout and stack, and leaves
    the input untouched."""
    d = 2 ** n
    rng = np.random.default_rng([103, n])
    x = rng.standard_normal((2, 3, d, d)) + 1j * rng.standard_normal((2, 3, d, d))
    x[0, 0, 0, 0] = np.nan
    x[0, 1, -1, -1] = complex(-0.0, -0.0)
    x[1, 2, 0, -1] = complex(-0.0, np.nan)
    x[1, 0, -1, 0] = np.inf
    kept = x.copy()
    dc = DiagonalComplement(d)
    for mat in (x, x[1, 2], x.swapaxes(-1, -2), x[0].conj().swapaxes(-1, -2),
                np.asfortranarray(x[1, 0]), x.real, x[0, 0].real.T):
        as_complex = np.asarray(mat, dtype=np.complex128)
        want = as_complex - diagonal_part(as_complex)
        got = dc.apply_matrix(mat)
        assert got.shape == mat.shape and got.flags.c_contiguous
        assert np.array_equal(_bits(got), _bits(want))
    assert np.array_equal(_bits(x), _bits(kept))


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


def test_budget_rejects_huge_dimension_with_value_error():
    # 16 * (2^600)^2 bytes overflows a float; the message must still be built
    with pytest.raises(ValueError, match="DENSIFY_DIM_CAP"):
        _check_budget(2 ** 300, "densification")
    with pytest.raises(ValueError, match="DENSIFY_DIM_CAP"):
        densify(TowerProjection(300, 0))


def test_vec_unvec_row_stacking():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(vec(a), [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(vec(a).reshape(2, 2), a)


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
        u = eigenvectors(res)[k]
        img = op.apply_matrix(u)
        np.testing.assert_allclose(img, res.eigenvalues[k] * u, atol=1e-12)
        for j in range(res.eigenvalues.size):
            g = np.vdot(eigenvectors(res)[j], u) / d
            assert abs(g - (1.0 if j == k else 0.0)) < 1e-12


def test_spectral_reconstruction_and_parseval():
    rng = np.random.default_rng(64)
    op = DiagonalComplement(4)
    res = spectral_resolve(op)
    for _ in range(5):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rebuilt = (res.function_body(lambda lam: lam) @ vec(a)).reshape(4, 4)
        np.testing.assert_allclose(rebuilt, op.apply_matrix(a), atol=1e-12)
        direct = np.vdot(op.apply_matrix(a), a).real / 4
        coeffs = np.einsum("kij,ij->k", eigenvectors(res).conj(), a) / 4
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
            apply(SemigroupMap(dc, t), x).entries, np.exp(-t) * X, atol=1e-15
        )


def test_semigroup_preserves_unit():
    dc = DiagonalComplement(4)
    one = identity(2)
    for t in (0.0, 0.5, 3.0):
        np.testing.assert_allclose(apply(SemigroupMap(dc, t), one).entries, np.eye(4), atol=1e-15)


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
    """The Schur closed form e^{-tc} (a SemigroupMap's apply_matrix and
    body) against the spectral path on a dense map of the same body."""
    for n in (1, 2, 3, 4):
        a = random_element(n, "general", 65)
        for gen in _schur_generators(n):
            assert gen.schur is not None
            dense = densify(gen)  # no Schur coefficients: the spectral route
            for t in (0.1, 1.0, 10.0):
                closed = apply(SemigroupMap(gen, t), a).entries
                spectral = apply(SemigroupMap(dense, t), a).entries
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
                apply(SemigroupMap(gen, 1.0), identity(1))
            with pytest.raises(ValueError, match=match):
                SemigroupMap(gen, 1.0).dense_body()


def test_semigroup_law():
    rng = np.random.default_rng(66)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    gen = DoubleCommutatorFamily([0.5 * (m + m.conj().T)])
    a = random_element(2, "general", 67)
    lhs = apply(SemigroupMap(gen, 0.7 + 0.4), a)
    rhs = apply(SemigroupMap(gen, 0.7), apply(SemigroupMap(gen, 0.4), a))
    np.testing.assert_allclose(lhs.entries, rhs.entries, atol=1e-11)


def test_semigroup_rejects_negative_time():
    with pytest.raises(ValueError, match="nonnegative"):
        apply(SemigroupMap(DiagonalComplement(2), -0.1), identity(1))


def test_semigroup_rejects_non_positive_generator():
    bad = ScaledMap(-1.0, densify(DiagonalComplement(2)))
    with pytest.raises(ValueError, match="min eigenvalue"):
        apply(SemigroupMap(bad, 1.0), identity(1))


def test_semigroup_map_object_matches_apply():
    dc = DiagonalComplement(2)
    phi = SemigroupMap(dc, 0.3)
    a = random_element(1, "general", 68)
    np.testing.assert_allclose(
        phi.apply_matrix(a.entries), apply(SemigroupMap(dc, 0.3), a).entries, atol=0
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_schur_semigroup_carries_its_coefficients(n):
    """The semigroup of a Schur generator c is the Schur multiplier
    e^{-t Re c}, decided once at construction; its body is diag(vec) of it."""
    d = 2 ** n
    rng = np.random.default_rng([104, n])
    ms = [_real_diagonal(rng, d) for _ in range(2)]
    for gen in (
        DiagonalComplement(d),
        DoubleCommutatorFamily(ms, h=np.diag(rng.uniform(0.0, 1.0, d))),
        ScaledMap(0.5, DiagonalComplement(d)),
    ):
        for t in SEMIGROUP_TIMES:
            phi = SemigroupMap(gen, t)
            assert np.array_equal(_bits(phi.schur), _bits(np.exp(-t * gen.schur.real)))
            assert np.array_equal(phi.dense_body(), np.diag(vec(phi.schur)))


def test_semigroup_map_keeps_no_dense_body():
    """A non-Schur semigroup builds its body on each call and keeps none:
    a kept d^2 x d^2 body would add to the peak memory of a certificate."""
    n = 3
    d = 2 ** n
    phi = SemigroupMap(_lindblad(n, 105), 0.5)
    assert phi.schur is None
    choi_min_eigenvalue(phi)
    phi.dense_body()
    phi.apply_matrix(np.eye(d))
    kept = [
        name for name, value in vars(phi).items()
        if isinstance(value, np.ndarray) and value.size >= d ** 4
    ]
    assert kept == []


@pytest.mark.parametrize("check", [markov_check, symmetry_conservativity_check])
def test_semigroup_checks_build_each_body_once(check, monkeypatch):
    """A non-Schur generator's semigroup body is built once per time in
    SEMIGROUP_TIMES, not once per chunk of samples."""
    n, d = 2, 4
    # each sample declares at least the bytes of its matrix, so a chunk
    # holds at most POOL_CHUNK_BYTES // (16 d^2) samples: at least 2 chunks
    samples = 2 * POOL_CHUNK_BYTES // (16 * d * d) + 1
    calls = []
    function_body = SpectralResolution.function_body

    def spy(self, func):
        calls.append(self)
        return function_body(self, func)

    monkeypatch.setattr(SpectralResolution, "function_body", spy)
    chunks = []
    gaussian_chunks = superop.gaussian_chunks

    def counted(*args):
        for chunk in gaussian_chunks(*args):
            chunks.append(chunk)
            yield chunk

    monkeypatch.setattr(superop, "gaussian_chunks", counted)
    gen = _lindblad(n, 106)
    assert gen.schur is None
    check(gen, samples=samples, seed=107, tol=1e-10)
    assert len(chunks) >= 2
    assert len(calls) == len(SEMIGROUP_TIMES)


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
        rep = markov_check(DiagonalComplement(2 ** n), samples=samples, seed=71, tol=1e-10)
        assert rep.failures == 0
        assert rep.worst_margin <= 1e-10
        assert rep.suite == "markov" and rep.level == n


def test_markov_at_time_zero_is_identity():
    dc = DiagonalComplement(4)
    x = random_element(2, "contraction", 72)
    np.testing.assert_array_equal(apply(SemigroupMap(dc, 0.0), x).entries, x.entries)


def test_markov_fixed_point_of_diagonal_contraction():
    dc = DiagonalComplement(4)
    x = random_element(2, "contraction", 73)
    x = AlgebraElement(2, diagonal_part(x.entries))
    for t in (0.2, 2.0):
        np.testing.assert_allclose(apply(SemigroupMap(dc, t), x).entries, x.entries, atol=1e-15)


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


@pytest.mark.parametrize("samples", [0, -3])
def test_semigroup_checks_reject_fewer_than_one_sample(samples):
    """No sample is no check: both suites raise, naming the argument."""
    gen = DiagonalComplement(4)
    with pytest.raises(ValueError, match=r"^samples must be >= 1"):
        markov_check(gen, samples=samples, seed=1, tol=1e-10)
    with pytest.raises(ValueError, match=r"^samples must be >= 1"):
        symmetry_conservativity_check(gen, samples=samples, seed=1, tol=1e-10)


# --------------------------------------------------------------------------
# composite bodies and export
# --------------------------------------------------------------------------


def test_sum_scaled_composed_maps():
    dc = DiagonalComplement(2)
    scaled = ScaledMap(2.0, dc)
    a = random_element(1, "general", 77)
    twice = dc.apply_matrix(a.entries) + dc.apply_matrix(a.entries)
    np.testing.assert_allclose(twice, scaled.apply_matrix(a.entries), atol=0)
    np.testing.assert_array_equal(scaled.schur, 2.0 * dc.schur)
    np.testing.assert_array_equal(scaled.apply_matrix(a.entries), scaled.schur * a.entries)
    assert ScaledMap(2.0, TransposeMap(2)).schur is None
    comp = ComposedMap([dc, dc])  # projection: composing changes nothing
    np.testing.assert_allclose(comp.apply_matrix(a.entries), dc.apply_matrix(a.entries), atol=0)


def test_composition_needs_a_map_of_one_dimension():
    with pytest.raises(ValueError, match="empty composition; compose at least one map"):
        ComposedMap([])
    with pytest.raises(ValueError, match="one dimension"):
        ComposedMap([DiagonalComplement(2), DiagonalComplement(4)])


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


def _real_diagonal(rng, d):
    return np.diag(rng.standard_normal(d)).astype(complex)


def _closed_form_cases(n):
    """(name, map) pairs covering every closed-form dense body at level n."""
    d = 2 ** n
    rng = np.random.default_rng([81, n])
    diag_ms = [_real_diagonal(rng, d) for _ in range(3)]
    full_ms = [gaussian_hermitian(d, rng) / d for _ in range(3)]
    psd = gaussian_hermitian(d, rng)
    psd = psd @ psd / d
    lindblad = DoubleCommutatorFamily(full_ms, h=psd)
    return [
        ("diagonal complement", DiagonalComplement(d)),
        ("schur", SchurMultiplier(gaussian_hermitian(d, rng))),
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


def _kron_commutator_body(op):
    """The dense body of a full DoubleCommutatorFamily as the kron sum
    L kron I + I kron L^T - 2 sum_i m_i kron m_i^T, one kron per m_i."""
    d = op.dim
    body = np.zeros((d * d, d * d), dtype=np.complex128)
    grid = body.reshape(d, d, d, d)
    for j in range(d):
        grid[:, j, :, j] += op._left
        grid[j, :, j, :] += op._left.T
    for m in op.ms:
        body -= np.kron(2.0 * m, m.T)
    return body


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_commutator_body_keeps_the_bits_of_the_kron_sum(n):
    """The body subtracts each 2 m_i kron m_i^T from one buffer: the same
    products in the same order as the kron sum, so the same bits."""
    d = 2 ** n
    rng = np.random.default_rng([105, n])
    for h in (None, gaussian_hermitian(d, rng)):
        op = DoubleCommutatorFamily([gaussian_hermitian(d, rng) for _ in range(3)], h=h)
        assert op.schur is None
        assert np.array_equal(_bits(op.dense_body()), _bits(_kron_commutator_body(op)))


# One map of each class at level n, each built from (n, d, rng); the
# dense-body maps are compared with a tolerance, every other bit for bit.
_STACK_MAPS = {
    "schur family": lambda n, d, rng: DoubleCommutatorFamily(
        [rng.standard_normal(d) for _ in range(2)], h=np.diag(rng.standard_normal(d))
    ),
    "full family": lambda n, d, rng: _lindblad(n, 97),
    "diagonal complement": lambda n, d, rng: DiagonalComplement(d),
    "schur multiplier": lambda n, d, rng: SchurMultiplier(gaussian_hermitian(d, rng)),
    "transpose": lambda n, d, rng: TransposeMap(d),
    "dense": lambda n, d, rng: DenseMap(rng.standard_normal((d * d, d * d)) / d),
    "tower projection": lambda n, d, rng: TowerProjection(n, n - 1),
    "scaled": lambda n, d, rng: ScaledMap(0.7 - 0.2j, _lindblad(n, 98)),
    "composed": lambda n, d, rng: ComposedMap(
        (TransposeMap(d), _lindblad(n, 99), TowerProjection(n, 0))
    ),
    "blockwise": lambda n, d, rng: BlockwiseMap(_lindblad(n - 1, 100), 2),
    "schur semigroup": lambda n, d, rng: SemigroupMap(DiagonalComplement(d), 0.5),
    "semigroup": lambda n, d, rng: SemigroupMap(_lindblad(n, 101), 0.5),
}
_DENSE_BODY_MAPS = ("dense", "semigroup")


@pytest.mark.parametrize("lead", [(5,), (2, 3)])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", list(_STACK_MAPS))
def test_every_map_takes_a_stack(name, n, lead):
    """apply_matrix on a stack (..., d, d) gives the input's shape, and each
    matrix what its own call gives: bit for bit, or within 1e-12 (1 +
    max|x|) for a map applied through its dense body."""
    d = 2 ** n
    rng = np.random.default_rng([102, n])
    op = _STACK_MAPS[name](n, d, rng)
    x = rng.standard_normal((*lead, d, d)) + 1j * rng.standard_normal((*lead, d, d))
    got = op.apply_matrix(x)
    assert got.shape == x.shape
    for idx in np.ndindex(lead):
        want = op.apply_matrix(x[idx])
        if name in _DENSE_BODY_MAPS:
            assert np.abs(got[idx] - want).max() <= 1e-12 * (1.0 + np.abs(x[idx]).max())
        else:
            assert np.array_equal(got[idx], want), idx


@pytest.mark.parametrize("n", [1, 2, 3])
def test_default_dense_body_maps_one_row_of_units_per_call(n):
    """The probing default makes d calls, each on the d matrix units of one
    row, and gives the body of the one-unit-per-call probe bit for bit."""
    d = 2 ** n
    rng = np.random.default_rng([103, n])
    for name in ("tower projection", "composed", "blockwise"):
        op = _STACK_MAPS[name](n, d, rng)
        shapes = []

        def spy(mat, apply=op.apply_matrix):
            shapes.append(mat.shape)
            return apply(mat)

        op.apply_matrix = spy
        body = op.dense_body()
        assert shapes == [(d, d, d)] * d, name
        del op.apply_matrix
        assert np.array_equal(body, _probe_body(op)), name


@pytest.mark.parametrize("n", [1, 2, 3])
def test_tower_projection_lifts_by_kron_into_a_new_array(n):
    x = random_element(n, "general", 104).entries
    own = TowerProjection(n, n).apply_matrix(x)
    assert own is not x and not np.shares_memory(own, x)
    assert np.array_equal(own, x)
    for target in range(n):
        pt = partial_trace_matrix(x, n, target)
        want = np.kron(pt, np.eye(2 ** (n - target)))
        assert np.array_equal(TowerProjection(n, target).apply_matrix(x), want)


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
    assert DoubleCommutatorFamily([gaussian_hermitian(d, rng)]).schur is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_commutator_family_takes_diagonal_m_as_vectors(n):
    """A vector mu stands for diag(mu): it collapses with the diagonal
    matrices, and joins the matrix path as diag(mu) next to a full m."""
    d = 2 ** n
    rng = np.random.default_rng([85, n])
    mus = [rng.standard_normal(d) for _ in range(3)]
    as_vectors = DoubleCommutatorFamily(mus, h=np.diag(mus[0]))
    as_matrices = DoubleCommutatorFamily([np.diag(mu) for mu in mus], h=np.diag(mus[0]))
    np.testing.assert_array_equal(as_vectors.schur, as_matrices.schur)
    full = gaussian_hermitian(d, rng)
    mixed = DoubleCommutatorFamily([mus[1], full])
    assert mixed.schur is None
    np.testing.assert_array_equal(mixed.ms[0], np.diag(mus[1]))
    np.testing.assert_array_equal(
        mixed.dense_body(), DoubleCommutatorFamily([np.diag(mus[1]), full]).dense_body()
    )
    with pytest.raises(ValueError, match="one dimension"):
        DoubleCommutatorFamily([mus[0], np.ones(d + 1)])
    with pytest.raises(ValueError, match="Hermitian"):
        DoubleCommutatorFamily([mus[0] + 1j])


def test_collapsed_commutator_family_keeps_real_coefficients_real():
    """Real data gives float64 coefficients, half the memory, which act on a
    matrix bit for bit as their complex form did; an imaginary part within
    the Hermitian tolerance keeps them complex."""
    rng = np.random.default_rng(86)
    mus = [rng.standard_normal(8) for _ in range(3)]
    fam = DoubleCommutatorFamily(mus, h=np.diag(mus[0]))
    assert fam.schur.dtype == np.float64
    x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    x[0, 1] = complex(np.inf, -0.0)
    with np.errstate(invalid="ignore"):  # inf * 0 in the complex product
        want = fam.schur.astype(np.complex128) * x
        assert fam.apply_matrix(x).tobytes() == want.tobytes()
    tilted = mus[0] + 1e-14j * np.arange(8)
    assert DoubleCommutatorFamily([tilted, mus[1]]).schur.dtype == np.complex128


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
        apply(SemigroupMap(DiagonalComplement(2), t), identity(1))


def test_spectral_cache_holds_only_resolved_maps():
    rng = np.random.default_rng(83)
    body = densify(DoubleCommutatorFamily([gaussian_hermitian(2, rng)])).matrix
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
        markov_check(bad, samples=2, seed=84, tol=1e-10)
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
        unit = u[:, col].reshape(d, d)
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hermitian_unit_changes_keep_their_bits_in_any_layout(n):
    """The pair mixing is elementwise, so an F-ordered array gets the bits of
    its C-ordered original."""
    d = 2 ** n
    rng = np.random.default_rng([108, n])
    x = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    for change in (_to_hermitian_units, _from_hermitian_units):
        c_ordered, f_ordered = x.copy(), np.asfortranarray(x)
        change(c_ordered)
        change(f_ordered)
        assert f_ordered.flags.f_contiguous
        assert np.array_equal(_bits(f_ordered), _bits(c_ordered)), change.__name__


def _lindblad(n, seed):
    d = 2 ** n
    rng = np.random.default_rng([seed, n])
    psd = gaussian_hermitian(d, rng)
    ms = [gaussian_hermitian(d, rng) / d for _ in range(3)]
    return DoubleCommutatorFamily(ms, h=psd @ psd / d)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bodies_are_real_in_hermitian_units(n):
    d = 2 ** n
    for op in (DiagonalComplement(d), TransposeMap(d), _lindblad(n, 87)):
        body = op.dense_body()
        assert np.abs(_in_units(body).imag).max() <= 1e-14 * np.abs(body).max()
    x = gaussian_hermitian(d, np.random.default_rng([88, n]))
    left = DenseMap(np.kron(x, np.eye(d)))  # a -> x a: self-adjoint, not real
    assert np.abs(_in_units(left.matrix).imag).max() > 1e-3 * np.abs(x).max()
    res = spectral_resolve(left)
    assert np.iscomplexobj(res.basis)  # the complex path
    np.testing.assert_allclose(
        res.eigenvalues, np.linalg.eigvalsh(left.matrix), rtol=0, atol=1e-12
    )
    a = random_element(n, "general", 89).entries
    rebuilt = (res.function_body(lambda lam: lam) @ vec(a)).reshape(d, d)
    np.testing.assert_allclose(rebuilt, x @ a, rtol=0, atol=1e-12)


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
        u = eigenvectors(res)[k]
        assert np.abs(u - u.conj().T).max() <= 1e-14
        assert np.abs(gen.apply_matrix(u) - res.eigenvalues[k] * u).max() <= 1e-12 * scale


@pytest.mark.parametrize("n", [1, 2, 3])
def test_non_schur_semigroup_on_stacks_matches_complex_eigh(n):
    """A non-Schur semigroup acts on a matrix stack through its dense body:
    each vec of the stack goes to v e^{-tw} v* vec(x), with v, w from a
    complex eigh of the generator's dense body."""
    d = 2 ** n
    gen = _lindblad(n, 94)
    assert gen.schur is None
    body = gen.dense_body()
    w, v = np.linalg.eigh(0.5 * (body + body.conj().T))
    rng = np.random.default_rng([95, n])
    for t in SEMIGROUP_TIMES:
        reference = (v * np.exp(-t * w)) @ v.conj().T
        phi = SemigroupMap(gen, t)
        for count in (1, 5, 33):
            x = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
            got = phi.apply_matrix(x)
            assert got.shape == x.shape
            for slice_in, slice_out in zip(x, got):
                expected = (reference @ vec(slice_in)).reshape(d, d)
                bound = 1e-12 * (1.0 + np.abs(slice_in).max())
                assert np.abs(slice_out - expected).max() <= bound, (n, t, count)


def test_semigroup_checks_on_a_non_diagonal_lindblad_generator():
    """sum_i [m_i, [m_i, .]] with non-diagonal Hermitian m_i generates a
    unital, trace-symmetric, completely positive semigroup: both checks
    pass at level 2. Adding h != 0 breaks unit preservation, which the
    symmetry check must catch."""
    rng = np.random.default_rng(96)
    ms = [gaussian_hermitian(4, rng) / 4 for _ in range(3)]
    conservative = DoubleCommutatorFamily(ms)
    assert conservative.schur is None
    rep = markov_check(conservative, samples=50, seed=97, tol=1e-10)
    assert rep.failures == 0 and rep.worst_margin <= 1e-10
    rep = symmetry_conservativity_check(conservative, samples=50, seed=98, tol=1e-10)
    assert rep.failures == 0 and rep.worst_margin <= 1e-10
    psd = gaussian_hermitian(4, rng)
    leaky = DoubleCommutatorFamily(ms, h=psd @ psd / 4)
    rep = symmetry_conservativity_check(leaky, samples=50, seed=98, tol=1e-10)
    assert rep.failures >= 1
    assert rep.worst_margin > 1e-3


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
# the certificate in place, against the two-buffer reference
# --------------------------------------------------------------------------

_NOT_HERMITIAN = "Choi matrix is not Hermitian"


def _certificate_cases(n):
    d = 2 ** n
    rng = np.random.default_rng([95, n])
    k = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return [
        SemigroupMap(_lindblad(n, 92), 0.5),
        SemigroupMap(DiagonalComplement(d), 1.0),
        TransposeMap(d),
        DenseMap(np.kron(k, k.conj())),  # CP, not self-adjoint: a complex T
    ]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_in_place_certificate_has_the_bits_of_the_two_buffer_reference(n):
    """The Choi matrix realigned in place, T converted in place and the
    eigenvalues have the bits of the copying reshuffle and the two-buffer
    conversion of tests/reference.py, for Lindblad data, the Schur
    semigroup, the transpose control and a DenseMap; so does the spectral
    resolution of the Lindblad generator and of its DenseMap."""
    for op in _certificate_cases(n):
        choi = choi_reshuffle(op.dense_body())
        assert np.array_equal(_bits(choi_matrix(op)), _bits(choi)), repr(op)
        expected = hermitian_in_units(choi, _NOT_HERMITIAN)
        herm = _hermitian_in_units(choi_matrix(op), _NOT_HERMITIAN)
        assert herm.dtype == expected.dtype, repr(op)
        assert np.array_equal(_bits(herm), _bits(expected)), repr(op)
        ev = np.linalg.eigvalsh(expected)
        assert np.array_equal(_bits(np.linalg.eigvalsh(herm)), _bits(ev)), repr(op)
        assert choi_min_eigenvalue(op) == ev[0] == choi_min_eigenvalue(choi), repr(op)
    gen = _lindblad(n, 92)
    w, basis = np.linalg.eigh(hermitian_in_units(gen.dense_body(), _NOT_SELF_ADJOINT))
    for op in (gen, DenseMap(gen.dense_body())):
        res = spectral_resolve(op)
        assert np.array_equal(_bits(res.eigenvalues), _bits(w)), repr(op)
        assert np.array_equal(_bits(res.basis), _bits(basis)), repr(op)


def _planted(mat, value):
    """mat with value added to entry (200, 70): its defect equals that of
    the mirror entry (70, 200), which comes first, in a later block of rows
    than the first."""
    out = mat.copy()
    out[200, 70] += value
    return out


@pytest.mark.parametrize("value", [1e-3, np.nan, np.inf])
def test_in_place_certificate_rejects_with_the_reference_message(value):
    """A planted non-Hermitian entry, NaN and inf included, in a body, in
    the Choi matrix of a map or in a Choi matrix given as an array, fails
    with the message of the two-buffer reference, witness included."""
    gen = _lindblad(4, 97)  # d^2 = 256 rows: four blocks of the defect scan
    body = gen.dense_body()
    choi = choi_matrix(gen)
    cases = [
        (lambda: spectral_resolve(DenseMap(_planted(body, value))),
         _NOT_SELF_ADJOINT, _planted(body, value)),
        (lambda: choi_min_eigenvalue(DenseMap(_planted(body, value))),
         _NOT_HERMITIAN, choi_reshuffle(_planted(body, value))),
        (lambda: choi_min_eigenvalue(_planted(choi, value)),
         _NOT_HERMITIAN, _planted(choi, value)),
    ]
    for certify, what, mat in cases:
        with pytest.raises(ValueError) as expected:
            hermitian_in_units(mat, what)
        with pytest.raises(ValueError) as got:
            certify()
        assert str(got.value) == str(expected.value), what
    assert str(expected.value).endswith("at entry (70, 200)")


def test_certificates_leave_what_the_caller_keeps_unchanged():
    """dense_body gives a new array, so that spectral_resolve, densify,
    choi_matrix and choi_min_eigenvalue, which overwrite it, leave a
    DenseMap's matrix bit for bit as it was; choi_min_eigenvalue of a Choi
    matrix leaves that array as it was."""
    gen = _lindblad(3, 98)
    op = DenseMap(gen.dense_body())
    kept = op.matrix.copy()
    assert not np.shares_memory(op.dense_body(), op.matrix)
    assert not np.shares_memory(densify(op).matrix, op.matrix)
    spectral_resolve(op)
    choi_matrix(op)
    choi_min_eigenvalue(op)
    choi_min_eigenvalue(SemigroupMap(op, 0.5))
    assert np.array_equal(_bits(op.matrix), _bits(kept))
    choi = choi_matrix(SemigroupMap(gen, 0.5))
    kept = choi.copy()
    choi_min_eigenvalue(choi)
    assert np.array_equal(_bits(choi), _bits(kept))


def test_lindblad_choi_certificate_peaks_within_four_real_bodies():
    """Under tracemalloc, the Choi certificate of a non-Schur semigroup at
    level 5 holds at most 4.1 real d^2 x d^2 arrays at once: the generator's
    basis beside its complex body and one real product, or beside the
    complex Choi matrix and its real T. A copy of the Hermitian part or of
    the Choi reshuffle beside its source exceeds it."""
    phi = SemigroupMap(_lindblad(5, 99), 0.5)
    real_body = 8 * phi.dim ** 4
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        choi_min_eigenvalue(phi)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 4.1 * real_body, peak / real_body


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
    y = apply(SemigroupMap(gen, 0.5), identity(1)).entries
    np.testing.assert_allclose(y, np.eye(2), rtol=0, atol=1e-10)


def test_negative_generator_of_large_scale_stays_rejected():
    m = np.array([[1.0, 0.37], [0.37, -0.2]]) * 1e3
    gen = DoubleCommutatorFamily([m], h=-1e-3 * np.eye(2))  # eigenvalue -2e-3
    with pytest.raises(ValueError, match="min eigenvalue"):
        apply(SemigroupMap(gen, 0.5), identity(1))
    with pytest.raises(ValueError, match="min eigenvalue"):
        choi_min_eigenvalue(SemigroupMap(gen, 0.5))
    schur = SchurMultiplier(np.array([[1e3, -1e-3], [-1e-3, 1e3]]))
    with pytest.raises(ValueError, match="min eigenvalue"):
        apply(SemigroupMap(schur, 0.5), identity(1))


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
        apply(SemigroupMap(tolerated, 1.0), identity(1))
    fast = SchurMultiplier(np.array([[0.0, 1e10], [1e10, 0.0]]))
    y = apply(SemigroupMap(fast, 1e300), AlgebraElement(1, X + np.eye(2))).entries
    np.testing.assert_array_equal(y, np.eye(2))
    body = SemigroupMap(DenseMap(densify(fast).matrix), 1e300).dense_body()
    np.testing.assert_allclose(body, np.diag([1.0, 0.0, 0.0, 1.0]), rtol=0, atol=1e-15)


def test_blockwise_hermitian_defect_matches_whole_matrix():
    """The defect, its first witness and max|mat| over blocks of rows equal
    the whole-matrix values; a NaN in a later block wins."""
    rng = np.random.default_rng(94)
    mat = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    mat[200, 7] = mat[7, 200].conj() + 50.0  # largest defect, twice: (200, 7), (7, 200)
    asym = np.abs(mat - np.conjugate(mat.T))
    defect, where, size = _hermitian_defect(mat)
    assert defect == asym.max() and size == np.abs(mat).max()
    assert where == np.unravel_index(np.argmax(asym), asym.shape) == (7, 200)
    mat[250, 3] = np.nan
    defect, where, _ = _hermitian_defect(mat)
    assert np.isnan(defect) and where == (3, 250)
