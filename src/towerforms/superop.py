"""Linear maps on a fixed-level matrix space.

Maps are stored structurally (diagonal complement, double-commutator
families, Schur multipliers, tower projections, sums/compositions) and
materialized to a dense matrix on vectorized inputs only on demand: each
class with a closed form writes its dense body directly, the others probe
the matrix-unit basis. Choi matrices are index reshuffles of dense bodies.

Vectorization convention (normative for dense bodies and Choi blocks):
row stacking, ``vec(a) = a.reshape(-1)`` in C order, so the matrix unit
e_kl maps to the standard basis vector at index k*dim + l.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .report import PropertyReport, worst_of
from .tower import AlgebraElement, check_nonnegative, random_matrix
from .expectations import diagonal_part, partial_trace_matrix

__all__ = [
    "DENSIFY_DIM_CAP",
    "SuperOperator",
    "DiagonalComplement",
    "SchurMultiplier",
    "TransposeMap",
    "DoubleCommutatorFamily",
    "DenseMap",
    "TowerProjection",
    "ScaledMap",
    "SumMap",
    "ComposedMap",
    "BlockwiseMap",
    "SemigroupMap",
    "SpectralResolution",
    "vec",
    "unvec",
    "apply",
    "densify",
    "spectral_resolve",
    "semigroup_apply",
    "choi_matrix",
    "choi_min_eigenvalue",
    "markov_check",
    "symmetry_conservativity_check",
    "square_matrix_to_json",
]

# Dense materialization cap: dim 64 = level 6 means a 4096 x 4096 dense body.
DENSIFY_DIM_CAP = 64


def vec(mat: np.ndarray) -> np.ndarray:
    """Row-stacking vectorization."""
    return np.asarray(mat).reshape(-1)


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v).reshape(dim, dim)


def _schur_body(coeffs: np.ndarray) -> np.ndarray:
    """Dense body of entrywise multiplication by coeffs: diag(vec(coeffs))."""
    return np.diag(vec(coeffs).astype(np.complex128))


def _is_diagonal(mat: np.ndarray) -> bool:
    """Exactly diagonal: every nonzero entry lies on the diagonal."""
    return np.count_nonzero(mat) == np.count_nonzero(np.diagonal(mat))


def _check_hermitian(mat: np.ndarray, what: str, tol: float = 1e-12) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.complex128)
    scale = 1.0 + np.abs(mat).max(initial=0.0)
    defect = np.abs(mat - mat.conj().T).max(initial=0.0)
    if defect > tol * scale:
        raise ValueError(f"{what} must be Hermitian (defect {defect:.3e})")
    return mat


class SuperOperator:
    """Base class: a linear map on the dim x dim complex matrices.

    Instances are immutable after construction; ``apply_matrix`` is a pure
    function of its input. Spectral resolutions are cached lazily.
    ``schur`` is the coefficient matrix c when the map is entrywise
    multiplication by c, else None: the dense body is then diag(vec(c))
    and the semigroup the Schur multiplier e^{-tc}.
    """

    hermiticity_preserving: bool = False
    schur: np.ndarray | None = None

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = int(dim)
        self._spectral: SpectralResolution | None = None
        self._schur_rates: tuple[np.ndarray, float, float] | None = None

    @property
    def level(self) -> int:
        n = self.dim.bit_length() - 1
        if 2 ** n != self.dim:
            raise ValueError(f"dimension {self.dim} is not a power of two")
        return n

    def apply_matrix(self, mat: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def dense_body(self) -> np.ndarray:
        """The dim^2 x dim^2 matrix of the map on row-stacked inputs.

        Besides diag(vec(schur)), this default probes every matrix unit
        e_kl (column k*dim + l); classes with a closed form override it.
        No budget check here: callers go through ``densify`` or ``choi_matrix``.
        """
        if self.schur is not None:
            return _schur_body(self.schur)
        d = self.dim
        dense = np.empty((d * d, d * d), dtype=np.complex128)
        probe = np.zeros((d, d), dtype=np.complex128)
        for k in range(d):
            for l in range(d):
                probe[k, l] = 1.0
                dense[:, k * d + l] = vec(self.apply_matrix(probe))
                probe[k, l] = 0.0
        return dense

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class DiagonalComplement(SuperOperator):
    """a -> a minus its diagonal part: the complement of the expectation
    onto the diagonal subalgebra. An orthogonal projection for the GNS
    inner product, with spectrum {0, 1}."""

    hermiticity_preserving = True

    def __init__(self, dim: int):
        super().__init__(dim)
        self.schur = 1.0 - np.eye(self.dim)

    def apply_matrix(self, mat):
        mat = np.asarray(mat, dtype=np.complex128)
        return mat - diagonal_part(mat)


class SchurMultiplier(SuperOperator):
    """Entrywise multiplication by a Hermitian coefficient matrix."""

    hermiticity_preserving = True

    def __init__(self, coeffs: np.ndarray):
        coeffs = _check_hermitian(coeffs, "Schur coefficient matrix")
        if coeffs.ndim != 2 or coeffs.shape[0] != coeffs.shape[1]:
            raise ValueError("Schur coefficient matrix must be square")
        super().__init__(coeffs.shape[0])
        self.schur = coeffs

    def apply_matrix(self, mat):
        return self.schur * np.asarray(mat, dtype=np.complex128)


class TransposeMap(SuperOperator):
    """The transpose map: positive but not completely positive."""

    hermiticity_preserving = True

    def apply_matrix(self, mat):
        return np.asarray(mat, dtype=np.complex128).T.copy()

    def dense_body(self):
        # the swap permutation: vec(a^T)[i*d + j] = vec(a)[j*d + i]
        d = self.dim
        rows = np.arange(d * d)
        body = np.zeros((d * d, d * d), dtype=np.complex128)
        body[rows, (rows % d) * d + rows // d] = 1.0
        return body


class DoubleCommutatorFamily(SuperOperator):
    """a -> sum_i [m_i, [m_i, a]] + h a + a h with Hermitian m_i and h.

    With all m_i the rank-one diagonal projections and h = 0 this equals
    twice the diagonal complement.

    When every m_i and h are exactly diagonal, with diagonals mu_i and
    eta, the family is the Schur multiplier with coefficients
    sum_i (mu_i[j] - mu_i[k])^2 + eta[j] + eta[k]; it is collapsed to
    those coefficients (``schur``) at construction. Otherwise ``schur`` is
    None and the family is evaluated with matrix products.
    """

    hermiticity_preserving = True

    def __init__(self, ms, h=None):
        mats = [m.entries if isinstance(m, AlgebraElement) else m for m in ms]
        if not mats:
            raise ValueError("need at least one commutator generator m_i")
        mats = [_check_hermitian(m, f"m_{i}") for i, m in enumerate(mats)]
        dim = mats[0].shape[0]
        if any(m.shape != (dim, dim) for m in mats):
            raise ValueError("all m_i must be square matrices of one dimension")
        super().__init__(dim)
        self.ms = tuple(mats)
        if h is None:
            self.h = None
        else:
            h = h.entries if isinstance(h, AlgebraElement) else h
            h = _check_hermitian(h, "h")
            if h.shape != (dim, dim):
                raise ValueError("h must match the dimension of the m_i")
            self.h = h
        if all(map(_is_diagonal, self.ms)) and (self.h is None or _is_diagonal(self.h)):
            coeffs = np.zeros((dim, dim), dtype=np.complex128)
            for m in self.ms:
                mu = np.diagonal(m)
                delta = mu[:, None] - mu[None, :]
                coeffs += delta * delta
            if h is not None:
                eta = np.diagonal(h)
                coeffs += eta[:, None] + eta[None, :]
            self.schur = coeffs

    def apply_matrix(self, mat):
        mat = np.asarray(mat, dtype=np.complex128)
        if self.schur is not None:
            return self.schur * mat
        out = np.zeros_like(mat)
        for m in self.ms:
            c = m @ mat - mat @ m
            out += m @ c - c @ m
        if self.h is not None:
            out += self.h @ mat + mat @ self.h
        return out

    def dense_body(self):
        if self.schur is not None:
            return super().dense_body()
        # Row stacking gives vec(x a y) = (x kron y^T) vec(a), so the body is
        # L kron I + I kron L^T - 2 sum_i m_i kron m_i^T with L = sum_i m_i^2 + h.
        d = self.dim
        left = sum(m @ m for m in self.ms)
        if self.h is not None:
            left = left + self.h
        body = np.zeros((d * d, d * d), dtype=np.complex128)
        grid = body.reshape(d, d, d, d)  # [i, j, k, l]: row i*d + j, column k*d + l
        for j in range(d):
            grid[:, j, :, j] += left
            grid[j, :, j, :] += left.T
        for m in self.ms:
            body -= np.kron(2.0 * m, m.T)
        return body


class DenseMap(SuperOperator):
    """Dense dim^2 x dim^2 matrix acting on row-stacked inputs."""

    def __init__(self, matrix: np.ndarray, hermiticity_preserving: bool = False):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("dense body must be square")
        dim = int(round(np.sqrt(matrix.shape[0])))
        if dim * dim != matrix.shape[0]:
            raise ValueError(
                f"dense body side {matrix.shape[0]} is not a perfect square"
            )
        super().__init__(dim)
        self.matrix = matrix
        self.hermiticity_preserving = bool(hermiticity_preserving)

    def apply_matrix(self, mat):
        return unvec(self.matrix @ vec(np.asarray(mat, dtype=np.complex128)), self.dim)

    def dense_body(self):
        return self.matrix


class TowerProjection(SuperOperator):
    """Orthogonal projection of the ambient level onto the embedded
    level-`target` subalgebra (condition down, embed back up)."""

    hermiticity_preserving = True

    def __init__(self, ambient_level: int, target_level: int):
        if not 0 <= target_level <= ambient_level:
            raise ValueError(
                f"need 0 <= target {target_level} <= ambient {ambient_level}"
            )
        super().__init__(2 ** ambient_level)
        self.ambient_level = int(ambient_level)
        self.target_level = int(target_level)

    def apply_matrix(self, mat):
        pt = partial_trace_matrix(
            np.asarray(mat, dtype=np.complex128), self.ambient_level, self.target_level
        )
        k = self.ambient_level - self.target_level
        if k == 0:
            return pt
        return np.kron(pt, np.eye(2 ** k))


class ScaledMap(SuperOperator):
    def __init__(self, factor: complex, inner: SuperOperator):
        super().__init__(inner.dim)
        self.factor = complex(factor)
        self.inner = inner
        self.hermiticity_preserving = (
            inner.hermiticity_preserving and self.factor.imag == 0.0
        )

    def apply_matrix(self, mat):
        return self.factor * self.inner.apply_matrix(mat)

    def dense_body(self):
        return self.factor * self.inner.dense_body()


class SumMap(SuperOperator):
    def __init__(self, terms):
        terms = tuple(terms)
        if not terms:
            raise ValueError("empty sum is ambiguous; use SchurMultiplier(zeros)")
        if len({t.dim for t in terms}) != 1:
            raise ValueError("sum terms must share one dimension")
        super().__init__(terms[0].dim)
        self.terms = terms
        self.hermiticity_preserving = all(t.hermiticity_preserving for t in terms)

    def apply_matrix(self, mat):
        out = self.terms[0].apply_matrix(mat)
        for t in self.terms[1:]:
            out = out + t.apply_matrix(mat)
        return out


class ComposedMap(SuperOperator):
    """Composition in the mathematical order: maps[0] o maps[1] o ... so the
    rightmost factor is applied first."""

    def __init__(self, maps):
        maps = tuple(maps)
        if not maps:
            raise ValueError("empty composition; use SchurMultiplier(ones)")
        if len({m.dim for m in maps}) != 1:
            raise ValueError("composition factors must share one dimension")
        super().__init__(maps[0].dim)
        self.maps = maps
        self.hermiticity_preserving = all(m.hermiticity_preserving for m in maps)

    def apply_matrix(self, mat):
        out = np.asarray(mat, dtype=np.complex128)
        for m in reversed(self.maps):
            out = m.apply_matrix(out)
        return out


class BlockwiseMap(SuperOperator):
    """Apply an inner map to every d x d block of a (k*d) x (k*d) matrix.

    This is the canonical amplification of a map to k x k block matrices.
    """

    def __init__(self, inner: SuperOperator, k: int):
        if k < 1:
            raise ValueError(f"block count must be >= 1, got {k}")
        super().__init__(k * inner.dim)
        self.inner = inner
        self.k = int(k)
        self.hermiticity_preserving = inner.hermiticity_preserving

    def apply_matrix(self, mat):
        k, d = self.k, self.inner.dim
        mat = np.asarray(mat, dtype=np.complex128)
        out = np.empty_like(mat)
        for i in range(k):
            for j in range(k):
                out[i * d:(i + 1) * d, j * d:(j + 1) * d] = self.inner.apply_matrix(
                    mat[i * d:(i + 1) * d, j * d:(j + 1) * d]
                )
        return out


# --------------------------------------------------------------------------
# evaluation, densification, spectral analysis
# --------------------------------------------------------------------------


def apply(op: SuperOperator, a: AlgebraElement) -> AlgebraElement:
    """Evaluate a map on a level-tagged element."""
    if op.dim != a.dim:
        raise ValueError(
            f"level mismatch: map acts on dimension {op.dim}, element has {a.dim}"
        )
    return AlgebraElement(a.level, op.apply_matrix(a.entries))


def _check_budget(dim: int, max_dim: int, what: str) -> None:
    if dim > max_dim:
        side = dim * dim
        bytes_needed = 16 * side * side
        raise ValueError(
            f"{what} needs a {side} x {side} complex matrix "
            f"(~{bytes_needed / 2**30:.2f} GiB) for dimension {dim}; "
            f"cap is max_dim={max_dim}"
        )


def densify(op: SuperOperator, max_dim: int = DENSIFY_DIM_CAP) -> DenseMap:
    """Materialize the map as a dense matrix on row-stacked inputs (see
    ``SuperOperator.dense_body``)."""
    _check_budget(op.dim, max_dim, "densification")
    return DenseMap(op.dense_body(), hermiticity_preserving=op.hermiticity_preserving)


@dataclass(frozen=True, eq=False)
class SpectralResolution:
    """Eigendecomposition of a GNS-self-adjoint map.

    eigenvalues are ascending; eigenvectors[k] is the matrix u_k, the
    family being orthonormal for the GNS inner product. asymmetry is the
    measured defect max|D - D*| / (1 + max|D|) of the dense body D that
    was resolved, so a cached resolution can be rechecked against a
    stricter tolerance.
    """

    dim: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # shape (dim*dim, dim, dim)
    asymmetry: float = 0.0

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def max_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])

    def coefficients(self, mat: np.ndarray) -> np.ndarray:
        """GNS coefficients <u_k, mat>_2."""
        return np.einsum("kij,ij->k", self.eigenvectors.conj(), mat) / self.dim

    def apply_function(self, func, mat: np.ndarray) -> np.ndarray:
        """Evaluate f(map) on mat through the spectral sum."""
        c = self.coefficients(np.asarray(mat, dtype=np.complex128))
        weights = func(self.eigenvalues) * c
        return np.einsum("k,kij->ij", weights, self.eigenvectors)

    def reconstruct(self, mat: np.ndarray) -> np.ndarray:
        return self.apply_function(lambda lam: lam, mat)

    def function_body(self, func) -> np.ndarray:
        """Dense body of f(map): V f(Lambda) V* / dim, the columns of V
        being the vectorized u_k."""
        d2 = self.dim * self.dim
        v = self.eigenvectors.reshape(d2, d2).T
        return (v * (func(self.eigenvalues) / self.dim)) @ v.conj().T


def spectral_resolve(
    op: SuperOperator,
    sym_tol: float = 1e-10,
    max_dim: int = DENSIFY_DIM_CAP,
) -> SpectralResolution:
    """Diagonalize a GNS-self-adjoint map.

    GNS self-adjointness is equivalent to Hermiticity of the dense body
    (the GNS inner product is a positive multiple of the Euclidean one on
    vectorized matrices); non-self-adjoint inputs are rejected with the
    largest asymmetry entry as witness. The resolution is cached on the
    map together with its measured asymmetry, which every later call
    checks against its own sym_tol.
    """
    res = op._spectral
    if res is not None:
        if not res.asymmetry <= sym_tol:
            raise ValueError(
                f"map is not GNS-self-adjoint: relative asymmetry "
                f"{res.asymmetry:.3e} exceeds sym_tol={sym_tol:.1e}"
            )
        return res
    dense = densify(op, max_dim=max_dim).matrix
    asym = np.abs(dense - dense.conj().T)
    defect = asym.max(initial=0.0)
    relative = float(defect / (1.0 + np.abs(dense).max(initial=0.0)))
    if not relative <= sym_tol:
        i, j = np.unravel_index(np.argmax(asym), asym.shape)
        raise ValueError(
            f"map is not GNS-self-adjoint: |D - D*| has max {defect:.3e} "
            f"at vectorized entry ({i}, {j})"
        )
    w, v = np.linalg.eigh(0.5 * (dense + dense.conj().T))
    d = op.dim
    vectors = (v.T.reshape(d * d, d, d)) * np.sqrt(d)
    res = SpectralResolution(
        dim=d, eigenvalues=w, eigenvectors=vectors, asymmetry=relative
    )
    op._spectral = res
    return res


# --------------------------------------------------------------------------
# semigroups
# --------------------------------------------------------------------------


def _positive_resolution(op: SuperOperator, eig_tol: float) -> SpectralResolution:
    res = spectral_resolve(op)
    if res.min_eigenvalue < -eig_tol:
        raise ValueError(
            f"generator is not positive: min eigenvalue {res.min_eigenvalue:.3e}"
        )
    return res


def _schur_semigroup(
    op: SuperOperator, t: float, eig_tol: float, sym_tol: float = 1e-10
) -> np.ndarray:
    """Coefficients e^{-t Re c} of the semigroup of a Schur generator c,
    checked as the spectral path checks the body diag(vec(c)): relative
    asymmetry 2 max|Im c| / (1 + max|c|) <= sym_tol and min Re c >= -eig_tol,
    NaN failing both. The measurements are cached on the generator."""
    if op._schur_rates is None:
        c = op.schur
        rates = c.real.astype(np.float64)
        asym = 2.0 * np.abs(c.imag).max() / (1.0 + np.abs(c).max())
        op._schur_rates = (rates, float(asym), float(rates.min()))
    rates, asym, lowest = op._schur_rates
    if not asym <= sym_tol:
        raise ValueError(
            f"map is not GNS-self-adjoint: relative asymmetry "
            f"{asym:.3e} exceeds sym_tol={sym_tol:.1e}"
        )
    if not lowest >= -eig_tol:
        raise ValueError(f"generator is not positive: min eigenvalue {lowest:.3e}")
    return np.exp(-t * rates)


def _semigroup_matrix(
    op: SuperOperator, t: float, mat: np.ndarray, eig_tol: float = 1e-12
) -> np.ndarray:
    check_nonnegative("semigroup time", t)
    mat = np.asarray(mat, dtype=np.complex128)
    if op.schur is not None:
        return _schur_semigroup(op, t, eig_tol) * mat
    res = _positive_resolution(op, eig_tol)
    return res.apply_function(lambda lam: np.exp(-t * lam), mat)


def semigroup_apply(
    op: SuperOperator, t: float, a: AlgebraElement, eig_tol: float = 1e-12
) -> AlgebraElement:
    """Evaluate e^{-t op} on an element.

    The generator must be GNS-self-adjoint and positive; a Schur
    generator c gives the Schur multiplier e^{-tc}, everything else goes
    through the spectral resolution.
    """
    if op.dim != a.dim:
        raise ValueError(
            f"level mismatch: map acts on dimension {op.dim}, element has {a.dim}"
        )
    return AlgebraElement(a.level, _semigroup_matrix(op, t, a.entries, eig_tol))


class SemigroupMap(SuperOperator):
    """e^{-t generator} frozen at one time, usable wherever a map is
    expected (Choi certification in particular)."""

    def __init__(self, generator: SuperOperator, t: float, eig_tol: float = 1e-12):
        super().__init__(generator.dim)
        self.generator = generator
        self.t = check_nonnegative("semigroup time", t)
        self.eig_tol = float(eig_tol)
        self.hermiticity_preserving = generator.hermiticity_preserving

    def apply_matrix(self, mat):
        return _semigroup_matrix(self.generator, self.t, mat, self.eig_tol)

    def dense_body(self):
        if self.generator.schur is not None:
            return _schur_body(_schur_semigroup(self.generator, self.t, self.eig_tol))
        res = _positive_resolution(self.generator, self.eig_tol)
        return res.function_body(lambda lam: np.exp(-self.t * lam))


# --------------------------------------------------------------------------
# Choi matrices and complete positivity
# --------------------------------------------------------------------------


def choi_matrix(op: SuperOperator, max_dim: int = DENSIFY_DIM_CAP) -> np.ndarray:
    """Block matrix whose (k, l) block is the image of the matrix unit e_kl.

    The map is completely positive iff the result is positive
    semidefinite. It is the index reshuffle of the dense body D (Choi,
    Linear Algebra Appl. 10, 1975): entry (k*d + i, l*d + j) of the Choi
    matrix is S(e_kl)_ij = D[i*d + j, k*d + l].
    """
    _check_budget(op.dim, max_dim, "Choi matrix")
    d = op.dim
    body = op.dense_body().reshape(d, d, d, d)
    return body.transpose(2, 0, 3, 1).reshape(d * d, d * d)


def choi_min_eigenvalue(
    op: SuperOperator, sym_tol: float = 1e-10, max_dim: int = DENSIFY_DIM_CAP
) -> float:
    """Smallest Choi eigenvalue; nonnegative up to tolerance iff the map is
    completely positive. Rejects maps whose Choi matrix is not Hermitian."""
    choi = choi_matrix(op, max_dim=max_dim)
    defect = np.abs(choi - choi.conj().T).max(initial=0.0)
    if not defect <= sym_tol * (1.0 + np.abs(choi).max(initial=0.0)):
        raise ValueError(
            f"Choi matrix is not Hermitian (defect {defect:.3e}); "
            "PSD test is undefined"
        )
    return float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0])


# --------------------------------------------------------------------------
# randomized semigroup suites
# --------------------------------------------------------------------------


def markov_check(
    op: SuperOperator,
    t_samples,
    n_samples: int,
    seed: int,
    tol: float,
) -> PropertyReport:
    """Sample contractions x with 0 <= x <= 1 and check that every Phi_t(x)
    keeps its spectrum inside [-tol, 1 + tol]."""
    t_samples = tuple(float(t) for t in t_samples)
    rng = np.random.default_rng(seed)
    worst = -np.inf
    failures = 0
    for _ in range(n_samples):
        x = random_matrix(op.dim, "contraction", rng)
        margin = -np.inf
        for t in t_samples:
            y = _semigroup_matrix(op, t, x)
            ev = np.linalg.eigvalsh(0.5 * (y + y.conj().T))
            margin = worst_of(margin, -ev[0], ev[-1] - 1.0)
        worst = worst_of(worst, margin)
        if not margin <= tol:
            failures += 1
    return PropertyReport(
        suite="markov",
        level=op.level,
        samples=n_samples,
        failures=failures,
        worst_margin=float(worst),
        seed=seed,
        tol=tol,
    )


def symmetry_conservativity_check(
    op: SuperOperator,
    samples: int,
    seed: int,
    tol: float,
    t_samples=(0.1, 1.0, 10.0),
) -> PropertyReport:
    """Check trace symmetry tau(Phi_t(x) y) = tau(x Phi_t(y)) on random
    pairs and unit preservation Phi_t(1) = 1.

    A broken unit counts as one failure on top of the per-sample count.
    """
    t_samples = tuple(float(t) for t in t_samples)
    rng = np.random.default_rng(seed)
    d = op.dim
    eye = np.eye(d, dtype=np.complex128)

    conserv = -np.inf
    for t in t_samples:
        drift = np.abs(_semigroup_matrix(op, t, eye) - eye).max()
        conserv = worst_of(conserv, drift)

    worst = conserv
    failures = 0 if conserv <= tol else 1
    for _ in range(samples):
        x = random_matrix(d, "general", rng)
        y = random_matrix(d, "general", rng)
        margin = -np.inf
        for t in t_samples:
            lhs = np.trace(_semigroup_matrix(op, t, x) @ y) / d
            rhs = np.trace(x @ _semigroup_matrix(op, t, y)) / d
            margin = worst_of(margin, abs(lhs - rhs))
        worst = worst_of(worst, margin)
        if not margin <= tol:
            failures += 1
    return PropertyReport(
        suite="symmetry",
        level=op.level,
        samples=samples,
        failures=failures,
        worst_margin=float(worst),
        seed=seed,
        tol=tol,
    )


def square_matrix_to_json(mat: np.ndarray) -> dict:
    """Dense superoperator / Choi export: dimension-keyed matrix JSON."""
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("can only export square matrices")
    return {"dim": mat.shape[0], "re": mat.real.tolist(), "im": mat.imag.tolist()}
