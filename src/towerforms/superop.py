"""Linear maps on a fixed-level matrix space.

Maps are stored structurally (diagonal complement, double-commutator
families, Schur multipliers, tower projections, sums/compositions) and
materialized to a dense matrix on vectorized inputs only on demand: each
class with a closed form writes its dense body directly, the others probe
the matrix-unit basis. Choi matrices are index reshuffles of dense bodies.

Vectorization convention (normative for dense bodies and Choi blocks):
row stacking, ``vec(a) = a.reshape(-1)`` in C order, so the matrix unit
e_kl maps to the standard basis vector at index k*dim + l.

Eigenproblems are solved in the Hermitian matrix-unit basis: the unitary
U whose column k*dim + k is vec(e_kk) and, for k < l, whose columns
p = k*dim + l and q = l*dim + k are vec((e_kl + e_lk)/sqrt 2) and
vec(i(e_kl - e_lk)/sqrt 2). The body of a Hermiticity-preserving
GNS-self-adjoint map, and the Choi matrix of a GNS-self-adjoint
Hermiticity-preserving map, are real symmetric there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .report import PropertyReport, worst_of
from .tower import AlgebraElement, check_hermitian, check_nonnegative, random_matrix
from .expectations import diagonal_part, partial_trace_matrix

__all__ = [
    "DENSIFY_DIM_CAP",
    "SYM_TOL",
    "EIG_TOL",
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
# Relative Hermitian defect allowed in a dense body or Choi matrix, and the
# imaginary part dropped in the Hermitian matrix-unit basis, per 1 + max|.|.
SYM_TOL = 1e-10
# A generator is positive when its least eigenvalue is at least
# -EIG_TOL (1 + its spectral norm).
EIG_TOL = 1e-12
# Hermitian defect allowed in map data (Schur coefficients, m_i and h).
_DATA_HERM_TOL = 1e-12


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


# --------------------------------------------------------------------------
# the Hermitian matrix-unit basis
# --------------------------------------------------------------------------

# The 2 x 2 block of U on the coordinates (p, q) = (k*d + l, l*d + k) of a
# pair k < l; U is the identity on the coordinates k*d + k.
_U_BLOCK = np.sqrt(0.5) * np.array([[1.0, 1.0j], [1.0, -1.0j]])
_PAIR_CHUNK = 64  # pairs of rows mixed at once along axis 0
_ROW_CHUNK = 8  # rows whose pairs of columns are mixed at once along axis 1


def _mix(x: np.ndarray, p: np.ndarray, q: np.ndarray, block: np.ndarray) -> None:
    (a, b), (c, e) = block
    xp, xq = x[p], x[q]
    x[p] = a * xp + b * xq
    x[q] = c * xp + e * xq


def _mix_pairs(x: np.ndarray, block: np.ndarray, axis: int = 0) -> None:
    """In place, the coordinates (p, q) = (k*d + l, l*d + k) of x along
    axis <- block @ those coordinates, for every pair k < l (x has d^2
    entries along axis). It goes a chunk at a time through the memory
    order of x, so that no temporary is larger than a chunk."""
    if x.ndim == 2 and not x.flags.c_contiguous:
        x, axis = x.T, 1 - axis
    d = math.isqrt(x.shape[axis])
    k, l = np.triu_indices(d, 1)
    rows_p, rows_q = k * d + l, l * d + k
    if axis == 0:
        for start in range(0, rows_p.size, _PAIR_CHUNK):
            chunk = slice(start, start + _PAIR_CHUNK)
            _mix(x, rows_p[chunk], rows_q[chunk], block)
    else:
        for start in range(0, x.shape[0], _ROW_CHUNK):
            _mix(x[start:start + _ROW_CHUNK].T, rows_p, rows_q, block)


def _to_hermitian_units(x: np.ndarray) -> None:
    """x <- U* x U in place, for a complex d^2 x d^2 array x."""
    _mix_pairs(x, _U_BLOCK.conj().T, axis=0)
    _mix_pairs(x, _U_BLOCK.T, axis=1)


def _from_hermitian_units(x: np.ndarray) -> None:
    """x <- U x U* in place, for a complex d^2 x d^2 array x."""
    _mix_pairs(x, _U_BLOCK, axis=0)
    _mix_pairs(x, _U_BLOCK.conj(), axis=1)


_DEFECT_ROWS = 64


def _hermitian_defect(mat: np.ndarray, herm: np.ndarray):
    """(max|mat - herm|, its (row, column), max|mat|) for herm = mat*,
    taken over blocks of rows so that no temporary is larger than a block.
    The first largest entry is the witness; a NaN wins and ends the scan."""
    defect, where, size = 0.0, (0, 0), 0.0
    for start in range(0, mat.shape[0], _DEFECT_ROWS):
        rows = slice(start, start + _DEFECT_ROWS)
        block = np.abs(mat[rows] - herm[rows])
        k = int(np.argmax(block))
        value = float(block.flat[k])
        size = max(size, float(np.abs(mat[rows]).max()))
        if not value <= defect:
            row, col = divmod(k, block.shape[1])
            defect, where = value, (start + row, col)
            if math.isnan(value):
                break
    return defect, where, size


def _hermitian_in_units(mat: np.ndarray, what: str) -> np.ndarray:
    """T = U* H U for H = (mat + mat*)/2, mat a complex d^2 x d^2 matrix
    whose relative Hermitian defect max|mat - mat*| / (1 + max|mat|) is
    within SYM_TOL; otherwise (NaN and inf included) a ValueError starting
    with what names the largest defect entry.

    The prelude of every eigenproblem here. Callers pass mat without
    keeping a reference to it, so that it is freed before the basis change.

    T is real symmetric up to rounding for the bodies and Choi matrices
    named in the module docstring. Its imaginary part is then dropped,
    and T returned as a real array, when that part has Frobenius norm at
    most SYM_TOL (1 + max|T|): by Weyl's inequality this moves no
    eigenvalue by more than the bound. Otherwise the complex T is returned.
    """
    herm = np.conjugate(mat.T, order="C")  # one transposed pass
    defect, (i, j), size = _hermitian_defect(mat, herm)
    if not defect / (1.0 + size) <= SYM_TOL:  # inf / inf is NaN: fails
        raise ValueError(f"{what}: |X - X*| has max {defect:.3e} at entry ({i}, {j})")
    herm += mat
    herm *= 0.5
    del mat
    with np.errstate(over="ignore", invalid="ignore"):
        _to_hermitian_units(herm)
        imag = herm.imag
        drift = np.sqrt(np.einsum("ij,ij->", imag, imag))
        if drift <= SYM_TOL * (1.0 + np.abs(herm).max(initial=0.0)):
            return herm.real.copy(order="K")
    return herm


class SuperOperator:
    """Base class: a linear map on the dim x dim complex matrices.

    Instances are immutable after construction; ``apply_matrix`` is a pure
    function of its input. Spectral resolutions are cached lazily.
    ``schur`` is the coefficient matrix c when the map is entrywise
    multiplication by c, else None: the dense body is then diag(vec(c))
    and the semigroup the Schur multiplier e^{-tc}.
    """

    schur: np.ndarray | None = None

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = int(dim)
        self._spectral: SpectralResolution | None = None
        self._schur_measure: tuple[np.ndarray, float, float] | None = None

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

    def __init__(self, dim: int):
        super().__init__(dim)
        self.schur = 1.0 - np.eye(self.dim)

    def apply_matrix(self, mat):
        mat = np.asarray(mat, dtype=np.complex128)
        return mat - diagonal_part(mat)


class SchurMultiplier(SuperOperator):
    """Entrywise multiplication by a Hermitian coefficient matrix."""

    def __init__(self, coeffs: np.ndarray):
        coeffs = check_hermitian("Schur coefficient matrix", coeffs, _DATA_HERM_TOL)
        if coeffs.ndim != 2 or coeffs.shape[0] != coeffs.shape[1]:
            raise ValueError("Schur coefficient matrix must be square")
        super().__init__(coeffs.shape[0])
        self.schur = coeffs

    def apply_matrix(self, mat):
        return self.schur * np.asarray(mat, dtype=np.complex128)


class TransposeMap(SuperOperator):
    """The transpose map: positive but not completely positive."""

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

    Finite data can still overflow: construction rejects a family whose
    Schur coefficients, or the entry bound 2 max|L| + 2 sum_i max|m_i|^2
    of its dense body (L = sum_i m_i^2 + h), are not finite.
    """

    def __init__(self, ms, h=None):
        mats = [m.entries if isinstance(m, AlgebraElement) else m for m in ms]
        if not mats:
            raise ValueError("need at least one commutator generator m_i")
        mats = [
            check_hermitian(f"commutator family m_{i}", m, _DATA_HERM_TOL)
            for i, m in enumerate(mats)
        ]
        dim = mats[0].shape[0]
        if any(m.shape != (dim, dim) for m in mats):
            raise ValueError("all m_i must be square matrices of one dimension")
        super().__init__(dim)
        self.ms = tuple(mats)
        if h is None:
            self.h = None
        else:
            h = h.entries if isinstance(h, AlgebraElement) else h
            h = check_hermitian("commutator family h", h, _DATA_HERM_TOL)
            if h.shape != (dim, dim):
                raise ValueError("h must match the dimension of the m_i")
            self.h = h
        with np.errstate(over="ignore", invalid="ignore"):
            if all(map(_is_diagonal, self.ms)) and (
                self.h is None or _is_diagonal(self.h)
            ):
                coeffs = np.zeros((dim, dim), dtype=np.complex128)
                for m in self.ms:
                    mu = np.diagonal(m)
                    delta = mu[:, None] - mu[None, :]
                    coeffs += delta * delta
                if self.h is not None:
                    eta = np.diagonal(self.h)
                    coeffs += eta[:, None] + eta[None, :]
                self.schur = coeffs
                bound = np.abs(coeffs).max()
                what = "its Schur coefficients are"
            else:
                self._left = sum(m @ m for m in self.ms)
                if self.h is not None:
                    self._left = self._left + self.h
                bound = 2.0 * np.abs(self._left).max() + 2.0 * sum(
                    np.abs(m).max() ** 2 for m in self.ms
                )
                what = "the entry bound of its dense body is"
        if not np.isfinite(bound):
            raise ValueError(
                f"commutator family overflows: {what} not finite "
                f"(max {bound}); rescale the m_i and h"
            )

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
        body = np.zeros((d * d, d * d), dtype=np.complex128)
        grid = body.reshape(d, d, d, d)  # [i, j, k, l]: row i*d + j, column k*d + l
        for j in range(d):
            grid[:, j, :, j] += self._left
            grid[j, :, j, :] += self._left.T
        for m in self.ms:
            body -= np.kron(2.0 * m, m.T)
        return body


class DenseMap(SuperOperator):
    """Dense dim^2 x dim^2 matrix acting on row-stacked inputs."""

    def __init__(self, matrix: np.ndarray):
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

    def apply_matrix(self, mat):
        return unvec(self.matrix @ vec(np.asarray(mat, dtype=np.complex128)), self.dim)

    def dense_body(self):
        return self.matrix


class TowerProjection(SuperOperator):
    """Orthogonal projection of the ambient level onto the embedded
    level-`target` subalgebra (condition down, embed back up)."""

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


def _check_budget(dim: int, what: str) -> None:
    if dim > DENSIFY_DIM_CAP:
        side = dim * dim
        bytes_needed = 16 * side * side
        raise ValueError(
            f"{what} needs a {side} x {side} complex matrix "
            f"(~{bytes_needed / 2**30:.2f} GiB) for dimension {dim}; "
            f"cap is DENSIFY_DIM_CAP={DENSIFY_DIM_CAP}"
        )


def densify(op: SuperOperator) -> DenseMap:
    """Materialize the map as a dense matrix on row-stacked inputs (see
    ``SuperOperator.dense_body``)."""
    _check_budget(op.dim, "densification")
    return DenseMap(op.dense_body())


@dataclass(frozen=True, eq=False)
class SpectralResolution:
    """Eigendecomposition of a GNS-self-adjoint map.

    eigenvalues are ascending. The orthonormal columns of ``basis``
    (dim^2 x dim^2) are the eigenvectors' coordinates in a frame: the
    Hermitian matrix units U of the module docstring when
    ``hermitian_units``, else the matrix units e_kl (a Schur map, whose
    basis is a permutation). The basis of a Hermiticity-preserving map is
    real, so its eigenvectors u_k are Hermitian matrices. A resolution
    exists only for a map that passed the SYM_TOL check, so a cached one
    needs no recheck.
    """

    dim: int
    eigenvalues: np.ndarray
    basis: np.ndarray
    hermitian_units: bool = True

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def max_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def eigenvectors(self) -> np.ndarray:
        """The matrices u_k, shape (dim^2, dim, dim), orthonormal for the
        GNS inner product: u_k is sqrt(dim) times the k-th basis vector."""
        frame = self.basis.astype(np.complex128)
        if self.hermitian_units:
            _mix_pairs(frame, _U_BLOCK)
        return (frame.T * np.sqrt(self.dim)).reshape(-1, self.dim, self.dim)

    def _coordinates(self, mat: np.ndarray) -> np.ndarray:
        """basis* F* vec(mat), F being the frame: the GNS coefficients
        times sqrt(dim)."""
        x = np.array(vec(mat), dtype=np.complex128)
        if self.hermitian_units:
            _mix_pairs(x, _U_BLOCK.conj().T)
        return self.basis.conj().T @ x

    def coefficients(self, mat: np.ndarray) -> np.ndarray:
        """GNS coefficients <u_k, mat>_2."""
        return self._coordinates(mat) / np.sqrt(self.dim)

    def apply_function(self, func, mat: np.ndarray) -> np.ndarray:
        """Evaluate f(map) on mat through the spectral sum."""
        x = self.basis @ (func(self.eigenvalues) * self._coordinates(mat))
        if self.hermitian_units:
            _mix_pairs(x, _U_BLOCK)
        return unvec(x, self.dim)

    def reconstruct(self, mat: np.ndarray) -> np.ndarray:
        return self.apply_function(lambda lam: lam, mat)

    def function_body(self, func) -> np.ndarray:
        """Dense body of f(map): F W f(Lambda) W* F* with W the basis and F
        the frame, one real product for a real basis."""
        w = self.basis
        body = np.asarray((w * func(self.eigenvalues)) @ w.conj().T, np.complex128)
        if self.hermitian_units:
            _from_hermitian_units(body)
        return body


_NOT_SELF_ADJOINT = "map is not GNS-self-adjoint"


def _measure_schur(op: SuperOperator) -> tuple[np.ndarray, float, float]:
    """(Re c, min Re c, max |Re c|) of a Schur map c, whose body
    diag(vec(c)) has spectrum Re c. The map must be GNS-self-adjoint:
    the relative asymmetry 2 max|Im c| / (1 + max|c|) of that body within
    SYM_TOL, which NaN fails. Checked once; only a map that passes is
    cached, so every call on a failing map fails again."""
    if op._schur_measure is None:
        c = op.schur
        asym = 2.0 * np.abs(c.imag).max() / (1.0 + np.abs(c).max())
        if not asym <= SYM_TOL:
            raise ValueError(
                f"{_NOT_SELF_ADJOINT}: relative asymmetry "
                f"{asym:.3e} exceeds SYM_TOL={SYM_TOL:.1e}"
            )
        rates = c.real.astype(np.float64)
        op._schur_measure = (rates, float(rates.min()), float(np.abs(rates).max()))
    return op._schur_measure


def spectral_resolve(op: SuperOperator) -> SpectralResolution:
    """Diagonalize a GNS-self-adjoint map.

    GNS self-adjointness is equivalent to Hermiticity of the dense body
    (the GNS inner product is a positive multiple of the Euclidean one on
    vectorized matrices); a body whose relative Hermitian defect exceeds
    SYM_TOL is rejected with the largest defect entry as witness. The
    resolution is cached on the map; a rejected map caches nothing.

    A Schur map c resolves in closed form: eigenvalues sorted Re c,
    eigenvectors sqrt(dim) e_kl. Any other map is resolved in the
    Hermitian matrix-unit basis, with a real ``eigh`` when the map
    preserves Hermiticity (see ``_hermitian_in_units``).
    """
    res = op._spectral
    if res is not None:
        return res
    d = op.dim
    if op.schur is not None:
        _check_budget(d, "densification")
        rates, _, _ = _measure_schur(op)
        order = np.argsort(vec(rates), kind="stable")
        res = SpectralResolution(
            dim=d,
            eigenvalues=vec(rates)[order],
            basis=np.eye(d * d)[:, order],
            hermitian_units=False,
        )
    else:
        herm = _hermitian_in_units(densify(op).matrix, _NOT_SELF_ADJOINT)
        w, basis = np.linalg.eigh(herm)
        res = SpectralResolution(dim=d, eigenvalues=w, basis=basis)
    op._spectral = res
    return res


# --------------------------------------------------------------------------
# semigroups
# --------------------------------------------------------------------------


def _check_positive(lowest: float, norm: float) -> None:
    """A generator is positive when its least eigenvalue is at least
    -EIG_TOL (1 + norm), norm being its spectral norm, the scale of
    ``eigh``'s rounding error. NaN fails."""
    bound = EIG_TOL * (1.0 + norm)
    if not lowest >= -bound:
        raise ValueError(
            f"generator is not positive: min eigenvalue {lowest:.3e} "
            f"below -EIG_TOL * (1 + norm) = {-bound:.3e}"
        )


def _positive_resolution(op: SuperOperator) -> SpectralResolution:
    res = spectral_resolve(op)
    norm = max(-res.min_eigenvalue, res.max_eigenvalue)
    _check_positive(res.min_eigenvalue, norm)
    return res


_MAX_FLOAT = float(np.finfo(np.float64).max)
_MAX_EXPONENT = math.log(_MAX_FLOAT)  # e^x overflows a double above it


def _decay(rates: np.ndarray, lowest: float, norm: float, t: float) -> np.ndarray:
    """e^{-t rates} for rates with least entry lowest and largest modulus
    norm. A rate within the positivity tolerance below zero can make the
    largest factor e^{-t lowest} overflow at large scale, which fails
    closed; a product t * rate that rounds to inf gives e^(-inf) = 0."""
    if -t * lowest > _MAX_EXPONENT:
        raise ValueError(
            f"semigroup overflows at t={t}: e^(-t * {lowest:.3e}) is not finite"
        )
    if t * norm >= _MAX_FLOAT:  # only then can t * rate overflow
        with np.errstate(over="ignore"):
            return np.exp(-t * rates)
    return np.exp(-t * rates)


def _spectral_decay(lam: np.ndarray, t: float) -> np.ndarray:
    """_decay on ascending eigenvalues."""
    lowest, highest = float(lam[0]), float(lam[-1])
    return _decay(lam, lowest, max(-lowest, highest), t)


def _schur_semigroup(op: SuperOperator, t: float) -> np.ndarray:
    """Coefficients e^{-t Re c} of the semigroup of a Schur generator c,
    after the checks the spectral path makes on the body diag(vec(c))."""
    rates, lowest, norm = _measure_schur(op)
    _check_positive(lowest, norm)
    return _decay(rates, lowest, norm, t)


def _semigroup_matrix(op: SuperOperator, t: float, mat: np.ndarray) -> np.ndarray:
    check_nonnegative("semigroup time", t)
    mat = np.asarray(mat, dtype=np.complex128)
    if op.schur is not None:
        return _schur_semigroup(op, t) * mat
    res = _positive_resolution(op)
    return res.apply_function(lambda lam: _spectral_decay(lam, t), mat)


def semigroup_apply(op: SuperOperator, t: float, a: AlgebraElement) -> AlgebraElement:
    """Evaluate e^{-t op} on an element.

    The generator must be GNS-self-adjoint and positive; a Schur
    generator c gives the Schur multiplier e^{-tc}, everything else goes
    through the spectral resolution.
    """
    if op.dim != a.dim:
        raise ValueError(
            f"level mismatch: map acts on dimension {op.dim}, element has {a.dim}"
        )
    return AlgebraElement(a.level, _semigroup_matrix(op, t, a.entries))


class SemigroupMap(SuperOperator):
    """e^{-t generator} frozen at one time, usable wherever a map is
    expected (Choi certification in particular)."""

    def __init__(self, generator: SuperOperator, t: float):
        super().__init__(generator.dim)
        self.generator = generator
        self.t = check_nonnegative("semigroup time", t)

    def apply_matrix(self, mat):
        return _semigroup_matrix(self.generator, self.t, mat)

    def dense_body(self):
        if self.generator.schur is not None:
            return _schur_body(_schur_semigroup(self.generator, self.t))
        res = _positive_resolution(self.generator)
        return res.function_body(lambda lam: _spectral_decay(lam, self.t))


# --------------------------------------------------------------------------
# Choi matrices and complete positivity
# --------------------------------------------------------------------------


def choi_matrix(op: SuperOperator) -> np.ndarray:
    """Block matrix whose (k, l) block is the image of the matrix unit e_kl.

    The map is completely positive iff the result is positive
    semidefinite. It is the index reshuffle of the dense body D (Choi,
    Linear Algebra Appl. 10, 1975): entry (k*d + i, l*d + j) of the Choi
    matrix is S(e_kl)_ij = D[i*d + j, k*d + l].
    """
    _check_budget(op.dim, "Choi matrix")
    d = op.dim
    body = op.dense_body().reshape(d, d, d, d)
    return body.transpose(2, 0, 3, 1).reshape(d * d, d * d)


def choi_min_eigenvalue(target) -> float:
    """Smallest Choi eigenvalue of a map, or of a Choi matrix already
    built with ``choi_matrix`` (left unchanged); nonnegative up to
    tolerance iff the map is completely positive. Rejects a Choi matrix
    that is not Hermitian within SYM_TOL: the PSD test is undefined there.

    For a GNS-self-adjoint map, S(e_ij)_kl = conj(S(e_kl)_ij), so the
    Choi matrix C satisfies F C F = conj(C) with F the swap of the two
    tensor legs. As F U = conj(U), U* C U is then real symmetric and the
    eigenvalues come from a real ``eigvalsh`` (see ``_hermitian_in_units``).
    """
    what = "Choi matrix is not Hermitian"
    if isinstance(target, SuperOperator):
        herm = _hermitian_in_units(choi_matrix(target), what)
    else:
        herm = _hermitian_in_units(np.asarray(target, np.complex128), what)
    return float(np.linalg.eigvalsh(herm)[0])


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
