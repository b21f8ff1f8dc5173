"""Linear maps on a fixed-level matrix space.

Maps are stored structurally (diagonal complement, double-commutator
families, tower projections, semigroups, scalings, compositions)
and materialized to a dense matrix on vectorized inputs only on demand: each
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

from .report import PropertyReport, fold
from .tower import (
    check_hermitian,
    check_nonnegative,
    clamp_spectrum,
    finite_spectra,
    gaussian_chunks,
    hermitian_part,
)
from .expectations import partial_trace_matrix

__all__ = [
    "DENSIFY_DIM_CAP",
    "SEMIGROUP_LEVEL_CAP",
    "SEMIGROUP_TIMES",
    "SYM_TOL",
    "EIG_TOL",
    "SuperOperator",
    "DiagonalComplement",
    "TransposeMap",
    "DoubleCommutatorFamily",
    "DenseMap",
    "TowerProjection",
    "ScaledMap",
    "ComposedMap",
    "SemigroupMap",
    "SpectralResolution",
    "vec",
    "densify",
    "spectral_resolve",
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
# The semigroup checks run at these times; the markov, symmetry and choi
# suites run them at levels 1 .. min(level, SEMIGROUP_LEVEL_CAP).
SEMIGROUP_LEVEL_CAP = 3
SEMIGROUP_TIMES = (0.1, 1.0, 10.0)


def vec(mat: np.ndarray) -> np.ndarray:
    """Row-stacking vectorization."""
    return np.asarray(mat).reshape(-1)


def _apply_body(body: np.ndarray, mat) -> np.ndarray:
    """A dense body on a matrix or a stack: one product with the row-stacked matrices."""
    mat = np.asarray(mat, dtype=np.complex128)
    return (mat.reshape(-1, body.shape[0]) @ body.T).reshape(mat.shape)


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
    entries along axis). It goes a chunk at a time, through the memory
    order of a C-ordered x, so that no temporary is larger than a chunk;
    any layout gives the same result."""
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


_BLOCK = 64  # rows, or rows and columns, of a block of a d^2 x d^2 array


def _hermitian_defect(mat: np.ndarray):
    """(max|mat - mat*|, its (row, column), max|mat|), taken over blocks of
    rows so that no temporary is larger than a block. The first largest
    entry is the witness; a NaN wins and ends the scan."""
    defect, where, size = 0.0, (0, 0), 0.0
    for start in range(0, mat.shape[0], _BLOCK):
        rows = slice(start, start + _BLOCK)
        block = np.abs(mat[rows] - np.conjugate(mat[:, rows].T))
        k = int(np.argmax(block))
        value = float(block.flat[k])
        size = max(size, float(np.abs(mat[rows]).max()))
        if not value <= defect:
            row, col = divmod(k, block.shape[1])
            defect, where = value, (start + row, col)
            if math.isnan(value):
                break
    return defect, where, size


def _block_pairs(n: int, block: int):
    """(rows, cols) of each block on or above the diagonal of an n x n grid
    of block x block blocks; (cols, rows) is its mirror."""
    for start in range(0, n, block):
        for other in range(start, n, block):
            yield slice(start, start + block), slice(other, other + block)


def _hermitian_part_in_place(mat: np.ndarray) -> None:
    """mat <- (mat + mat*)/2, a block and its mirror at a time, each with
    the arithmetic of the whole-array conj(mat.T) + mat, * 0.5."""
    for rows, cols in _block_pairs(mat.shape[0], _BLOCK):
        upper = np.conjugate(mat[cols, rows].T, order="C")
        upper += mat[rows, cols]
        upper *= 0.5
        lower = np.conjugate(mat[rows, cols].T, order="C")
        lower += mat[cols, rows]
        lower *= 0.5
        mat[cols, rows] = lower
        mat[rows, cols] = upper


def _hermitian_in_units(mat: np.ndarray, what: str) -> np.ndarray:
    """T = U* H U for H = (mat + mat*)/2, mat a complex d^2 x d^2 matrix
    whose relative Hermitian defect max|mat - mat*| / (1 + max|mat|) is
    within SYM_TOL; otherwise (NaN and inf included) a ValueError starting
    with what names the largest defect entry.

    The prelude of every eigenproblem here. mat is overwritten: H and then
    U* H U are written into it, block by block, so callers pass an array
    they own and no longer need. The defect is scanned before any entry
    changes, and a rejected mat is left as it was.

    T is real symmetric up to rounding for the bodies and Choi matrices
    named in the module docstring. Its imaginary part is then dropped,
    and T returned as a real copy, when that part has Frobenius norm at
    most SYM_TOL (1 + max|T|): by Weyl's inequality this moves no
    eigenvalue by more than the bound. Otherwise mat itself is returned.
    """
    defect, (i, j), size = _hermitian_defect(mat)
    if not defect / (1.0 + size) <= SYM_TOL:  # inf / inf is NaN: fails
        raise ValueError(f"{what}: |X - X*| has max {defect:.3e} at entry ({i}, {j})")
    _hermitian_part_in_place(mat)
    with np.errstate(over="ignore", invalid="ignore"):
        _to_hermitian_units(mat)
        imag = mat.imag
        drift = np.sqrt(np.einsum("ij,ij->", imag, imag))
        if drift <= SYM_TOL * (1.0 + np.abs(mat).max(initial=0.0)):
            return mat.real.copy(order="K")
    return mat


def _transpose_in_place(x: np.ndarray, block: int) -> None:
    """x <- x with its first two axes swapped, for x of shape (n, n, ...),
    a block of block x block leading entries and its mirror at a time, so
    that no temporary is larger than a block."""
    for rows, cols in _block_pairs(x.shape[0], block):
        upper = x[cols, rows].swapaxes(0, 1).copy()
        x[cols, rows] = x[rows, cols].swapaxes(0, 1)
        x[rows, cols] = upper


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
        """The map on a dim x dim matrix or each matrix of a stack (..., dim, dim),
        as a new array of the input's shape; each matrix gets what its own call gives."""
        raise NotImplementedError

    def dense_body(self) -> np.ndarray:
        """The dim^2 x dim^2 matrix of the map on row-stacked inputs, as a
        new array that the caller owns and may overwrite.

        Besides diag(vec(schur)), this default probes the matrix units e_kl
        (column k*dim + l), one row k per call; closed forms override it.
        No budget check here: callers go through ``densify`` or ``choi_matrix``.
        """
        if self.schur is not None:
            return np.diag(vec(self.schur).astype(np.complex128))
        d = self.dim
        dense = np.empty((d * d, d * d), dtype=np.complex128)
        for k in range(d):
            units = np.zeros((d, d, d), dtype=np.complex128)  # units[l] = e_kl
            units[:, k] = np.eye(d)
            dense[:, k * d:(k + 1) * d] = self.apply_matrix(units).reshape(d, d * d).T
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
        # A C-ordered copy, so that the reshape below is a view, with its
        # diagonal set to x - x: the bits of mat minus its diagonal part (x - 0 off it).
        out = np.array(mat, dtype=np.complex128, order="C")
        diag = out.reshape(*out.shape[:-2], -1)[..., :: out.shape[-1] + 1]
        diag -= diag
        return out


class TransposeMap(SuperOperator):
    """The transpose map: positive but not completely positive."""

    def apply_matrix(self, mat):
        return np.asarray(mat, dtype=np.complex128).swapaxes(-1, -2).copy()

    def dense_body(self):
        # the swap permutation: vec(a^T)[i*d + j] = vec(a)[j*d + i]
        d = self.dim
        rows = np.arange(d * d)
        body = np.zeros((d * d, d * d), dtype=np.complex128)
        body[rows, (rows % d) * d + rows // d] = 1.0
        return body


class DoubleCommutatorFamily(SuperOperator):
    """a -> sum_i [m_i, [m_i, a]] + h a + a h with Hermitian m_i and h,
    each given as an array.

    With all m_i the rank-one diagonal projections and h = 0 this equals
    twice the diagonal complement.

    An m_i may be given as a vector mu_i, standing for diag(mu_i). When
    every m_i and h are exactly diagonal, with diagonals mu_i and eta,
    the family is the Schur multiplier with coefficients
    sum_i (mu_i[j] - mu_i[k])^2 + eta[j] + eta[k] = G_jj + G_kk - 2 G_jk
    + eta[j] + eta[k], G = sum_i mu_i mu_i^T; it is collapsed to those
    coefficients (``schur``, real when every imaginary part is 0) at
    construction with one product for G, and ``ms`` is None. Otherwise
    ``schur`` is None, ``ms`` holds every m_i as a matrix and the family is
    evaluated with matrix products.

    Finite data can still overflow: construction rejects a family whose
    Schur coefficients, or the entry bound 2 max|L| + 2 sum_i max|m_i|^2
    of its dense body (L = sum_i m_i^2 + h), are not finite.
    """

    def __init__(self, ms, h=None):
        mats = [
            check_hermitian(f"commutator family m_{i}", m, _DATA_HERM_TOL)
            for i, m in enumerate(ms)
        ]
        if not mats:
            raise ValueError("need at least one commutator generator m_i")
        dim = mats[0].shape[-1]
        if any(m.shape not in ((dim,), (dim, dim)) for m in mats):
            raise ValueError(
                "all m_i must be square matrices (or their diagonals) of one dimension"
            )
        super().__init__(dim)
        if h is None:
            self.h = None
        else:
            h = check_hermitian("commutator family h", h, _DATA_HERM_TOL)
            if h.shape != (dim, dim):
                raise ValueError("h must match the dimension of the m_i")
            self.h = h
        diagonal = all(m.ndim == 1 or _is_diagonal(m) for m in mats) and (
            self.h is None or _is_diagonal(self.h)
        )
        self.ms = None if diagonal else tuple(
            np.diag(m) if m.ndim == 1 else m for m in mats
        )
        with np.errstate(over="ignore", invalid="ignore"):
            if diagonal:
                mus = np.stack([m if m.ndim == 1 else np.diagonal(m) for m in mats])
                del mats
                gram = mus.T @ mus
                squares = np.diagonal(gram)
                coeffs = squares[:, None] + squares[None, :] - 2.0 * gram
                if self.h is not None:
                    eta = np.diagonal(self.h)
                    coeffs += eta[:, None] + eta[None, :]
                # real data: half the memory, and a real factor times a
                # complex matrix casts to the same complex values
                self.schur = coeffs if coeffs.imag.any() else coeffs.real.copy()
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
        # body -= kron(2 m, m^T), whose [i*d + j, k*d + l] is 2 m[i, k] m^T[j, l]
        term = np.empty_like(grid)
        for m in self.ms:
            np.multiply((2.0 * m)[:, None, :, None], m.T[None, :, None, :], out=term)
            grid -= term
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
        return _apply_body(self.matrix, mat)

    def dense_body(self):
        return self.matrix.copy()


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
        mat = np.asarray(mat, dtype=np.complex128)
        pt = partial_trace_matrix(mat, self.ambient_level, self.target_level)
        # pt kron I by broadcasting: [..., i, s, j, t] = pt[..., i, j] I[s, t]
        eye = np.eye(2 ** (self.ambient_level - self.target_level))
        return (pt[..., :, None, :, None] * eye[:, None, :]).reshape(mat.shape)


class ScaledMap(SuperOperator):
    """factor times an inner map; a Schur multiplier c scales to factor * c."""

    def __init__(self, factor: complex, inner: SuperOperator):
        super().__init__(inner.dim)
        self.factor = complex(factor)
        self.inner = inner
        if inner.schur is not None:
            self.schur = self.factor * inner.schur

    def apply_matrix(self, mat):
        return self.factor * self.inner.apply_matrix(mat)

    def dense_body(self):
        return self.factor * self.inner.dense_body()


class ComposedMap(SuperOperator):
    """Composition in the mathematical order: maps[0] o maps[1] o ... so the
    rightmost factor is applied first."""

    def __init__(self, maps):
        maps = tuple(maps)
        if not maps:
            raise ValueError("empty composition; compose at least one map")
        if len({m.dim for m in maps}) != 1:
            raise ValueError("composition factors must share one dimension")
        super().__init__(maps[0].dim)
        self.maps = maps

    def apply_matrix(self, mat):
        out = np.asarray(mat, dtype=np.complex128)
        for m in reversed(self.maps):
            out = m.apply_matrix(out)
        return out


# --------------------------------------------------------------------------
# densification, spectral analysis
# --------------------------------------------------------------------------


def _check_budget(dim: int, what: str) -> None:
    if dim > DENSIFY_DIM_CAP:
        side = dim * dim
        centi_gib = (16 * side * side * 100 + 2**29) >> 30  # exact at any size
        raise ValueError(
            f"{what} needs a {side} x {side} complex matrix "
            f"(~{centi_gib // 100}.{centi_gib % 100:02d} GiB) for dimension {dim}; "
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
    (dim^2 x dim^2) are the eigenvectors' coordinates in the Hermitian
    matrix units U of the module docstring. The basis of a
    Hermiticity-preserving map is real, so its eigenvectors u_k are
    Hermitian matrices. A resolution exists only for a map that passed
    the SYM_TOL check, so a cached one needs no recheck.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def max_eigenvalue(self) -> float:
        return float(self.eigenvalues[-1])

    def function_body(self, func) -> np.ndarray:
        """Dense body of f(map): U W f(Lambda) W* U* with W the basis, one
        real product for a real basis."""
        w = self.basis
        body = np.asarray((w * func(self.eigenvalues)) @ w.conj().T, np.complex128)
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

    The map is resolved in the Hermitian matrix-unit basis, with a real
    ``eigh`` when it preserves Hermiticity (see ``_hermitian_in_units``).
    """
    res = op._spectral
    if res is None:
        herm = _hermitian_in_units(densify(op).matrix, _NOT_SELF_ADJOINT)
        w, basis = np.linalg.eigh(herm)
        res = op._spectral = SpectralResolution(eigenvalues=w, basis=basis)
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


_MAX_EXPONENT = math.log(np.finfo(np.float64).max)  # e^x overflows a double above it


def _decay(rates: np.ndarray, lowest: float, t: float) -> np.ndarray:
    """e^{-t rates} for rates with least entry lowest. A rate within the
    positivity tolerance below zero can make the largest factor e^{-t
    lowest} overflow at large scale, which fails closed; a product t * rate
    that rounds to inf gives e^(-inf) = 0."""
    if -t * lowest > _MAX_EXPONENT:
        raise ValueError(
            f"semigroup overflows at t={t}: e^(-t * {lowest:.3e}) is not finite"
        )
    with np.errstate(over="ignore"):
        return np.exp(-t * rates)


class SemigroupMap(SuperOperator):
    """e^{-t generator} frozen at one time, usable wherever a map is
    expected. The generator must be GNS-self-adjoint and positive.

    A Schur generator c is checked once, here, and the semigroup is the
    Schur multiplier ``schur`` = e^{-t Re c}. Any other generator's body
    U W e^{-t Lambda} W* U* comes from its spectral resolution, built on
    each call and never kept: a kept d^2 x d^2 body would raise the peak
    memory of a Choi certificate, which holds one more of that size.
    """

    def __init__(self, generator: SuperOperator, t: float):
        super().__init__(generator.dim)
        self.generator = generator
        self.t = check_nonnegative("semigroup time", t)
        if generator.schur is not None:
            rates, lowest, norm = _measure_schur(generator)
            _check_positive(lowest, norm)
            self.schur = _decay(rates, lowest, self.t)

    def apply_matrix(self, mat):
        mat = np.asarray(mat, dtype=np.complex128)
        if self.schur is not None:
            return self.schur * mat
        return _apply_body(self.dense_body(), mat)

    def dense_body(self):
        if self.schur is not None:
            return super().dense_body()
        res = spectral_resolve(self.generator)
        lowest = res.min_eigenvalue
        norm = max(-lowest, res.max_eigenvalue)
        _check_positive(lowest, norm)
        return res.function_body(lambda lam: _decay(lam, lowest, self.t))


# --------------------------------------------------------------------------
# Choi matrices and complete positivity
# --------------------------------------------------------------------------


def choi_matrix(op: SuperOperator) -> np.ndarray:
    """Block matrix whose (k, l) block is the image of the matrix unit e_kl.

    The map is completely positive iff the result is positive
    semidefinite. It is the index reshuffle of the dense body D (Choi,
    Linear Algebra Appl. 10, 1975): entry (k*d + i, l*d + j) of the Choi
    matrix is S(e_kl)_ij = D[i*d + j, k*d + l]. The reshuffle realigns the
    body from ``dense_body`` in place, so the result is that array: the
    d^2 x d^2 transpose, then the swap of the middle two legs.
    """
    _check_budget(op.dim, "Choi matrix")
    d = op.dim
    body = op.dense_body()
    _transpose_in_place(body, _BLOCK)  # [k*d + l, i*d + j] = D[i*d + j, k*d + l]
    legs = body.reshape(d, d, d, d)  # [k, l, i, j]
    # the middle legs swapped, in blocks of about _BLOCK^2 entries
    _transpose_in_place(legs.transpose(1, 2, 0, 3), max(1, _BLOCK // d))  # [k, i, l, j]
    return body


def choi_min_eigenvalue(target) -> float:
    """Smallest Choi eigenvalue of a map, or of a Choi matrix already
    built with ``choi_matrix`` (left unchanged: its copy is converted);
    nonnegative up to tolerance iff the map is completely positive.
    Rejects a Choi matrix that is not Hermitian within SYM_TOL: the PSD
    test is undefined there.

    For a GNS-self-adjoint map, S(e_ij)_kl = conj(S(e_kl)_ij), so the
    Choi matrix C satisfies F C F = conj(C) with F the swap of the two
    tensor legs. As F U = conj(U), U* C U is then real symmetric and the
    eigenvalues come from a real ``eigvalsh`` (see ``_hermitian_in_units``).
    A map's Choi matrix is built and converted in one d^2 x d^2 array.
    """
    what = "Choi matrix is not Hermitian"
    if isinstance(target, SuperOperator):
        herm = _hermitian_in_units(choi_matrix(target), what)
    else:
        herm = _hermitian_in_units(np.array(target, np.complex128), what)
    return float(np.linalg.eigvalsh(herm)[0])


# --------------------------------------------------------------------------
# randomized semigroup suites
# --------------------------------------------------------------------------


def _semigroup_maps(op: SuperOperator) -> list[SuperOperator]:
    """The semigroup of op at each time in SEMIGROUP_TIMES, every body
    built once: a non-Schur semigroup becomes the DenseMap of its body."""
    maps = [SemigroupMap(op, t) for t in SEMIGROUP_TIMES]
    return [m if m.schur is not None else DenseMap(m.dense_body()) for m in maps]


def markov_check(op: SuperOperator, samples: int, seed: int, tol: float) -> PropertyReport:
    """Sample contractions x with 0 <= x <= 1 and check that every Phi_t(x),
    t in SEMIGROUP_TIMES, keeps its spectrum inside [-tol, 1 + tol].

    The samples are drawn and checked a chunk at a time (see
    tower.gaussian_chunks) with stacked eigh/eigvalsh calls that do the
    per-sample arithmetic, so the report is byte-identical to evaluating
    one sample at a time. A sample with a NaN margin counts as a failure,
    and so does a sample that is never checked. Each Phi_t is built once,
    before the draw: a non-Schur generator's body once per time, not once
    per chunk.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    level = op.level
    maps = _semigroup_maps(op)
    rng = np.random.default_rng(seed)
    margins = np.full((samples, 2 * len(SEMIGROUP_TIMES)), np.nan)  # row i: sample i
    # A sample's working bytes, in complex d x d matrices: clamp_spectrum's
    # as in dirichlet_check (5), or a map's image with the two stacks of its
    # Hermitian part (3); 7 leave room for the draw (2) and the spectra.
    nbytes = 16 * 7 * op.dim ** 2
    for rows, (x,) in gaussian_chunks(rng, samples, op.dim, 1, nbytes):
        x = clamp_spectrum(hermitian_part(x), 0.0, 1.0)
        for k, phi in enumerate(maps):
            y = phi.apply_matrix(x)
            ev = finite_spectra(np.linalg.eigvalsh, hermitian_part(y))
            margins[rows, 2 * k] = -ev[:, 0]
            margins[rows, 2 * k + 1] = ev[:, -1] - 1.0
    return fold("markov", level, seed, tol, margins)


def symmetry_conservativity_check(
    op: SuperOperator, samples: int, seed: int, tol: float
) -> PropertyReport:
    """Check trace symmetry tau(Phi_t(x) y) = tau(x Phi_t(y)) on random
    pairs and unit preservation Phi_t(1) = 1, t in SEMIGROUP_TIMES.

    A broken unit counts as one failure on top of the per-sample count, and
    so does a pair that is never checked. The pairs are drawn and checked a
    chunk at a time (see tower.gaussian_chunks) with stacked products and
    traces that do the per-sample arithmetic, so the report is
    byte-identical to evaluating one pair at a time. As in markov_check,
    each Phi_t, and so each non-Schur body, is built once, before the draw.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    level, d = op.level, op.dim
    maps = _semigroup_maps(op)
    rng = np.random.default_rng(seed)
    eye = np.eye(d, dtype=np.complex128)
    margins = np.full((samples + 1, len(SEMIGROUP_TIMES)), np.nan)
    margins[0] = [np.abs(phi.apply_matrix(eye) - eye).max() for phi in maps]
    pairs = margins[1:]  # row i: pair i, after the unit's row
    # A sample's working bytes, in complex d x d matrices: the pair, its
    # stack and that stack's image (6), and the two products (2); 11 leave
    # room for the draw (4) and a map's own copies of its input.
    nbytes = 16 * 11 * d * d
    for rows, (x, y) in gaussian_chunks(rng, samples, d, 2, nbytes):
        for k, phi in enumerate(maps):
            phi_x, phi_y = phi.apply_matrix(np.stack((x, y)))
            lhs = np.trace(phi_x @ y, axis1=-2, axis2=-1) / d
            rhs = np.trace(x @ phi_y, axis1=-2, axis2=-1) / d
            diff = lhs - rhs
            pairs[rows, k] = np.hypot(diff.real, diff.imag)  # abs() of each scalar
    return fold("symmetry", level, seed, tol, margins, samples=samples)


def square_matrix_to_json(mat: np.ndarray) -> dict:
    """Dense superoperator / Choi export: dimension-keyed matrix JSON."""
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("can only export square matrices")
    return {"dim": mat.shape[0], "re": mat.real.tolist(), "im": mat.imag.tolist()}
