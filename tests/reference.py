"""The per-sample oracle of the tests: the element API towerforms keeps out
of src/, because the CLI runs stacked kernels on arrays and never reaches
it.

Each function does one element's arithmetic in the plain way, so a
stacked kernel of towerforms that claims a sample's own bits is compared
with these by ==. The sampler draws what tower.gaussian_chunks draws for
one sample.
"""

import json
import math
from pathlib import Path

import numpy as np

from towerforms import tower
from towerforms.derivation import BimoduleVector, derive_factors, left_action, right_action
from towerforms.expectations import cond_expect
from towerforms.forms import eval_form_matrix
from towerforms.superop import (
    _DATA_HERM_TOL,
    _U_BLOCK,
    DENSIFY_DIM_CAP,
    SYM_TOL,
    ScaledMap,
    SuperOperator,
    _mix_pairs,
    _to_hermitian_units,
)
from towerforms.tower import (
    AlgebraElement,
    check_hermitian,
    clamp_spectrum,
    complex_gaussian,
    hermitian_part,
    matrix_vdot,
)

# --------------------------------------------------------------------------
# elements
# --------------------------------------------------------------------------


def identity(level: int) -> AlgebraElement:
    """The unit of the level-n algebra."""
    return AlgebraElement(level, np.eye(2 ** level))


def diagonal_projection(level: int, i: int) -> AlgebraElement:
    """The rank-one diagonal projection with 1 in entry (i, i)."""
    mat = np.zeros((2 ** level, 2 ** level))
    mat[i, i] = 1.0
    return AlgebraElement(level, mat)


def _check_levels(a: AlgebraElement, b: AlgebraElement) -> None:
    if a.level != b.level:
        raise ValueError(f"level mismatch: {a.level} vs {b.level}")


def normalized_trace(a: AlgebraElement) -> complex:
    """Trace divided by dimension, so the unit has trace 1."""
    return complex(np.trace(a.entries) / a.dim)


def product(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """The algebra product a b."""
    _check_levels(a, b)
    return AlgebraElement(a.level, a.entries @ b.entries)


def gns_inner(a: AlgebraElement, b: AlgebraElement) -> complex:
    """GNS inner product tau(a* b), conjugate-linear in the first slot."""
    _check_levels(a, b)
    return complex(matrix_vdot(a.entries, b.entries) / a.dim)


def gns_norm(a: AlgebraElement) -> float:
    return float(np.sqrt(max(gns_inner(a, a).real, 0.0)))


def embed(a: AlgebraElement, target_level: int) -> AlgebraElement:
    """Unital *-embedding into a higher level by right-appending identity
    legs, a -> kron(a, I): trace preserving and isometric for the GNS inner
    product because the traces are normalized."""
    if target_level < a.level:
        raise ValueError(f"cannot embed level {a.level} into lower level {target_level}")
    k = target_level - a.level
    if k == 0:
        return a
    return AlgebraElement(target_level, np.kron(a.entries, np.eye(2 ** k)))


def modular_conjugation(a: AlgebraElement) -> AlgebraElement:
    """The involution a -> a*; its fixed points are the Hermitian elements."""
    return AlgebraElement(a.level, a.entries.conj().T)


def diagonal_part(mat: np.ndarray) -> np.ndarray:
    """mat with its off-diagonal entries zeroed, over the last two axes: the
    expectation onto the diagonal subalgebra."""
    *lead, d, _ = mat.shape
    out = np.zeros(mat.shape, dtype=mat.dtype)
    out.reshape(*lead, d * d)[..., :: d + 1] = np.diagonal(mat, axis1=-2, axis2=-1)
    return out


def project_P(a: AlgebraElement, n: int) -> AlgebraElement:
    """Orthogonal projection of the ambient level onto the embedded level-n
    subalgebra: condition down, then embed back up."""
    return embed(cond_expect(a, n), a.level)


def project_Q(a: AlgebraElement, n: int) -> AlgebraElement:
    """Complementary projection: a minus its level-n part."""
    return AlgebraElement(a.level, a.entries - project_P(a, n).entries)


# --------------------------------------------------------------------------
# seeded sampling
# --------------------------------------------------------------------------

def gaussian_general(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian matrix with independent unit-variance re/im entries:
    one sample of one matrix of tower.gaussian_chunks."""
    return complex_gaussian(rng.standard_normal((2, dim, dim)))


def gaussian_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    return hermitian_part(gaussian_general(dim, rng))


def random_matrix(dim: int, kind: str, rng: np.random.Generator) -> np.ndarray:
    """hermitian: Gaussian-ensemble Hermitian with unit-scale entries;
    contraction / psd: Hermitian with spectrum clamped into [0, 1] / [0, inf)."""
    if kind == "general":
        return gaussian_general(dim, rng)
    if kind == "hermitian":
        return gaussian_hermitian(dim, rng)
    if kind == "contraction":
        return clamp_spectrum(gaussian_hermitian(dim, rng), 0.0, 1.0)
    if kind == "psd":
        return clamp_spectrum(gaussian_hermitian(dim, rng), 0.0, None)
    raise ValueError(
        f"unknown kind {kind!r}; expected general, hermitian, contraction or psd"
    )


def random_element(level: int, kind: str, seed: int) -> AlgebraElement:
    """Seed-reproducible random element (see random_matrix)."""
    rng = np.random.default_rng(seed)
    return AlgebraElement(level, random_matrix(2 ** level, kind, rng))


# --------------------------------------------------------------------------
# matrix JSON writing
# --------------------------------------------------------------------------


def element_to_json(a: AlgebraElement) -> dict:
    return {"level": a.level, "re": a.entries.real.tolist(), "im": a.entries.imag.tolist()}


def save_element(a: AlgebraElement, path) -> None:
    Path(path).write_text(json.dumps(element_to_json(a)) + "\n")


# --------------------------------------------------------------------------
# maps and forms
# --------------------------------------------------------------------------


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


class BlockwiseMap(SuperOperator):
    """An inner map on every d x d block of a (k*d) x (k*d) matrix: the
    canonical amplification of a map to k x k block matrices."""

    def __init__(self, inner: SuperOperator, k: int):
        if k < 1:
            raise ValueError(f"block count must be >= 1, got {k}")
        super().__init__(k * inner.dim)
        self.inner = inner
        self.k = int(k)

    def apply_matrix(self, mat):
        k, d = self.k, self.inner.dim
        mat = np.asarray(mat, dtype=np.complex128)
        # the (..., k, k, d, d) view whose [..., i, j] is block (i, j)
        blocks = mat.reshape(*mat.shape[:-2], k, d, k, d).swapaxes(-3, -2)
        return self.inner.apply_matrix(blocks).swapaxes(-3, -2).reshape(mat.shape)


def apply(op: SuperOperator, a: AlgebraElement) -> AlgebraElement:
    """A map on a level-tagged element."""
    if op.dim != a.dim:
        raise ValueError(
            f"level mismatch: map acts on dimension {op.dim}, element has {a.dim}"
        )
    return AlgebraElement(a.level, op.apply_matrix(a.entries))


def eigenvectors(res) -> np.ndarray:
    """The matrices u_k of a SpectralResolution, shape (dim^2, dim, dim),
    orthonormal for the GNS inner product: u_k is sqrt(dim) times the k-th
    basis vector, taken out of the Hermitian matrix units."""
    d = math.isqrt(len(res.eigenvalues))
    frame = res.basis.astype(np.complex128)
    _mix_pairs(frame, _U_BLOCK)
    return (frame.T * np.sqrt(d)).reshape(-1, d, d)


def hermitian_in_units(mat: np.ndarray, what: str) -> np.ndarray:
    """superop._hermitian_in_units with two buffers: the defect and its
    first witness over the whole matrix, then (mat + mat*)/2 formed in a new
    array from one conjugate transpose and taken into the Hermitian matrix
    units. mat is left unchanged."""
    herm = np.conjugate(mat.T, order="C")
    asym = np.abs(mat - herm)
    k = int(np.argmax(asym))
    defect, (i, j) = float(asym.flat[k]), divmod(k, asym.shape[1])
    if not defect / (1.0 + float(np.abs(mat).max())) <= SYM_TOL:
        raise ValueError(f"{what}: |X - X*| has max {defect:.3e} at entry ({i}, {j})")
    herm += mat
    herm *= 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        _to_hermitian_units(herm)
        imag = herm.imag
        drift = np.sqrt(np.einsum("ij,ij->", imag, imag))
        if drift <= SYM_TOL * (1.0 + np.abs(herm).max(initial=0.0)):
            return herm.real.copy(order="K")
    return herm


def choi_reshuffle(body: np.ndarray) -> np.ndarray:
    """The Choi matrix of a dense body D by one copying reshuffle: entry
    (k*d + i, l*d + j) is D[i*d + j, k*d + l]."""
    d = math.isqrt(body.shape[0])
    return body.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)


def eval_form(gen: SuperOperator, a: AlgebraElement) -> float:
    """<gen(a), a>_2; real and nonnegative for the forms built here."""
    if a.dim != gen.dim:
        raise ValueError(
            f"level mismatch: form acts on dimension {gen.dim}, element has {a.dim}"
        )
    return eval_form_matrix(gen, a.entries)


def wedge_one(a: AlgebraElement) -> AlgebraElement:
    """GNS-Hilbert projection of a Hermitian element onto the operator
    interval {x : 0 <= x <= 1}: eigenvalue clamping into [0, 1]. The
    element must be finite and Hermitian within SYM_TOL."""
    mat = check_hermitian("wedge input", a.entries, SYM_TOL)
    sym = 0.5 * (mat + mat.conj().T)
    return AlgebraElement(a.level, clamp_spectrum(sym, 0.0, 1.0))


class AmplifiedForm(ScaledMap):
    """k times gen acting blockwise (see amplified_form). Its level is
    gen's, whose blocks it acts on, so a check reports the amplification at
    the base level, also where k gen.dim is no power of two."""

    def __init__(self, gen: SuperOperator, k: int):
        super().__init__(float(k), BlockwiseMap(gen, k))
        self.base = gen

    @property
    def level(self) -> int:
        return self.base.level


def amplified_form(gen: SuperOperator, k: int) -> SuperOperator:
    """The generator of the extension to k x k block matrices whose energy
    is the sum of the base-form energies of the blocks: k times gen acting
    blockwise, the factor k compensating the normalized trace of the larger
    space, at gen's level (see AmplifiedForm). k = 1 returns gen itself."""
    if k < 1:
        raise ValueError(f"amplification order must be >= 1, got {k}")
    if k == 1:
        return gen
    if k * gen.dim > DENSIFY_DIM_CAP:
        raise ValueError(
            f"amplified dimension {k * gen.dim} exceeds cap "
            f"DENSIFY_DIM_CAP={DENSIFY_DIM_CAP}"
        )
    return AmplifiedForm(gen, k)


# --------------------------------------------------------------------------
# margins
# --------------------------------------------------------------------------


def worst_of(*margins) -> float:
    """The largest margin, NaN when any margin is NaN (Python's max drops a
    NaN that is not its first argument)."""
    return float(np.max(margins))


def probe(f: BimoduleVector, probes: np.ndarray) -> np.ndarray:
    """f(j) v for the components of f and the columns v of probes, formed
    as left[j] @ (right[j] @ probes) with right @ probes one product of the
    row-stacked right factors: the leibniz suite's probe of one term of
    one sample's product-rule defect."""
    k, r, d = f.right.shape
    return f.left @ (f.right.reshape(k * r, d) @ probes).reshape(k, r, -1)


def inner_trace(f: BimoduleVector) -> complex:
    """tau(<f, f>) as the leibniz suite forms it: the normalized sum of the
    diagonal of bimodule_inner(f, f)'s product, each entry one dot of a
    column of the row-stacked right factors with the same column of the
    row-stacked G_j right[j]."""
    d = 2 ** f.carrier_level
    weighted = (f.left.conj().swapaxes(-1, -2) @ f.left @ f.right).reshape(-1, d)
    rows = f.right.reshape(-1, d)
    return complex(np.einsum("ki,ki->i", rows.conj(), weighted).sum() / d)


def product_rule_factors(a: np.ndarray, b: np.ndarray):
    """The rank-6 factors of the product-rule defect d(ab) - (d(a) b +
    a d(b)) of a level-n pair, or of each pair of a stack, as BimoduleVector
    difference and sum concatenate them: d(ab)'s, then d(a) b's with its
    left factor negated, then a d(b)'s likewise. Their full product
    (max_abs_factors) is the second certificate of the probed margin."""
    *lead, d, _ = a.shape
    left = np.empty((*lead, d, d, 6), dtype=np.complex128)
    right = np.empty((*lead, d, 6, d), dtype=np.complex128)
    left[..., 0:2], right[..., 0:2, :] = derive_factors(a @ b)
    da_left, da_right = derive_factors(a)
    left[..., 2:4] = -da_left
    right[..., 2:4, :] = right_action(da_right, b)
    db_left, right[..., 4:6, :] = derive_factors(b)
    left[..., 4:6] = -left_action(a, db_left)
    return left, right


def max_abs_factors(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """max |entry| of the components left[..., j, :, :] @ right[..., j, :, :]
    of a vector, or of each vector of a stack (shape of the leading axes),
    NaN when any entry is NaN: the full product that the leibniz suite's
    probes stand in for. The components are multiplied out in blocks whose
    products and their abs, 24 d^2 bytes a component, fit
    tower.POOL_CHUNK_BYTES (one component at the least), so no full stack
    is held."""
    *lead, k, d, r = left.shape
    lefts, rights = left.reshape(-1, d, r), right.reshape(-1, r, d)
    block = max(1, tower.POOL_CHUNK_BYTES // (24 * d * d))
    comp = np.empty(len(lefts))
    for s in range(0, len(lefts), block):
        prod = lefts[s:s + block] @ rights[s:s + block]
        comp[s:s + block] = np.abs(prod).max(axis=(-2, -1))
        del prod
    return comp.reshape(*lead, k).max(axis=-1)
