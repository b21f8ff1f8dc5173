"""Quadratic forms, each given by its generator, and their Dirichlet-property
machinery.

On a finite level a form is E(a) = <L a, a>_2 for its GNS-self-adjoint,
positive generator L, and E and L determine each other; so every function
here takes the form as its generator, a SuperOperator. The central example
is the diagonal complement I - B of the diagonal expectation, together with
the commutator presentation and the construction of a top-level form from
a compatible family of per-level forms.

A family is compared in Schur coefficients: the compression of a Schur
generator c_{n+1} to the embedded level n multiplies entrywise by the
normalized partial trace of c_{n+1} (see family_compatibility_margin), so
compatibility and stabilization cost O(4^n) per level and no matrix unit
is probed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tower import (
    AlgebraElement,
    check_nonnegative,
    clamp_spectrum,
    hermitian_part,
    matrix_vdot,
)
from .expectations import cond_expect, partial_trace_matrix
from .superop import DoubleCommutatorFamily, SuperOperator

__all__ = [
    "CompatibleFamily",
    "FamilyCompatibilityError",
    "commutator_generator",
    "form_energies",
    "eval_form_matrix",
    "commutator_energies",
    "commutator_form_eval",
    "dirichlet_check",
    "family_compatibility_margin",
    "build_from_family",
]

# Largest spread of a lifted matrix unit's energies along the tower that
# build_from_family accepts as stable.
STABILIZATION_TOL = 1e-10


def commutator_generator(level: int) -> DoubleCommutatorFamily:
    """sum_j [p_j, [p_j, .]] over the rank-one diagonal projections, each
    given as its diagonal (a row of the identity); equals twice the
    diagonal complement."""
    return DoubleCommutatorFamily(list(np.eye(2 ** level)), h=None)


def form_energies(gen: SuperOperator, mats: np.ndarray) -> np.ndarray:
    """<gen(x), x>_2 for a matrix x, or for each matrix of a stack, with one
    call of the generator on the whole stack. Each energy is computed as for
    one matrix.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    return matrix_vdot(gen.apply_matrix(mats), mats).real / gen.dim


def eval_form_matrix(gen: SuperOperator, mat: np.ndarray) -> float:
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.shape != (gen.dim, gen.dim):
        raise ValueError(
            f"form acts on {gen.dim} x {gen.dim} matrices, got {mat.shape}"
        )
    return float(form_energies(gen, mat))


def commutator_energies(b: np.ndarray) -> np.ndarray:
    """sum_i tau([p_i, b] [p_i, b]*) for a level-n matrix b, or for each
    matrix of a stack, over the rank-one diagonal projections p_i.

    [p_i, b] is row i of b minus column i of b, so its squared Frobenius
    norm is |b_{i,:}|^2 + |b_{:,i}|^2 - 2|b_ii|^2: no projection is built.
    """
    sq = np.abs(b) ** 2
    per_projection = (
        sq.sum(axis=-1) + sq.sum(axis=-2) - 2.0 * np.diagonal(sq, axis1=-2, axis2=-1)
    )
    return per_projection.sum(axis=-1) / b.shape[-1]


def commutator_form_eval(a: AlgebraElement, n: int) -> float:
    """The literal commutator sum sum_i tau([p_i, b] [p_i, b]*) with b the
    level-n expectation of a (see commutator_energies).

    Equals twice the diagonal-form energy of b; both normalizations are
    kept available on purpose.
    """
    return float(commutator_energies(cond_expect(a, n).entries))


def dirichlet_check(gen: SuperOperator, a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The Dirichlet-property margins of the form of gen on a stack of
    samples (a, g), one row (contraction, reality) per sample: the
    contraction E(h ^ 1) - E(h) on the Hermitian part h of a, and the
    reality |E(g*) - E(g)|. Stacked eigh and energy calls do each sample's
    own arithmetic, and a NaN entry gives NaN margins (see
    tower.finite_spectra)."""
    a = hermitian_part(a)
    wedged = clamp_spectrum(a, 0.0, 1.0)
    contraction = form_energies(gen, wedged) - form_energies(gen, a)
    del a, wedged
    reality = np.abs(form_energies(gen, g.conj().swapaxes(-1, -2)) - form_energies(gen, g))
    return np.stack((contraction, reality), axis=-1)


# --------------------------------------------------------------------------
# compatible families
# --------------------------------------------------------------------------


class FamilyCompatibilityError(ValueError):
    """Raised when two consecutive family members disagree; carries the
    witnessing level, matrix-unit pair and both sesquilinear values (None
    when a member has no Schur coefficients)."""

    def __init__(self, level, unit, entry, lhs, rhs):
        self.level = level
        self.unit = unit
        self.entry = entry
        self.lhs = lhs
        self.rhs = rhs
        detail = "a member has no Schur coefficients to compare" if unit is None else (
            f"on unit pair e{unit}, e{entry} the level-{level} value is "
            f"{lhs:.6g} but the embedded level-{level + 1} value is {rhs:.6g}"
        )
        super().__init__(
            f"family incompatible between levels {level} and {level + 1}: {detail}"
        )


@dataclass(frozen=True, eq=False)
class CompatibleFamily:
    """The generators of quadratic forms at levels 1..N meant to agree along
    the embeddings."""

    forms: tuple[SuperOperator, ...]

    def __post_init__(self):
        forms = tuple(self.forms)
        if not forms:
            raise ValueError("family must contain at least one form")
        for idx, f in enumerate(forms):
            if f.level != idx + 1:
                raise ValueError(
                    f"family member {idx} must live at level {idx + 1}, "
                    f"got level {f.level}"
                )
        object.__setattr__(self, "forms", forms)

    @property
    def top_level(self) -> int:
        return len(self.forms)


def family_compatibility_margin(family: CompatibleFamily):
    """Worst sesquilinear deviation between consecutive family members on
    the matrix-unit bases, with its witness, from the Schur coefficients.

    Let L_n multiply entrywise by c_n (d x d, d = 2^n). With the README's
    legs, (x kron I)[2i+s, 2j+t] = x[i,j] delta_st, so the normalized
    partial trace E_n over the last leg gives E_n(L_{n+1}(x kron I))[i,j]
    = (1/2) sum_s c_{n+1}[2i+s, 2j+s] x[i,j]: the compression E_n o
    L_{n+1} o (. kron I) multiplies entrywise by pt(c_{n+1}) =
    partial_trace_matrix(c_{n+1}, n+1, n). As <z, y kron I>_2 at level
    n+1 is <E_n(z), y>_2 at level n, the sesquilinear values of the two
    members on a unit pair (e_ij, e_kl) differ by (c_n - pt(c_{n+1}))[i,j]
    / d when (k, l) = (i, j) and by 0 otherwise. The worst deviation is
    therefore max_n max |c_n / d - pt(c_{n+1}) / d|, O(d^2) per level.

    Returns (worst, witness), witness = (level, (i, j), (i, j), lhs, rhs)
    at the first largest entry (C order) of the first level reaching the
    worst, lhs = <L_n e_ij, e_ij>_2 = conj(c_n[i,j]) / d and rhs its
    embedded level-(n+1) counterpart conj(pt(c_{n+1})[i,j]) / d; None
    when every deviation is 0. A NaN deviation is kept as the worst, with
    the first NaN as witness. A member without ``schur`` cannot be
    compared: its level pairs deviate by inf, witness (level, None, None,
    None, None).
    """
    worst = 0.0
    witness = None
    for n in range(1, family.top_level):
        low = family.forms[n - 1].schur
        high = family.forms[n].schur
        if low is None or high is None:
            local, candidate = math.inf, (n, None, None, None, None)
        else:
            d = 2 ** n
            lhs = low / d
            rhs = partial_trace_matrix(high, n + 1, n) / d
            dev = np.abs(lhs - rhs)
            first = int(np.argmax(dev))  # the first largest entry, or first NaN
            local, unit = float(dev.flat[first]), divmod(first, d)
            # conjugated as complex numbers: a real coefficient gets the
            # imaginary part -0.0, as a complex one with imaginary part 0 does
            values = complex(lhs[unit]).conjugate(), complex(rhs[unit]).conjugate()
            candidate = (n, unit, unit, *values)
        if not local <= worst and not np.isnan(worst):
            worst, witness = local, candidate
    return worst, witness


def _stabilization_values(family: CompatibleFamily, m: int) -> np.ndarray:
    """Re pt(c_n, n, m) / 2^m stacked over n = m..N (see build_from_family)."""
    forms = family.forms[m - 1:]
    return np.stack(
        [partial_trace_matrix(f.schur, f.level, m).real for f in forms]
    ) / 2 ** m


def build_from_family(family: CompatibleFamily, tol: float = 1e-12) -> SuperOperator:
    """Recover the top-level form from a compatible family: its generator,
    the family's top member itself.

    Verifies the compatibility invariant (family_compatibility_margin
    within the finite tol; a member without Schur coefficients deviates by
    inf) and the stabilization of the per-level values along the tower:
    for any element living at level m, the level-n evaluations are
    constant for n >= m (within STABILIZATION_TOL), so the top-level form
    is the finite-scale limit.

    Stabilization is checked on the level-m matrix units e_ij lifted to
    the top. The level-n expectation of the lift is e_ij kron I_{2^(n-m)},
    whose energy under L_n = c_n o . is sum_s c_n[i 2^(n-m) + s, j 2^(n-m)
    + s] / 2^n = pt(c_n, n, m)[i,j] / 2^m, pt the normalized partial trace
    to level m. A unit's spread is thus the range over n of Re pt(c_n, n,
    m)[i,j] / 2^m; the first unit (by m, then C order) whose spread is not
    within the tolerance, NaN included, is the witness.
    """
    top = family.top_level
    check_nonnegative("family compatibility tol", tol)
    worst, witness = family_compatibility_margin(family)
    if not worst <= tol:
        raise FamilyCompatibilityError(*witness)
    for m in range(1, top):
        values = _stabilization_values(family, m)
        unstable = np.flatnonzero(~(np.ptp(values, axis=0) <= STABILIZATION_TOL))
        if unstable.size:
            unit = divmod(int(unstable[0]), 2 ** m)
            lhs, rhs = float(values[(0, *unit)]), float(values[(-1, *unit)])
            raise FamilyCompatibilityError(m, unit, unit, lhs, rhs)
    return family.forms[-1]
