"""Generator-backed quadratic forms and their Dirichlet-property machinery.

The central example is the diagonal form <(I - B)a, a>_2 over the
complement of the diagonal expectation, together with its commutator
presentation, block-matrix amplifications, restrictions to lower tower
levels and the construction of a top-level form from a compatible family
of per-level forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .report import PropertyReport, worst_of
from .tower import (
    AlgebraElement,
    check_hermitian,
    clamp_spectrum,
    gaussian_general,
    gaussian_hermitian,
)
from .expectations import cond_expect, partial_trace_matrix
from .superop import (
    DENSIFY_DIM_CAP,
    SYM_TOL,
    BlockwiseMap,
    ComposedMap,
    DiagonalComplement,
    DoubleCommutatorFamily,
    ScaledMap,
    SuperOperator,
    TowerProjection,
    spectral_resolve,
)

__all__ = [
    "QuadraticForm",
    "CompatibleFamily",
    "FamilyCompatibilityError",
    "diagonal_form",
    "commutator_generator",
    "commutator_form",
    "eval_form",
    "eval_form_matrix",
    "commutator_form_eval",
    "wedge_one",
    "dirichlet_check",
    "amplified_form",
    "restricted_form",
    "operator_norm",
    "energy_inner",
    "family_compatibility_margin",
    "build_from_family",
]

# Largest spread of a lifted matrix unit's energies along the tower that
# build_from_family accepts as stable.
STABILIZATION_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """A quadratic form a -> <generator(a), a>_2 with a self-adjoint,
    positive generator."""

    generator: SuperOperator
    label: str = ""

    @property
    def dim(self) -> int:
        return self.generator.dim

    @property
    def level(self) -> int:
        return self.generator.level

    def __repr__(self) -> str:
        return f"QuadraticForm(dim={self.dim}, label={self.label!r})"


def diagonal_form(level: int) -> QuadraticForm:
    """The form of the diagonal-complement generator at the given level."""
    return QuadraticForm(DiagonalComplement(2 ** level), label="diagonal")


def _diag_projections(dim: int) -> list[np.ndarray]:
    ps = []
    for i in range(dim):
        p = np.zeros((dim, dim), dtype=np.complex128)
        p[i, i] = 1.0
        ps.append(p)
    return ps


def commutator_generator(level: int) -> DoubleCommutatorFamily:
    """sum_j [p_j, [p_j, .]] over the rank-one diagonal projections; equals
    twice the diagonal complement."""
    return DoubleCommutatorFamily(_diag_projections(2 ** level), h=None)


def commutator_form(level: int) -> QuadraticForm:
    return QuadraticForm(commutator_generator(level), label="commutator")


def eval_form_matrix(form: QuadraticForm, mat: np.ndarray) -> float:
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.shape != (form.dim, form.dim):
        raise ValueError(
            f"form acts on {form.dim} x {form.dim} matrices, got {mat.shape}"
        )
    image = form.generator.apply_matrix(mat)
    return float(np.vdot(image, mat).real / form.dim)


def eval_form(form: QuadraticForm, a: AlgebraElement) -> float:
    """<generator(a), a>_2; real and nonnegative for the forms built here."""
    if a.dim != form.dim:
        raise ValueError(
            f"level mismatch: form acts on dimension {form.dim}, element has {a.dim}"
        )
    return eval_form_matrix(form, a.entries)


def commutator_form_eval(a: AlgebraElement, n: int) -> float:
    """The literal commutator sum sum_i tau([p_i, b] [p_i, b]*) with b the
    level-n expectation of a.

    Equals twice the diagonal-form energy of b; both normalizations are
    kept available on purpose.
    """
    b = cond_expect(a, n).entries
    d = 2 ** n
    # [p_i, b] is row i of b minus column i of b, so its squared Frobenius
    # norm is |b_{i,:}|^2 + |b_{:,i}|^2 - 2|b_ii|^2: no projection is built.
    sq = np.abs(b) ** 2
    per_projection = sq.sum(axis=1) + sq.sum(axis=0) - 2.0 * np.diagonal(sq)
    return float(per_projection.sum() / d)


def wedge_one(a: AlgebraElement) -> AlgebraElement:
    """GNS-Hilbert projection of a Hermitian element onto the operator
    interval {x : 0 <= x <= 1}: eigenvalue clamping into [0, 1]. The
    element must be finite and Hermitian within SYM_TOL."""
    mat = check_hermitian("wedge input", a.entries, SYM_TOL)
    sym = 0.5 * (mat + mat.conj().T)
    return AlgebraElement(a.level, clamp_spectrum(sym, 0.0, 1.0))


def dirichlet_check(
    form: QuadraticForm,
    samples: int,
    seed: int,
    tol: float,
    level: int | None = None,
) -> PropertyReport:
    """Randomized Dirichlet-property suite.

    For Hermitian samples checks the contraction E(a ^ 1) <= E(a); for
    general samples checks the reality E(a*) = E(a).
    """
    if level is None:
        level = form.level
    rng = np.random.default_rng(seed)
    d = form.dim
    worst = -np.inf
    failures = 0
    for _ in range(samples):
        a = gaussian_hermitian(d, rng)
        wedged = clamp_spectrum(a, 0.0, 1.0)
        contraction = eval_form_matrix(form, wedged) - eval_form_matrix(form, a)
        g = gaussian_general(d, rng)
        reality = abs(eval_form_matrix(form, g.conj().T) - eval_form_matrix(form, g))
        margin = worst_of(contraction, reality)
        worst = worst_of(worst, margin)
        if not margin <= tol:
            failures += 1
    return PropertyReport(
        suite="dirichlet",
        level=level,
        samples=samples,
        failures=failures,
        worst_margin=float(worst),
        seed=seed,
        tol=tol,
    )


def amplified_form(form: QuadraticForm, k: int) -> QuadraticForm:
    """Extension to k x k block matrices whose energy is the sum of the
    base-form energies of the blocks.

    The generator acts blockwise; the factor k compensates the normalized
    trace of the larger space so the value equals the blockwise sum.
    """
    if k < 1:
        raise ValueError(f"amplification order must be >= 1, got {k}")
    if k == 1:
        return form
    if k * form.dim > DENSIFY_DIM_CAP:
        raise ValueError(
            f"amplified dimension {k * form.dim} exceeds cap "
            f"DENSIFY_DIM_CAP={DENSIFY_DIM_CAP}"
        )
    return QuadraticForm(
        ScaledMap(float(k), BlockwiseMap(form.generator, k)),
        label=f"{form.label} amplified k={k}",
    )


def restricted_form(form: QuadraticForm, n: int) -> QuadraticForm:
    """The form a -> E(P_n a) with generator P_n o generator o P_n; bounded
    with operator norm at most that of the original generator."""
    level = form.level
    if n > level:
        raise ValueError(f"cannot restrict level-{level} form to higher level {n}")
    if n == level:
        return form
    proj = TowerProjection(level, n)
    return QuadraticForm(
        ComposedMap([proj, form.generator, proj]),
        label=f"{form.label} restricted to level {n}",
    )


def operator_norm(form: QuadraticForm) -> float:
    """Largest generator eigenvalue magnitude (the bound in the tail
    estimate E(Q_n a) <= ||generator|| ||Q_n a||_2^2)."""
    res = spectral_resolve(form.generator)
    return float(max(abs(res.min_eigenvalue), abs(res.max_eigenvalue)))


def energy_inner(form: QuadraticForm, a: AlgebraElement, b: AlgebraElement) -> complex:
    """<a, b>_1 = <generator(a), b>_2 + <a, b>_2."""
    if a.level != b.level:
        raise ValueError(f"level mismatch: {a.level} vs {b.level}")
    if a.dim != form.dim:
        raise ValueError(
            f"level mismatch: form acts on dimension {form.dim}, element has {a.dim}"
        )
    image = form.generator.apply_matrix(a.entries)
    return complex(
        (np.vdot(image, b.entries) + np.vdot(a.entries, b.entries)) / form.dim
    )


# --------------------------------------------------------------------------
# compatible families
# --------------------------------------------------------------------------


class FamilyCompatibilityError(ValueError):
    """Raised when two consecutive family members disagree; carries the
    witnessing level, matrix-unit pair and both sesquilinear values."""

    def __init__(self, level, unit, entry, lhs, rhs):
        self.level = level
        self.unit = unit
        self.entry = entry
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"family incompatible between levels {level} and {level + 1}: "
            f"on unit pair e{unit}, e{entry} the level-{level} value is "
            f"{lhs:.6g} but the embedded level-{level + 1} value is {rhs:.6g}"
        )


@dataclass(frozen=True, eq=False)
class CompatibleFamily:
    """Quadratic forms at levels 1..N meant to agree along the embeddings."""

    forms: tuple[QuadraticForm, ...]

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
    the matrix-unit bases, with its witness.

    The quadratic forms agree on a level iff the associated sesquilinear
    forms agree on all pairs of matrix units, which is what is compared.
    Returns (worst, witness) with witness = (level, (i, j), (k, l), lhs, rhs).
    A NaN deviation is kept as the worst, with the first NaN as witness.
    """
    worst = 0.0
    witness = None
    for n in range(1, family.top_level):
        low = family.forms[n - 1].generator
        high = family.forms[n].generator
        d = 2 ** n
        probe = np.zeros((d, d), dtype=np.complex128)
        eye2 = np.eye(2)
        for i in range(d):
            for j in range(d):
                probe[i, j] = 1.0
                lhs_mat = low.apply_matrix(probe) / d
                image = high.apply_matrix(np.kron(probe, eye2))
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


def build_from_family(
    family: CompatibleFamily,
    ambient_level: int | None = None,
    tol: float = 1e-12,
) -> QuadraticForm:
    """Recover the top-level form from a compatible family.

    Verifies the compatibility invariant on full matrix-unit bases and
    the stabilization of the per-level values along the tower: for any
    element living at level m, the level-n evaluations are constant for
    n >= m (within STABILIZATION_TOL), so the top-level form is the
    finite-scale limit.
    """
    top = family.top_level
    if ambient_level is not None and ambient_level != top:
        raise ValueError(
            f"ambient level {ambient_level} does not match family top level {top}"
        )
    worst, witness = family_compatibility_margin(family)
    if not worst <= tol:
        level, unit, entry, lhs, rhs = witness
        raise FamilyCompatibilityError(level, unit, entry, lhs, rhs)

    for m in range(1, top):
        d = 2 ** m
        probe = np.zeros((d, d), dtype=np.complex128)
        for i in range(d):
            for j in range(d):
                probe[i, j] = 1.0
                lifted = AlgebraElement(top, np.kron(probe, np.eye(2 ** (top - m))))
                probe[i, j] = 0.0
                values = [
                    eval_form(family.forms[n - 1], cond_expect(lifted, n))
                    for n in range(m, top + 1)
                ]
                spread = np.ptp(values)
                if not spread <= STABILIZATION_TOL:
                    raise FamilyCompatibilityError(
                        m, (i, j), (i, j), values[0], values[-1]
                    )
    return family.forms[-1]
