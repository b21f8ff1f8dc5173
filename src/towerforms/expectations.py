"""Conditional expectations on the tower.

cond_expect is the trace-normalized partial trace onto the leading legs
(the level-n subalgebra), project_P / project_Q are the induced orthogonal
projections of the ambient level onto / off that subalgebra, and
diagonal_part is the expectation onto the diagonal subalgebra.
"""

from __future__ import annotations

import numpy as np

from .tower import AlgebraElement, embed

__all__ = [
    "partial_trace_matrix",
    "diagonal_part",
    "cond_expect",
    "project_P",
    "project_Q",
]


def partial_trace_matrix(mat: np.ndarray, level: int, target: int) -> np.ndarray:
    """Normalized partial trace of a level-`level` matrix, or of each matrix
    of a stack (leading axes), over its trailing legs, leaving a
    level-`target` matrix.

    Each traced leg contributes a factor tau_1, so the map is unital.
    """
    k = level - target
    if k == 0:
        return mat
    d_keep, d_tr = 2 ** target, 2 ** k
    r = mat.reshape(*mat.shape[:-2], d_keep, d_tr, d_keep, d_tr)
    return np.einsum("...itjt->...ij", r) / d_tr


def diagonal_part(mat: np.ndarray) -> np.ndarray:
    """mat with its off-diagonal entries zeroed, over the last two axes: the
    expectation onto the diagonal subalgebra, sum_i p_i mat p_i over the
    rank-one diagonal projections p_i."""
    *lead, d, _ = mat.shape
    out = np.zeros(mat.shape, dtype=mat.dtype)
    out.reshape(*lead, d * d)[..., :: d + 1] = np.diagonal(mat, axis1=-2, axis2=-1)
    return out


def cond_expect(a: AlgebraElement, n: int) -> AlgebraElement:
    """Expectation of a level-N element onto level n <= N (partial trace
    over legs n+1..N with tau_1 normalization per leg)."""
    if n > a.level:
        raise ValueError(
            f"cannot condition level-{a.level} element down to higher level {n}"
        )
    if n < 0:
        raise ValueError(f"target level must be nonnegative, got {n}")
    return AlgebraElement(n, partial_trace_matrix(a.entries, a.level, n))


def project_P(a: AlgebraElement, n: int) -> AlgebraElement:
    """Orthogonal projection of the ambient level onto the embedded level-n
    subalgebra: condition down, then embed back up."""
    return embed(cond_expect(a, n), a.level)


def project_Q(a: AlgebraElement, n: int) -> AlgebraElement:
    """Complementary projection: a minus its level-n part."""
    return a - project_P(a, n)

