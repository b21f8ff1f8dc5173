"""Conditional expectations on the tower: the trace-normalized partial
trace onto the leading legs (the level-n subalgebra), on a matrix or a
stack, and cond_expect, the same on a level-tagged element.
"""

from __future__ import annotations

import numpy as np

from .tower import AlgebraElement

__all__ = ["partial_trace_matrix", "cond_expect"]


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

