"""The derivation into the finite Hilbert bimodule over the tower.

derive(a, n) collects the commutators of the level-n expectation of a
with every rank-one diagonal projection; the carrier is the direct sum of
2^n copies of the level-n algebra with componentwise left/right actions
and an algebra-valued inner product. The bimodule is a direct sum of
trivial bimodules by construction, which is the strong-locality witness.

A vector is stored as rank factors: read-only complex arrays ``left`` of
shape (2^level, d, r) and ``right`` of shape (2^level, r, d), component j
being ``left[j] @ right[j]``. Every component of ``derive`` has rank at
most 2, so the actions and the inner product cost O(k d^2 r) instead of
the O(k d^3) of dense components; ranks add under ``+`` and ``-``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tower import AlgebraElement
from .expectations import cond_expect

__all__ = [
    "BimoduleVector",
    "derive",
    "bimodule_left",
    "bimodule_right",
    "bimodule_inner",
    "derive_factors",
    "left_action",
    "right_action",
    "inner_factors",
]


@dataclass(frozen=True, eq=False)
class BimoduleVector:
    """2^level components at a common carrier level d = 2^carrier_level,
    held as rank factors: component j is ``left[j] @ right[j]`` with
    ``left`` of shape (2^level, d, r) and ``right`` of shape (2^level, r, d).

    Each factor is copied once at construction; the stored copies are
    read-only and share no memory with the inputs.
    """

    level: int
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        left = np.array(self.left, dtype=np.complex128)  # copies, frozen below
        right = np.array(self.right, dtype=np.complex128)
        k = 2 ** self.level
        d, r = left.shape[1:] if left.ndim == 3 else (0, 0)
        if (
            left.shape != (k, d, r)
            or right.shape != (k, r, d)
            or r < 1
            or d < 1
            or d & (d - 1)
        ):
            raise ValueError(
                f"level-{self.level} vector needs factors of shapes ({k}, d, r) "
                f"and ({k}, r, d) with d a power of two and r >= 1, got "
                f"{left.shape} and {right.shape}"
            )
        for name, factor in (("left", left), ("right", right)):
            factor.setflags(write=False)
            object.__setattr__(self, name, factor)

    @property
    def carrier_level(self) -> int:
        return self.left.shape[1].bit_length() - 1

    @property
    def stack(self) -> np.ndarray:
        """The components as one read-only (2^level, d, d) array."""
        stack = self.left @ self.right
        stack.setflags(write=False)
        return stack

    def __add__(self, other: "BimoduleVector") -> "BimoduleVector":
        return self._concat(other, other.left)

    def __sub__(self, other: "BimoduleVector") -> "BimoduleVector":
        return self._concat(other, -other.left)

    def _concat(self, other: "BimoduleVector", other_left: np.ndarray) -> "BimoduleVector":
        """The sum of self and the vector with factors (other_left, other.right)."""
        self._check_compatible(other)
        return BimoduleVector(
            self.level,
            np.concatenate((self.left, other_left), axis=2),
            np.concatenate((self.right, other.right), axis=1),
        )

    def _check_compatible(self, other: "BimoduleVector") -> None:
        if self.level != other.level or self.carrier_level != other.carrier_level:
            raise ValueError(
                f"bimodule mismatch: level {self.level}/{other.level}, "
                f"carrier {self.carrier_level}/{other.carrier_level}"
            )


def _check_carrier(a: AlgebraElement, f: BimoduleVector) -> None:
    if a.level != f.carrier_level:
        raise ValueError(
            f"level mismatch: element at {a.level}, carrier at {f.carrier_level}"
        )


# --------------------------------------------------------------------------
# factor kernels: one vector, or a stack of vectors along leading axes
# --------------------------------------------------------------------------


def derive_factors(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank factors of the derivation of a level-n expectation b, or of each
    matrix of a stack: component j is [p_j, b] = e_j b[j, :] - b[:, j] e_j^T,
    so left[j] = [e_j, -b[:, j]] and right[j] = [b[j, :]; e_j^T]. left is a
    view of the left factors stored side by side, one (d, 2d) array per
    matrix, the layout left_action multiplies, so it reads them without a
    copy."""
    *lead, d, _ = b.shape
    j = np.arange(d)
    left = np.zeros((*lead, d, d, 2), dtype=np.complex128).swapaxes(-3, -2)
    left[..., j, j, 0] = 1.0
    left[..., 1] = -b.swapaxes(-1, -2)  # left[..., j, :, 1] = -b[..., :, j]
    right = np.zeros((*lead, d, 2, d), dtype=np.complex128)
    right[..., 0, :] = b  # right[..., j, 0, :] = b[..., j, :]
    right[..., j, 1, j] = 1.0
    return left, right


def left_action(a: np.ndarray, left: np.ndarray) -> np.ndarray:
    """Left factors of a . f: one product of a with the left factors side
    by side, (d, d) @ (d, k r), whose column block j is a f(j)'s left
    factor, so no component's block reads another's entries; both may
    carry leading axes. The result is a view of that product."""
    *lead, k, d, r = left.shape
    side = left.swapaxes(-3, -2).reshape(*lead, d, k * r)
    return (a @ side).reshape(*lead, d, k, r).swapaxes(-3, -2)


def right_action(right: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Right factors of f . a: one product of the row-stacked right factors
    with a; both may carry leading axes."""
    *lead, k, r, d = right.shape
    return (right.reshape(*lead, k * r, d) @ a).reshape(right.shape)


def inner_factors(f_left, f_right, g_left, g_right) -> np.ndarray:
    """sum_j f(j)* g(j) from rank factors, with leading axes allowed.

    With the small Gram blocks G_j = left_f[j]* left_g[j] of shape
    (r_f, r_g), the sum is sum_j right_f[j]* G_j right_g[j]: one product of
    the row-stacked right_f with the row-stacked G_j right_g[j].
    """
    *lead, k, rf, d = f_right.shape
    gram = f_left.conj().swapaxes(-1, -2) @ g_left
    rows_g = (gram @ g_right).reshape(*lead, k * rf, d)
    rows_f = f_right.reshape(*lead, k * rf, d)
    return rows_f.conj().swapaxes(-1, -2) @ rows_g


# --------------------------------------------------------------------------
# the element API
# --------------------------------------------------------------------------


def derive(a: AlgebraElement, n: int) -> BimoduleVector:
    """Component j is [p_j, E_n a] with E_n a the level-n expectation of a,
    at rank 2 (see derive_factors). Zero exactly when E_n a is diagonal."""
    return BimoduleVector(n, *derive_factors(cond_expect(a, n).entries))


def bimodule_left(a: AlgebraElement, f: BimoduleVector) -> BimoduleVector:
    """(a . f)(j) = a f(j) (see left_action)."""
    _check_carrier(a, f)
    return BimoduleVector(f.level, left_action(a.entries, f.left), f.right)


def bimodule_right(f: BimoduleVector, a: AlgebraElement) -> BimoduleVector:
    """(f . a)(j) = f(j) a (see right_action)."""
    _check_carrier(a, f)
    return BimoduleVector(f.level, f.left, right_action(f.right, a.entries))


def bimodule_inner(f: BimoduleVector, g: BimoduleVector) -> AlgebraElement:
    """Algebra-valued inner product sum_j f(j)* g(j); <f, f> is PSD (see
    inner_factors)."""
    f._check_compatible(g)
    return AlgebraElement(
        f.carrier_level, inner_factors(f.left, f.right, g.left, g.right)
    )
