"""The derivation into the finite Hilbert bimodule over the tower.

derive(a, n) collects the commutators of the level-n expectation of a
with every rank-one diagonal projection; the carrier is the direct sum of
2^n copies of the level-n algebra with componentwise left/right actions
and an algebra-valued inner product. The bimodule is a direct sum of
trivial bimodules by construction, which is the strong-locality witness.

A vector is stored as one read-only complex array ``stack`` of shape
(2^level, d, d), component j being ``stack[j]``, so the actions and the
inner product are batched matrix products over all components at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tower import AlgebraElement, element_to_json
from .expectations import cond_expect

__all__ = [
    "BimoduleVector",
    "derive",
    "bimodule_left",
    "bimodule_right",
    "bimodule_inner",
    "bimodule_to_json",
]


@dataclass(frozen=True, eq=False)
class BimoduleVector:
    """2^level components at a common carrier level, stacked as one
    (2^level, d, d) complex array with d = 2^carrier_level.

    A writable or non-complex input is copied; a read-only complex128
    array is taken as is. The stored stack is read-only.
    """

    level: int
    stack: np.ndarray

    def __post_init__(self):
        stack = np.asarray(self.stack)
        if stack.dtype != np.complex128 or stack.flags.writeable:
            stack = np.array(stack, dtype=np.complex128)
        k = 2 ** self.level
        d = stack.shape[-1] if stack.ndim == 3 else 0
        if stack.shape != (k, d, d) or d < 1 or d & (d - 1):
            raise ValueError(
                f"level-{self.level} vector needs a stack of shape ({k}, d, d) "
                f"with d a power of two, got {stack.shape}"
            )
        stack.setflags(write=False)
        object.__setattr__(self, "stack", stack)

    @property
    def carrier_level(self) -> int:
        return self.stack.shape[-1].bit_length() - 1

    @property
    def components(self) -> tuple[AlgebraElement, ...]:
        """The components as algebra elements (for serialization and tests)."""
        return tuple(AlgebraElement(self.carrier_level, c) for c in self.stack)

    def __add__(self, other: "BimoduleVector") -> "BimoduleVector":
        self._check_compatible(other)
        return _wrap(self.level, self.stack + other.stack)

    def __sub__(self, other: "BimoduleVector") -> "BimoduleVector":
        self._check_compatible(other)
        return _wrap(self.level, self.stack - other.stack)

    def _check_compatible(self, other: "BimoduleVector") -> None:
        if self.level != other.level or self.carrier_level != other.carrier_level:
            raise ValueError(
                f"bimodule mismatch: level {self.level}/{other.level}, "
                f"carrier {self.carrier_level}/{other.carrier_level}"
            )


def _wrap(level: int, stack: np.ndarray) -> BimoduleVector:
    """A vector over a freshly computed stack, frozen without a copy."""
    stack.setflags(write=False)
    return BimoduleVector(level, stack)


def _check_carrier(a: AlgebraElement, f: BimoduleVector) -> None:
    if a.level != f.carrier_level:
        raise ValueError(
            f"level mismatch: element at {a.level}, carrier at {f.carrier_level}"
        )


def derive(a: AlgebraElement, n: int) -> BimoduleVector:
    """Component j is [p_j, E_n a]: row j of b minus column j of b, with b
    the level-n expectation of a; zero exactly when b is diagonal."""
    b = cond_expect(a, n).entries
    d = b.shape[0]
    j = np.arange(d)
    stack = np.zeros((d, d, d), dtype=np.complex128)
    stack[j, j, :] = b  # stack[j, j, :] = b[j, :]
    stack[j, :, j] -= b.T  # stack[j, :, j] -= b[:, j]
    return _wrap(n, stack)


def bimodule_left(a: AlgebraElement, f: BimoduleVector) -> BimoduleVector:
    """(a . f)(j) = a f(j)."""
    _check_carrier(a, f)
    return _wrap(f.level, a.entries @ f.stack)


def bimodule_right(f: BimoduleVector, a: AlgebraElement) -> BimoduleVector:
    """(f . a)(j) = f(j) a, as one product of the row-stacked components."""
    _check_carrier(a, f)
    k, d, _ = f.stack.shape
    return _wrap(f.level, (f.stack.reshape(k * d, d) @ a.entries).reshape(k, d, d))


def bimodule_inner(f: BimoduleVector, g: BimoduleVector) -> AlgebraElement:
    """Algebra-valued inner product sum_j f(j)* g(j); <f, f> is PSD.

    Row-stacking the components turns the sum into one product F* G.
    """
    f._check_compatible(g)
    k, d, _ = f.stack.shape
    rows_f = f.stack.reshape(k * d, d)
    rows_g = g.stack.reshape(k * d, d)
    return AlgebraElement(f.carrier_level, rows_f.conj().T @ rows_g)


def bimodule_to_json(f: BimoduleVector) -> list:
    return [element_to_json(c) for c in f.components]
