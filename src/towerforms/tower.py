"""The 2^n matrix tower: level-tagged elements with normalized trace, GNS
inner product, right-append embeddings, involution and seeded sampling.

Index semantics are normative for everything built on top: a level-n matrix
is an n-fold tensor product of 2x2 legs, with leg 1 occupying the most
significant bits of the row/column index. Embedding a level-n element into
level n+k appends k identity legs on the right, i.e. ``a -> kron(a, I)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "AlgebraElement",
    "check_nonnegative",
    "check_hermitian",
    "RANDOM_KINDS",
    "identity",
    "zero",
    "matrix_unit",
    "diagonal_projection",
    "normalized_trace",
    "gns_inner",
    "gns_norm",
    "embed",
    "modular_conjugation",
    "random_element",
    "gaussian_general",
    "gaussian_hermitian",
    "random_matrix",
    "clamp_spectrum",
    "element_to_json",
    "element_from_json",
    "save_element",
    "load_element",
]


def check_nonnegative(what: str, value) -> float:
    """Return value as a float, rejecting NaN, infinities and negatives."""
    value = float(value)
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{what} must be finite and nonnegative, got {value}")
    return value


def check_hermitian(what: str, mat, tol: float) -> np.ndarray:
    """Return mat as a complex array, rejecting non-finite entries and a
    Hermitian defect max|mat - mat*| above tol (1 + max|mat|)."""
    mat = np.asarray(mat, dtype=np.complex128)
    if not np.isfinite(mat).all():
        raise ValueError(f"{what} has non-finite entries")
    defect = np.abs(mat - mat.conj().T).max(initial=0.0)
    if not defect <= tol * (1.0 + np.abs(mat).max(initial=0.0)):
        raise ValueError(f"{what} must be Hermitian (defect {defect:.3e})")
    return mat


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """A dense complex 2^level x 2^level matrix tagged with its tower level.

    Entries are copied and frozen at construction; all operations on
    elements are pure functions.
    """

    level: int
    entries: np.ndarray

    def __post_init__(self):
        level = self.level
        if not isinstance(level, (int, np.integer)) or level < 0:
            raise ValueError(f"level must be a nonnegative integer, got {level!r}")
        mat = np.array(self.entries, dtype=np.complex128)
        d = 2 ** int(level)
        if mat.shape != (d, d):
            raise ValueError(
                f"level-{level} element must have shape ({d}, {d}), got {mat.shape}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "level", int(level))
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return 2 ** self.level

    def _check_level(self, other: "AlgebraElement") -> None:
        if self.level != other.level:
            raise ValueError(
                f"level mismatch: {self.level} vs {other.level}"
            )

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_level(other)
        return AlgebraElement(self.level, self.entries + other.entries)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_level(other)
        return AlgebraElement(self.level, self.entries - other.entries)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.level, -self.entries)

    def __mul__(self, scalar: complex) -> "AlgebraElement":
        return AlgebraElement(self.level, self.entries * scalar)

    __rmul__ = __mul__

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_level(other)
        return AlgebraElement(self.level, self.entries @ other.entries)

    def __repr__(self) -> str:
        return f"AlgebraElement(level={self.level}, dim={self.dim})"


def identity(level: int) -> AlgebraElement:
    """The unit of the level-n algebra."""
    return AlgebraElement(level, np.eye(2 ** level))


def zero(level: int) -> AlgebraElement:
    return AlgebraElement(level, np.zeros((2 ** level, 2 ** level)))


def matrix_unit(level: int, i: int, j: int) -> AlgebraElement:
    """The matrix unit e_ij at the given level."""
    d = 2 ** level
    mat = np.zeros((d, d), dtype=np.complex128)
    mat[i, j] = 1.0
    return AlgebraElement(level, mat)


def diagonal_projection(level: int, i: int) -> AlgebraElement:
    """The rank-one diagonal projection with 1 in entry (i, i)."""
    return matrix_unit(level, i, i)


def normalized_trace(a: AlgebraElement) -> complex:
    """Trace divided by dimension, so the unit has trace 1."""
    return complex(np.trace(a.entries) / a.dim)


def gns_inner(a: AlgebraElement, b: AlgebraElement) -> complex:
    """GNS inner product tau(a* b), conjugate-linear in the first slot."""
    a._check_level(b)
    return complex(np.vdot(a.entries, b.entries) / a.dim)


def gns_norm(a: AlgebraElement) -> float:
    return float(np.sqrt(max(gns_inner(a, a).real, 0.0)))


def embed(a: AlgebraElement, target_level: int) -> AlgebraElement:
    """Unital *-embedding into a higher level by right-appending identity legs.

    Trace preserving and isometric for the GNS inner product because the
    traces are normalized.
    """
    if target_level < a.level:
        raise ValueError(
            f"cannot embed level {a.level} into lower level {target_level}"
        )
    k = target_level - a.level
    if k == 0:
        return a
    return AlgebraElement(target_level, np.kron(a.entries, np.eye(2 ** k)))


def modular_conjugation(a: AlgebraElement) -> AlgebraElement:
    """The involution a -> a*; its fixed points are the Hermitian elements."""
    return AlgebraElement(a.level, a.entries.conj().T)


# --------------------------------------------------------------------------
# random sampling
# --------------------------------------------------------------------------

RANDOM_KINDS = ("hermitian", "general", "contraction", "psd")


def gaussian_general(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian matrix with independent unit-variance re/im entries."""
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def gaussian_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = gaussian_general(dim, rng)
    return 0.5 * (g + g.conj().T)


def clamp_spectrum(mat: np.ndarray, lo=None, hi=None) -> np.ndarray:
    """Clamp the spectrum of a Hermitian matrix into [lo, hi].

    This is the Frobenius-nearest matrix whose spectrum lies in the
    interval (the Hilbert projection onto the corresponding spectral set).
    """
    w, v = np.linalg.eigh(mat)
    w = np.clip(w, lo, hi)
    return (v * w) @ v.conj().T


def random_matrix(dim: int, kind: str, rng: np.random.Generator) -> np.ndarray:
    """Raw-matrix sampler used by the property suites; see random_element."""
    if kind == "general":
        return gaussian_general(dim, rng)
    if kind == "hermitian":
        return gaussian_hermitian(dim, rng)
    if kind == "contraction":
        return clamp_spectrum(gaussian_hermitian(dim, rng), 0.0, 1.0)
    if kind == "psd":
        return clamp_spectrum(gaussian_hermitian(dim, rng), 0.0, None)
    raise ValueError(f"unknown kind {kind!r}; expected one of {RANDOM_KINDS}")


def random_element(level: int, kind: str, seed: int) -> AlgebraElement:
    """Seed-reproducible random element.

    hermitian: Gaussian-ensemble Hermitian with unit-scale entries;
    contraction / psd: Hermitian with spectrum clamped into [0, 1] / [0, inf).
    """
    rng = np.random.default_rng(seed)
    return AlgebraElement(level, random_matrix(2 ** level, kind, rng))


# --------------------------------------------------------------------------
# matrix JSON format: {"level": n, "re": [[...]], "im": [[...]]}
# --------------------------------------------------------------------------


def element_to_json(a: AlgebraElement) -> dict:
    return {
        "level": a.level,
        "re": a.entries.real.tolist(),
        "im": a.entries.imag.tolist(),
    }


def _parse_square(part, d: int, key: str) -> np.ndarray:
    """A d x d array of JSON numbers: every entry an int or a float, never
    a bool, a string or a nested value, and finite."""
    try:
        arr = np.asarray(part, dtype=object)
    except ValueError as exc:
        raise ValueError(f"field {key!r} is not a rectangular array") from exc
    if arr.shape != (d, d):
        raise ValueError(
            f"field {key!r} must have shape ({d}, {d}), got {arr.shape}"
        )
    if not set(map(type, arr.flat)) <= {int, float}:
        entry = next(e for e in arr.flat if type(e) not in (int, float))
        raise ValueError(f"field {key!r} has an entry that is not a number: {entry!r}")
    try:
        arr = arr.astype(np.float64)
    except OverflowError as exc:
        raise ValueError(f"field {key!r} has an entry too large for a float") from exc
    if not np.isfinite(arr).all():
        raise ValueError(f"field {key!r} has non-finite entries (NaN or inf)")
    return arr


def element_from_json(obj: dict) -> AlgebraElement:
    """Parse the matrix JSON format, rejecting shape mismatches and
    non-finite entries."""
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    missing = {"level", "re", "im"} - set(obj)
    if missing:
        raise ValueError(f"matrix JSON missing fields: {sorted(missing)}")
    level = obj["level"]
    # no array has a side of 2^64: reject larger levels before computing 2^level
    if type(level) is not int or not 0 <= level < 64:
        raise ValueError(f"'level' must be an integer in [0, 64), got {level!r}")
    d = 2 ** level
    re = _parse_square(obj["re"], d, "re")
    im = _parse_square(obj["im"], d, "im")
    return AlgebraElement(level, re + 1j * im)


def save_element(a: AlgebraElement, path) -> None:
    Path(path).write_text(json.dumps(element_to_json(a)) + "\n")


def load_element(path) -> AlgebraElement:
    return element_from_json(json.loads(Path(path).read_text()))
