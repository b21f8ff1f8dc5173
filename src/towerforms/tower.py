"""The 2^n matrix tower: the level-tagged element read from matrix JSON,
input checks, seeded chunked sampling and the stacked matrix kernels the
suites share (Hermitian parts, spectral clamps, GNS pairings).

Index semantics are normative for everything built on top: a level-n matrix
is an n-fold tensor product of 2x2 legs, with leg 1 occupying the most
significant bits of the row/column index. The level-n subalgebra sits in
level n+k by appending k identity legs on the right, i.e. ``a -> kron(a, I)``.
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
    "POOL_CHUNK_BYTES",
    "gaussian_chunks",
    "complex_gaussian",
    "hermitian_part",
    "finite_spectra",
    "clamp_spectrum",
    "matrix_vdot",
    "element_from_json",
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
    """A dense complex 2^level x 2^level matrix tagged with its tower level:
    what load_element reads, and what the element API of expectations and
    derivation takes. Entries are copied and frozen at construction.
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

    def __repr__(self) -> str:
        return f"AlgebraElement(level={self.level}, dim={self.dim})"


def matrix_vdot(x: np.ndarray, y: np.ndarray):
    """sum conj(x) * y over the last two axes, for matrices or stacks of them
    with equal shapes: np.vecdot of the flattened matrices, which calls the
    BLAS dotc that np.vdot calls, so each result is np.vdot's bit for bit."""
    *lead, rows, cols = x.shape
    return np.vecdot(x.reshape(*lead, rows * cols), y.reshape(*lead, rows * cols))


# --------------------------------------------------------------------------
# random sampling
# --------------------------------------------------------------------------

# Bytes of stacked samples each of several pool workers holds at once. A
# chunk of suite samples holds as many as fit it by the working bytes its
# caller declares per sample (see gaussian_chunks), a gather of
# expectations below the working level likewise, and evolve 8 rows at
# level 7. From level 7 on a suite sample declares more than half of it,
# so a chunk holds one sample; from level 8 on the largest suite units, and
# from level 9 on one evolve row, exceed it: those units run on one
# thread, and evolve runs its rows one at a time.
POOL_CHUNK_BYTES = 2 * 2 ** 20


def gaussian_chunks(
    rng: np.random.Generator, samples: int, dim: int, count: int, nbytes: int
):
    """The complex Gaussian dim x dim matrices of `samples` samples of
    `count` matrices each, one chunk at a time.

    Yields (rows, mats): rows is the slice of the chunk's sample positions,
    and mats holds one complex (S, dim, dim) stack per matrix of a sample.
    A chunk of S samples comes from one rng.standard_normal call, which
    yields the numbers of drawing each sample's matrices in turn, one
    rng.standard_normal((2, dim, dim)) per matrix, so chunked and per-sample
    evaluation see the same samples. nbytes is the caller's working bytes
    per sample, from the shapes it allocates while it checks a chunk: the
    normals, the matrices and the temporaries of its kernels. A chunk holds
    as many samples as fit POOL_CHUNK_BYTES by that count, and one sample
    when a single sample is larger.
    """
    step = max(1, POOL_CHUNK_BYTES // nbytes)
    for start in range(0, samples, step):
        rows = slice(start, min(start + step, samples))
        shape = (rows.stop - start, count, 2, dim, dim)
        # unnamed here, so each stack is freed when its caller drops it
        yield rows, tuple(map(complex_gaussian, rng.standard_normal(shape).swapaxes(0, 1)))


def complex_gaussian(z: np.ndarray) -> np.ndarray:
    """Complex Gaussian matrices from normals z of shape (..., 2, d, d):
    real parts z[..., 0, :, :], imaginary parts z[..., 1, :, :], written
    into one complex array, so that a draw holds only z and the result."""
    out = np.empty(z.shape[:-3] + z.shape[-2:], dtype=np.complex128)
    out.real = z[..., 0, :, :]
    out.imag = z[..., 1, :, :]
    return out


def hermitian_part(mat: np.ndarray) -> np.ndarray:
    """(mat + mat*) / 2 over the last two axes."""
    return 0.5 * (mat + mat.conj().swapaxes(-1, -2))


def finite_spectra(decompose, mat: np.ndarray):
    """decompose (np.linalg.eigh or eigvalsh) of a Hermitian matrix or of
    each matrix of a stack, in one call. A matrix with a NaN or infinite
    entry gets NaN results instead of stopping the call, so one bad sample
    fails closed without taking the rest of its chunk down."""
    bad = ~np.isfinite(mat).all(axis=(-2, -1))
    if not bad.any():
        return decompose(mat)
    out = decompose(np.where(bad[..., None, None], 0.0, mat))
    for part in out if isinstance(out, tuple) else (out,):
        part[bad] = np.nan
    return out


def clamp_spectrum(mat: np.ndarray, lo=None, hi=None) -> np.ndarray:
    """Clamp the spectrum of a Hermitian matrix, or of each matrix of a
    stack, into [lo, hi].

    This is the Frobenius-nearest matrix whose spectrum lies in the
    interval (the Hilbert projection onto the corresponding spectral set).
    A matrix with a non-finite entry gives NaN (see finite_spectra).
    """
    w, v = finite_spectra(np.linalg.eigh, mat)
    w = np.clip(w, lo, hi)
    return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)


# --------------------------------------------------------------------------
# matrix JSON format: {"level": n, "re": [[...]], "im": [[...]]}
# --------------------------------------------------------------------------


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


def load_element(path) -> AlgebraElement:
    return element_from_json(json.loads(Path(path).read_text()))
