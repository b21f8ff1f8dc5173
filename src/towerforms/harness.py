"""Experiment harness: convergence tables, semigroup trajectories and the
randomized property suites with reproducible CSV/JSON output.

All output is deterministic for a fixed configuration: sampling is seeded
per suite and level, report files carry no timestamps, and floats are
written with their shortest round-trip representation.
"""

from __future__ import annotations

import csv
import functools
import math
import numbers
import os
import threading
import zlib
from collections.abc import Callable
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import tower
from .report import PropertyReport, fold
from .tower import (
    check_nonnegative,
    clamp_spectrum,
    finite_spectra,
    gaussian_chunks,
    hermitian_part,
    matrix_vdot,
)
from .expectations import partial_trace_matrix
from .forms import (
    CompatibleFamily,
    FamilyCompatibilityError,
    build_from_family,
    commutator_energies,
    commutator_generator,
    dirichlet_check,
    family_compatibility_margin,
    form_energies,
)
from .derivation import derive_factors, left_action, right_action
from .superop import (
    DENSIFY_DIM_CAP,
    SEMIGROUP_LEVEL_CAP,
    SEMIGROUP_TIMES,
    DiagonalComplement,
    ScaledMap,
    SemigroupMap,
    SuperOperator,
    TowerProjection,
    TransposeMap,
    choi_min_eigenvalue,
)

__all__ = [
    "SUITE_NAMES",
    "RunConfig",
    "run_suite",
    "converge_table",
    "evolve_table",
    "write_table_csv",
    "write_reports",
    "CONVERGE_COLUMNS",
    "EVOLVE_COLUMNS",
]

def _suite_seed(base: int, suite: str, level: int) -> int:
    """Stable per-suite, per-level child seed."""
    return (base + zlib.crc32(f"{suite}:{level}".encode())) % (2 ** 31)


def _commutator_deviation(x: SuperOperator) -> float:
    """max |c_x - 2 (1 - I)| over the Schur coefficients of x, 2 (1 - I) being
    the commutator generator's: inf without schur, NaN when a c_x is."""
    if x.schur is None:
        return math.inf
    return float(np.abs(x.schur - 2.0 * DiagonalComplement(x.dim).schur).max())


# --------------------------------------------------------------------------
# individual suites
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Unit:
    """One independent part of a suite, with its own forms, generators and
    rng: level is the level it works at, nbytes the bytes of one of its
    samples (one sample's normals, or the largest matrix of a unit that
    draws none), and tower whether it is a randomized suite's tower unit
    (see _Sampled)."""

    level: int
    nbytes: int
    tower: bool = False


def _run_choi(cfg: RunConfig, unit: _Unit) -> list[PropertyReport]:
    """Semigroup maps of the diagonal generator must be completely
    positive. The top unit also checks the transpose map, the injected
    negative control, which must be flagged non-CP with smallest Choi
    eigenvalue -1; its report comes after that level's."""
    gen = DiagonalComplement(2 ** unit.level)
    margins = [[-choi_min_eigenvalue(SemigroupMap(gen, t))] for t in SEMIGROUP_TIMES]
    reports = [fold("choi", unit.level, cfg.seed, cfg.tol, margins)]
    if unit.level == min(cfg.level, SEMIGROUP_LEVEL_CAP):
        control = abs(choi_min_eigenvalue(TransposeMap(2)) + 1.0)
        reports.append(fold("choi-transpose-control", 1, cfg.seed, cfg.tol, [[control]]))
    return reports


def _semigroup(cfg: RunConfig, level: int) -> list[SemigroupMap]:
    """The semigroup of the level's diagonal generator at each time in
    SEMIGROUP_TIMES, built once per unit: a Schur multiplier each."""
    gen = DiagonalComplement(2 ** level)
    return [SemigroupMap(gen, t) for t in SEMIGROUP_TIMES]


def _markov_margins(maps: list, x: np.ndarray) -> np.ndarray:
    """Markov margins of a stack of samples: each x is made a contraction
    0 <= x <= 1 (its Hermitian part's spectrum clamped into [0, 1]), and
    every Phi_t(x) must keep its spectrum inside [0, 1]. Row i holds, for
    each map in turn, -(least eigenvalue) and (largest eigenvalue - 1) of
    sample i's Phi_t(x), from one stacked eigvalsh call per map."""
    x = clamp_spectrum(hermitian_part(x), 0.0, 1.0)
    columns = []
    for phi in maps:
        ev = finite_spectra(np.linalg.eigvalsh, hermitian_part(phi.apply_matrix(x)))
        columns += [-ev[:, 0], ev[:, -1] - 1.0]
    return np.stack(columns, axis=-1)


def _symmetry_margins(maps: list, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Trace-symmetry margins |tau(Phi_t(x) y) - tau(x Phi_t(y))| of a stack
    of pairs, one column per map, from stacked products and traces."""
    d = x.shape[-1]
    columns = []
    for phi in maps:
        phi_x, phi_y = phi.apply_matrix(np.stack((x, y)))
        lhs = np.trace(phi_x @ y, axis1=-2, axis2=-1) / d
        rhs = np.trace(x @ phi_y, axis1=-2, axis2=-1) / d
        diff = lhs - rhs
        columns.append(np.hypot(diff.real, diff.imag))  # abs() of each scalar
    return np.stack(columns, axis=-1)


def _unit_drift(maps: list) -> list[float]:
    """max |Phi_t(1) - 1| for each map: 0 when every Phi_t preserves the unit."""
    eye = np.eye(maps[0].dim, dtype=np.complex128)
    return [np.abs(phi.apply_matrix(eye) - eye).max() for phi in maps]


def _leibniz_probes(seed: int, level: int) -> np.ndarray:
    """The (2^level, 2) probe block of level's product-rule check: entries
    +-1 +-i, drawn from the level's own "leibniz-probes" stream, so no
    sample stream moves."""
    rng = np.random.default_rng(_suite_seed(seed, "leibniz-probes", level))
    re, im = rng.choice((-1.0, 1.0), size=(2, 2 ** level, 2))
    return re + 1j * im


def _probe(left: np.ndarray, right: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """D_j V for the components D_j = left[..., j, :, :] @ right[..., j, :,
    :] of a vector, or of each vector of a stack, and the probe block V
    (Freivalds' check): one product of the row-stacked right factors with
    V, then left_j @ that block of it, O(k d r) per column of V instead of
    the O(k d^2 r) of multiplying the components out."""
    *lead, k, r, d = right.shape
    sketch = (right.reshape(*lead, k * r, d) @ probes).reshape(*lead, k, r, -1)
    return left @ sketch


def _leibniz_defects(a: np.ndarray, b: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """max |D_j v| over the components D_j of the product-rule defect D =
    d(ab) - (d(a) b + a d(b)) of each pair of a stack of level-n pairs and
    the columns v of probes (Freivalds' check). D V is summed term by term,
    each term probed as it is built and dropped before the next (see
    _probe): d(ab) V from derive(a @ b, n), then minus d(a) b V from
    bimodule_right(derive(a, n), b), then minus a d(b) V from
    bimodule_left(a, derive(b, n)), each with the factors those build for
    one pair. So no more than one term's rank-2 factors are held. NaN when
    any entry is NaN. With entries +-1 +-i, a component with the one
    nonzero entry e reads sqrt(2) |e|, and E|(D_j v)_p|^2 = 2 sum_q
    |(D_j)_pq|^2 >= 2 max_q |(D_j)_pq|^2."""
    probed = _probe(*derive_factors(a @ b), probes)
    left, right = derive_factors(a)
    right = right_action(right, b)  # d(a)'s own right factors are freed
    probed -= _probe(left, right, probes)
    del left, right
    left, right = derive_factors(b)
    left = left_action(a, left)  # d(b)'s own left factors are freed
    probed -= _probe(left, right, probes)
    del left, right
    return np.abs(probed).max(axis=(-3, -2, -1))


def _conditioned_down(held: list, rows: slice, level: int):
    """(n, rows, E_n b) for n = level, ..., 1 of b, the held stacks of
    level-`level` matrices joined: each step traces one more leg out of the
    last, which is E_n b by the tower property E_n = E_n E_{n+1}. Only the
    last stage is kept."""
    b = np.concatenate(held)
    yield level, rows, b
    for n in range(level - 1, 0, -1):
        b = partial_trace_matrix(b, n + 1, n)
        yield n, rows, b


def _expectation_towers(ambients, level: int, nbytes: int):
    """(n, rows, E_n a) for n = level, ..., 1 of the (rows, a) that
    `ambients` yields: a a stack of level-`level` matrices, rows the
    positions of its samples in their stream.

    Level `level` comes a stack at a time. Below it, E_{level-1} a of
    consecutive stacks is gathered while one more stack of as many samples
    would still fit tower.POOL_CHUNK_BYTES at nbytes per sample, the
    working bytes the caller declares for checking one level-(level - 1)
    sample, and then conditioned down a leg at a time (see
    _conditioned_down), so the small levels go in stacks of many samples
    (one stack at the least)."""
    held, first = [], 0
    for rows, a in ambients:
        yield level, rows, a
        if level > 1:
            held.append(partial_trace_matrix(a, level, level - 1))
        del a  # freed before the next chunk is drawn
        gathered = sum(len(b) for b in held) + rows.stop - rows.start
        if held and gathered * nbytes > tower.POOL_CHUNK_BYTES:
            yield from _conditioned_down(held, slice(first, rows.stop), level - 1)
            held, first = [], rows.stop
    if held:
        yield from _conditioned_down(held, slice(first, rows.stop), level - 1)


def _energy_gaps(b: np.ndarray) -> np.ndarray:
    """|tau(<db, db>) - commutator energy of b| for each matrix of a stack of
    level-n expectations b. Of the product inner_factors forms for <db, db>,
    the row-stacked right factors against the row-stacked G_j right[j],
    only the diagonal that the trace reads is formed: entry i is the dot of
    column i of the one with column i of the other, of length 2d as in the
    product, O(d^2) instead of its O(d^3)."""
    *lead, d, _ = b.shape
    left, right = derive_factors(b)
    weighted = (left.conj().swapaxes(-1, -2) @ left @ right).reshape(*lead, 2 * d, d)
    rows = right.reshape(*lead, 2 * d, d)
    del left
    diagonal = np.einsum("...ki,...ki->...i", rows.conj(), weighted)
    energy = (diagonal.sum(axis=-1) / d).real
    return np.abs(energy - commutator_energies(b))


def _run_compatibility(cfg: RunConfig, unit: _Unit) -> list[PropertyReport]:
    """Commutator-form family: compatibility margin on full matrix-unit
    bases, recovery of the top form (its Schur coefficients against 2 (1 -
    I)), and rejection of a x2-perturbed family as a negative control.
    Three rows, each failing above eig_tol: the family's deviation (inf
    when it is rejected on stabilization alone), the recovery's (-inf when
    no form is recovered) and the control's (-inf when it is rejected or,
    at level 1, absent; inf when it is accepted)."""
    family = CompatibleFamily(
        tuple(commutator_generator(n) for n in range(1, cfg.level + 1))
    )
    deviation, _ = family_compatibility_margin(family)
    try:
        recovery = _commutator_deviation(build_from_family(family, tol=cfg.eig_tol))
    except FamilyCompatibilityError:
        recovery = -math.inf
        if deviation <= cfg.eig_tol:  # rejected on stabilization alone
            deviation = math.inf
    control = -math.inf
    if cfg.level >= 2:
        perturbed_forms = list(family.forms)
        perturbed_forms[1] = ScaledMap(2.0, perturbed_forms[1])
        try:
            build_from_family(CompatibleFamily(tuple(perturbed_forms)))
        except FamilyCompatibilityError:
            pass
        else:
            control = math.inf
    return [
        fold(
            "compatibility", cfg.level, cfg.seed, cfg.eig_tol,
            [[deviation], [recovery], [control]],
            samples=sum(4 ** n for n in range(1, cfg.level)),
        )
    ]


def _sqrt_energy(e: np.ndarray) -> np.ndarray:
    """math.sqrt(max(e, 0.0)) of each energy: a NaN or -0.0 stays."""
    return np.sqrt(np.where(0.0 > e, 0.0, e))


def _restricted_energies(gen: SuperOperator, a: np.ndarray):
    """(n, E(P_n a), E(Q_n a), ||Q_n a||_2^2) for n = 1 .. L of a level-L
    matrix a, or of each matrix of a stack, E the form of gen, with P_n a =
    E_n(a) kron I (the TowerProjection) and Q_n a = a - P_n a; each matrix
    of a stack gets the numbers of its own call."""
    level, top = gen.level, gen.dim
    for n in range(1, level + 1):
        pa = TowerProjection(level, n).apply_matrix(a)
        e_n = form_energies(gen, pa)
        qa = a - pa
        del pa
        e_q, q_sq = form_energies(gen, qa), (matrix_vdot(qa, qa) / top).real
        del qa
        yield n, e_n, e_q, q_sq


def _convergence_margins(gen: SuperOperator, a: np.ndarray) -> np.ndarray:
    """Restricted-energy margins of a stack of level-L samples a, E the form
    of gen: for n = 1 .. L, the chain |sqrt(E_n) - sqrt(E)| - sqrt(E(Q_n a))
    and the tail bound E(Q_n a) - ||Q_n a||_2^2, then E(Q_L a), which is 0
    at the top level (see _restricted_energies)."""
    margins = np.empty((len(a), 2 * gen.level + 1))
    root = _sqrt_energy(form_energies(gen, a))
    for n, e_n, e_q, q_sq in _restricted_energies(gen, a):
        margins[:, 2 * n - 2] = np.abs(_sqrt_energy(e_n) - root) - _sqrt_energy(e_q)
        margins[:, 2 * n - 1] = e_q - q_sq
    margins[:, -1] = e_q  # E(Q_L a)
    return margins


@dataclass(frozen=True)
class _Suite:
    """A suite whose runner run(cfg, unit) returns the reports of one of
    the units that units(cfg) lists; fold keeps them in unit order."""

    name: str
    units: Callable
    run: Callable

    def fold(self, cfg: RunConfig, parts: list) -> list[PropertyReport]:
        return [rep for part in parts for rep in part]


def _diagonal_form(cfg: RunConfig, level: int) -> DiagonalComplement:
    return DiagonalComplement(2 ** level)


@dataclass(frozen=True)
class _Sampled:
    """A randomized suite, whose units each do one job on their own stream
    of samples. A kernel unit at each level that levels(cfg) lists draws
    samples of `draws` complex Gaussian matrices of its level, `nbytes` such
    matrices of working bytes per sample. A suite with a tower kernel also
    has a tower unit at the working level L, which draws one level-L
    ambient a per sample from the stream `ambient_stream`, `ambient_nbytes`
    level-L matrices of working bytes per sample.

    kernel(operand, stacks) returns the margins of a chunk of samples, one
    row per sample and one column per entry of limits(cfg, level), operand
    being operand(cfg, level) and stacks the list of the chunk's stacks, one
    per matrix of a sample. A kernel pops a stack it replaces (dirichlet's
    a by its Hermitian part, markov's x by its clamp), so that the stack is
    freed once the kernel drops it; the driver holds the others until the
    next chunk is drawn, which keeps the heap from being trimmed and
    regrown at every chunk. tower(operand, E_n a) gives one margin of each
    sample at every level n (see _expectation_towers), within `tol`; the
    conditioned expectations hold tower_nbytes level-(L - 1) matrices per
    sample. A lone(operand) row is checked once per level a unit checks,
    after the samples. Every column is within `tol` (the name of a
    RunConfig field) unless limits says otherwise, and `tol` is the
    reports' tol.

    The kernels are lambdas that look their function up by name when they
    run, so a wrapper bound in its place (a tracer, a test's planted
    defect) is the one that runs."""

    name: str
    levels: Callable = lambda cfg: ()
    draws: int = 0
    nbytes: int = 0
    kernel: Callable | None = None
    limits: Callable | None = None
    operand: Callable = _diagonal_form
    tower: Callable | None = None
    ambient_stream: str = ""
    ambient_nbytes: int = 0
    tower_nbytes: int = 0
    tol: str = "tol"
    lone: Callable | None = None

    def units(self, cfg: RunConfig) -> list[_Unit]:
        """The kernel units in level order, then the tower unit, each
        sample counted by its normals (the alone rule of run_suite reads
        them)."""
        units = [_Unit(n, 16 * 4 ** n * self.draws) for n in self.levels(cfg)]
        if self.tower is not None:
            units.append(_Unit(cfg.level, 16 * 4 ** cfg.level, tower=True))
        return units

    def run(self, cfg: RunConfig, unit: _Unit) -> tuple:
        """Draw the unit's samples a chunk at a time (see
        tower.gaussian_chunks): a kernel unit checks each chunk with the
        kernel, a tower unit feeds each chunk's ambients through the tower
        of expectations. Returns (seed, blocks, lone): blocks the (level,
        margins, limits) of the kernel, or of the tower at each level; lone
        the row of each level the unit checks. A sample that is never
        checked keeps NaN margins."""
        n, samples, matrix = unit.level, cfg.samples, 16 * 4 ** unit.level
        if unit.tower:
            stream, count, nbytes = self.ambient_stream, 1, self.ambient_nbytes
            levels = range(1, n + 1)
        else:
            stream, count, nbytes, levels = self.name, self.draws, self.nbytes, [n]
        seed = _suite_seed(cfg.seed, stream, n)
        operands = {m: self.operand(cfg, m) for m in levels}
        rng = np.random.default_rng(seed)
        drawn = gaussian_chunks(rng, samples, 2 ** n, count, nbytes * matrix)
        if unit.tower:
            towers = np.full((n, samples), np.nan)
            ambients = ((rows, a) for rows, (a,) in drawn)
            for m, rows, b in _expectation_towers(ambients, n, self.tower_nbytes * matrix // 4):
                towers[m - 1, rows] = self.tower(operands[m], b)
            tol = getattr(cfg, self.tol)
            blocks = [(m, towers[m - 1, :, None], [tol]) for m in levels]
        else:
            limits = self.limits(cfg, n)
            margins = np.full((samples, len(limits)), np.nan)
            for rows, mats in drawn:
                stacks = list(mats)
                del mats  # the kernel frees a stack it pops
                margins[rows] = self.kernel(operands[n], stacks)
            blocks = [(n, margins, limits)]
        lone = {m: self.lone(operands[m]) for m in levels} if self.lone else {}
        return seed, blocks, lone

    def fold(self, cfg: RunConfig, parts: list) -> list[PropertyReport]:
        """Level n's report joins the columns of every block at level n, in
        unit order, and puts the lone row after the samples; it names
        cfg.samples samples and the seed of the first unit with a block at
        level n."""
        joined = {}
        for seed, blocks, lone in parts:
            for n, margins, limits in blocks:
                _, columns, bounds, _ = joined.setdefault(n, (seed, [], [], []))
                columns.append(margins)
                bounds.extend(limits)
            for n, row in lone.items():
                joined[n][3].append(row)
        return [
            fold(
                self.name, n, seed, getattr(cfg, self.tol),
                np.vstack([np.hstack(columns), *rows]), samples=cfg.samples, limits=bounds,
            )
            for n, (seed, columns, bounds, rows) in sorted(joined.items())
        ]


def _all_levels(cfg: RunConfig) -> range:
    return range(1, cfg.level + 1)


def _semigroup_levels(cfg: RunConfig) -> range:
    return range(1, min(cfg.level, SEMIGROUP_LEVEL_CAP) + 1)


def _top_level(cfg: RunConfig) -> list[int]:
    return [cfg.level]


# The registry, in suite order. Working bytes per sample are counted in
# complex matrices of the unit's level from the shapes its kernel allocates.
_SUITES = (
    # g, the Hermitian part, and clamp_spectrum's eigenvectors, their scaled
    # and conjugated copies and product (6), or the draw's normals and
    # stacks (4); 8 leave room for a generator image and the eigenvalues.
    _Sampled(
        "dirichlet", _all_levels, draws=2, nbytes=8,
        kernel=lambda gen, ag: dirichlet_check(gen, ag.pop(0), ag[0]),
        limits=lambda cfg, n: [cfg.tol] * 2,
    ),
    # clamp_spectrum's as in dirichlet (5), or a map's image with the two
    # stacks of its Hermitian part (3); 7 leave room for the draw (2) and
    # the spectra.
    _Sampled(
        "markov", _semigroup_levels, draws=1, nbytes=7, operand=_semigroup,
        kernel=lambda maps, x: _markov_margins(maps, x.pop()),
        limits=lambda cfg, n: [cfg.tol] * 2 * len(SEMIGROUP_TIMES),
    ),
    # the pair, its stack and that stack's image (6), and the two products
    # (2); 11 leave room for the draw (4) and a map's own copies of its input.
    _Sampled(
        "symmetry", _semigroup_levels, draws=2, nbytes=11, operand=_semigroup,
        kernel=lambda maps, xy: _symmetry_margins(maps, *xy),
        limits=lambda cfg, n: [cfg.tol] * len(SEMIGROUP_TIMES),
        lone=lambda maps: _unit_drift(maps),
    ),
    _Suite("choi", lambda cfg: [  # the largest matrix: the d^2 x d^2 Choi matrix
        _Unit(n, 16 * 16 ** n) for n in _semigroup_levels(cfg)
    ], _run_choi),
    # At the peak, in the d(a) b or the a d(b) term, the pair (2), D V (2),
    # the term's two factors (4), and the product that replaces one of them
    # or the term's probe (2): 10, more than the draw (4); 13 leave room for
    # the (d, 2, 2) sketches of _probe, which count at small d. An energy
    # gap holds its b and the stacks b came from (2: the ambient and its
    # normals, or the stacks of a gather), b's factors, or the right one and
    # its weighted copy (4), and one conjugated factor (2); 9 leave room for
    # the Gram blocks (see _energy_gaps).
    _Sampled(
        "leibniz", _all_levels, draws=2, nbytes=13,
        operand=lambda cfg, n: _leibniz_probes(cfg.seed, n),
        kernel=lambda probes, ab: _leibniz_defects(*ab, probes)[:, None],
        limits=lambda cfg, n: [cfg.tol],
        tower=lambda probes, b: _energy_gaps(b), ambient_stream="leibniz-ambient",
        ambient_nbytes=9, tower_nbytes=9,
    ),
    _Suite("compatibility", lambda cfg: [_Unit(cfg.level, 16 * 4 ** cfg.level)], _run_compatibility),
    # A check's b, |b|^2 and the generator's image of b (3), more than the
    # draw (2: its normals and the stack complex_gaussian writes them into);
    # 5 leave room for E_{L-1} a, held for the gather. A gathered sample
    # holds b, the stacks it was gathered from, |b|^2 and the image: 4.
    _Sampled(
        "normalization-bridge", tol="eig_tol",
        tower=lambda gen, b: np.abs(commutator_energies(b) - 2.0 * form_energies(gen, b)),
        ambient_stream="normalization-bridge", ambient_nbytes=5, tower_nbytes=4,
        lone=lambda gen: [_commutator_deviation(commutator_generator(gen.level))],
    ),
    # A check's a, P_n a or Q_n a, and the generator's image of it (3), more
    # than the draw (2); 5 leave room for E_n a.
    _Sampled(
        "convergence", _top_level, draws=1, nbytes=5,
        kernel=lambda gen, a: _convergence_margins(gen, *a),
        limits=lambda cfg, n: [cfg.tol] * (2 * n) + [cfg.eig_tol],
    ),
)
SUITE_NAMES = tuple(suite.name for suite in _SUITES)

# Each suite's runner(cfg, unit), in registry order. run_suite looks a
# runner up here for every unit, so a wrapper put in its place runs.
_SUITE_RUNNERS = {suite.name: suite.run for suite in _SUITES}


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one harness run; see SUITE_NAMES for valid suites."""

    level: int = 4
    suites: tuple = SUITE_NAMES
    samples: int = 200
    seed: int = 7
    tol: float = 1e-10
    eig_tol: float = 1e-12
    out_dir: str | None = None

    def __post_init__(self):
        for name in ("level", "samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.level < 1:
            raise ValueError(f"working level must be >= 1, got {self.level}")
        # 2^level > DENSIFY_DIM_CAP^2, compared without computing 2^level
        if self.level >= (DENSIFY_DIM_CAP ** 2).bit_length():
            top = (DENSIFY_DIM_CAP ** 2).bit_length() - 1
            raise ValueError(
                f"working level must be <= {top}, got {self.level}: one "
                f"level-{top + 1} element has more entries than the dense body "
                f"at the cap DENSIFY_DIM_CAP={DENSIFY_DIM_CAP} (256 MiB)"
            )
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        for name in ("tol", "eig_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
            object.__setattr__(self, name, check_nonnegative(name, value))
        if isinstance(self.suites, str):
            raise ValueError(f"suites must be a tuple of names, got {self.suites!r}")
        names = [suite.name for suite in _SUITES]
        suites = tuple(self.suites)
        if suites == ("all",):
            suites = tuple(names)
        unknown = [s for s in suites if s not in names]
        if unknown:
            raise ValueError(
                f"unknown suite name(s) {unknown}; valid names: "
                f"{', '.join(names)} (or 'all')"
            )
        if not suites:
            raise ValueError(
                f"no suite selected; name at least one of {', '.join(names)} "
                f"(or 'all')"
            )
        object.__setattr__(self, "suites", suites)


def run_suite(cfg: RunConfig) -> list[PropertyReport]:
    """Run the selected suites; write reports when cfg.out_dir is set. The
    caller decides the process exit status from the failure counts.

    Every suite is split into the independent units its registry record
    lists, each run by one call of its suite's _SUITE_RUNNERS entry. The
    units of all selected suites share max(1, CPUs // BLAS threads)
    threads, as in evolve_table (one worker runs them in the calling
    thread). Every unit whose sample exceeds tower.POOL_CHUNK_BYTES
    (levels 9 and above) runs first, one at a time; the others then share
    the workers. Both go highest level first, a level's tower units (the
    longer jobs) before its other units, ties in registry order. Each
    suite's results are folded in registry order, so the reports are
    byte-identical to one thread. An error in any unit is raised
    unchanged, and no report is written."""
    selected = [suite for suite in _SUITES if suite.name in cfg.suites]
    units = [(suite.name, unit) for suite in selected for unit in suite.units(cfg)]

    def run(item):
        name, unit = item
        return _SUITE_RUNNERS[name](cfg, unit)

    workers = _pool_workers(os.environ, _available_cpus())
    by_level = sorted(range(len(units)), key=lambda i: (-units[i][1].level, not units[i][1].tower))
    alone = [i for i in by_level if units[i][1].nbytes > tower.POOL_CHUNK_BYTES]
    shared = [i for i in by_level if units[i][1].nbytes <= tower.POOL_CHUNK_BYTES]
    results = {}
    for order, n in [(alone, 1), (shared, workers)]:
        results.update(zip(order, _pool_map(run, [units[i] for i in order], n)))
    reports: list[PropertyReport] = []
    for suite in selected:
        parts = [results[i] for i, (owner, _) in enumerate(units) if owner == suite.name]
        reports.extend(suite.fold(cfg, parts))
    if cfg.out_dir is not None:
        write_reports(cfg.out_dir, reports)
    return reports


def _open_new(path):
    """Open path for writing text as a new file: an existing file is unlinked,
    not rewritten in place, which can stall for a second on some disks."""
    path = Path(path)
    path.unlink(missing_ok=True)
    return open(path, "w", newline="")


def write_reports(out_dir, reports: list[PropertyReport]) -> None:
    """One JSON file per report plus a CSV summary, byte-reproducible."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for rep in reports:
        with _open_new(out / f"{rep.suite}-level{rep.level}.json") as fh:
            fh.write(rep.to_json())
    columns = [field.name for field in fields(PropertyReport)]
    write_table_csv(out / "summary.csv", columns, map(asdict, reports))


# --------------------------------------------------------------------------
# tables
# --------------------------------------------------------------------------

CONVERGE_COLUMNS = ("n", "E_n", "E_Q_n", "Q_n_norm_sq", "sqrt_gap")
EVOLVE_COLUMNS = ("t", "trace_re", "trace_im", "gns_norm", "energy", "min_eig", "max_eig")


@np.errstate(over="ignore", invalid="ignore")  # _finite_rows fails closed
def converge_table(mat: np.ndarray) -> list[dict]:
    """Rows (n, E_n(a), E(Q_n a), ||Q_n a||_2^2, |sqrt(E_n) - sqrt(E)|),
    n = 1 .. L, for the diagonal form on a level-L matrix a, L >= 1; the
    last row is exact. A non-finite entry raises a ValueError (see
    _finite_rows)."""
    gen = DiagonalComplement(mat.shape[-1])
    if gen.level < 1:
        raise ValueError("the converge table needs an element of level >= 1, got level 0")
    root = _sqrt_energy(form_energies(gen, mat))
    rows = [
        {
            "n": n,
            "E_n": float(e_n),
            "E_Q_n": float(e_q),
            "Q_n_norm_sq": float(q_sq),
            "sqrt_gap": float(abs(_sqrt_energy(e_n) - root)),
        }
        for n, e_n, e_q, q_sq in _restricted_energies(gen, mat)
    ]
    return _finite_rows("converge", CONVERGE_COLUMNS, rows)


def _finite_rows(table: str, columns, rows: list[dict]) -> list[dict]:
    """rows, or a ValueError naming the first non-finite row and column."""
    for i, row in enumerate(rows):
        for c in columns:
            if not math.isfinite(row[c]):
                raise ValueError(
                    f"{table} table row {i}, column {c} is {row[c]!r}; rescale the input"
                )
    return rows


# The variables a BLAS reads its thread count from, first taking precedence:
# OpenBLAS and MKL each let their own variable override OMP_NUM_THREADS.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _pool_workers(env, cpus: int) -> int:
    """Threads for run_suite and evolve_table: the CPUs divided by the
    BLAS's own thread count, which is every CPU unless a variable in
    _BLAS_THREAD_VARS holds a positive integer (anything else counts as
    unset)."""
    blas = cpus
    for name in _BLAS_THREAD_VARS:
        try:
            n = int(env.get(name, ""))
        except ValueError:
            continue
        if n > 0:
            blas = n
            break
    return max(1, cpus // blas)


def _available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_map(fn, items: list, workers: int) -> list:
    """[fn(x) for x in items] on min(workers, len(items)) threads, in item
    order. The calling thread is one of them: it starts the others, and
    each thread takes the next item in order whenever it is free, so only
    workers - 1 threads are started (each new thread costs memory for its
    own allocator arena). After an error no item starts; the first error in
    item order is raised unchanged once the running calls have ended."""
    workers = min(workers, len(items))
    results = [None] * len(items)
    errors = {}
    lock = threading.Lock()
    order = iter(range(len(items)))

    def work():
        while True:
            with lock:
                i = None if errors else next(order, None)
            if i is None:
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                with lock:
                    errors[i] = exc

    helpers = [threading.Thread(target=work) for _ in range(workers - 1)]
    for thread in helpers:
        thread.start()
    try:
        work()
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[min(errors)]
    return results


@np.errstate(over="ignore", invalid="ignore")  # evolve_table fails closed
def _evolve_chunk(gen, a, times) -> list[dict]:
    """Rows of evolve_table for one chunk of the time grid, with all spectra
    from one eigvalsh call on the stacked Hermitian parts; the energy is that
    of the form of gen, the semigroup's generator."""
    d = gen.dim
    herms = np.empty((len(times), d, d), dtype=complex)
    rows = []
    for herm, t in zip(herms, times):
        y = SemigroupMap(gen, t).apply_matrix(a)
        tr = np.trace(y) / d
        np.add(y, y.conj().T, out=herm)
        herm *= 0.5
        rows.append(
            {
                "t": t,
                "trace_re": float(tr.real),
                "trace_im": float(tr.imag),
                "gns_norm": math.sqrt(max(float((matrix_vdot(y, y) / d).real), 0.0)),
                "energy": float(form_energies(gen, y)),
            }
        )
    for row, ev in zip(rows, np.linalg.eigvalsh(herms)):
        row["min_eig"] = float(ev[0])
        row["max_eig"] = float(ev[-1])
    return rows


def evolve_table(mat: np.ndarray, t_grid) -> list[dict]:
    """Trajectory of a matrix under the diagonal-complement semigroup at its
    own level; min/max eigenvalues refer to the Hermitian part.

    Every worker count uses the same chunks of at most
    tower.POOL_CHUNK_BYTES of Hermitian parts (one row when a part exceeds
    it, level 9 on), each with its spectra from one stacked eigvalsh call
    (a stack releases the GIL). They run on max(1, CPUs // BLAS threads)
    threads (see _pool_workers), one worker in the calling thread, and one
    from level 9 on. There is no setting. Every row comes from the same
    operations as in sequential evaluation, so the output is byte-identical
    to it, in grid order. An error in any chunk is raised unchanged, and no
    rows are returned. A non-finite entry raises a ValueError (see
    _finite_rows)."""
    gen = DiagonalComplement(mat.shape[-1])
    times = [float(t) for t in t_grid]
    step = tower.POOL_CHUNK_BYTES // (16 * gen.dim * gen.dim)
    workers = _pool_workers(os.environ, _available_cpus()) if step else 1
    step = max(step, 1)
    chunks = [times[i:i + step] for i in range(0, len(times), step)]
    # The chunks share gen, whose lazily cached Schur measure is a pure
    # function of gen: threads that fill it at once store equal values.
    run = functools.partial(_evolve_chunk, gen, mat)
    rows = [row for part in _pool_map(run, chunks, workers) for row in part]
    return _finite_rows("evolve", EVOLVE_COLUMNS, rows)


def write_table_csv(path, columns, rows) -> None:
    """CSV with a header row, '.' decimal separator, no locale anywhere."""
    with _open_new(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                [repr(row[c]) if isinstance(row[c], float) else row[c] for c in columns]
            )
