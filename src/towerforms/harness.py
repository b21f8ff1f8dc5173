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
from .tower import check_nonnegative, gaussian_chunks, matrix_vdot
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
    markov_check,
    symmetry_conservativity_check,
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
    draws none)."""

    level: int
    nbytes: int


def _levels(top: int, nbytes_per_entry: int) -> list[_Unit]:
    """One unit per level 1 .. top whose samples hold nbytes_per_entry bytes
    per entry of a level-n matrix."""
    return [_Unit(n, nbytes_per_entry * 4 ** n) for n in range(1, top + 1)]


def _level_check(check, suite: str, cfg: RunConfig, unit: _Unit) -> list[PropertyReport]:
    """The report of check on the diagonal generator at the unit's level."""
    seed = _suite_seed(cfg.seed, suite, unit.level)
    return [check(DiagonalComplement(2 ** unit.level), cfg.samples, seed, cfg.tol)]


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


def _run_leibniz(cfg: RunConfig, unit: _Unit) -> tuple:
    """Product rule for the derivation on pairs at its own level, plus, at
    the working level, the energy identity tau(<da, da>) = commutator
    energy for ambient samples at every level.

    Sample i of level n is the pair i of level n's stream with E_n of the
    ambient i, which the working level's stream draws after its own pair i;
    every level reads its E_n off that one ambient (see _expectation_towers).
    The stream is drawn and checked a chunk at a time (see
    tower.gaussian_chunks). A pair's defect is its product-rule defect,
    summed term by term from the factors of the per-sample element API
    (derive, bimodule_*) and probed by the unit's one probe block (see
    _leibniz_probes, _leibniz_defects) instead of multiplied out; a gap
    comes from the arithmetic of derive and commutator_form_eval, with the
    trace read off the diagonal of bimodule_inner's product (see
    _energy_gaps). Returns the defects of the unit's level, one per sample,
    and at the working level the gaps of every level (one row per level),
    else None. A sample that is never checked keeps a NaN defect or gap."""
    level, samples, d = cfg.level, cfg.samples, 2 ** unit.level
    rng = np.random.default_rng(_suite_seed(cfg.seed, "leibniz", unit.level))
    probes = _leibniz_probes(cfg.seed, unit.level)
    # A sample's working bytes, in complex d x d matrices: at the peak, in
    # the d(a) b or the a d(b) term, the pair and the ambient (3), D V (2),
    # the term's two factors (4), and the product that replaces one of them
    # or the term's probe (2): 11, more than the draw (6); 13 leave room for
    # the (d, 2, 2) sketches of _probe, which count at small d. An energy
    # gap below the working level holds b and the stacks it was gathered
    # from (2), b's factors, or the right one and its weighted copy (4), and
    # one conjugated factor (2); 9 leave room for the Gram blocks (see
    # _energy_gaps).
    matrix = 16 * d * d
    defects = np.full(samples, np.nan)
    if unit.level < level:
        for rows, (a, b) in gaussian_chunks(rng, samples, d, 2, 13 * matrix):
            defects[rows] = _leibniz_defects(a, b, probes)
        return defects, None

    def ambients():  # the working level's stream: its pairs, then the ambient
        for rows, (a, b, ambient) in gaussian_chunks(rng, samples, d, 3, 13 * matrix):
            defects[rows] = _leibniz_defects(a, b, probes)
            del a, b  # freed while the ambient is conditioned
            yield rows, ambient

    gaps = np.full((level, samples), np.nan)
    for n, rows, b in _expectation_towers(ambients(), level, 9 * (matrix // 4)):
        gaps[n - 1, rows] = _energy_gaps(b)
    return defects, gaps


def _leibniz_reports(cfg: RunConfig, parts: list) -> list[PropertyReport]:
    """Level n's report from its defects and gaps, a sample's two margins."""
    gaps = parts[-1][1]
    return [
        fold(
            "leibniz", n, _suite_seed(cfg.seed, "leibniz", n), cfg.tol,
            np.stack((defect, gap), axis=1),
        )
        for n, (defect, _), gap in zip(range(1, cfg.level + 1), parts, gaps)
    ]


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


def _run_normalization_bridge(cfg: RunConfig, unit: _Unit) -> list[PropertyReport]:
    """The commutator sum equals twice the diagonal-form energy of the
    conditioned element, and the double-commutator generator over the
    diagonal projections has exactly twice the Schur coefficients of the
    diagonal complement. Every level conditions the same ambient samples,
    drawn from the working level's stream a chunk at a time and read off
    one tower of expectations (see _expectation_towers)."""
    level = cfg.level
    seed = _suite_seed(cfg.seed, "normalization-bridge", level)
    rng = np.random.default_rng(seed)
    gens = [DiagonalComplement(2 ** n) for n in range(1, level + 1)]
    # level n's row: column i is sample i, the generator's deviation last
    bridges = np.full((level, cfg.samples + 1), np.nan)
    # A sample's working bytes, in complex matrices of its level: a check's
    # b, |b|^2 and the generator's image of b (3), more than the draw (2:
    # its normals and the stack complex_gaussian writes them into); 5 leave
    # room for E_{L-1} a, held for the gather. A gathered sample holds b,
    # the stacks it was gathered from, |b|^2 and the image: 4 matrices of
    # its level.
    matrix = 16 * 4 ** level
    ambients = gaussian_chunks(rng, cfg.samples, 2 ** level, 1, 5 * matrix)
    ambients = ((r, a) for r, (a,) in ambients)
    for n, rows, b in _expectation_towers(ambients, level, 4 * (matrix // 4)):
        bridges[n - 1, rows] = np.abs(
            commutator_energies(b) - 2.0 * form_energies(gens[n - 1], b)
        )
    for n in range(1, level + 1):
        bridges[n - 1, -1] = _commutator_deviation(commutator_generator(n))
    return [
        fold(
            "normalization-bridge", n, seed, cfg.eig_tol, bridge[:, None],
            samples=cfg.samples,
        )
        for n, bridge in enumerate(bridges, start=1)
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


def _run_convergence(cfg: RunConfig, unit: _Unit) -> list[PropertyReport]:
    """Restricted-energy chain for the diagonal form on random ambient
    elements: |sqrt(E_n) - sqrt(E)| <= sqrt(E(Q_n a)), the tail bound
    E(Q_n a) <= ||Q_n a||_2^2, and exactness at the top level, E(Q_L a)
    within eig_tol. Samples go a chunk at a time (see _restricted_energies)."""
    seed = _suite_seed(cfg.seed, "convergence", cfg.level)
    rng = np.random.default_rng(seed)
    gen = DiagonalComplement(2 ** cfg.level)
    margins = np.full((cfg.samples, 2 * cfg.level + 1), np.nan)  # row i: sample i
    # A sample's working bytes, in complex d x d matrices: a check's a,
    # P_n a or Q_n a, and the generator's image of it (3), more than the
    # draw (2: its normals and the stack complex_gaussian writes them into);
    # 5 leave room for E_n a.
    nbytes = 16 * 5 * gen.dim ** 2
    for rows, (a,) in gaussian_chunks(rng, cfg.samples, gen.dim, 1, nbytes):
        root = _sqrt_energy(form_energies(gen, a))
        for n, e_n, e_q, q_sq in _restricted_energies(gen, a):
            margins[rows, 2 * n - 2] = np.abs(_sqrt_energy(e_n) - root) - _sqrt_energy(e_q)
            margins[rows, 2 * n - 1] = e_q - q_sq
        margins[rows, -1] = e_q  # E(Q_L a)
    limits = [cfg.tol] * (2 * cfg.level) + [cfg.eig_tol]
    return [fold("convergence", cfg.level, seed, cfg.tol, margins, limits=limits)]


def _top_unit(cfg: RunConfig) -> list[_Unit]:
    """The one unit of a suite that works on level-L matrices only."""
    return [_Unit(cfg.level, 16 * 4 ** cfg.level)]


def _concatenated(cfg: RunConfig, parts: list) -> list[PropertyReport]:
    return [rep for part in parts for rep in part]


@dataclass(frozen=True)
class _Suite:
    """One suite of the registry: units(cfg) lists its units in the order
    their results fold, and fold(cfg, results) makes its reports from them
    (by default, each unit's reports in unit order). Its runner, which runs
    one unit, is its _SUITE_RUNNERS entry."""

    name: str
    units: Callable
    fold: Callable = _concatenated


# The registry, in suite order.
_SUITES = (
    _Suite("dirichlet", lambda cfg: _levels(cfg.level, 32)),
    _Suite("markov", lambda cfg: _levels(min(cfg.level, SEMIGROUP_LEVEL_CAP), 16)),
    _Suite("symmetry", lambda cfg: _levels(min(cfg.level, SEMIGROUP_LEVEL_CAP), 32)),
    _Suite("choi", lambda cfg: [  # the largest matrix: the d^2 x d^2 Choi matrix
        _Unit(n, 16 * 16 ** n) for n in range(1, min(cfg.level, SEMIGROUP_LEVEL_CAP) + 1)
    ]),
    _Suite("leibniz", lambda cfg: [  # a sample: pair a, pair b, at level L the ambient
        _Unit(n, (48 if n == cfg.level else 32) * 4 ** n) for n in range(1, cfg.level + 1)
    ], _leibniz_reports),
    _Suite("compatibility", _top_unit),
    _Suite("normalization-bridge", _top_unit),
    _Suite("convergence", _top_unit),
)
SUITE_NAMES = tuple(suite.name for suite in _SUITES)

# Each suite's runner(cfg, unit), in registry order. run_suite looks a
# runner up here for every unit, and a level check is looked up by name
# when its runner is called, so a wrapper put in place of either runs.
_SUITE_RUNNERS = {
    "dirichlet": lambda cfg, unit: _level_check(dirichlet_check, "dirichlet", cfg, unit),
    "markov": lambda cfg, unit: _level_check(markov_check, "markov", cfg, unit),
    "symmetry": lambda cfg, unit: _level_check(
        symmetry_conservativity_check, "symmetry", cfg, unit
    ),
    "choi": _run_choi,
    "leibniz": _run_leibniz,
    "compatibility": _run_compatibility,
    "normalization-bridge": _run_normalization_bridge,
    "convergence": _run_convergence,
}


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
    (levels 8 and above) runs first, one at a time; the others then share
    the workers. Both go highest level first, ties in registry order. Each
    suite's results are folded in registry order, so the reports are
    byte-identical to one thread. An error in any unit is raised
    unchanged, and no report is written."""
    selected = [suite for suite in _SUITES if suite.name in cfg.suites]
    units = [(suite.name, unit) for suite in selected for unit in suite.units(cfg)]

    def run(item):
        name, unit = item
        return _SUITE_RUNNERS[name](cfg, unit)

    workers = _pool_workers(os.environ, _available_cpus())
    by_level = sorted(range(len(units)), key=lambda i: -units[i][1].level)
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
