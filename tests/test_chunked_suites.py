"""The randomized suites draw and check their samples a chunk at a time.
Each is compared here with a plain per-sample loop built from the element
API of tests/reference.py: the reports must be equal byte for byte,
whatever the chunk size."""

import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from reference import (
    amplified_form,
    apply,
    diagonal_part,
    eval_form,
    gaussian_general,
    gaussian_hermitian,
    gns_inner,
    inner_trace,
    max_abs_factors,
    probe,
    product,
    product_rule_factors,
    project_P,
    project_Q,
    random_element,
    random_matrix,
    worst_of,
)
from towerforms import forms, harness, superop, tower
from towerforms.derivation import BimoduleVector, bimodule_left, bimodule_right, derive
from towerforms.expectations import cond_expect, partial_trace_matrix
from towerforms.forms import commutator_form_eval, commutator_generator, eval_form_matrix
from towerforms.harness import SEMIGROUP_LEVEL_CAP, SEMIGROUP_TIMES, RunConfig, run_suite
from towerforms.report import PropertyReport, fold, worst_along
from towerforms.superop import DiagonalComplement, SemigroupMap
from towerforms.tower import AlgebraElement, clamp_spectrum, gaussian_chunks


# --------------------------------------------------------------------------
# per-sample references
# --------------------------------------------------------------------------


def _report(suite, level, samples, failures, worst, seed, tol):
    return PropertyReport(suite, level, samples, failures, float(worst), seed, tol)


def ref_dirichlet(cfg):
    reports = []
    for n in range(1, cfg.level + 1):
        seed = harness._suite_seed(cfg.seed, "dirichlet", n)
        rng = np.random.default_rng(seed)
        form = DiagonalComplement(2 ** n)
        worst, failures = -np.inf, 0
        for _ in range(cfg.samples):
            a = gaussian_hermitian(2 ** n, rng)
            wedged = clamp_spectrum(a, 0.0, 1.0)
            contraction = eval_form_matrix(form, wedged) - eval_form_matrix(form, a)
            g = gaussian_general(2 ** n, rng)
            reality = abs(eval_form_matrix(form, g.conj().T) - eval_form_matrix(form, g))
            margin = worst_of(contraction, reality)
            worst = worst_of(worst, margin)
            failures += not margin <= cfg.tol
        reports.append(_report("dirichlet", n, cfg.samples, failures, worst, seed, cfg.tol))
    return reports


def ref_markov(cfg):
    reports = []
    for n in range(1, min(cfg.level, SEMIGROUP_LEVEL_CAP) + 1):
        seed = harness._suite_seed(cfg.seed, "markov", n)
        rng = np.random.default_rng(seed)
        gen = DiagonalComplement(2 ** n)
        worst, failures = -np.inf, 0
        for _ in range(cfg.samples):
            x = AlgebraElement(n, random_matrix(2 ** n, "contraction", rng))
            margin = -np.inf
            for t in SEMIGROUP_TIMES:
                y = apply(SemigroupMap(gen, t), x).entries
                ev = np.linalg.eigvalsh(0.5 * (y + y.conj().T))
                margin = worst_of(margin, -ev[0], ev[-1] - 1.0)
            worst = worst_of(worst, margin)
            failures += not margin <= cfg.tol
        reports.append(_report("markov", n, cfg.samples, failures, worst, seed, cfg.tol))
    return reports


def ref_symmetry(cfg):
    reports = []
    for n in range(1, min(cfg.level, SEMIGROUP_LEVEL_CAP) + 1):
        seed = harness._suite_seed(cfg.seed, "symmetry", n)
        rng = np.random.default_rng(seed)
        gen, d = DiagonalComplement(2 ** n), 2 ** n
        eye = AlgebraElement(n, np.eye(d))
        conserv = -np.inf
        for t in SEMIGROUP_TIMES:
            drift = np.abs(apply(SemigroupMap(gen, t), eye).entries - eye.entries).max()
            conserv = worst_of(conserv, drift)
        worst, failures = conserv, 0 if conserv <= cfg.tol else 1
        for _ in range(cfg.samples):
            x = AlgebraElement(n, random_matrix(d, "general", rng))
            y = AlgebraElement(n, random_matrix(d, "general", rng))
            margin = -np.inf
            for t in SEMIGROUP_TIMES:
                lhs = np.trace(apply(SemigroupMap(gen, t), x).entries @ y.entries) / d
                rhs = np.trace(x.entries @ apply(SemigroupMap(gen, t), y).entries) / d
                margin = worst_of(margin, abs(lhs - rhs))
            worst = worst_of(worst, margin)
            failures += not margin <= cfg.tol
        reports.append(_report("symmetry", n, cfg.samples, failures, worst, seed, cfg.tol))
    return reports


def ref_tower(a):
    """[E_1 a, ..., E_L a] for a level-L element a, each E_n a the one-leg
    cond_expect of E_{n+1} a."""
    tower = [a]
    for n in range(a.level - 1, 0, -1):
        tower.append(cond_expect(tower[-1], n))
    return tower[::-1]


def ref_product_rule(a, b, probes):
    """The product-rule margin of the pair (a, b): its defect
    d(ab) - (d(a) b + a d(b)) probed by probes, term by term."""
    n = a.level
    probed = probe(derive(product(a, b), n), probes)
    probed -= probe(bimodule_right(derive(a, n), b), probes)
    probed -= probe(bimodule_left(a, derive(b, n)), probes)
    return float(np.abs(probed).max())


def ref_energy_gap(e_n, n):
    """|tau(<d e_n, d e_n>) - commutator energy of e_n| at level n."""
    df = derive(e_n, n)
    return abs(inner_trace(df).real - commutator_form_eval(e_n, n))


def ref_leibniz(cfg):
    """Sample i of level n: pair i of level n's stream, and E_n of ambient
    i of the stream leibniz-ambient at the working level. Each level probes
    its pairs' defects with its own probe block."""
    levels = range(1, cfg.level + 1)
    seeds = [harness._suite_seed(cfg.seed, "leibniz", n) for n in levels]
    rngs = [np.random.default_rng(seed) for seed in seeds]
    ambients = np.random.default_rng(harness._suite_seed(cfg.seed, "leibniz-ambient", cfg.level))
    probes = [harness._leibniz_probes(cfg.seed, n) for n in levels]
    worst, failures = [-np.inf] * cfg.level, [0] * cfg.level
    for _ in range(cfg.samples):
        pairs = [
            (AlgebraElement(n, gaussian_general(2 ** n, rng)),
             AlgebraElement(n, gaussian_general(2 ** n, rng)))
            for n, rng in zip(levels, rngs)
        ]
        amb = AlgebraElement(cfg.level, gaussian_general(2 ** cfg.level, ambients))
        for n, (a, b), e_n in zip(levels, pairs, ref_tower(amb)):
            margin = worst_of(ref_product_rule(a, b, probes[n - 1]), ref_energy_gap(e_n, n))
            worst[n - 1] = worst_of(worst[n - 1], margin)
            failures[n - 1] += not margin <= cfg.tol
    return [
        _report("leibniz", n, cfg.samples, failures[n - 1], worst[n - 1], seeds[n - 1], cfg.tol)
        for n in levels
    ]


def ref_normalization_bridge(cfg):
    """Every level conditions the ambient samples of the working level's
    stream, and every report names that stream's seed."""
    levels = range(1, cfg.level + 1)
    seed = harness._suite_seed(cfg.seed, "normalization-bridge", cfg.level)
    rng = np.random.default_rng(seed)
    worst, failures = [-np.inf] * cfg.level, [0] * cfg.level
    for _ in range(cfg.samples):
        a = AlgebraElement(cfg.level, gaussian_general(2 ** cfg.level, rng))
        for n, e_n in zip(levels, ref_tower(a)):
            energy = eval_form(DiagonalComplement(2 ** n), e_n)
            bridge = abs(commutator_form_eval(e_n, n) - 2.0 * energy)
            worst[n - 1] = worst_of(worst[n - 1], bridge)
            failures[n - 1] += not bridge <= cfg.eig_tol
    reports = []
    for n in levels:
        coeffs = commutator_generator(n).schur - 2.0 * DiagonalComplement(2 ** n).schur
        generator_dev = float(np.abs(coeffs).max())
        reports.append(
            _report(
                "normalization-bridge", n, cfg.samples,
                failures[n - 1] + (not generator_dev <= cfg.eig_tol),
                worst_of(worst[n - 1], generator_dev), seed, cfg.eig_tol,
            )
        )
    return reports


def ref_per_level_ambient_top(cfg, suite):
    """The working-level report of leibniz or normalization-bridge in a
    layout with a fresh ambient per level, drawn from that level's ambient
    stream (leibniz-ambient, or the bridge's own): at level L that layout
    draws what the one-ambient layout draws."""
    n = cfg.level
    seed = harness._suite_seed(cfg.seed, suite, n)
    rng = np.random.default_rng(seed)
    ambients = np.random.default_rng(harness._suite_seed(cfg.seed, "leibniz-ambient", n))
    tol = cfg.tol if suite == "leibniz" else cfg.eig_tol
    worst, failures = -np.inf, 0
    for _ in range(cfg.samples):
        if suite == "leibniz":
            a = AlgebraElement(n, gaussian_general(2 ** n, rng))
            b = AlgebraElement(n, gaussian_general(2 ** n, rng))
            amb = AlgebraElement(cfg.level, gaussian_general(2 ** cfg.level, ambients))
            margin = worst_of(
                ref_product_rule(a, b, harness._leibniz_probes(cfg.seed, n)),
                ref_energy_gap(amb, n),
            )
        else:
            a = AlgebraElement(cfg.level, gaussian_general(2 ** cfg.level, rng))
            energy = eval_form(DiagonalComplement(2 ** n), cond_expect(a, n))
            margin = abs(commutator_form_eval(a, n) - 2.0 * energy)
        worst = worst_of(worst, margin)
        failures += not margin <= tol
    if suite == "normalization-bridge":
        coeffs = commutator_generator(n).schur - 2.0 * DiagonalComplement(2 ** n).schur
        generator_dev = float(np.abs(coeffs).max())
        worst = worst_of(worst, generator_dev)
        failures += not generator_dev <= tol
    return _report(suite, n, cfg.samples, failures, worst, seed, tol)


def ref_convergence(cfg):
    seed = harness._suite_seed(cfg.seed, "convergence", cfg.level)
    rng = np.random.default_rng(seed)
    form = DiagonalComplement(2 ** cfg.level)
    worst, failures = -np.inf, 0
    for _ in range(cfg.samples):
        a = AlgebraElement(cfg.level, gaussian_general(2 ** cfg.level, rng))
        energy = eval_form(form, a)
        margin, top_tail = -np.inf, 0.0
        for n in range(1, cfg.level + 1):
            qa = project_Q(a, n)
            e_n = eval_form(form, project_P(a, n))
            e_q = eval_form(form, qa)
            chain = (
                abs(math.sqrt(max(e_n, 0.0)) - math.sqrt(max(energy, 0.0)))
                - math.sqrt(max(e_q, 0.0))
            )
            margin = worst_of(margin, chain, e_q - gns_inner(qa, qa).real)
            top_tail = e_q
        worst = worst_of(worst, margin, top_tail)
        failures += not (margin <= cfg.tol and top_tail <= cfg.eig_tol)
    return [_report("convergence", cfg.level, cfg.samples, failures, worst, seed, cfg.tol)]


def ref_converge_table(a):
    """converge_table's rows through the element API, one projection at a
    time."""
    form = DiagonalComplement(a.dim)
    energy = eval_form(form, a)
    rows = []
    for n in range(1, a.level + 1):
        pa = project_P(a, n)
        qa = project_Q(a, n)
        e_n = eval_form(form, pa)
        rows.append(
            {
                "n": n,
                "E_n": e_n,
                "E_Q_n": eval_form(form, qa),
                "Q_n_norm_sq": gns_inner(qa, qa).real,
                "sqrt_gap": abs(math.sqrt(max(e_n, 0.0)) - math.sqrt(max(energy, 0.0))),
            }
        )
    return rows


REFERENCES = {
    "dirichlet": ref_dirichlet,
    "markov": ref_markov,
    "symmetry": ref_symmetry,
    "leibniz": ref_leibniz,
    "normalization-bridge": ref_normalization_bridge,
    "convergence": ref_convergence,
}

# The randomized suites, from their records in harness.
SAMPLED = [suite.name for suite in harness._SUITES if isinstance(suite, harness._Sampled)]


def test_every_sampled_suite_has_a_per_sample_reference():
    assert sorted(SAMPLED) == sorted(REFERENCES)


@pytest.mark.parametrize("suite, kernel", [("dirichlet", "dirichlet_check"), ("markov", "_markov_margins")])
def test_a_kernel_owns_the_stack_it_pops(monkeypatch, suite, kernel):
    """The driver hands a kernel its chunk's stacks in a list, and a stack
    the kernel pops (dirichlet's a, markov's x) is the kernel's alone: it
    is freed once the kernel has replaced it, not when the driver moves on
    to the next chunk."""
    inner, kept = getattr(harness, kernel), []

    def spy(operand, *stacks):
        drawn = weakref.ref(stacks[0])
        stacks = list(stacks)  # the spy hands its stacks on as it got them
        margins = inner(operand, stacks.pop(0), *stacks)
        kept.append(drawn() is not None)
        return margins

    monkeypatch.setattr(harness, kernel, spy)
    run_suite(RunConfig(level=2, samples=3, suites=(suite,)))
    assert kept and not any(kept)


# --------------------------------------------------------------------------
# chunked suites against the references
# --------------------------------------------------------------------------


def chunks_of(monkeypatch, size) -> list:
    """Make the suites' gaussian_chunks call yield chunks of `size`
    samples (None: the default budget) by setting the budget to `size`
    times the bytes the call declares per sample; return the chunk sizes of
    each call. The budget is a module global set per call, so the suites
    run on one worker here; the pooled path is compared with one worker in
    test_harness.py."""
    monkeypatch.setattr(harness, "_available_cpus", lambda: 1)
    calls = []

    def sized(rng, samples, dim, count, nbytes):
        if size is not None:
            monkeypatch.setattr(tower, "POOL_CHUNK_BYTES", size * nbytes)
        calls.append([])
        for rows, mats in gaussian_chunks(rng, samples, dim, count, nbytes):
            calls[-1].append(len(mats[0]))
            yield rows, mats

    monkeypatch.setattr(harness, "gaussian_chunks", sized)
    return calls


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("samples", [1, 37, 200])
@pytest.mark.parametrize("level", [1, 2, 3, 4])
@pytest.mark.parametrize("suite", sorted(SAMPLED))
def test_chunked_suites_equal_per_sample_reference(monkeypatch, suite, level, samples, chunk):
    cfg = RunConfig(level=level, samples=samples, suites=(suite,), seed=level + samples)
    calls = chunks_of(monkeypatch, chunk)
    got = [r.to_json() for r in run_suite(cfg)]
    monkeypatch.undo()
    assert got == [r.to_json() for r in REFERENCES[suite](cfg)]
    if chunk is not None and samples == 37:  # several chunks, a partial last one
        assert calls and all(sizes == [5] * 7 + [2] for sizes in calls)


@pytest.mark.parametrize("samples", [1, 37])
@pytest.mark.parametrize("level", [1, 3, 5])
@pytest.mark.parametrize("suite", ["leibniz", "normalization-bridge"])
def test_working_level_reports_equal_the_per_level_ambient_layout(suite, level, samples):
    """One ambient per sample changes the reports below the working level
    only: at level L the suites draw and check what a fresh ambient per
    level did."""
    cfg = RunConfig(level=level, samples=samples, suites=(suite,), seed=level * samples)
    want = ref_per_level_ambient_top(cfg, suite)
    assert run_suite(cfg)[-1].to_json() == want.to_json()


def test_one_ambient_draw_per_sample(monkeypatch):
    """leibniz draws a pair at every level and one ambient per sample at
    the working level; normalization-bridge draws one ambient per sample."""
    from towerforms.cli import main

    drawn = []

    def counted(rng, samples, dim, count, nbytes):
        for rows, mats in gaussian_chunks(rng, samples, dim, count, nbytes):
            drawn.append(sum(2 * m.size for m in mats))  # a real and an imaginary normal
            yield rows, mats

    monkeypatch.setattr(harness, "gaussian_chunks", counted)
    level, samples = 4, 7
    code = main([
        "verify", "--suite", "leibniz,normalization-bridge",
        "--level", str(level), "--samples", str(samples),
    ])
    assert code == 0
    pairs = sum(4 * 4 ** n * samples for n in range(1, level + 1))
    ambients = 2 * (2 * 4 ** level * samples)
    assert sum(drawn) == pairs + ambients


def test_nan_in_one_ambient_fails_that_sample_at_every_level(monkeypatch):
    """A NaN in the ambient of one sample reaches every level through the
    tower: each leibniz report has a NaN worst margin and one failure."""
    def poisoned(rng, samples, dim, count, nbytes):
        monkeypatch.setattr(tower, "POOL_CHUNK_BYTES", samples * nbytes)  # one chunk
        for rows, mats in gaussian_chunks(rng, samples, dim, count, nbytes):
            if count == 1 and len(mats[0]) > 1:  # the tower unit's ambients
                mats[0][1].flat[0] = np.nan
            yield rows, mats

    monkeypatch.setattr(harness, "_available_cpus", lambda: 1)
    monkeypatch.setattr(harness, "gaussian_chunks", poisoned)
    reports = run_suite(RunConfig(level=4, samples=12, suites=("leibniz",)))
    assert [r.level for r in reports] == [1, 2, 3, 4]
    for rep in reports:
        assert np.isnan(rep.worst_margin) and rep.failures == 1


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_planted_energy_defect_fails_every_sample_at_every_level(monkeypatch, level):
    """A commutator energy off by one part in 10^6 fails every sample of
    both suites at every level: the shared ambient drops no check."""
    true_energies = harness.commutator_energies
    monkeypatch.setattr(
        harness, "commutator_energies", lambda b: true_energies(b) * (1 + 1e-6)
    )
    cfg = RunConfig(level=level, samples=9, suites=("leibniz", "normalization-bridge"))
    reports = run_suite(cfg)
    assert [(r.suite, r.level) for r in reports] == [
        (suite, n) for suite in cfg.suites for n in range(1, level + 1)
    ]
    assert all(r.failures == r.samples for r in reports)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5])
def test_planted_right_action_defect_fails_the_product_rule(monkeypatch, level):
    """A right action off by 100 tol of its scale fails every leibniz
    sample at every level: the pair streams drop no check."""
    cfg = RunConfig(level=level, samples=9, suites=("leibniz",))
    true_action = harness.right_action
    monkeypatch.setattr(
        harness, "right_action", lambda r, a: true_action(r, a) * (1 + 100 * cfg.tol)
    )
    reports = run_suite(cfg)
    assert [r.level for r in reports] == list(range(1, level + 1))
    assert all(r.failures == r.samples for r in reports)


def _plant_one_entry(left, right, tol):
    """The defect factors with one entry of one component moved by 100 tol
    of its row's scale: d(ab)'s factors come first and left[..., 0, :, 0] is
    e_0, so right[..., 0, 0, :] is row 0 of ab, and moving its last entry
    moves entry (0, d - 1) of component 0 alone. The same holds for d(ab)'s
    own factors, the first term the suite probes."""
    right = np.array(right)
    right[..., 0, 0, -1] += 100 * tol * np.abs(right[..., 0, 0, :]).max(axis=-1)
    return left, right


def plant_in_the_product_term(monkeypatch, tol) -> None:
    """Make the suite probe d(ab) with one entry planted (see
    _plant_one_entry): _leibniz_defects probes three terms per chunk,
    d(ab)'s first, so every third _probe call, counted from the first, is
    d(ab)'s. The suite runs on one worker, so the calls come in order."""
    monkeypatch.setattr(harness, "_available_cpus", lambda: 1)
    probe_term, calls = harness._probe, itertools.count()

    def planted(left, right, probes):
        if next(calls) % 3 == 0:
            left, right = _plant_one_entry(left, right, tol)
        return probe_term(left, right, probes)

    monkeypatch.setattr(harness, "_probe", planted)


def test_planted_entry_moves_one_entry_of_one_component():
    """The one-entry control changes entry (0, d - 1) of component 0 of the
    defect, by 100 tol of the largest entry of row 0 of ab, and nothing
    else, planted in the defect's six factor columns or in d(ab)'s two."""
    rng = np.random.default_rng(12)
    a, b = (AlgebraElement(3, gaussian_general(8, rng)) for _ in range(2))
    lhs = derive(product(a, b), 3)
    f = lhs - (bimodule_right(derive(a, 3), b) + bimodule_left(a, derive(b, 3)))
    for g in (f, lhs):
        moved = BimoduleVector(3, *_plant_one_entry(g.left, g.right, 1e-10)).stack - g.stack
        assert list(zip(*np.nonzero(moved))) == [(0, 0, 7)]
        assert moved[0, 0, 7] == pytest.approx(1e-8 * np.abs(lhs.stack[0, 0]).max(), rel=1e-6)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6, 7, 8])
def test_planted_entry_defect_fails_the_product_rule(monkeypatch, level):
    """One entry of one component off by 100 tol of its scale fails every
    leibniz sample at every level: a probe block misses no single entry."""
    cfg = RunConfig(level=level, samples=5, suites=("leibniz",))
    plant_in_the_product_term(monkeypatch, cfg.tol)
    reports = run_suite(cfg)
    assert [r.level for r in reports] == list(range(1, level + 1))
    assert all(r.failures == r.samples for r in reports)


@pytest.mark.parametrize("control", [None, "right-action", "one-entry"])
@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
def test_probes_and_the_full_product_agree_on_every_control(monkeypatch, level, control):
    """The second certificate of the product rule: for each pair the suite
    checks, its probed margin and max_abs_factors of the same pair's full
    six-column defect factors (reference.product_rule_factors) both pass
    every honest sample and both fail every sample of each planted
    control; a planted entry reads sqrt(2) times its size through the
    probes."""
    cfg = RunConfig(level=level, samples=9, suites=("leibniz",))
    defects, true_action, margins = harness._leibniz_defects, harness.right_action, []

    def both(a, b, probes):
        sketch = defects(a, b, probes)
        left, right = product_rule_factors(a, b)
        if control == "one-entry":
            left, right = _plant_one_entry(left, right, cfg.tol)
        margins.append((sketch, max_abs_factors(left, right)))
        return sketch

    monkeypatch.setattr(harness, "_leibniz_defects", both)
    if control == "right-action":
        def planted(r, a):
            return true_action(r, a) * (1 + 100 * cfg.tol)

        monkeypatch.setattr(harness, "right_action", planted)
        monkeypatch.setattr(reference, "right_action", planted)
    if control == "one-entry":
        plant_in_the_product_term(monkeypatch, cfg.tol)
    reports = run_suite(cfg)
    sketch, full = np.concatenate(margins, axis=-1)
    assert len(sketch) == level * cfg.samples
    if control is None:
        assert (sketch <= cfg.tol).all() and (full <= cfg.tol).all()
        assert all(r.failures == 0 for r in reports)
    else:
        assert (sketch > cfg.tol).all() and (full > cfg.tol).all()
        assert all(r.failures == r.samples for r in reports)
    if control == "one-entry":
        np.testing.assert_allclose(sketch, np.sqrt(2) * full, rtol=1e-4)


def test_leibniz_probes_are_seeded_unimodular_blocks():
    """Each level's probe block holds entries +-1 +-i and comes from its
    own stream of the run's seed."""
    for n in (1, 4, 8):
        probes = harness._leibniz_probes(7, n)
        assert probes.shape == (2 ** n, 2)
        assert set(probes.real.flat) | set(probes.imag.flat) <= {-1.0, 1.0}
        assert np.array_equal(probes, harness._leibniz_probes(7, n))
        assert not np.array_equal(probes, harness._leibniz_probes(8, n))


def test_gaussian_chunks_draw_the_per_sample_stream(monkeypatch):
    """One draw per chunk yields the matrices of drawing each sample's
    matrices in turn with gaussian_general; rows tile the samples in order,
    the chunk's declared bytes fit the budget, and one sample is the least."""
    for dim, count, nbytes in [(1, 1, 16), (4, 2, 16 * 5 * 16), (8, 3, 16 * 15 * 64)]:
        monkeypatch.setattr(tower, "POOL_CHUNK_BYTES", 3 * nbytes + 7)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        chunks = list(gaussian_chunks(rng, 11, dim, count, nbytes))
        assert [rows for rows, _ in chunks] == [
            slice(0, 3), slice(3, 6), slice(6, 9), slice(9, 11)
        ]
        for rows, mats in chunks:
            size = rows.stop - rows.start
            assert size * nbytes <= tower.POOL_CHUNK_BYTES
            assert [m.shape for m in mats] == [(size, dim, dim)] * count
            for i in range(size):
                for m in mats:
                    assert np.array_equal(m[i], gaussian_general(dim, ref))
        assert rng.standard_normal() == ref.standard_normal()  # same stream position
        monkeypatch.setattr(tower, "POOL_CHUNK_BYTES", 1)
        chunks = list(gaussian_chunks(rng, 3, dim, count, nbytes))
        assert [rows for rows, _ in chunks] == [slice(0, 1), slice(1, 2), slice(2, 3)]


# Bytes a chunk may hold beyond its declaration: the kernels' scalars,
# views and buffers that do not grow with the samples of a chunk.
CHUNK_ALLOWANCE = 16 * 2 ** 10


class ChunkWindows:
    """Traced peaks of each chunk a run draws and checks, on one worker: a
    window opens when gaussian_chunks starts a draw and closes when the
    suite asks for the next chunk, and a gather below the working level
    (_conditioned_down) is a window of its own, declared by the bytes per
    sample _expectation_towers was given. Each closed window is (samples,
    declared bytes per sample, peak bytes above the traced size at its
    start). With `size`, every call's chunks hold `size` samples (the
    budget set to `size` times its declaration)."""

    def __init__(self, monkeypatch, size=None):
        self.closed, self.open, self.gather_nbytes = [], [], []
        self.monkeypatch, self.size = monkeypatch, size
        monkeypatch.setattr(harness, "_available_cpus", lambda: 1)  # one traced thread
        monkeypatch.setattr(harness, "gaussian_chunks", self.chunks)
        towers, down = harness._expectation_towers, harness._conditioned_down

        def declared_towers(ambients, level, nbytes):
            self.gather_nbytes.append(nbytes)
            return towers(ambients, level, nbytes)

        def gathered(held, rows, level):
            self._enter(sum(len(b) for b in held), self.gather_nbytes[-1])
            yield from down(held, rows, level)
            self._exit()

        monkeypatch.setattr(harness, "_expectation_towers", declared_towers)
        monkeypatch.setattr(harness, "_conditioned_down", gathered)

    def _peak(self, window):
        window[3] = max(window[3], tracemalloc.get_traced_memory()[1] - window[2])

    def _enter(self, samples, nbytes):
        if self.open:
            self._peak(self.open[-1])
        tracemalloc.reset_peak()
        self.open.append([samples, nbytes, tracemalloc.get_traced_memory()[0], 0])

    def _exit(self):
        window = self.open.pop()
        self._peak(window)
        self.closed.append(tuple(window[:2]) + (window[3],))
        tracemalloc.reset_peak()

    def chunks(self, rng, samples, dim, count, nbytes):
        if self.size is not None:
            self.monkeypatch.setattr(tower, "POOL_CHUNK_BYTES", self.size * nbytes)
        drawn = gaussian_chunks(rng, samples, dim, count, nbytes)
        while True:
            self._enter(0, nbytes)
            chunk = next(drawn, None)
            if chunk is None:
                self.open.pop()
                return
            self.open[-1][0] = len(chunk[1][0])
            yield chunk
            self._exit()


@pytest.mark.parametrize("size", [None, 3])
@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
def test_declared_bytes_bound_every_chunk(monkeypatch, level, size):
    """The working bytes each randomized unit declares per sample are an
    upper bound: under tracemalloc, the peak of every chunk it draws and
    checks, and of every gather of expectations below the working level,
    stays within the declared bytes times the chunk's samples plus
    CHUNK_ALLOWANCE, with default chunks and with chunks of three samples;
    and no default chunk of more than one sample declares more than the
    budget."""
    budget = tower.POOL_CHUNK_BYTES
    windows = ChunkWindows(monkeypatch, size)
    tracemalloc.start()
    try:
        run_suite(RunConfig(level=level, samples=23, suites=tuple(SAMPLED)))
    finally:
        tracemalloc.stop()
    assert windows.closed and any(samples > 1 for samples, _, _ in windows.closed)
    for samples, nbytes, peak in windows.closed:
        assert samples >= 1
        assert peak <= samples * nbytes + CHUNK_ALLOWANCE, (samples, nbytes, peak)
        assert size is not None or samples == 1 or samples * nbytes <= budget


def test_gaussian_general_is_one_chunk_of_one_sample():
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    g = gaussian_general(4, rng)
    ((rows, (mat,)),) = gaussian_chunks(ref, 1, 4, 1, 16 * 16)
    assert rows == slice(0, 1) and np.array_equal(g, mat[0])


@pytest.mark.parametrize("d", [2, 8, 32])
def test_stacked_kernels_equal_their_per_matrix_calls(d):
    """Each kernel on a stack gives, slice by slice, the bits of its call on
    one matrix; matrix_vdot gives np.vdot's, also on transposed views."""
    rng = np.random.default_rng(d)
    x = np.stack([gaussian_general(2 * d, rng) for _ in range(5)])
    y = np.stack([gaussian_general(2 * d, rng) for _ in range(5)])
    h = tower.hermitian_part(x)
    level = (2 * d).bit_length() - 1
    amplified = amplified_form(DiagonalComplement(d), 2)
    full = superop.DoubleCommutatorFamily(
        [tower.hermitian_part(gaussian_general(2 * d, rng)) / d for _ in range(2)]
    )
    assert full.schur is None
    for xs, ys in [(x, y), (x.swapaxes(-1, -2), y), (h, h)]:
        got = tower.matrix_vdot(xs, ys)
        assert all(got[s] == np.vdot(xs[s], ys[s]) for s in range(5))
    stacked = {
        "clamp": clamp_spectrum(h, 0.0, 1.0),
        "ptrace": partial_trace_matrix(x, level, level - 1),
        "diag": diagonal_part(x),
        "energy": forms.form_energies(DiagonalComplement(2 * d), x),
        "amplified": forms.form_energies(amplified, x),
        "full": forms.form_energies(full, x),
        "commutator": forms.commutator_energies(x),
    }
    for s in range(5):
        assert np.array_equal(stacked["clamp"][s], clamp_spectrum(h[s], 0.0, 1.0))
        assert np.array_equal(
            stacked["ptrace"][s], partial_trace_matrix(x[s], level, level - 1)
        )
        assert np.array_equal(stacked["diag"][s], np.diag(np.diag(x[s])))
        assert stacked["energy"][s] == eval_form_matrix(DiagonalComplement(2 * d), x[s])
        assert stacked["amplified"][s] == eval_form_matrix(amplified, x[s])
        assert stacked["full"][s] == eval_form_matrix(full, x[s])
        assert stacked["commutator"][s] == forms.commutator_energies(x[s])


def test_max_abs_blocks_cover_every_component(monkeypatch):
    """The full-product reference max_abs_factors: the blockwise max over
    components equals the max over the whole stack, and a NaN in the last
    block gives a NaN."""
    k, d, r = 2 ** 5, 4, 2
    # three components per block: several blocks and a partial last one
    monkeypatch.setattr(tower, "POOL_CHUNK_BYTES", 3 * 24 * d * d)
    rng = np.random.default_rng(402)
    left = rng.standard_normal((k, d, r)) + 1j * rng.standard_normal((k, d, r))
    right = rng.standard_normal((k, r, d))
    f = BimoduleVector(5, left, right)
    assert max_abs_factors(f.left, f.right) == np.abs(f.stack).max()
    left[-1, 0, 0] = np.nan
    assert np.isnan(max_abs_factors(left, right))


def test_worst_along_is_the_worst_of_fold():
    """worst_along keeps what folding worst_of sample after sample keeps:
    the later of 0.0 and -0.0, and NaN wherever it appears."""
    rng = np.random.default_rng(3)
    values = [-1.0, -0.0, 0.0, 2.0, np.nan]
    rows = rng.choice(values, size=(400, 4), p=[0.3, 0.3, 0.3, 0.05, 0.05])
    for row, got in zip(rows, worst_along(rows)):
        want = -np.inf
        for m in row:
            want = worst_of(want, m)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(want) or np.signbit(got) == np.signbit(want)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6, 7])
def test_converge_table_equals_the_element_api(level):
    """converge_table and the convergence suite share one stacked kernel;
    on one element it gives the element API's numbers bit for bit."""
    for kind, seed in [("general", level), ("hermitian", 100 + level)]:
        a = random_element(level, kind, seed)
        got = harness.converge_table(a.entries)
        assert got == ref_converge_table(a)
        assert all(type(v) is float for row in got for k, v in row.items() if k != "n")


def ref_fold(suite, level, seed, tol, margins, samples=None, limits=None):
    """fold as a plain loop: worst_of over every margin, row after row, and
    a failure for each row with a margin above its limit."""
    worst, failures = -np.inf, 0
    for row in margins:
        bounds = [tol] * len(row) if limits is None else limits
        for m in row:
            worst = worst_of(worst, m)
        failures += not all(m <= bound for m, bound in zip(row, bounds))
    rows = len(margins) if samples is None else samples
    return PropertyReport(suite, level, rows, failures, float(worst), seed, tol)


_MARGINS = st.sampled_from([-1.0, -0.0, 0.0, 5e-11, 1e-10, 2e-10, 1.0, np.inf, np.nan])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda cols: st.tuples(
            st.lists(st.lists(_MARGINS, min_size=cols, max_size=cols), max_size=9),
            st.none() | st.lists(
                st.sampled_from([0.0, 1e-12, 1e-10]), min_size=cols, max_size=cols
            ),
        )
    ),
    st.none() | st.integers(0, 20),
)
def test_fold_is_the_per_row_worst_of_loop(rows_and_limits, samples):
    """fold keeps what the per-row loop keeps: NaN wherever it appears, the
    later of equal margins (0.0 and -0.0), per-column limits, and a samples
    count that differs from the rows."""
    margins, limits = rows_and_limits
    args = ("suite", 3, 11, 1e-10, margins, samples, limits)
    got, want = fold(*args), ref_fold(*args)
    assert type(got.worst_margin) is float and type(got.failures) is int
    assert got.to_json() == want.to_json()
    assert np.signbit(got.worst_margin) == np.signbit(want.worst_margin)
