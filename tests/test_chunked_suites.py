"""The randomized suites draw and check their samples a chunk at a time.
Each is compared here with a plain per-sample loop built from the element
API: the reports must be equal byte for byte, whatever the chunk size."""

import math

import numpy as np
import pytest

from towerforms import forms, harness, superop, tower
from towerforms.derivation import bimodule_inner, bimodule_left, bimodule_right, derive
from towerforms.expectations import (
    cond_expect,
    diagonal_part,
    partial_trace_matrix,
    project_P,
    project_Q,
)
from towerforms.forms import (
    commutator_form_eval,
    commutator_generator,
    diagonal_form,
    eval_form,
    eval_form_matrix,
)
from towerforms.harness import SEMIGROUP_LEVEL_CAP, RunConfig, run_suite
from towerforms.report import PropertyReport, worst_along, worst_of
from towerforms.superop import DiagonalComplement, semigroup_apply
from towerforms.tower import (
    AlgebraElement,
    clamp_spectrum,
    gaussian_general,
    gaussian_hermitian,
    gns_inner,
    normal_chunks,
    normalized_trace,
    random_matrix,
)


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
        form = diagonal_form(n)
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
            for t in cfg.times:
                y = semigroup_apply(gen, t, x).entries
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
        for t in cfg.times:
            drift = np.abs(semigroup_apply(gen, t, eye).entries - eye.entries).max()
            conserv = worst_of(conserv, drift)
        worst, failures = conserv, 0 if conserv <= cfg.tol else 1
        for _ in range(cfg.samples):
            x = AlgebraElement(n, random_matrix(d, "general", rng))
            y = AlgebraElement(n, random_matrix(d, "general", rng))
            margin = -np.inf
            for t in cfg.times:
                lhs = np.trace(semigroup_apply(gen, t, x).entries @ y.entries) / d
                rhs = np.trace(x.entries @ semigroup_apply(gen, t, y).entries) / d
                margin = worst_of(margin, abs(lhs - rhs))
            worst = worst_of(worst, margin)
            failures += not margin <= cfg.tol
        reports.append(_report("symmetry", n, cfg.samples, failures, worst, seed, cfg.tol))
    return reports


def ref_leibniz(cfg):
    reports = []
    for n in range(1, cfg.level + 1):
        seed = harness._suite_seed(cfg.seed, "leibniz", n)
        rng = np.random.default_rng(seed)
        worst, failures = -np.inf, 0
        for _ in range(cfg.samples):
            a = AlgebraElement(n, gaussian_general(2 ** n, rng))
            b = AlgebraElement(n, gaussian_general(2 ** n, rng))
            lhs = derive(a @ b, n)
            rhs = bimodule_right(derive(a, n), b) + bimodule_left(a, derive(b, n))
            margin = (lhs - rhs).max_abs()
            amb = AlgebraElement(cfg.level, gaussian_general(2 ** cfg.level, rng))
            df = derive(amb, n)
            energy = normalized_trace(bimodule_inner(df, df)).real
            margin = worst_of(margin, abs(energy - commutator_form_eval(amb, n)))
            worst = worst_of(worst, margin)
            failures += not margin <= cfg.tol
        reports.append(_report("leibniz", n, cfg.samples, failures, worst, seed, cfg.tol))
    return reports


def ref_normalization_bridge(cfg):
    reports = []
    for n in range(1, cfg.level + 1):
        seed = harness._suite_seed(cfg.seed, "normalization-bridge", n)
        rng = np.random.default_rng(seed)
        form_n = diagonal_form(n)
        worst, failures = -np.inf, 0
        for _ in range(cfg.samples):
            a = AlgebraElement(cfg.level, gaussian_general(2 ** cfg.level, rng))
            bridge = abs(
                commutator_form_eval(a, n) - 2.0 * eval_form(form_n, cond_expect(a, n))
            )
            worst = worst_of(worst, bridge)
            failures += not bridge <= cfg.eig_tol
        coeffs = commutator_generator(n).schur - 2.0 * DiagonalComplement(2 ** n).schur
        generator_dev = float(np.abs(coeffs).max())
        worst = worst_of(worst, generator_dev)
        failures += not generator_dev <= cfg.eig_tol
        reports.append(
            _report("normalization-bridge", n, cfg.samples, failures, worst, seed, cfg.eig_tol)
        )
    return reports


def ref_convergence(cfg):
    seed = harness._suite_seed(cfg.seed, "convergence", cfg.level)
    rng = np.random.default_rng(seed)
    form = diagonal_form(cfg.level)
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


REFERENCES = {
    "dirichlet": ref_dirichlet,
    "markov": ref_markov,
    "symmetry": ref_symmetry,
    "leibniz": ref_leibniz,
    "normalization-bridge": ref_normalization_bridge,
    "convergence": ref_convergence,
}


# --------------------------------------------------------------------------
# chunked suites against the references
# --------------------------------------------------------------------------


def chunks_of(monkeypatch, size) -> list:
    """Make every normal_chunks call of the suites yield chunks of `size`
    samples (None: the default budget); return the chunk sizes of each call."""
    calls = []

    def sized(rng, samples, *shapes):
        if size is not None:
            per_sample = 8 * sum(math.prod(s) for s in shapes)
            monkeypatch.setattr(tower, "SAMPLE_CHUNK_BYTES", size * per_sample)
        calls.append([])
        for blocks in normal_chunks(rng, samples, *shapes):
            calls[-1].append(len(blocks[0]))
            yield blocks

    for module in (harness, forms, superop):
        monkeypatch.setattr(module, "normal_chunks", sized)
    return calls


@pytest.mark.parametrize("chunk", [None, 5])
@pytest.mark.parametrize("samples", [1, 37, 200])
@pytest.mark.parametrize("level", [1, 2, 3, 4])
@pytest.mark.parametrize("suite", sorted(REFERENCES))
def test_chunked_suites_equal_per_sample_reference(monkeypatch, suite, level, samples, chunk):
    cfg = RunConfig(level=level, samples=samples, suites=(suite,), seed=level + samples)
    calls = chunks_of(monkeypatch, chunk)
    got = [r.to_json() for r in run_suite(cfg)]
    monkeypatch.undo()
    assert got == [r.to_json() for r in REFERENCES[suite](cfg)]
    if chunk is not None and samples == 37:  # several chunks, a partial last one
        assert calls and all(sizes == [5] * 7 + [2] for sizes in calls)


def test_normal_chunks_draw_the_per_sample_stream(monkeypatch):
    """One (S, n) draw yields the numbers of S samples drawn one block at a
    time; the budget bounds the chunk, and one sample is the least."""
    shapes = ((2, 2, 2), (3,), (2, 4, 4))
    per_sample = sum(math.prod(s) for s in shapes)
    monkeypatch.setattr(tower, "SAMPLE_CHUNK_BYTES", 3 * 8 * per_sample + 7)
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    chunks = list(normal_chunks(rng, 11, *shapes))
    assert [len(c[0]) for c in chunks] == [3, 3, 3, 2]
    for chunk in chunks:
        assert [b.shape[1:] for b in chunk] == list(shapes)
        for i in range(len(chunk[0])):
            for block in chunk:
                assert np.array_equal(block[i], ref.standard_normal(block.shape[1:]))
    assert rng.standard_normal() == ref.standard_normal()  # same stream position
    monkeypatch.setattr(tower, "SAMPLE_CHUNK_BYTES", 1)
    assert [len(c[0]) for c in normal_chunks(rng, 3, *shapes)] == [1, 1, 1]


def test_gaussian_general_is_one_chunk_of_one_sample():
    rng, ref = np.random.default_rng(9), np.random.default_rng(9)
    g = gaussian_general(4, rng)
    ((z,),) = normal_chunks(ref, 1, (2, 4, 4))
    assert np.array_equal(g, z[0, 0] + 1j * z[0, 1])


@pytest.mark.parametrize("d", [2, 8, 32])
def test_stacked_kernels_equal_their_per_matrix_calls(d):
    """Each kernel on a stack gives, slice by slice, the bits of its call on
    one matrix; matrix_vdot gives np.vdot's, also on transposed views."""
    rng = np.random.default_rng(d)
    x = np.stack([gaussian_general(2 * d, rng) for _ in range(5)])
    y = np.stack([gaussian_general(2 * d, rng) for _ in range(5)])
    h = tower.hermitian_part(x)
    level = (2 * d).bit_length() - 1
    for xs, ys in [(x, y), (x.swapaxes(-1, -2), y), (h, h)]:
        got = tower.matrix_vdot(xs, ys)
        assert all(got[s] == np.vdot(xs[s], ys[s]) for s in range(5))
    stacked = {
        "clamp": clamp_spectrum(h, 0.0, 1.0),
        "ptrace": partial_trace_matrix(x, level, level - 1),
        "diag": diagonal_part(x),
        "energy": forms.form_energies(diagonal_form(level), x),
        "commutator": forms.commutator_energies(x),
    }
    for s in range(5):
        assert np.array_equal(stacked["clamp"][s], clamp_spectrum(h[s], 0.0, 1.0))
        assert np.array_equal(
            stacked["ptrace"][s], partial_trace_matrix(x[s], level, level - 1)
        )
        assert np.array_equal(stacked["diag"][s], np.diag(np.diag(x[s])))
        assert stacked["energy"][s] == eval_form_matrix(diagonal_form(level), x[s])
        assert stacked["commutator"][s] == forms.commutator_energies(x[s])


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
