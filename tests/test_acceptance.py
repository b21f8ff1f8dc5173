"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its stated tolerance. Run with `pytest -v -s`."""

import time

import numpy as np

from reference import (
    amplified_form,
    eval_form,
    gaussian_general,
    gns_inner,
    normalized_trace,
    product,
    project_P,
    project_Q,
    semigroup_maps,
    suite_report,
)
from towerforms.tower import AlgebraElement
from towerforms.expectations import cond_expect
from towerforms.superop import (
    DiagonalComplement,
    DoubleCommutatorFamily,
    ScaledMap,
    SemigroupMap,
    TransposeMap,
    choi_min_eigenvalue,
    densify,
)
from towerforms.forms import (
    CompatibleFamily,
    FamilyCompatibilityError,
    build_from_family,
    commutator_form_eval,
    commutator_generator,
)
from towerforms.derivation import bimodule_inner, bimodule_left, bimodule_right, derive
from towerforms.harness import RunConfig, run_suite


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_dirichlet_contraction():
    """Levels 1-4, 1000 Hermitian samples each, E(a^1) <= E(a) + 1e-10,
    zero failures, under 60 seconds."""
    start = time.perf_counter()
    failures = 0
    worst = -np.inf
    for n in (1, 2, 3, 4):
        gen = DiagonalComplement(2 ** n)
        rep = suite_report("dirichlet", gen, gen, samples=1000, seed=1000 + n)
        failures += rep.failures
        worst = max(worst, rep.worst_margin)
    elapsed = time.perf_counter() - start
    _report(
        1,
        failures == 0 and elapsed < 60.0,
        f"dirichlet contraction levels 1-4, 4x1000 samples: failures={failures}, "
        f"worst margin {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_markov_symmetric_conservative():
    """Semigroup of the diagonal complement at levels 1-3, t in
    {0.1, 1, 10}: contraction spectra within [-1e-10, 1 + 1e-10], trace
    symmetry and unit preservation to 1e-10 on 500 samples."""
    markov_failures = 0
    sym_failures = 0
    worst = -np.inf
    for n in (1, 2, 3):
        gen = DiagonalComplement(2 ** n)
        maps = semigroup_maps(gen)
        rep_m = suite_report("markov", gen, maps, samples=500, seed=2000 + n)
        rep_s = suite_report("symmetry", gen, maps, samples=500, seed=2100 + n)
        markov_failures += rep_m.failures
        sym_failures += rep_s.failures
        worst = max(worst, rep_m.worst_margin, rep_s.worst_margin)
    _report(
        2,
        markov_failures == 0 and sym_failures == 0,
        f"markov/symmetry/conservativity levels 1-3: markov failures="
        f"{markov_failures}, symmetry failures={sym_failures}, worst {worst:.3e}",
    )


def test_criterion_3_complete_positivity():
    """Choi matrices of the semigroup maps are PSD to 1e-10 at levels 1-3
    on sampled times; the injected transpose map is flagged with smallest
    eigenvalue -1 to 1e-10."""
    rng = np.random.default_rng(3000)
    worst_min = np.inf
    for n in (1, 2, 3):
        gen = DiagonalComplement(2 ** n)
        times = [0.1, 1.0, 10.0] + list(rng.uniform(0.0, 10.0, size=5))
        for t in times:
            worst_min = min(worst_min, choi_min_eigenvalue(SemigroupMap(gen, t)))
    transpose_min = choi_min_eigenvalue(TransposeMap(2))
    ok = worst_min >= -1e-10 and abs(transpose_min + 1.0) <= 1e-10
    _report(
        3,
        ok,
        f"complete positivity: worst semigroup Choi eigenvalue {worst_min:.3e}, "
        f"transpose control {transpose_min:.12f}",
    )


def test_criterion_4_normalization_bridge():
    """Commutator sum equals twice the conditioned diagonal-form energy to
    1e-12 on 1000 samples per level <= 4, and the double-commutator
    generator densifies to exactly twice the diagonal complement."""
    worst_bridge = -np.inf
    for n in (1, 2, 3, 4):
        rng = np.random.default_rng(4000 + n)
        form_n = DiagonalComplement(2 ** n)
        for _ in range(1000):
            a = AlgebraElement(4, gaussian_general(16, rng))
            lhs = commutator_form_eval(a, n)
            rhs = 2.0 * eval_form(form_n, cond_expect(a, n))
            worst_bridge = max(worst_bridge, abs(lhs - rhs))
    worst_gen = -np.inf
    for n in (1, 2, 3, 4):
        d = 2 ** n
        ps = [np.diag((np.arange(d) == i).astype(float)) for i in range(d)]
        double = densify(DoubleCommutatorFamily(ps)).matrix
        twice = 2.0 * densify(DiagonalComplement(d)).matrix
        worst_gen = max(worst_gen, float(np.abs(double - twice).max()))
    ok = worst_bridge <= 1e-12 and worst_gen <= 1e-12
    _report(
        4,
        ok,
        f"normalization bridge: worst value gap {worst_bridge:.3e}, worst "
        f"generator gap {worst_gen:.3e} (tol 1e-12)",
    )


def test_criterion_5_convergence_chain():
    """200 random level-4 elements: |sqrt(E_n) - sqrt(E)| <= sqrt(E(Q_n a))
    + 1e-10 and E(Q_n a) <= ||Q_n a||_2^2 + 1e-10 for every n <= 4, with
    E(Q_4 a) <= 1e-12."""
    form = DiagonalComplement(16)
    rng = np.random.default_rng(5000)
    worst_chain = -np.inf
    worst_tail = -np.inf
    worst_top = -np.inf
    for _ in range(200):
        a = AlgebraElement(4, gaussian_general(16, rng))
        energy = eval_form(form, a)
        for n in (1, 2, 3, 4):
            e_n = eval_form(form, project_P(a, n))
            qa = project_Q(a, n)
            e_q = eval_form(form, qa)
            worst_chain = max(
                worst_chain,
                abs(np.sqrt(max(e_n, 0.0)) - np.sqrt(max(energy, 0.0)))
                - np.sqrt(max(e_q, 0.0)),
            )
            worst_tail = max(worst_tail, e_q - gns_inner(qa, qa).real)
            if n == 4:
                worst_top = max(worst_top, e_q)
    ok = worst_chain <= 1e-10 and worst_tail <= 1e-10 and worst_top <= 1e-12
    _report(
        5,
        ok,
        f"convergence chain on 200 level-4 samples: chain {worst_chain:.3e}, "
        f"tail bound {worst_tail:.3e}, top-level tail {worst_top:.3e}",
    )


def test_criterion_6_projection_algebra():
    """P_n^2 = P_n, GNS self-adjointness, P_m P_n = P_min(m,n), and
    <P_n a, Q_n a> = 0, all to 1e-10 across levels <= 4."""
    rng = np.random.default_rng(6000)
    worst = -np.inf
    for _ in range(200):
        a = AlgebraElement(4, gaussian_general(16, rng))
        b = AlgebraElement(4, gaussian_general(16, rng))
        for n in range(5):
            pa = project_P(a, n)
            worst = max(worst, np.abs(project_P(pa, n).entries - pa.entries).max())
            worst = max(worst, abs(gns_inner(pa, b) - gns_inner(a, project_P(b, n))))
            worst = max(worst, abs(gns_inner(pa, project_Q(a, n))))
            for m in range(5):
                lhs = project_P(pa, m)
                rhs = project_P(a, min(m, n))
                worst = max(worst, np.abs(lhs.entries - rhs.entries).max())
    _report(
        6,
        worst <= 1e-10,
        f"projection algebra levels <= 4 on 200 sample pairs: worst deviation "
        f"{worst:.3e}",
    )


def test_criterion_7_derivation_suite():
    """Leibniz rule on 500 random pairs at each level and the energy
    identity tau(<da, da>) = commutator energy, both to 1e-10."""
    worst_leibniz = -np.inf
    for n in (1, 2, 3, 4):
        rng = np.random.default_rng(7000 + n)
        d = 2 ** n
        for _ in range(500):
            a = AlgebraElement(n, gaussian_general(d, rng))
            b = AlgebraElement(n, gaussian_general(d, rng))
            lhs = derive(product(a, b), n)
            rhs = bimodule_right(derive(a, n), b) + bimodule_left(a, derive(b, n))
            worst_leibniz = max(
                worst_leibniz,
                max(
                    np.abs(x - y).max()
                    for x, y in zip(lhs.stack, rhs.stack)
                ),
            )
    worst_energy = -np.inf
    rng = np.random.default_rng(7100)
    for _ in range(500):
        a = AlgebraElement(4, gaussian_general(16, rng))
        for n in (1, 2, 3, 4):
            f = derive(a, n)
            energy = normalized_trace(bimodule_inner(f, f)).real
            worst_energy = max(worst_energy, abs(energy - commutator_form_eval(a, n)))
    ok = worst_leibniz <= 1e-10 and worst_energy <= 1e-10
    _report(
        7,
        ok,
        f"derivation suite: Leibniz worst {worst_leibniz:.3e}, energy identity "
        f"worst {worst_energy:.3e}",
    )


def test_criterion_8_compatible_family_recovery():
    """The commutator family is compatible to 1e-12 on full matrix-unit
    bases, recovery reproduces the top form exactly, and a x2-perturbed
    family is rejected with a witness."""
    family = CompatibleFamily(tuple(commutator_generator(n) for n in (1, 2, 3, 4)))
    recovered = build_from_family(family, tol=1e-12)
    direct = commutator_generator(4)
    recovery_gap = float(np.abs(densify(recovered).matrix - densify(direct).matrix).max())

    perturbed = list(family.forms)
    perturbed[1] = ScaledMap(2.0, perturbed[1])
    rejected = False
    witness = ""
    try:
        build_from_family(CompatibleFamily(tuple(perturbed)))
    except FamilyCompatibilityError as err:
        rejected = True
        witness = f"level {err.level}, unit {err.unit}"
    ok = recovery_gap <= 1e-12 and rejected
    _report(
        8,
        ok,
        f"compatible family: recovery gap {recovery_gap:.3e}, perturbed family "
        f"rejected={rejected} ({witness})",
    )


def test_criterion_9_completely_dirichlet_amplification():
    """Block-matrix amplifications at k = 2, 3 over levels <= 3 pass the
    Dirichlet contraction suite with 500 samples at 1e-10."""
    failures = 0
    worst = -np.inf
    for n in (1, 2, 3):
        for k in (2, 3):
            amp = amplified_form(DiagonalComplement(2 ** n), k)
            rep = suite_report("dirichlet", amp, amp, samples=500, seed=9000 + 10 * n + k)
            failures += rep.failures
            worst = max(worst, rep.worst_margin)
    _report(
        9,
        failures == 0,
        f"amplified Dirichlet k=2,3 levels 1-3, 500 samples each: failures="
        f"{failures}, worst margin {worst:.3e}",
    )


def test_criterion_10_reproducibility_and_runtime(tmp_path):
    """Two identically configured default runs produce byte-identical
    reports; the full default suite finishes well inside five minutes."""
    start = time.perf_counter()
    cfg1 = RunConfig(out_dir=str(tmp_path / "run1"))
    run_suite(cfg1)
    elapsed = time.perf_counter() - start
    cfg2 = RunConfig(out_dir=str(tmp_path / "run2"))
    run_suite(cfg2)
    names1 = sorted(p.name for p in (tmp_path / "run1").iterdir())
    names2 = sorted(p.name for p in (tmp_path / "run2").iterdir())
    identical = names1 == names2 and all(
        (tmp_path / "run1" / n).read_bytes() == (tmp_path / "run2" / n).read_bytes()
        for n in names1
    )
    ok = identical and elapsed < 300.0
    _report(
        10,
        ok,
        f"reproducibility: {len(names1)} report files byte-identical="
        f"{identical}, default suite {elapsed:.1f}s",
    )
