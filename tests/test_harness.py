import math
import sys
import threading

import numpy as np
import pytest

from towerforms import harness
from towerforms.forms import diagonal_form, eval_form
from towerforms.superop import ComposedMap, DiagonalComplement, semigroup_apply
from towerforms.tower import (
    AlgebraElement,
    embed,
    gns_inner,
    identity,
    normalized_trace,
    random_element,
)
from towerforms.harness import (
    CONVERGE_COLUMNS,
    RunConfig,
    SUITE_NAMES,
    converge_table,
    evolve_table,
    run_suite,
    write_table_csv,
)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


def test_config_defaults_are_valid():
    cfg = RunConfig()
    assert cfg.level == 4 and cfg.samples == 200 and cfg.seed == 7
    assert cfg.suites == SUITE_NAMES


def test_config_expands_all():
    assert RunConfig(suites=("all",)).suites == SUITE_NAMES


def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="level"):
        RunConfig(level=0)
    with pytest.raises(ValueError, match="samples"):
        RunConfig(samples=0)
    with pytest.raises(ValueError, match="ascending"):
        RunConfig(times=(1.0, 0.5))
    with pytest.raises(ValueError, match="nonnegative"):
        RunConfig(times=(-1.0, 0.5))


@pytest.mark.parametrize(
    "field, value",
    [
        ("tol", float("nan")),
        ("tol", -1e-10),
        ("eig_tol", float("nan")),
        ("eig_tol", float("inf")),
        ("times", (0.1, float("nan"))),
        ("times", (0.1, float("inf"))),
    ],
)
def test_config_rejects_non_finite_or_negative_tolerances_and_times(field, value):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        RunConfig(**{field: value})


def test_config_rejects_unknown_suite_listing_names():
    with pytest.raises(ValueError) as err:
        RunConfig(suites=("markov", "nonsense"))
    msg = str(err.value)
    assert "nonsense" in msg
    for name in SUITE_NAMES:
        assert name in msg


@pytest.mark.parametrize("level", [13, 64, 10 ** 9])
def test_config_rejects_working_levels_above_the_dense_body_cap(level):
    """A level-13 element has 2^26 entries, more than the 64^2 x 64^2 dense
    body at DENSIFY_DIM_CAP: rejected at construction, before any suite."""
    with pytest.raises(ValueError, match=r"<= 12, .*DENSIFY_DIM_CAP=64"):
        RunConfig(level=level)


def test_config_accepts_working_level_twelve():
    assert RunConfig(level=12, suites=("dirichlet",)).level == 12


def test_config_allows_level_above_densify_cap_for_sampled_suites():
    cfg = RunConfig(level=7, suites=("dirichlet", "markov", "leibniz", "convergence"))
    assert cfg.level == 7


def test_densifying_suites_are_exactly_those_that_densify_the_working_level(monkeypatch):
    """No suite asks for a dense body (densify or Choi) of the working
    dimension: the generator comparisons read Schur coefficients, and the
    semigroup suites stay at or below SEMIGROUP_LEVEL_CAP."""
    from towerforms import superop

    budget = superop._check_budget
    dims = []
    monkeypatch.setattr(
        superop, "_check_budget", lambda dim, *args: dims.append(dim) or budget(dim, *args)
    )
    level = 4
    densifying = set()
    for name in SUITE_NAMES:
        dims.clear()
        run_suite(RunConfig(level=level, suites=(name,), samples=2))
        if 2 ** level in dims:
            densifying.add(name)
    assert densifying == set()


# --------------------------------------------------------------------------
# convergence table
# --------------------------------------------------------------------------


def test_converge_table_embedded_offdiagonal():
    cfg = RunConfig(level=4, suites=("convergence",))
    a = embed(AlgebraElement(1, X), 4)
    rows = converge_table(cfg, a)
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    for r in rows:
        assert abs(r["E_n"] - 1.0) < 1e-12
        assert r["E_Q_n"] < 1e-12
        assert r["sqrt_gap"] < 1e-12


def test_converge_table_diagonal_input_is_all_zero():
    cfg = RunConfig(level=3, suites=("convergence",))
    a = AlgebraElement(3, np.diag(np.arange(8.0)))
    for r in converge_table(cfg, a):
        assert r["E_n"] == 0.0 and r["E_Q_n"] == 0.0 and r["sqrt_gap"] == 0.0


def test_converge_table_rows_satisfy_chain():
    cfg = RunConfig(level=4, suites=("convergence",))
    a = random_element(4, "general", 400)
    rows = converge_table(cfg, a)
    for r in rows:
        assert r["sqrt_gap"] <= np.sqrt(max(r["E_Q_n"], 0.0)) + 1e-10
        assert r["E_Q_n"] <= r["Q_n_norm_sq"] + 1e-10
    assert rows[-1]["E_Q_n"] <= 1e-12


def test_converge_table_rejects_level_mismatch():
    cfg = RunConfig(level=4)
    with pytest.raises(ValueError, match="level"):
        converge_table(cfg, identity(2))


# --------------------------------------------------------------------------
# trajectory table
# --------------------------------------------------------------------------


def test_evolve_table_starts_at_identity_and_decays():
    a = random_element(2, "hermitian", 401)
    rows = evolve_table(a, (0.0, 0.5, 1.0, 2.0))
    assert rows[0]["t"] == 0.0
    energies = [r["energy"] for r in rows]
    assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(energies, energies[1:]))
    traces = [r["trace_re"] for r in rows]
    assert max(traces) - min(traces) < 1e-12  # trace preserved


def test_evolve_table_unit_is_stationary():
    rows = evolve_table(identity(2), (0.0, 1.0, 10.0))
    for r in rows:
        assert abs(r["trace_re"] - 1.0) < 1e-14
        assert abs(r["gns_norm"] - 1.0) < 1e-14
        assert abs(r["min_eig"] - 1.0) < 1e-14 and abs(r["max_eig"] - 1.0) < 1e-14


def sequential_evolve(a, t_grid):
    """Reference trajectory: one row at a time, one eigvalsh per row."""
    gen = DiagonalComplement(a.dim)
    form = diagonal_form(a.level)
    rows = []
    for t in t_grid:
        y = semigroup_apply(gen, float(t), a)
        tr = normalized_trace(y)
        ev = np.linalg.eigvalsh(0.5 * (y.entries + y.entries.conj().T))
        rows.append(
            {
                "t": float(t),
                "trace_re": tr.real,
                "trace_im": tr.imag,
                "gns_norm": math.sqrt(max(gns_inner(y, y).real, 0.0)),
                "energy": eval_form(form, y),
                "min_eig": float(ev[0]),
                "max_eig": float(ev[-1]),
            }
        )
    return rows


def chunk_threads(monkeypatch) -> list:
    """Record the thread each evolve_table chunk runs in."""
    threads = []
    chunk = harness._evolve_chunk

    def spy(*args):
        threads.append(threading.current_thread())
        return chunk(*args)

    monkeypatch.setattr(harness, "_evolve_chunk", spy)
    return threads


@pytest.mark.parametrize("blas_threads, workers", [("2", 1), ("1", 2)])
@pytest.mark.parametrize("rows", [1, 9, 17])
def test_evolve_table_equals_sequential_rows(monkeypatch, blas_threads, workers, rows):
    monkeypatch.setattr(harness, "_available_cpus", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
    monkeypatch.setenv("OMP_NUM_THREADS", blas_threads)
    threads = chunk_threads(monkeypatch)
    a = random_element(7, "general", 409)
    grid = [0.25 * k for k in range(rows)]
    assert evolve_table(a, grid) == sequential_evolve(a, grid)
    # two workers stack 8 rows per chunk at level 7, and one chunk runs in
    # the calling thread; one worker takes the rows one at a time
    assert len(threads) == (-(-rows // 8) if workers == 2 else rows)
    in_pool = any(t is not threading.main_thread() for t in threads)
    assert in_pool == (workers == 2 and rows > 8)


def test_evolve_table_many_workers_share_the_generator(monkeypatch):
    """More workers than cores, one row per chunk and a short switch interval:
    the generator's lazily cached Schur measure is filled by racing threads."""
    monkeypatch.setattr(harness, "_available_cpus", lambda: 8)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(harness, "EVOLVE_CHUNK_BYTES", 16 * 16 * 16)
    a = random_element(4, "general", 411)
    grid = [0.125 * k for k in range(64)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rows = evolve_table(a, grid)
    finally:
        sys.setswitchinterval(interval)
    assert rows == sequential_evolve(a, grid)


@pytest.mark.parametrize(
    "env, cpus, workers",
    [
        ({}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "2"}, 2, 1),
        ({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"}, 2, 1),
        ({"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "1"}, 2, 2),
        ({"MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, 2),
        ({"OMP_NUM_THREADS": "1"}, 8, 8),
        ({"OPENBLAS_NUM_THREADS": "3"}, 8, 2),
        ({"OPENBLAS_NUM_THREADS": "16"}, 8, 1),
        ({"OPENBLAS_NUM_THREADS": "0"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "auto"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "1.5"}, 2, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 2),
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 2, 2),
        ({}, 1, 1),
    ],
)
def test_evolve_worker_rule(env, cpus, workers):
    assert harness._evolve_workers(env, cpus) == workers


def test_evolve_table_worker_error_reaches_caller(monkeypatch):
    monkeypatch.setattr(harness, "_available_cpus", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(harness, "EVOLVE_CHUNK_BYTES", 16 * 4 * 4)  # one row per chunk
    raised = []
    chunk = harness._evolve_chunk

    def spy(*args):
        try:
            return chunk(*args)
        except ValueError as exc:
            raised.append((exc, threading.current_thread()))
            raise

    monkeypatch.setattr(harness, "_evolve_chunk", spy)
    a = random_element(2, "general", 410)
    with pytest.raises(ValueError, match="semigroup time must be finite and nonnegative") as err:
        evolve_table(a, (0.0, 0.5, float("nan")))
    [(exc, thread)] = raised
    assert err.value is exc and thread is not threading.main_thread()


# --------------------------------------------------------------------------
# suites and reports
# --------------------------------------------------------------------------


def test_run_suite_all_passes_small():
    cfg = RunConfig(level=2, samples=25, seed=3)
    reports = run_suite(cfg)
    assert sum(r.failures for r in reports) == 0
    suites_seen = {r.suite for r in reports}
    for name in SUITE_NAMES:
        assert name in suites_seen
    assert "choi-transpose-control" in suites_seen


def test_run_suite_selection():
    cfg = RunConfig(level=2, samples=10, suites=("markov",))
    reports = run_suite(cfg)
    assert {r.suite for r in reports} == {"markov"}
    assert [r.level for r in reports] == [1, 2]


def test_single_sample_report_is_structurally_valid():
    cfg = RunConfig(level=1, samples=1, suites=("dirichlet",))
    (rep,) = run_suite(cfg)
    assert rep.samples == 1 and rep.failures == 0
    d = rep.to_json_dict()
    assert set(d) == {"suite", "level", "samples", "failures", "worst_margin", "seed", "tol"}


def test_reports_written_and_reproducible(tmp_path):
    cfg1 = RunConfig(level=2, samples=20, seed=5, out_dir=str(tmp_path / "r1"))
    cfg2 = RunConfig(level=2, samples=20, seed=5, out_dir=str(tmp_path / "r2"))
    run_suite(cfg1)
    run_suite(cfg2)
    files1 = sorted(p.name for p in (tmp_path / "r1").iterdir())
    files2 = sorted(p.name for p in (tmp_path / "r2").iterdir())
    assert files1 == files2 and "summary.csv" in files1
    for name in files1:
        b1 = (tmp_path / "r1" / name).read_bytes()
        b2 = (tmp_path / "r2" / name).read_bytes()
        assert b1 == b2, f"{name} differs between identical runs"


def test_different_seed_changes_margins(tmp_path):
    r1 = run_suite(RunConfig(level=2, samples=20, seed=5, suites=("dirichlet",)))
    r2 = run_suite(RunConfig(level=2, samples=20, seed=6, suites=("dirichlet",)))
    assert any(a.worst_margin != b.worst_margin for a, b in zip(r1, r2))


def poison_mid_chunk(monkeypatch, index=5, chunk=4) -> list:
    """Make every normal_chunks call of the suites yield chunks of `chunk`
    samples and put a NaN into sample `index`; return (start, count) of each
    chunk that received one."""
    from towerforms import forms, superop, tower

    hit = []

    def poisoned(rng, samples, *shapes):
        per_sample = 8 * sum(math.prod(s) for s in shapes)
        monkeypatch.setattr(tower, "SAMPLE_CHUNK_BYTES", chunk * per_sample)
        start = 0
        for blocks in tower.normal_chunks(rng, samples, *shapes):
            count = len(blocks[0])
            if start <= index < start + count:
                blocks[0][index - start].flat[0] = np.nan  # Re a_00: seen at every level
                hit.append((start, count))
            start += count
            yield blocks

    for module in (harness, forms, superop):
        monkeypatch.setattr(module, "normal_chunks", poisoned)
    return hit


def check_nan_sample_fails_alone(monkeypatch, suite):
    """A NaN entry in one drawn sample, in the middle of its chunk, must
    surface as a NaN worst margin and count as exactly one failed sample:
    the fold keeps it, and its chunk neighbours still pass. Each report
    draws its own stream, except that every normalization-bridge level
    conditions the working level's one ambient stream."""
    hit = poison_mid_chunk(monkeypatch)
    reports = run_suite(RunConfig(level=2, samples=10, suites=(suite,)))
    assert hit and all(start < 5 < start + count - 1 for start, count in hit)
    streams = 1 if suite == "normalization-bridge" else len(reports)
    assert reports and len(hit) == streams
    for rep in reports:
        assert np.isnan(rep.worst_margin)
        assert rep.failures == 1


def test_leibniz_nan_sample_gives_nan_margin_and_fails(monkeypatch):
    check_nan_sample_fails_alone(monkeypatch, "leibniz")


@pytest.mark.parametrize(
    "suite", ["dirichlet", "markov", "symmetry", "normalization-bridge", "convergence"]
)
def test_nan_sample_mid_chunk_gives_nan_margin_and_fails_alone(monkeypatch, suite):
    check_nan_sample_fails_alone(monkeypatch, suite)


@pytest.mark.parametrize("suite", ["compatibility", "normalization-bridge"])
def test_generator_comparison_fails_closed_without_schur(monkeypatch, suite):
    """A commutator generator without Schur coefficients cannot be compared
    coefficientwise: its deviation is inf and counts as one failure."""
    import towerforms.forms as forms
    import towerforms.harness as harness

    real = forms.commutator_generator

    def unstructured(level):
        return ComposedMap([real(level)])

    monkeypatch.setattr(forms, "commutator_generator", unstructured)
    monkeypatch.setattr(harness, "commutator_generator", unstructured)
    reports = run_suite(RunConfig(level=2, samples=2, suites=(suite,)))
    assert all(r.failures == 1 and r.worst_margin == np.inf for r in reports)


def test_write_table_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    rows = [{"n": 1, "E_n": 0.5, "E_Q_n": 0.0, "Q_n_norm_sq": 1.0, "sqrt_gap": 0.125}]
    write_table_csv(path, CONVERGE_COLUMNS, rows)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "n,E_n,E_Q_n,Q_n_norm_sq,sqrt_gap"
    assert lines[1] == "1,0.5,0.0,1.0,0.125"
    assert "," in text and ";" not in text
