import json
import math
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from reference import (
    apply,
    embed,
    eval_form,
    gns_inner,
    identity,
    normalized_trace,
    random_element,
)
from towerforms import harness, tower
from towerforms.superop import ComposedMap, DiagonalComplement, ScaledMap, SemigroupMap
from towerforms.tower import AlgebraElement
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


@pytest.mark.parametrize(
    "field, value",
    [
        ("level", 2.5),
        ("level", True),
        ("level", "2"),
        ("samples", 2.5),
        ("samples", False),
        ("seed", 7.0),
        ("seed", None),
        ("suites", "dirichlet"),
    ],
)
def test_config_rejects_bad_field_types_naming_the_field(field, value):
    """A float, bool or string where verify passes an int, or a bare
    string of suites, fails when the config is built, not inside a unit or
    when the reports are written."""
    with pytest.raises(ValueError, match=field):
        RunConfig(**{field: value})


def test_config_stores_numpy_integers_as_python_ints(tmp_path):
    cfg = RunConfig(
        level=np.int64(2), samples=np.int32(3), seed=np.uint8(5),
        suites=("dirichlet",), out_dir=str(tmp_path),
    )
    assert [type(v) for v in (cfg.level, cfg.samples, cfg.seed)] == [int, int, int]
    assert cfg == RunConfig(level=2, samples=3, seed=5, suites=("dirichlet",),
                            out_dir=str(tmp_path))
    assert len(run_suite(cfg)) == 2
    assert (tmp_path / "dirichlet-level2.json").exists()


def test_semigroup_times_are_a_constant_not_a_setting():
    """verify has no time-grid flag, so RunConfig has no time field: every
    semigroup suite runs at SEMIGROUP_TIMES, one choi margin per time."""
    with pytest.raises(TypeError, match="times"):
        RunConfig(times=())
    reports = run_suite(RunConfig(level=2, samples=3, suites=("choi",)))
    assert [(r.suite, r.samples) for r in reports] == [
        ("choi", len(harness.SEMIGROUP_TIMES)),
        ("choi", len(harness.SEMIGROUP_TIMES)),
        ("choi-transpose-control", 1),
    ]


@pytest.mark.parametrize("suites", [(), []])
def test_config_rejects_an_empty_suite_selection(suites):
    """A run must name at least one suite: no suite is no check."""
    with pytest.raises(ValueError, match="no suite selected"):
        RunConfig(suites=suites)


@pytest.mark.parametrize(
    "field, value",
    [
        ("tol", float("nan")),
        ("tol", -1e-10),
        ("eig_tol", float("nan")),
        ("eig_tol", float("inf")),
    ],
)
def test_config_rejects_non_finite_or_negative_tolerances_and_times(field, value):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        RunConfig(**{field: value})


@pytest.mark.parametrize("field", ["tol", "eig_tol"])
@pytest.mark.parametrize("value", [True, False, "1e-10", None])
def test_config_rejects_a_tolerance_that_is_not_a_number(field, value):
    """A bool is an int to Python but no tolerance: rejected, as for the
    integer fields, before any report could print it as true."""
    with pytest.raises(ValueError, match=f"{field} must be a number"):
        RunConfig(**{field: value})


def test_config_stores_tolerances_as_the_floats_reports_print(tmp_path):
    cfg = RunConfig(
        level=1, samples=2, suites=("dirichlet", "compatibility"),
        tol=0, eig_tol=np.float32(0.5), out_dir=str(tmp_path),
    )
    assert (type(cfg.tol), type(cfg.eig_tol)) == (float, float)
    assert cfg == RunConfig(
        level=1, samples=2, suites=("dirichlet", "compatibility"),
        tol=0.0, eig_tol=0.5, out_dir=str(tmp_path),
    )
    run_suite(cfg)
    for name, tol in (("dirichlet", "0.0"), ("compatibility", "0.5")):
        assert f'"tol": {tol},\n' in (tmp_path / f"{name}-level1.json").read_text()
    rows = (tmp_path / "summary.csv").read_text().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["0.0", "0.5"]


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
    rows = converge_table(embed(AlgebraElement(1, X), 4).entries)
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    for r in rows:
        assert abs(r["E_n"] - 1.0) < 1e-12
        assert r["E_Q_n"] < 1e-12
        assert r["sqrt_gap"] < 1e-12


def test_converge_table_diagonal_input_is_all_zero():
    for r in converge_table(np.diag(np.arange(8.0))):
        assert r["E_n"] == 0.0 and r["E_Q_n"] == 0.0 and r["sqrt_gap"] == 0.0


def test_converge_table_rows_satisfy_chain():
    rows = converge_table(random_element(4, "general", 400).entries)
    for r in rows:
        assert r["sqrt_gap"] <= np.sqrt(max(r["E_Q_n"], 0.0)) + 1e-10
        assert r["E_Q_n"] <= r["Q_n_norm_sq"] + 1e-10
    assert rows[-1]["E_Q_n"] <= 1e-12


def test_converge_table_rejects_a_level_zero_matrix():
    """A level-0 matrix has no level n in 1 .. 0 to restrict to."""
    with pytest.raises(ValueError, match="level >= 1, got level 0"):
        converge_table(np.ones((1, 1)))


# --------------------------------------------------------------------------
# trajectory table
# --------------------------------------------------------------------------


def test_evolve_table_starts_at_identity_and_decays():
    a = random_element(2, "hermitian", 401)
    rows = evolve_table(a.entries, (0.0, 0.5, 1.0, 2.0))
    assert rows[0]["t"] == 0.0
    energies = [r["energy"] for r in rows]
    assert all(e1 >= e2 - 1e-12 for e1, e2 in zip(energies, energies[1:]))
    traces = [r["trace_re"] for r in rows]
    assert max(traces) - min(traces) < 1e-12  # trace preserved


def test_evolve_table_unit_is_stationary():
    rows = evolve_table(identity(2).entries, (0.0, 1.0, 10.0))
    for r in rows:
        assert abs(r["trace_re"] - 1.0) < 1e-14
        assert abs(r["gns_norm"] - 1.0) < 1e-14
        assert abs(r["min_eig"] - 1.0) < 1e-14 and abs(r["max_eig"] - 1.0) < 1e-14


def sequential_evolve(a, t_grid):
    """Reference trajectory of an element through the element API: one row
    at a time, one eigvalsh per row."""
    gen = DiagonalComplement(a.dim)
    rows = []
    for t in t_grid:
        y = apply(SemigroupMap(gen, float(t)), a)
        tr = normalized_trace(y)
        ev = np.linalg.eigvalsh(0.5 * (y.entries + y.entries.conj().T))
        rows.append(
            {
                "t": float(t),
                "trace_re": tr.real,
                "trace_im": tr.imag,
                "gns_norm": math.sqrt(max(gns_inner(y, y).real, 0.0)),
                "energy": eval_form(gen, y),
                "min_eig": float(ev[0]),
                "max_eig": float(ev[-1]),
            }
        )
    return rows


@pytest.mark.parametrize("level", [0, 3, 5])
def test_evolve_table_equals_the_element_api(level):
    """evolve_table on a matrix gives the element reference's rows bit for
    bit, level 0 included, over a grid of many chunks at level 5."""
    a = random_element(level, "hermitian", 413 + level)
    grid = [0.01 * k for k in range(101)]
    rows = evolve_table(a.entries, grid)
    assert rows == sequential_evolve(a, grid)
    assert all(type(v) is float for row in rows for v in row.values())


def chunk_threads(monkeypatch, meet=0) -> list:
    """Record the thread each evolve_table chunk runs in; the first `meet`
    chunks wait for one another, so they run at once on that many threads."""
    threads = []
    chunk = harness._evolve_chunk
    barrier = threading.Barrier(meet, timeout=60) if meet else None

    def spy(*args):
        threads.append(threading.current_thread())
        if len(threads) <= meet:
            barrier.wait()
        return chunk(*args)

    monkeypatch.setattr(harness, "_evolve_chunk", spy)
    return threads


@pytest.mark.parametrize("blas_threads, workers", [("2", 1), ("1", 2)])
@pytest.mark.parametrize("rows", [1, 9, 17])
def test_evolve_table_equals_sequential_rows(monkeypatch, blas_threads, workers, rows):
    monkeypatch.setattr(harness, "_available_cpus", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
    monkeypatch.setenv("OMP_NUM_THREADS", blas_threads)
    pooled = workers == 2 and rows > 8
    threads = chunk_threads(monkeypatch, meet=2 if pooled else 0)
    a = random_element(7, "general", 409)
    grid = [0.25 * k for k in range(rows)]
    assert evolve_table(a.entries, grid) == sequential_evolve(a, grid)
    # every worker count stacks 8 rows per chunk at level 7; one worker, or a
    # single chunk, runs in the calling thread
    assert len(threads) == -(-rows // 8)
    assert threading.main_thread() in threads
    assert len(set(threads)) == (2 if pooled else 1)


def test_evolve_table_many_workers_share_the_generator(monkeypatch):
    """More workers than cores, one row per chunk and a short switch interval:
    the generator's lazily cached Schur measure is filled by racing threads."""
    monkeypatch.setattr(harness, "_available_cpus", lambda: 8)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(tower, "POOL_CHUNK_BYTES", 16 * 16 * 16)
    a = random_element(4, "general", 411)
    grid = [0.125 * k for k in range(64)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rows = evolve_table(a.entries, grid)
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
    assert harness._pool_workers(env, cpus) == workers


def test_evolve_table_worker_error_reaches_caller(monkeypatch):
    monkeypatch.setattr(harness, "_available_cpus", lambda: 2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(tower, "POOL_CHUNK_BYTES", 16 * 4 * 4)  # one row per chunk
    raised = []
    threads = chunk_threads(monkeypatch, meet=2)
    chunk = harness._evolve_chunk

    def spy(*args):
        try:
            return chunk(*args)
        except ValueError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(harness, "_evolve_chunk", spy)
    a = random_element(2, "general", 410)
    before = threading.active_count()
    with pytest.raises(ValueError, match="semigroup time must be finite and nonnegative") as err:
        evolve_table(a.entries, (0.0, 0.5, float("nan")))
    [exc] = raised
    assert err.value is exc and len(set(threads)) == 2
    assert threading.active_count() == before


def test_pool_map_error_in_a_started_thread_reaches_caller():
    """Items 0 and 1 run at once; the one in the started thread raises. The
    same exception object reaches the caller, and the thread has ended."""
    barrier = threading.Barrier(2, timeout=60)
    planted = RuntimeError("planted")

    def fn(x):
        if x < 2:
            barrier.wait()
            if threading.current_thread() is not threading.main_thread():
                raise planted
        return x

    before = threading.active_count()
    with pytest.raises(RuntimeError) as err:
        harness._pool_map(fn, [0, 1, 2, 3], 2)
    assert err.value is planted
    assert threading.active_count() == before


def test_pool_map_starts_no_item_after_an_error(monkeypatch):
    """Items 0 and 1 run at once; 0 raises, 1 returns only once that error
    is recorded, and no later item starts. Results come back in item order."""
    barrier = threading.Barrier(2, timeout=60)
    raised, recorded = threading.Event(), threading.Event()
    started = []

    class SpyLock:
        """_pool_map's lock: the first release after item 0 raised is the
        one that recorded its error (item 1 is inside fn until then)."""

        def __init__(self):
            self._lock = threading.Lock()

        def __enter__(self):
            self._lock.acquire()

        def __exit__(self, *exc_info):
            self._lock.release()
            if raised.is_set():
                recorded.set()

    monkeypatch.setattr(
        harness, "threading", SimpleNamespace(Lock=SpyLock, Thread=threading.Thread)
    )

    def fn(x):
        started.append(x)
        if x < 2:
            barrier.wait()
        if x == 0:
            raised.set()
            raise KeyError(x)
        if x == 1:
            recorded.wait(timeout=60)
        return x

    with pytest.raises(KeyError):
        harness._pool_map(fn, list(range(8)), 2)
    assert recorded.is_set()
    assert sorted(started) == [0, 1]
    assert harness._pool_map(lambda x: x * x, list(range(9)), 3) == [x * x for x in range(9)]


def test_pool_map_one_worker_runs_in_the_calling_thread():
    """One worker runs the pool's own loop in the calling thread: every item
    in order, no thread started, and no item started after an error."""
    before = threading.active_count()
    seen = []

    def fn(x):
        seen.append((x, threading.current_thread()))
        assert threading.active_count() == before
        if x == 3:
            raise KeyError(x)
        return x * x

    assert harness._pool_map(fn, list(range(3)), 1) == [0, 1, 4]
    assert seen == [(x, threading.current_thread()) for x in range(3)]
    seen.clear()
    with pytest.raises(KeyError):
        harness._pool_map(fn, list(range(8)), 1)
    assert [x for x, _ in seen] == [0, 1, 2, 3]
    assert threading.active_count() == before


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


# --------------------------------------------------------------------------
# suites on every CPU
# --------------------------------------------------------------------------


def use_workers(monkeypatch, workers):
    """Make run_suite and evolve_table use `workers` threads: 2 CPUs and a
    BLAS on 2 threads for one, as many CPUs as workers and BLAS on one
    thread for more."""
    monkeypatch.setattr(harness, "_available_cpus", lambda: max(2, workers))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2" if workers == 1 else "1")


def suite_jsons(monkeypatch, cfg, workers) -> list:
    use_workers(monkeypatch, workers)
    return [r.to_json() for r in run_suite(cfg)]


def unit_threads(monkeypatch, meet=0) -> list:
    """Record (suite, unit, thread) of every unit run_suite runs; the first
    `meet` units wait for one another, so they run at once."""
    runs = []
    barrier = threading.Barrier(meet, timeout=60) if meet else None
    for name, runner in list(harness._SUITE_RUNNERS.items()):
        def spy(cfg, unit, name=name, runner=runner):
            runs.append((name, unit, threading.current_thread()))
            if len(runs) <= meet:
                barrier.wait()
            return runner(cfg, unit)

        monkeypatch.setitem(harness._SUITE_RUNNERS, name, spy)
    return runs


def registry_units(cfg, *names) -> list:
    """(suite, unit) for every unit of every registered suite, or of the
    suites named, in registry order."""
    return [
        (suite.name, unit)
        for suite in harness._SUITES if not names or suite.name in names
        for unit in suite.units(cfg)
    ]


POOLED_CASES = [
    (level, samples)
    for level in range(1, 7)
    for samples in (1, 37, 200)
    if samples < 200 or level <= 4
]


@pytest.mark.parametrize("level, samples", POOLED_CASES)
def test_pooled_suites_equal_one_worker(monkeypatch, level, samples):
    cfg = RunConfig(level=level, samples=samples, seed=level * samples)
    one = suite_jsons(monkeypatch, cfg, 1)
    runs = unit_threads(monkeypatch)
    assert suite_jsons(monkeypatch, cfg, 2) == one
    units = registry_units(cfg)
    assert sorted(map(repr, units)) == sorted(repr((name, unit)) for name, unit, _ in runs)


@pytest.mark.parametrize("workers", [2, 8])
def test_pooled_suites_equal_one_worker_under_thread_switches(monkeypatch, workers):
    """A switch interval of 1 microsecond interleaves the units' threads
    almost at every bytecode, also with more threads than cores: no result
    is lost or misplaced, and the reports do not change."""
    cfg = RunConfig(level=4, samples=37, seed=11)
    one = suite_jsons(monkeypatch, cfg, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = suite_jsons(monkeypatch, cfg, workers)
    finally:
        sys.setswitchinterval(interval)
    assert pooled == one


def test_pooled_verify_writes_the_same_files(monkeypatch, tmp_path, capsys):
    from towerforms.cli import main

    out = {}
    for workers in (1, 2):
        use_workers(monkeypatch, workers)
        d = tmp_path / f"w{workers}"
        code = main(["verify", "--level", "4", "--samples", "37", "--seed", "3",
                     "--out-dir", str(d)])
        assert code == 0
        out[workers] = {p.name: p.read_bytes() for p in d.iterdir()}
    assert "summary.csv" in out[1] and len(out[1]) == 25
    assert out[2] == out[1]


@pytest.mark.parametrize("workers", [1, 2])
def test_units_run_on_every_worker(monkeypatch, workers):
    """Two workers run two units at once, in the calling thread and one
    started thread; one worker runs every unit in the calling thread and
    starts none."""
    cfg = RunConfig(level=3, samples=5)
    want = suite_jsons(monkeypatch, cfg, 1)
    runs = unit_threads(monkeypatch, meet=2 if workers == 2 else 0)
    before = threading.active_count()
    assert suite_jsons(monkeypatch, cfg, workers) == want
    assert threading.active_count() == before
    threads = {thread for _, _, thread in runs}
    assert threading.main_thread() in threads and len(threads) == workers


def test_units_larger_than_the_budget_run_alone(monkeypatch):
    """Units whose sample exceeds POOL_CHUNK_BYTES run first, one at a time;
    the others share the workers. Each batch goes highest level first, a
    level's tower units first, other ties in registry order."""
    cfg = RunConfig(level=3, samples=5)
    want = suite_jsons(monkeypatch, cfg, 1)
    budget = 16 * 4 ** 3
    monkeypatch.setattr(tower, "POOL_CHUNK_BYTES", budget)
    calls = []
    pool_map = harness._pool_map

    def spy(fn, items, workers):
        if items and isinstance(items[0], tuple):  # run_suite's (suite, unit) items
            calls.append((list(items), workers))
        return pool_map(fn, items, workers)

    monkeypatch.setattr(harness, "_pool_map", spy)
    assert suite_jsons(monkeypatch, cfg, 2) == want
    units = registry_units(cfg)
    by_level = sorted(units, key=lambda item: (-item[1].level, not item[1].tower))
    alone = [item for item in by_level if item[1].nbytes > budget]
    shared = [item for item in by_level if item[1].nbytes <= budget]
    assert alone and shared
    assert calls == [(alone, 1), (shared, 2)]
    assert [item[1].level for item in shared][:3] == [3, 3, 3]


def test_tower_units_run_first_and_kernel_units_name_the_reports(monkeypatch):
    """Within a level, the tower units of leibniz and normalization-bridge
    run before the other units, which keep registry order. The fold still
    joins leibniz's kernel columns before its tower column, so every
    leibniz report names its pairs' seed, and every normalization-bridge
    report the seed of the bridge's stream at the working level."""
    cfg = RunConfig(level=2, samples=3)
    use_workers(monkeypatch, 1)
    runs = unit_threads(monkeypatch)
    reports = run_suite(cfg)
    assert [(name, unit.level, unit.tower) for name, unit, _ in runs[:4]] == [
        ("leibniz", 2, True), ("normalization-bridge", 2, True),
        ("dirichlet", 2, False), ("markov", 2, False),
    ]
    seeds = {(r.suite, r.level): r.seed for r in reports}
    for n in (1, 2):
        assert seeds["leibniz", n] == harness._suite_seed(cfg.seed, "leibniz", n)
        bridge = harness._suite_seed(cfg.seed, "normalization-bridge", 2)
        assert seeds["normalization-bridge", n] == bridge


def test_largest_units_run_alone_from_level_9():
    """With the default budget every unit up to level 8 shares the workers,
    and from level 9 on the largest do not."""
    def alone(level):
        cfg = RunConfig(level=level, samples=1)
        return {
            (name, unit.level)
            for name, unit in registry_units(cfg)
            if unit.nbytes > tower.POOL_CHUNK_BYTES
        }

    assert alone(7) == set()
    assert alone(8) == set()
    assert {("dirichlet", 9), ("leibniz", 9)} <= alone(9)
    assert ("dirichlet", 9) in alone(10) and ("leibniz", 9) in alone(10)


def test_registry_and_runners_name_the_same_suites_in_order():
    names = [suite.name for suite in harness._SUITES]
    assert names == list(harness._SUITE_RUNNERS) == list(SUITE_NAMES)


def test_a_planted_suite_needs_only_its_record_and_runner(monkeypatch, tmp_path, capsys):
    """A ninth suite registered by its record and runner alone is run by
    --suite planted and --suite all, writes its JSON report and summary
    row, and its NaN margin is one failure with a NaN worst margin."""
    from towerforms.cli import main
    from towerforms.report import fold

    def runner(cfg, unit):
        return [fold("planted", unit.level, cfg.seed, cfg.tol, [[0.0], [np.nan]])]

    planted = harness._Suite("planted", lambda cfg: [harness._Unit(cfg.level, 16)], runner)
    monkeypatch.setattr(harness, "_SUITES", (*harness._SUITES, planted))
    monkeypatch.setitem(harness._SUITE_RUNNERS, "planted", runner)
    for suite, reports in (("planted", 1), ("all", 16)):
        out = tmp_path / suite
        args = ["--suite", suite, "--level", "2", "--samples", "2", "--out-dir", str(out)]
        assert main(["verify", *args]) == 1
        assert f"{reports} reports, 1 failures" in capsys.readouterr().out
        rep = json.loads((out / "planted-level2.json").read_text())
        assert rep["failures"] == 1 and math.isnan(rep["worst_margin"])
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == reports + 1
        assert summary[-1].startswith("planted,2,2,1,nan,")


def test_pooled_unit_error_reaches_caller_and_writes_nothing(monkeypatch, tmp_path):
    planted = RuntimeError("planted unit failure")
    runner = harness._SUITE_RUNNERS["convergence"]

    def failing(cfg, unit):
        runner(cfg, unit)
        raise planted

    monkeypatch.setitem(harness._SUITE_RUNNERS, "convergence", failing)
    use_workers(monkeypatch, 2)
    runs = unit_threads(monkeypatch, meet=2)
    before = threading.active_count()
    out = tmp_path / "reports"
    with pytest.raises(RuntimeError) as err:
        run_suite(RunConfig(level=3, samples=5, out_dir=str(out)))
    assert err.value is planted
    assert not out.exists()
    assert threading.active_count() == before
    assert len({thread for _, _, thread in runs}) == 2


def test_planted_nan_fails_alike_on_one_and_two_workers(monkeypatch):
    monkeypatch.setattr(
        harness, "commutator_energies", lambda b: np.full(b.shape[:-2], np.nan)
    )
    cfg = RunConfig(level=4, samples=9, seed=5)
    one = suite_jsons(monkeypatch, cfg, 1)
    assert suite_jsons(monkeypatch, cfg, 2) == one
    failing = [r for r in run_suite(cfg) if r.failures]
    assert {r.suite for r in failing} == {"leibniz", "normalization-bridge"}
    assert all(r.failures == r.samples and np.isnan(r.worst_margin) for r in failing)


def test_evolve_and_suites_share_one_pool_helper(monkeypatch):
    use_workers(monkeypatch, 2)
    callers = []
    pool_map = harness._pool_map

    def spy(fn, items, workers):
        callers.append(sys._getframe(1).f_code.co_name)
        return pool_map(fn, items, workers)

    monkeypatch.setattr(harness, "_pool_map", spy)
    evolve_table(random_element(2, "general", 412).entries, (0.0, 0.5))
    run_suite(RunConfig(level=1, samples=1))
    assert callers == ["evolve_table", "run_suite", "run_suite"]


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


def patch_sampler(monkeypatch, sampler) -> None:
    """Make the suites draw from `sampler`, which takes gaussian_chunks's
    arguments, on one worker."""
    monkeypatch.setattr(harness, "_available_cpus", lambda: 1)
    monkeypatch.setattr(harness, "gaussian_chunks", sampler)


def poison_mid_chunk(monkeypatch, index=5, chunk=4) -> list:
    """Make the suites' gaussian_chunks call yield chunks of `chunk`
    samples and put a NaN into sample `index`; return (start, count) of each
    chunk that received one."""
    hit = []

    def poisoned(rng, samples, dim, count, nbytes):
        monkeypatch.setattr(tower, "POOL_CHUNK_BYTES", chunk * nbytes)
        for rows, mats in tower.gaussian_chunks(rng, samples, dim, count, nbytes):
            if rows.start <= index < rows.stop:
                mats[0][index - rows.start].flat[0] = np.nan  # a_00: seen at every level
                hit.append((rows.start, rows.stop - rows.start))
            yield rows, mats

    patch_sampler(monkeypatch, poisoned)
    return hit


def check_nan_sample_fails_alone(monkeypatch, suite):
    """A NaN entry in one drawn sample, in the middle of its chunk, must
    surface as a NaN worst margin and count as exactly one failed sample:
    the fold keeps it, and its chunk neighbours still pass. Each unit
    draws its own stream: a kernel unit's at its level, a tower unit's (of
    leibniz and normalization-bridge) the ambients every level conditions."""
    hit = poison_mid_chunk(monkeypatch)
    cfg = RunConfig(level=2, samples=10, suites=(suite,))
    reports = run_suite(cfg)
    assert hit and all(start < 5 < start + count - 1 for start, count in hit)
    assert reports and len(hit) == len(registry_units(cfg, suite))
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


RANDOMIZED_SUITES = tuple(
    suite.name for suite in harness._SUITES if isinstance(suite, harness._Sampled)
)


@pytest.mark.parametrize("level", [1, 2, 6])
def test_dropped_last_chunk_fails_every_randomized_report(monkeypatch, level):
    """A sampler that loses its last chunk leaves samples unchecked: their
    NaN rows fail every randomized report, which still names every sample,
    at levels where that chunk is all the samples (1, 2) and one of many (6)."""
    def truncated(rng, samples, dim, count, nbytes):
        chunks = list(tower.gaussian_chunks(rng, samples, dim, count, nbytes))
        yield from chunks[:-1]

    patch_sampler(monkeypatch, truncated)
    reports = run_suite(RunConfig(level=level, samples=200, suites=RANDOMIZED_SUITES))
    assert {r.suite for r in reports} == set(RANDOMIZED_SUITES)
    for rep in reports:
        assert rep.samples == 200 and rep.failures >= 1 and np.isnan(rep.worst_margin)


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


@pytest.mark.parametrize("level", [1, 2, 4])
def test_compatibility_recovery_fails_on_a_tripled_commutator_family(monkeypatch, level):
    """Three times the commutator generator at every level is a compatible,
    stable family, but its recovered form is not the commutator form: the
    recovery check compares with the closed form 2 (1 - I), not with the
    family's own top form, and is off by 6 - 2 = 4 off the diagonal."""
    import towerforms.forms as forms

    real = forms.commutator_generator

    def tripled(n):
        return ScaledMap(3.0, real(n))

    monkeypatch.setattr(forms, "commutator_generator", tripled)
    monkeypatch.setattr(harness, "commutator_generator", tripled)
    (rep,) = run_suite(RunConfig(level=level, samples=2, suites=("compatibility",)))
    assert (rep.failures, rep.worst_margin) == (1, 4.0)


def test_compatibility_nan_schur_coefficient_fails_with_nan_margin(monkeypatch):
    real = harness.commutator_generator

    def nan_at_level_2(n):
        gen = real(n)
        if n == 2:
            gen = ScaledMap(1.0, gen)
            gen.schur[0, 1] = np.nan
        return gen

    monkeypatch.setattr(harness, "commutator_generator", nan_at_level_2)
    (rep,) = run_suite(RunConfig(level=3, samples=2, suites=("compatibility",)))
    assert rep.failures == 1 and np.isnan(rep.worst_margin)


def test_compatibility_accepted_x2_control_is_one_failure(monkeypatch):
    """A build_from_family that accepts every family accepts the x2
    control, which is the one failure, with worst margin inf."""
    monkeypatch.setattr(harness, "build_from_family", lambda family, tol=0.0: family.forms[-1])
    (rep,) = run_suite(RunConfig(level=3, samples=2, suites=("compatibility",)))
    assert (rep.failures, rep.worst_margin) == (1, np.inf)


def test_compatibility_rejection_on_stabilization_alone_is_one_failure(monkeypatch):
    """A family within eig_tol that build_from_family still rejects (as
    for an unstable one) is one failure with worst margin inf, not its
    passing deviation."""
    def reject(family, tol=0.0):
        raise harness.FamilyCompatibilityError(1, (0, 0), (0, 0), 0.0, 1.0)

    monkeypatch.setattr(harness, "build_from_family", reject)
    (rep,) = run_suite(RunConfig(level=3, samples=2, suites=("compatibility",)))
    assert (rep.failures, rep.worst_margin) == (1, np.inf)


def test_write_table_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    rows = [{"n": 1, "E_n": 0.5, "E_Q_n": 0.0, "Q_n_norm_sq": 1.0, "sqrt_gap": 0.125}]
    write_table_csv(path, CONVERGE_COLUMNS, rows)
    text = path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "n,E_n,E_Q_n,Q_n_norm_sq,sqrt_gap"
    assert lines[1] == "1,0.5,0.0,1.0,0.125"
    assert "," in text and ";" not in text
