"""Command-line front end.

Subcommands:
  verify    run property suites, write JSON reports and a CSV summary
  converge  restricted-energy table for an input element
  evolve    semigroup trajectory of an input element on a time grid
  choi      Choi-matrix positivity certificate for a generator's semigroup

Exit status is nonzero whenever a suite reports a failure or a requested
certificate does not hold.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .harness import (
    CONVERGE_COLUMNS,
    EVOLVE_COLUMNS,
    RunConfig,
    SUITE_NAMES,
    converge_table,
    evolve_table,
    run_suite,
    write_table_csv,
)
from .superop import (
    DiagonalComplement,
    DoubleCommutatorFamily,
    SemigroupMap,
    TransposeMap,
    _check_budget,
    choi_matrix,
    choi_min_eigenvalue,
    square_matrix_to_json,
)
from .tower import check_nonnegative, element_from_json, load_element


MAX_TIME_GRID_ROWS = 10 ** 6


def _parse_time_grid(text: str) -> tuple:
    """Either 'start:step:stop' (inclusive stop, up to rounding) or a
    comma-separated list of times.

    The result is a non-empty, ascending tuple of finite nonnegative times
    with at most MAX_TIME_GRID_ROWS entries; anything else is rejected,
    and a range is rejected before its grid is built.
    """
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise argparse.ArgumentTypeError(
            f"time grid {text!r} must be start:step:stop or a comma list"
        )
    try:
        if len(parts) == 1:
            return _list_grid(tuple(float(p) for p in text.split(",")))
        return _range_grid(*(float(p) for p in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad time grid {text!r}: {exc}") from exc


def _range_grid(start: float, step: float, stop: float) -> tuple:
    """The checked range, ascending, finite and within the row cap by
    construction."""
    for name, value in (("start", start), ("step", step), ("stop", stop)):
        check_nonnegative(f"time grid {name}", value)
    if step <= 0:
        raise ValueError("time grid step must be positive")
    if stop < start:
        raise ValueError(f"time grid stop {stop} is below its start {start}")
    span = (stop - start + 1e-12) / step
    if not span < MAX_TIME_GRID_ROWS:
        raise ValueError(f"time grid has more than {MAX_TIME_GRID_ROWS} rows")
    return tuple(round(start + i * step, 12) for i in range(math.floor(span) + 1))


def _list_grid(grid: tuple) -> tuple:
    if len(grid) > MAX_TIME_GRID_ROWS:
        raise ValueError(
            f"time grid has more than {MAX_TIME_GRID_ROWS} rows, got {len(grid)}"
        )
    for t in grid:
        check_nonnegative("semigroup time", t)
    for a, b in zip(grid, grid[1:]):
        if a > b:
            raise ValueError(f"time grid must be ascending, {b} follows {a}")
    return grid


def _load_lindblad(path: str) -> DoubleCommutatorFamily:
    """Lindblad data file: {"ms": [matrix JSON, ...], "h": matrix JSON or null}."""
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict) or not isinstance(obj.get("ms"), list):
        raise ValueError(f"{path}: expected an object with an 'ms' list")
    ms = [element_from_json(m) for m in obj["ms"]]
    h = obj.get("h")
    return DoubleCommutatorFamily(ms, None if h is None else element_from_json(h))


def _make_generator(spec: str, level: int):
    if spec == "diagonal":
        return DiagonalComplement(2 ** level)
    if spec == "transpose":
        return TransposeMap(2 ** level)
    if spec.startswith("lindblad:"):
        gen = _load_lindblad(spec.split(":", 1)[1])
        if gen.dim != 2 ** level:
            raise ValueError(
                f"lindblad data has dimension {gen.dim}, --level {level} "
                f"needs {2 ** level}"
            )
        return gen
    raise ValueError(
        f"unknown generator {spec!r}; use diagonal, transpose or lindblad:file.json"
    )


def _cmd_verify(args) -> int:
    suites = tuple(s.strip() for s in args.suite.split(",") if s.strip())
    cfg = RunConfig(
        level=args.level,
        suites=suites,
        samples=args.samples,
        seed=args.seed,
        tol=args.tol,
        eig_tol=args.eig_tol,
        out_dir=args.out_dir,
    )
    reports = run_suite(cfg)
    for rep in reports:
        print(rep.summary_line())
    total_failures = sum(r.failures for r in reports)
    print(
        f"{len(reports)} reports, {total_failures} failures"
        + (f" -> {args.out_dir}" if args.out_dir else "")
    )
    return 1 if total_failures else 0


def _cmd_converge(args) -> int:
    a = load_element(args.input)
    cfg = RunConfig(level=args.level, suites=("convergence",))
    rows = converge_table(cfg, a)
    write_table_csv(args.out, CONVERGE_COLUMNS, rows)
    print(f"wrote {len(rows)} rows -> {args.out}")
    return 0


def _cmd_evolve(args) -> int:
    a = load_element(args.input)
    rows = evolve_table(a, args.t_grid)
    write_table_csv(args.out, EVOLVE_COLUMNS, rows)
    print(f"wrote {len(rows)} rows -> {args.out}")
    return 0


def _cmd_choi(args) -> int:
    tol = check_nonnegative("--tol", args.tol)
    t = check_nonnegative("--t", args.t)
    if not 0 <= args.level < 64:  # no array has a side of 2^64
        raise ValueError(f"--level must be in [0, 64), got {args.level}")
    _check_budget(2 ** args.level, "Choi matrix")  # before any generator is built
    gen = _make_generator(args.generator, args.level)
    if args.generator == "transpose":
        # the injected non-CP control is certified directly, not exponentiated
        target = gen
        label = "transpose map"
    else:
        target = SemigroupMap(gen, t)
        label = f"semigroup at t={t}"
    # With --out, the certificate and the JSON come from one Choi matrix;
    # without it, choi_min_eigenvalue frees its Choi matrix before eigvalsh.
    choi = choi_matrix(target) if args.out else None
    min_eig = choi_min_eigenvalue(target if choi is None else choi)
    psd = min_eig >= -tol
    print(
        f"choi: level={args.level} {label}: min eigenvalue {min_eig:.6e} "
        f"-> {'completely positive' if psd else 'NOT completely positive'}"
    )
    if args.out:
        Path(args.out).write_text(
            json.dumps(square_matrix_to_json(choi), sort_keys=True) + "\n"
        )
        print(f"wrote Choi matrix -> {args.out}")
    return 0 if psd else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="towerforms",
        description="Dirichlet-form laboratory on the 2^n matrix tower",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument(
        "--suite",
        default="all",
        help=f"suite name, comma list, or 'all'; names: {', '.join(SUITE_NAMES)}",
    )
    p.add_argument("--level", type=int, default=4, help="working level N")
    p.add_argument("--samples", type=int, default=200, help="samples per suite/level")
    p.add_argument("--seed", type=int, default=7, help="base RNG seed")
    p.add_argument("--tol", type=float, default=1e-10, help="suite tolerance")
    p.add_argument(
        "--eig-tol", type=float, default=1e-12, help="exactness/PSD tolerance"
    )
    p.add_argument(
        "--out-dir", default=None, help="directory for JSON reports + summary.csv"
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("converge", help="restricted-energy table")
    p.add_argument("--level", type=int, required=True, help="working level N")
    p.add_argument("--input", required=True, help="matrix JSON file at level N")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_converge)

    p = sub.add_parser("evolve", help="semigroup trajectory")
    p.add_argument(
        "--t-grid",
        type=_parse_time_grid,
        required=True,
        help="time grid start:step:stop (inclusive) or comma list",
    )
    p.add_argument("--input", required=True, help="matrix JSON file")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("choi", help="complete-positivity certificate")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--t", type=float, default=1.0, help="semigroup time")
    p.add_argument(
        "--generator",
        default="diagonal",
        help="diagonal | lindblad:file.json | transpose (negative control)",
    )
    p.add_argument("--tol", type=float, default=1e-10, help="PSD tolerance")
    p.add_argument("--out", default=None, help="optional Choi matrix JSON output")
    p.set_defaults(func=_cmd_choi)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed its usage or error
        return exc.code
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
