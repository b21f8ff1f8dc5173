"""Workloads: seeded inputs, the CLI commands of one repetition, and the
checks every output must pass.

An operation is one suite report or one CLI command. Every check fails
closed: a value that is not finite never satisfies a bound.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Defaults of `towerforms verify` that the expected reports depend on.
TOL = 1e-10
EIG_TOL = 1e-12
N_TIMES = 3  # RunConfig.times
SEMIGROUP_CAP = 3  # RunConfig.semigroup_level_cap and choi_level_cap
SAMPLES = 200

CHOI_T = 0.5
EVOLVE_GRID = "0:0.01:10"
EVOLVE_ROWS = 1001
CERTIFY_LEVEL = 5
ELEMENT_LEVEL = 7
N_JUMPS = 3


def _finite_le(value, bound) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value <= bound


# --------------------------------------------------------------------------
# verify workloads
# --------------------------------------------------------------------------


def expected_reports(suites, level, samples) -> dict:
    """(suite, level, samples) -> tol for every report `verify` must write."""
    rows = {}
    capped = range(1, min(level, SEMIGROUP_CAP) + 1)
    for suite in suites:
        if suite in ("dirichlet", "leibniz"):
            rows.update({(suite, n, samples): TOL for n in range(1, level + 1)})
        elif suite in ("markov", "symmetry"):
            rows.update({(suite, n, samples): TOL for n in capped})
        elif suite == "choi":
            rows.update({("choi", n, N_TIMES): TOL for n in capped})
            rows[("choi-transpose-control", 1, 1)] = TOL
        elif suite == "compatibility":
            units = sum(4 ** n for n in range(1, level))
            rows[("compatibility", level, units)] = EIG_TOL
        elif suite == "normalization-bridge":
            rows.update(
                {(suite, n, samples): EIG_TOL for n in range(1, level + 1)}
            )
        elif suite == "convergence":
            rows[("convergence", level, samples)] = TOL
        else:
            raise ValueError(f"no expected reports for suite {suite!r}")
    return rows


ALL_SUITES = (
    "dirichlet", "markov", "symmetry", "choi", "leibniz", "compatibility",
    "normalization-bridge", "convergence",
)


class VerifyWorkload:
    """One `towerforms verify` call; its reports are the operations."""

    def __init__(self, name, suites, level):
        self.name = name
        self.suite_arg = suites
        self.suites = ALL_SUITES if suites == "all" else tuple(suites.split(","))
        self.level = level
        self.expected = expected_reports(self.suites, level, SAMPLES)

    def prepare(self, seed, work: Path) -> dict:
        return {}

    def commands(self, seed, rep: Path, inputs) -> list:
        return [[
            "verify", "--suite", self.suite_arg, "--level", str(self.level),
            "--samples", str(SAMPLES), "--seed", str(seed),
            "--out-dir", str(rep / "reports"),
        ]]

    def outputs(self, rep: Path) -> list[Path]:
        return sorted((rep / "reports").glob("*"))

    def check(self, rep: Path, result: dict) -> tuple[int, list[str]]:
        """Return (failed operations, problems). Each expected report is an
        operation, and so is the command: it fails on its exit status or a
        report set that differs from the expected one."""
        problems, command_problems = [], []
        passed = set()
        (cmd,) = result["commands"]
        if cmd["exit"] != 0:
            command_problems.append(f"exit status {cmd['exit']} {cmd['error'] or ''}")
        seen = set()
        for path in sorted((rep / "reports").glob("*.json")):
            try:
                r = json.loads(path.read_text())
                key = (r["suite"], r["level"], r["samples"])
            except (ValueError, KeyError, TypeError) as exc:
                command_problems.append(f"{path.name}: unreadable report ({exc})")
                continue
            seen.add(key)
            tol = self.expected.get(key)
            if tol is None:
                command_problems.append(f"{path.name}: unexpected report {key}")
            elif (
                r.get("failures") == 0
                and r.get("tol") == tol
                and _finite_le(r.get("worst_margin"), tol)
            ):
                passed.add(key)
            else:
                problems.append(
                    f"{path.name}: failures={r.get('failures')} "
                    f"worst_margin={r.get('worst_margin')} tol={r.get('tol')}"
                )
        missing = set(self.expected) - seen
        if missing:
            command_problems.append(f"missing reports {sorted(missing)}")
        try:
            with open(rep / "reports" / "summary.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            keys = {(r["suite"], int(r["level"]), int(r["samples"])) for r in rows}
            if len(rows) != len(self.expected) or keys != set(self.expected):
                command_problems.append(
                    f"summary.csv has {len(rows)} rows, expected {len(self.expected)}"
                )
        except (OSError, KeyError, ValueError) as exc:
            command_problems.append(f"summary.csv unreadable ({exc})")
        failed = len(self.expected) - len(passed) + int(bool(command_problems))
        return failed, problems + command_problems

    @property
    def operations(self) -> int:
        return len(self.expected) + 1


# --------------------------------------------------------------------------
# certify workload: seeded input files and five CLI commands
# --------------------------------------------------------------------------


def _matrix_json(level, mat) -> dict:
    return {"level": level, "re": mat.real.tolist(), "im": mat.imag.tolist()}


def _hermitian(dim, rng) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (g + g.conj().T)


def _read_matrix(obj, key="level") -> np.ndarray:
    d = 2 ** obj[key] if key == "level" else obj[key]
    mat = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    if mat.shape != (d, d):
        raise ValueError(f"shape {mat.shape}, expected ({d}, {d})")
    return mat


def _check_input(mat, what) -> None:
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{what} is not finite")
    if np.abs(mat - mat.conj().T).max() != 0.0:
        raise ValueError(f"{what} is not Hermitian")


def make_certify_inputs(seed, work: Path) -> dict:
    """Lindblad files at levels 5 and 4 (three non-diagonal Hermitian jump
    operators scaled by 1/d, no h) and a Hermitian level-7 element.

    The files are read back, checked finite and exactly Hermitian, and
    returned as name -> {"path", "sha256"}.
    """
    rng = np.random.default_rng([seed, 0x7F0F])
    files = {}
    for level in (CERTIFY_LEVEL, 4):
        d = 2 ** level
        ms = [_matrix_json(level, _hermitian(d, rng) / d) for _ in range(N_JUMPS)]
        files[f"lindblad-L{level}.json"] = {"ms": ms, "h": None}
    files[f"element-L{ELEMENT_LEVEL}.json"] = _matrix_json(
        ELEMENT_LEVEL, _hermitian(2 ** ELEMENT_LEVEL, rng)
    )
    inputs = {}
    for name, obj in files.items():
        path = work / name
        data = (json.dumps(obj) + "\n").encode()
        path.write_bytes(data)
        back = json.loads(path.read_text())
        for i, m in enumerate(back["ms"] if "ms" in back else [back]):
            mat = _read_matrix(m)
            _check_input(mat, f"{name}[{i}]")
            if "ms" in back and np.abs(mat - np.diag(np.diag(mat))).max() == 0.0:
                raise ValueError(f"{name}[{i}] is diagonal")
        inputs[name] = {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}
    return inputs


def _min_eig_printed(stdout) -> float:
    """The value printed by `towerforms choi` after 'min eigenvalue'."""
    for line in stdout.splitlines():
        if "min eigenvalue" in line:
            return float(line.split("min eigenvalue", 1)[1].split()[0])
    return math.nan


def _read_csv(path, columns) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != columns:
            raise ValueError(f"{path.name}: header {reader.fieldnames}")
        return [{k: float(v) for k, v in row.items()} for row in reader]


CONVERGE_COLUMNS = ("n", "E_n", "E_Q_n", "Q_n_norm_sq", "sqrt_gap")
EVOLVE_COLUMNS = ("t", "trace_re", "trace_im", "gns_norm", "energy", "min_eig", "max_eig")


class CertifyWorkload:
    name = "certify-L5"
    operations = 5

    def prepare(self, seed, work: Path) -> dict:
        return make_certify_inputs(seed, work)

    def commands(self, seed, rep: Path, inputs) -> list:
        lind = {lv: inputs[f"lindblad-L{lv}.json"]["path"] for lv in (CERTIFY_LEVEL, 4)}
        element = inputs[f"element-L{ELEMENT_LEVEL}.json"]["path"]
        return [
            ["choi", "--level", str(CERTIFY_LEVEL), "--t", str(CHOI_T),
             "--generator", f"lindblad:{lind[CERTIFY_LEVEL]}"],
            ["choi", "--level", "1", "--generator", "transpose",
             "--out", str(rep / "choi-transpose.json")],
            ["choi", "--level", "4", "--t", str(CHOI_T),
             "--generator", f"lindblad:{lind[4]}", "--out", str(rep / "choi-L4.json")],
            ["converge", "--level", str(ELEMENT_LEVEL), "--input", element,
             "--out", str(rep / "converge.csv")],
            ["evolve", "--t-grid", EVOLVE_GRID, "--input", element,
             "--out", str(rep / "evolve.csv")],
        ]

    def outputs(self, rep: Path) -> list[Path]:
        return [rep / n for n in
                ("choi-transpose.json", "choi-L4.json", "converge.csv", "evolve.csv")]

    def check(self, rep: Path, result: dict) -> tuple[int, list[str]]:
        problems = []
        checks = (
            self._choi_cp, self._choi_control, self._choi_json, self._converge,
            self._evolve,
        )
        failed = 0
        for cmd, check in zip(result["commands"], checks):
            try:
                problem = check(rep, cmd)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problem = f"unreadable output ({exc})"
            if cmd["error"]:
                problem = cmd["error"].strip().splitlines()[-1]
            if problem:
                failed += 1
                problems.append(f"{' '.join(cmd['argv'][:3])}: {problem}")
        failed += self.operations - len(result["commands"])
        return failed, problems

    @staticmethod
    def _choi_cp(rep, cmd):
        lam = _min_eig_printed(cmd["stdout"])
        if cmd["exit"] != 0 or not _finite_le(-lam, TOL):
            return f"exit {cmd['exit']}, min eigenvalue {lam}"
        return None

    @staticmethod
    def _choi_control(rep, cmd):
        lam = _min_eig_printed(cmd["stdout"])
        choi = _read_matrix(json.loads((rep / "choi-transpose.json").read_text()), "dim")
        exact = float(np.linalg.eigvalsh(choi)[0])
        if cmd["exit"] != 1 or not _finite_le(abs(exact + 1.0), TOL) \
                or not _finite_le(abs(lam + 1.0), 1e-6):
            return f"exit {cmd['exit']}, min eigenvalue {lam} (exact {exact})"
        return None

    @staticmethod
    def _choi_json(rep, cmd):
        problem = CertifyWorkload._choi_cp(rep, cmd)
        if problem:
            return problem
        choi = _read_matrix(json.loads((rep / "choi-L4.json").read_text()), "dim")
        if choi.shape != (256, 256) or not np.all(np.isfinite(choi)):
            return f"Choi JSON shape {choi.shape} or not finite"
        if np.abs(choi - choi.conj().T).max() > TOL * (1 + np.abs(choi).max()):
            return "Choi JSON is not Hermitian"
        exact = float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0])
        lam = _min_eig_printed(cmd["stdout"])
        if not _finite_le(-exact, TOL) or not _finite_le(abs(exact - lam), 1e-6):
            return f"Choi JSON min eigenvalue {exact}, printed {lam}"
        return None

    @staticmethod
    def _converge(rep, cmd):
        rows = _read_csv(rep / "converge.csv", CONVERGE_COLUMNS)
        if cmd["exit"] != 0 or len(rows) != ELEMENT_LEVEL:
            return f"exit {cmd['exit']}, {len(rows)} rows"
        if not all(math.isfinite(v) for r in rows for v in r.values()):
            return "non-finite value"
        if not _finite_le(abs(rows[-1]["E_Q_n"]), EIG_TOL):
            return f"last E_Q_n = {rows[-1]['E_Q_n']}"
        return None

    @staticmethod
    def _evolve(rep, cmd):
        rows = _read_csv(rep / "evolve.csv", EVOLVE_COLUMNS)
        if cmd["exit"] != 0 or len(rows) != EVOLVE_ROWS:
            return f"exit {cmd['exit']}, {len(rows)} rows"
        if not all(math.isfinite(v) for r in rows for v in r.values()):
            return "non-finite value"
        tr0 = rows[0]["trace_re"]
        drift = max(abs(r["trace_re"] - tr0) for r in rows)
        if not _finite_le(drift, TOL * (1 + abs(tr0))):
            return f"trace_re drifts by {drift}"
        for prev, cur in zip(rows, rows[1:]):
            if not _finite_le(cur["gns_norm"] - prev["gns_norm"], EIG_TOL * (1 + prev["gns_norm"])):
                return f"gns_norm increases at t={cur['t']}"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        VerifyWorkload("verify-L5", "all", 5),
        VerifyWorkload("sampled-L6", "dirichlet,leibniz,convergence", 6),
        CertifyWorkload(),
    )
}
