#!/usr/bin/env python3
"""End-to-end benchmark of towerforms.

Usage, from the root of a checkout:

    python3 benches/run.py --workload verify-L5 --seed 1 --seconds 40 --trace 0

Each repetition of the workload runs in a fresh child process
(``child.py``) that imports towerforms from ``src/`` and calls its CLI. The
run repeats the workload while another repetition still fits in
``--seconds``, always at least once, and reports medians over repetitions.
Set-up time is also sampled from set-up-only children.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` one more repetition runs traced and the last
line holds the per-layer metrics instead. Every output of every repetition
is checked; the full record of the run goes to ``benches/out/``.
"""

from __future__ import annotations

import os

# One process and no extra BLAS threads, in the children and here.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"

SETUP_SAMPLES = 5  # set-up-only children per run, besides one per repetition
RUN_LIMIT_S = 170  # a run must end within 180 s

# The metric names and units come from BENCHMARK.json. A per-layer metric
# "<layer>.<field>" reads a field of one layer record of the traced
# repetition.
SPEC = ROOT / "BENCHMARK.json"


def _hooked(layer: str) -> bool:
    """Whether the tracer must hook the layer: the child opens the cli.*
    spans itself and run.py computes the trace record."""
    return not (layer.startswith("cli.") or layer == "trace")


class RunError(Exception):
    """The run cannot produce a result (no program, a hung or dead child)."""


# --------------------------------------------------------------------------
# machine record
# --------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    import numpy

    try:
        cfg = numpy.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _git_commit() -> str:
    """HEAD of a git checkout at ROOT, read without running git (which
    would search parent directories)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "threads_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": _git_commit(),
    }


# --------------------------------------------------------------------------
# children
# --------------------------------------------------------------------------


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.count = 0

    def spawn(self, mode, commands=(), trace=False, spans=None) -> dict:
        """Run one child to completion; return its result plus the ru_maxrss
        that wait4 reports for it."""
        self.count += 1
        tag = f"child{self.count}"
        spec = {
            "mode": mode,
            "src": str(SRC),
            "commands": list(commands),
            "trace": trace,
            "result": str(self.work / f"{tag}.result.json"),
            "spans": spans,
        }
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        with open(self.work / f"{tag}.stderr", "w+") as err:
            spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(spec_path), repr(spawned)],
                cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            status, usage = self._wait(proc)
            if status != 0:
                err.seek(0)
                raise RunError(f"{mode} child exited {status}:\n{err.read()[-2000:]}")
        result = json.loads(Path(spec["result"]).read_text())
        result["ru_maxrss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
        return result

    def _wait(self, proc):
        """Reap the child with wait4 for its own peak RSS; kill it past the
        deadline or when the parent is interrupted."""
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    return proc.returncode, usage
                if time.monotonic() > self.deadline:
                    raise RunError(f"child {proc.pid} did not finish in time; killed")
                time.sleep(0.01)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------


def _same_outputs(workload, rep_a: Path, res_a, rep_b: Path, res_b) -> list[str]:
    """Byte-for-byte comparison of two repetitions' output files and CLI
    standard output."""
    diffs = []
    files_a = [p.relative_to(rep_a) for p in workload.outputs(rep_a)]
    files_b = [p.relative_to(rep_b) for p in workload.outputs(rep_b)]
    if files_a != files_b:
        diffs.append(f"output file sets differ: {files_a} vs {files_b}")
    for rel in files_a:
        if rel in files_b and (rep_a / rel).read_bytes() != (rep_b / rel).read_bytes():
            diffs.append(f"{rel} differs")
    for ca, cb in zip(res_a["commands"], res_b["commands"]):
        if ca["stdout"].replace(str(rep_a), "") != cb["stdout"].replace(str(rep_b), ""):
            diffs.append(f"stdout of {' '.join(ca['argv'][:3])} differs")
    return diffs


def run(workload, spec: dict, seed: int, seconds: float, trace: bool,
        started: float) -> tuple[dict, dict]:
    """Return (final result line, full record)."""
    BENCH.joinpath(".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=BENCH / ".work"))
    try:
        runner = Runner(work, started + RUN_LIMIT_S)
        record = {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "machine": machine(),
        }
        inputs = workload.prepare(seed, work)
        record["inputs"] = {k: v["sha256"] for k, v in inputs.items()}

        runner.spawn("setup")  # warm the page cache and bytecode; not counted
        setups = [runner.spawn("setup")["setup_s"] for _ in range(SETUP_SAMPLES)]

        reps, attempted, failed, problems = [], 0, 0, []

        def repetition(traced=False):
            nonlocal attempted, failed
            rep = work / f"rep{len(reps)}"
            rep.mkdir()
            commands = workload.commands(seed, rep, inputs)
            spans = str(BENCH / "out" / f"{workload.name}-seed{seed}.spans.tsv.gz")
            res = runner.spawn("run", commands, traced, spans if traced else None)
            n_failed, found = workload.check(rep, res)
            attempted += workload.operations
            failed += n_failed
            problems.extend(f"rep{len(reps)}: {p}" for p in found)
            reps.append((rep, res))
            return res

        t_measure = time.monotonic()
        rep_times = []
        while not rep_times or (
            time.monotonic() - t_measure + max(rep_times) <= seconds
        ):
            t = time.monotonic()
            res = repetition()
            rep_times.append(time.monotonic() - t)
            setups.append(res["setup_s"])

        untraced = [res for _, res in reps]
        walls = [r["wall_s"] for r in untraced]
        rss = [r["peak_rss_mb"] for r in untraced]
        record["repetitions"] = [
            {
                "wall_s": r["wall_s"],
                "cpu_s": r["cpu_s"],
                "setup_s": r["setup_s"],
                "peak_rss_mb": r["peak_rss_mb"],
                "ru_maxrss_mb": r["ru_maxrss_mb"],
                "commands": [
                    {"argv": c["argv"], "exit": c["exit"], "s": c["s"]}
                    for c in r["commands"]
                ],
            }
            for r in untraced
        ]
        record["setup_samples"] = setups
        samples = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
        e2e = {k: statistics.median(v) for k, v in samples.items()}
        record["end_to_end"] = e2e

        self_test = []
        metrics = {
            m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
        if trace:
            traced = repetition(traced=True)
            diffs = _same_outputs(workload, *reps[0], *reps[-1])
            self_test += [f"traced run differs: {d}" for d in diffs]
            # A layer the tracer could not hook would read 0, the best value.
            layer_of = {m["name"]: m["name"].rsplit(".", 1) for m in spec["per_layer"]}
            missing = sorted(
                {layer for layer, _ in layer_of.values() if _hooked(layer)}
                - set(traced["installed"])
            )
            if missing:
                self_test.append(f"tracer could not hook {', '.join(missing)}")
            # Holds by construction unless the tracer also counts a child
            # span's time in its parent's self time.
            if traced["self_sum_s"] > traced["wall_s"]:
                self_test.append(
                    f"self times sum to {traced['self_sum_s']} s, more than "
                    f"wall_s {traced['wall_s']} s"
                )
            layers = traced["layers"]
            layers["trace"] = {
                "wall_s": traced["wall_s"],
                "overhead_s": traced["wall_s"] - e2e["wall_s"],
            }
            record["trace"] = {
                "self_sum_s": traced["self_sum_s"],
                "spans": traced["spans"],
                "installed": traced["installed"],
                "layers": layers,
            }
            metrics = {}
            for m in spec["per_layer"]:
                layer, field = layer_of[m["name"]]
                value = layers.get(layer, {}).get(field, 0)
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        record["self_test"] = self_test
        record["problems"] = problems
        record["fail_ratio"] = failed / attempted
        correct = failed == 0 and not self_test
        line = {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        }
        record["result"] = line
        return line, record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "towerforms" / "__init__.py").is_file():
        print(f"error: no towerforms sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    (BENCH / "out").mkdir(exist_ok=True)
    try:
        line, record = run(workload, spec, args.seed, args.seconds, bool(args.trace), started)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    path = BENCH / "out" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for p in record["problems"] + record["self_test"]:
        print(f"problem: {p}")
    print(f"record: {path.relative_to(ROOT)}")
    print(f"machine: {json.dumps(record['machine'], sort_keys=True)}")
    for name, sha in record["inputs"].items():
        print(f"input: {name} sha256 {sha}")
    print(f"operations: {line['attempted']} attempted, {line['failed']} failed, "
          f"{len(record['repetitions'])} repetitions")
    for name, m in line["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
