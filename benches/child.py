"""One fresh process per workload repetition.

Usage: python3 child.py SPEC.json SPAWN_TIME

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process, so set-up time covers interpreter start plus the imports a
``towerforms`` CLI call pays. The spec names the CLI commands to run in
this process (each through ``towerforms.cli.main`` with its standard output
captured), whether to trace, and where to write the result JSON.
"""

import sys
import time

_spawned = float(sys.argv[2])

import numpy  # noqa: E402,F401
import towerforms.cli  # noqa: E402

setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - _spawned

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# Exit status when towerforms was imported from somewhere other than the
# checkout's src/, so the run would measure another copy of the program.
EXIT_NO_PROGRAM = 3


def _peak_rss_mb() -> float:
    """Peak resident set of this process in MiB. VmHWM starts afresh at
    exec; ru_maxrss may carry over the peak of the process that spawned
    this one."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0  # the value is in kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def _run_cli(argv):
    try:
        return towerforms.cli.main(argv), None
    except SystemExit as exc:
        return exc.code, None
    except Exception:  # a crash counts as a failed operation, not a dead run
        return None, traceback.format_exc()


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    if src not in Path(towerforms.__file__).resolve().parents:
        print(f"towerforms imported from {towerforms.__file__}, not {src}",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    result = {"setup_s": setup_s}
    if spec["mode"] == "setup":
        Path(spec["result"]).write_text(json.dumps(result))
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        result["installed"] = tracer.install()

    commands = []
    t0, cpu0 = time.perf_counter(), time.process_time()
    for argv in spec["commands"]:
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            if tracer is None:
                code, error = _run_cli(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    code, error = _run_cli(argv)
        commands.append(
            {
                "argv": argv,
                "exit": code,
                "error": error,
                "stdout": buf.getvalue(),
                "s": time.perf_counter() - start,
            }
        )
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = time.process_time() - cpu0
    result["commands"] = commands
    result["peak_rss_mb"] = _peak_rss_mb()

    if tracer is not None:
        result["layers"] = tracer.summary()
        result["self_sum_s"] = tracer.self_time_sum()
        result["spans"] = len(tracer.spans)
        tracer.write_spans(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
