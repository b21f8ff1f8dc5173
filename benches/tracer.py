"""Span tracer that instruments towerforms from outside the program.

Every traced public name is replaced in each towerforms module that binds
it, so ``from .superop import densify`` in ``harness`` is traced as well as
``superop.densify`` itself. ``apply_matrix`` is wrapped on every
``SuperOperator`` subclass that defines one, the suite runners are wrapped
where ``run_suite`` looks them up, and ``numpy.linalg.eigh``/``eigvalsh``
are wrapped on ``numpy.linalg``. Names a future version no longer has are
skipped and left out of the list ``install`` returns.

Spans are kept in memory as tuples and summarised when the run ends. The
self time of a span is its duration minus the durations of its direct
children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import math
import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter

# (module, function) pairs wrapped as "<module>.<function>" spans.
TRACED_FUNCTIONS = (
    ("tower", "clamp_spectrum"),
    ("tower", "element_from_json"),
    ("expectations", "partial_trace_matrix"),
    ("expectations", "cond_expect"),
    ("expectations", "project_P"),
    ("expectations", "project_Q"),
    ("superop", "densify"),
    ("superop", "choi_matrix"),
    ("superop", "spectral_resolve"),
    ("superop", "semigroup_apply"),
    ("superop", "choi_min_eigenvalue"),
    ("superop", "square_matrix_to_json"),
    ("superop", "markov_check"),
    ("superop", "symmetry_conservativity_check"),
    ("forms", "eval_form_matrix"),
    ("forms", "commutator_form_eval"),
    ("forms", "family_compatibility_margin"),
    ("forms", "build_from_family"),
    ("forms", "dirichlet_check"),
    ("derivation", "derive"),
    ("derivation", "bimodule_left"),
    ("derivation", "bimodule_right"),
    ("derivation", "bimodule_inner"),
    ("harness", "write_reports"),
    ("harness", "write_table_csv"),
    ("harness", "converge_table"),
    ("harness", "evolve_table"),
)

# Classes whose constructions are counted (no span: they are too frequent).
COUNTED_CLASSES = (("tower", "AlgebraElement"), ("derivation", "BimoduleVector"))

LINALG_FUNCTIONS = ("eigh", "eigvalsh")

# Spans whose direct apply_matrix children are counted as probes.
PROBING = ("superop.densify", "superop.choi_matrix")


def _dim(args) -> int | None:
    """Matrix dimension of the first argument, when it has one."""
    if not args:
        return None
    x = args[0]
    dim = getattr(x, "dim", None)
    if isinstance(dim, int):
        return dim
    shape = getattr(x, "shape", None)
    if shape:
        return int(shape[-1])
    level = x.get("level") if isinstance(x, dict) else getattr(x, "level", None)
    if isinstance(level, int):
        return 2 ** level
    forms = getattr(x, "forms", None)
    if forms:
        return getattr(forms[-1], "dim", None)
    return None


class Tracer:
    def __init__(self):
        self._stack = []  # open spans: [span_id, name, start, child_seconds, dim]
        self.spans = []  # closed spans: (id, parent_id, name, start, end, self_s, dim)
        self.counts = Counter()
        self.dim3 = Counter()  # per linalg span name: sum of n^3 over calls
        self._next_id = 0

    # ------------------------------------------------------------------
    # span bookkeeping
    # ------------------------------------------------------------------

    def _open(self, name, dim):
        self._next_id += 1
        self._stack.append([self._next_id, name, _clock(), 0.0, dim])

    def _close(self):
        end = _clock()
        span_id, name, start, child_s, dim = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append(
            (span_id, parent[0] if parent else 0, name, start, end, dur - child_s, dim)
        )

    @contextlib.contextmanager
    def span(self, name, dim=None):
        """A span opened by the benchmark itself."""
        self._open(name, dim)
        try:
            yield
        finally:
            self._close()

    def wrap(self, fn, name, dim_of=_dim):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_(name, dim_of(args))
            try:
                return fn(*args, **kwargs)
            finally:
                close()

        return traced

    def wrap_linalg(self, fn, name):
        open_, close, dim3 = self._open, self._close, self.dim3

        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            shape = getattr(a, "shape", ())
            n = int(shape[-1]) if shape else 0
            dim3[name] += math.prod(shape[:-2]) * n ** 3
            open_(name, n)
            try:
                return fn(a, *args, **kwargs)
            finally:
                close()

        return traced

    def count_constructions(self, cls, name):
        orig = cls.__post_init__
        counts = self.counts

        @functools.wraps(orig)
        def counted(inst):
            counts[name] += 1
            return orig(inst)

        cls.__post_init__ = counted

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self) -> list[str]:
        """Wrap every traced name; return the names that were found."""
        import numpy

        pkg = "towerforms"
        modules = [
            m for k, m in sorted(sys.modules.items())
            if m is not None and (k == pkg or k.startswith(pkg + "."))
        ]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        installed = []

        for mod_name, fn_name in TRACED_FUNCTIONS:
            orig = getattr(by_name.get(mod_name), fn_name, None)
            if orig is None:
                continue
            traced = self.wrap(orig, f"{mod_name}.{fn_name}")
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, traced)
            installed.append(f"{mod_name}.{fn_name}")

        superop = by_name.get("superop")
        base = getattr(superop, "SuperOperator", None)
        if base is not None:
            for mod in modules:
                for cls in list(vars(mod).values()):
                    if (
                        isinstance(cls, type)
                        and issubclass(cls, base)
                        and "apply_matrix" in cls.__dict__
                        and cls.__module__ == mod.__name__
                    ):
                        name = f"superop.apply_matrix.{cls.__name__}"
                        cls.apply_matrix = self.wrap(cls.__dict__["apply_matrix"], name)
                        installed.append(name)

        runners = getattr(by_name.get("harness"), "_SUITE_RUNNERS", None)
        if isinstance(runners, dict):
            for suite, runner in list(runners.items()):
                name = f"harness.suite.{suite}"
                runners[suite] = self.wrap(
                    runner, name, lambda args: 2 ** args[0].level
                )
                installed.append(name)

        for mod_name, cls_name in COUNTED_CLASSES:
            cls = getattr(by_name.get(mod_name), cls_name, None)
            if cls is not None and hasattr(cls, "__post_init__"):
                self.count_constructions(cls, f"{mod_name}.{cls_name}")
                installed.append(f"{mod_name}.{cls_name}")

        for fn_name in LINALG_FUNCTIONS:
            name = f"linalg.{fn_name}"
            setattr(
                numpy.linalg, fn_name,
                self.wrap_linalg(getattr(numpy.linalg, fn_name), name),
            )
            installed.append(name)
        return installed

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name calls, inclusive and self seconds, dimensions seen,
        plus probe counts, spectral cache hits and linalg n^3 sums."""
        layers = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "dims": Counter()}
        )
        name_of = {}
        for span_id, _, name, _, _, _, _ in self.spans:
            name_of[span_id] = name
        probes = Counter()
        densify_parents = set()
        for _, parent, name, start, end, self_s, dim in self.spans:
            rec = layers[name]
            rec["calls"] += 1
            rec["s"] += end - start
            rec["self_s"] += self_s
            if dim is not None:
                rec["dims"][dim] += 1
            pname = name_of.get(parent)
            if pname in PROBING and name.startswith("superop.apply_matrix."):
                probes[pname] += 1
            if name == "superop.densify":
                densify_parents.add(parent)
        for name in PROBING:
            if name in layers:
                layers[name]["probes"] = probes[name]
        resolve = "superop.spectral_resolve"
        if resolve in layers:
            misses = sum(
                1 for span_id, _, name, *_ in self.spans
                if name == resolve and span_id in densify_parents
            )
            calls = layers[resolve]["calls"]
            layers[resolve]["cache_hit_ratio"] = (calls - misses) / calls
        for name, total in self.dim3.items():
            layers[name]["dim3_sum"] = total
        for name, total in self.counts.items():
            layers[name] = {"count": total}
        out = {}
        for name in sorted(layers):
            rec = dict(layers[name])
            if "dims" in rec:
                rec["dims"] = {str(d): c for d, c in sorted(rec["dims"].items())}
            out[name] = rec
        return out

    def self_time_sum(self) -> float:
        return math.fsum(s[5] for s in self.spans)

    def write_spans(self, path) -> None:
        """All closed spans as gzipped TSV, times relative to the first."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\tself_s\tdim\n")
            for span_id, parent, name, start, end, self_s, dim in self.spans:
                fh.write(
                    f"{span_id}\t{parent}\t{name}\t{start - t0:.9f}\t"
                    f"{end - t0:.9f}\t{self_s:.9f}\t{'' if dim is None else dim}\n"
                )
