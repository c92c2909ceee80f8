"""Spans and counters recorded around hom3lie's public functions.

``Tracer.installed()`` replaces each target in ``SPANS`` and ``LEAVES``
by a wrapper, under every name any hom3lie module (or class) holds it,
and puts the originals back on exit.  Nothing under ``src/`` changes.

- A span target records (name, start, end, parent, job) per call; the
  spans stay in memory until the benchmark writes them out.
- A leaf target is too hot for a span per call: it records a call
  count and a total time only.
- Counters are worked out from the arguments and results seen at the
  boundary: sweep instances from the dimension n, the shape, rank and
  all-zero rows of each derivation system passed to ``nullspace``, and
  the nonzero structure constants of each loaded algebra.  They do not
  depend on timing, so they must repeat exactly from pass to pass.

A name's inclusive time counts only its outermost spans; self time is
a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from math import comb
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

ROOT_SPAN = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    job: str


Observer = Callable[["Tracer", Span, tuple, Any], None]


def _hom_jacobi(t: "Tracer", span: Span, args: tuple, result: Any) -> None:
    n = args[0].dim
    t.counts["algebras.hom_jacobi_instances"] += n * n * comb(n, 3)
    t.counts["algebras.violations_total"] += result.violations_total


def _multiplicative(t: "Tracer", span: Span, args: tuple, result: Any) -> None:
    t.counts["algebras.violations_total"] += result.violations_total


def _representation(t: "Tracer", span: Span, args: tuple, result: Any) -> None:
    n = args[0].dim
    t.counts["representations.instances"] += n ** 2 + n ** 4


def _cocycle(t: "Tracer", span: Span, args: tuple, result: Any) -> None:
    t.counts["extensions.cocycle_instances"] += args[0].dim ** 5


def _rref(t: "Tracer", span: Span, args: tuple, result: Any) -> None:
    cells = args[0].rows * args[0].cols
    t.counts["linalg.rref_calls"] += 1
    t.counts["linalg.rref_cells"] += cells
    t.counts["linalg.rref_max_cells"] = max(t.counts["linalg.rref_max_cells"], cells)


def _system(t: "Tracer", span: Span, args: tuple, result: Any) -> None:
    if span.parent < 0 or t.spans[span.parent].name != "derivations.derivation_space":
        return
    m = args[0]
    t.counts["derivations.system_rows"] += m.rows
    t.counts["derivations.system_cols"] += m.cols
    t.counts["derivations.system_rank"] += m.cols - result.dim
    t.counts["derivations.zero_rows"] += sum(
        1 for r in range(m.rows) if not any(m.entries[r * m.cols:(r + 1) * m.cols])
    )


def _loaded(t: "Tracer", span: Span, args: tuple, result: Any) -> None:
    t.counts["algebras.nnz_constants"] += sum(
        1 for v in result.table.values() for x in v.entries if x
    )


# (module, attribute, group, observer); the span name is module.attribute
SPANS: tuple[tuple[str, str, str, Optional[Observer]], ...] = (
    ("io", "load_algebra", "io.load", _loaded),
    ("io", "load_cocycle", "io.load", None),
    ("io", "load_form", "io.load", None),
    ("io", "load_subspace", "io.load", None),
    ("io", "write_json", "io.dump", None),
    ("io", "canonical_dumps", "io.dump", None),
    ("algebras", "verify_hom_jacobi", "", _hom_jacobi),
    ("algebras", "verify_multiplicative", "", _multiplicative),
    ("algebras", "is_ideal", "", None),
    ("algebras", "quotient", "", None),
    ("linalg", "rref", "", _rref),
    ("linalg", "nullspace", "", _system),
    ("linalg", "inverse", "", None),
    ("derivations", "derivation_space", "", None),
    ("derivations", "inner_space", "", None),
    ("representations", "verify_representation", "", _representation),
    ("extensions", "verify_cocycle", "", _cocycle),
    ("extensions", "verify_metric", "", None),
    ("extensions", "t_theta_extension", "", None),
    ("extensions", "is_isometry", "", None),
    ("structure", "reconstruct_t_star", "", None),
    ("structure", "series", "", None),
    ("structure", "isotropic_complement", "", None),
)

# (module, class, method, counter prefix); bracket also counts nonzero results
LEAVES = (
    ("algebras", "Hom3LieAlgebra", "bracket", "algebras.bracket"),
    ("representations", "Representation", "apply", "representations.apply"),
    ("linalg", "Subspace", "span", "linalg.subspace_span"),
)

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("cli.self_s", "s", "lower"),
    ("io.load_s", "s", "lower"),
    ("io.dump_s", "s", "lower"),
    ("io.bytes_out", "bytes", "lower"),
    ("algebras.verify_hom_jacobi_s", "s", "lower"),
    ("algebras.verify_multiplicative_s", "s", "lower"),
    ("algebras.hom_jacobi_instances", "count", "lower"),
    ("algebras.hom_jacobi_instances_per_s", "1/s", "higher"),
    ("algebras.bracket_calls", "count", "lower"),
    ("algebras.bracket_s", "s", "lower"),
    ("algebras.bracket_nonzero_ratio", "ratio", "higher"),
    ("algebras.nnz_constants", "count", "lower"),
    ("algebras.violations_total", "count", "lower"),
    ("algebras.is_ideal_s", "s", "lower"),
    ("algebras.quotient_s", "s", "lower"),
    ("linalg.rref_calls", "count", "lower"),
    ("linalg.rref_s", "s", "lower"),
    ("linalg.rref_cells", "count", "lower"),
    ("linalg.rref_max_cells", "count", "lower"),
    ("linalg.nullspace_s", "s", "lower"),
    ("linalg.inverse_s", "s", "lower"),
    ("linalg.subspace_span_calls", "count", "lower"),
    ("derivations.derivation_space_s", "s", "lower"),
    ("derivations.build_s", "s", "lower"),
    ("derivations.system_rows", "count", "lower"),
    ("derivations.system_cols", "count", "lower"),
    ("derivations.system_rank", "count", "higher"),
    ("derivations.zero_row_ratio", "ratio", "lower"),
    ("derivations.inner_space_s", "s", "lower"),
    ("representations.verify_representation_s", "s", "lower"),
    ("representations.instances", "count", "lower"),
    ("representations.apply_calls", "count", "lower"),
    ("extensions.verify_cocycle_s", "s", "lower"),
    ("extensions.cocycle_instances", "count", "lower"),
    ("extensions.verify_metric_s", "s", "lower"),
    ("extensions.t_theta_extension_s", "s", "lower"),
    ("extensions.is_isometry_s", "s", "lower"),
    ("structure.reconstruct_t_star_s", "s", "lower"),
    ("structure.series_s", "s", "lower"),
    ("structure.isotropic_complement_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Metrics that depend on inputs and code only, never on timing.
DETERMINISTIC = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "bytes", "ratio"))


class Tracer:
    """Records spans and counters while installed; ``reset`` starts a new pass."""

    def __init__(self) -> None:
        self.groups = {f"{m}.{a}": (g or f"{m}.{a}") for m, a, g, _ in SPANS}
        self.groups[ROOT_SPAN] = ROOT_SPAN
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.leaf_time: Counter = Counter()
        self.job = ""

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()

    def call(self, job: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Run one job under a root span."""
        self.job = job
        span = self._open(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(span)

    def _span_wrapper(self, name: str, fn: Callable, observe: Optional[Observer]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if observe is not None:
                observe(self, span, args, result)
            return result

        return wrapper

    def _leaf_wrapper(self, prefix: str, fn: Callable) -> Callable:
        calls, nonzero = f"{prefix}_calls", f"{prefix}_nonzero"
        count_nonzero = prefix == "algebras.bracket"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = perf_counter()
            result = fn(*args, **kwargs)
            self.leaf_time[prefix] += perf_counter() - start
            self.counts[calls] += 1
            if count_nonzero and any(result.entries):
                self.counts[nonzero] += 1
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hom3lie" or name.startswith("hom3lie.")]
        patches: list[tuple[Any, str, Any]] = []
        try:
            for mod, attr, _, observe in SPANS:
                original = getattr(importlib.import_module(f"hom3lie.{mod}"), attr)
                wrapper = self._span_wrapper(f"{mod}.{attr}", original, observe)
                for module in modules:
                    for key in [k for k, v in vars(module).items() if v is original]:
                        patches.append((module, key, original))
                        setattr(module, key, wrapper)
            for mod, cls_name, attr, prefix in LEAVES:
                cls = getattr(importlib.import_module(f"hom3lie.{mod}"), cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    replacement: Any = staticmethod(self._leaf_wrapper(prefix, raw.__func__))
                else:
                    replacement = self._leaf_wrapper(prefix, raw)
                patches.append((cls, attr, raw))
                setattr(cls, attr, replacement)
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counters since the last reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        groups = [self.groups[s.name] for s in spans]
        incl: Counter = Counter()
        self_time: Counter = Counter()
        for i, s in enumerate(spans):
            duration = s.end - s.start
            self_time[s.name] += duration - child[i]
            p = s.parent
            while p >= 0 and groups[p] != groups[i]:
                p = spans[p].parent
            if p < 0:
                incl[groups[i]] += duration
        c = self.counts

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        out = {f"{g}_s": t for g, t in incl.items() if g != ROOT_SPAN}
        out.update({name: float(c[name])
                    for name, unit, _ in PER_LAYER if unit in ("count", "bytes")})
        out.update({
            "cli.self_s": self_time[ROOT_SPAN],
            "derivations.build_s": self_time["derivations.derivation_space"],
            "algebras.bracket_s": self.leaf_time["algebras.bracket"],
            "algebras.bracket_nonzero_ratio": ratio(c["algebras.bracket_nonzero"],
                                                    c["algebras.bracket_calls"]),
            "derivations.zero_row_ratio": ratio(c["derivations.zero_rows"],
                                                c["derivations.system_rows"]),
        })
        out["algebras.hom_jacobi_instances_per_s"] = ratio(
            c["algebras.hom_jacobi_instances"], out.get("algebras.verify_hom_jacobi_s", 0.0))
        names = [name for name, _, _ in PER_LAYER if name != "trace.overhead_s"]
        return {name: out.get(name, 0.0) for name in names}

    def span_records(self, pass_index: int) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.job, pass_index] for s in self.spans]


def summarize(passes: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced passes of every per-layer metric."""
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
