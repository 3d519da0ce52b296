"""Outside-in tracing of entrocone's layers.

The program is not edited: ``Tracer.installed()`` replaces each listed
public function with a wrapper that records a span, in every entrocone
module namespace that holds the function.  ``analysis`` and ``cli``
import by name (``from .polyhedra import enumerate_rays``), so patching
only the defining module would miss their calls.

A span is (name, start, end, parent, job): the parent is the index of the
innermost open span, so the layout assumes one thread, which holds while
ENTROCONE_THREADS is unset.  Spans stay in memory; ``layer_metrics``
reduces a slice of them to per-layer numbers when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from typing import Any, Callable, Iterator

Counter = Callable[[tuple, Any], dict]


def _rows(rep) -> int:
    return len(rep.equalities) + len(rep.inequalities)


def _system_rows(args: tuple, system) -> dict:
    return {"rows_out": len(system.equalities) + len(system.inequalities)}


# (module, function, layer name, counter stats, counter).  A counter maps
# (args, result) to deterministic sizes; several functions may share one
# layer name, whose numbers then cover all of them.
LAYERS: tuple[tuple[str, str, str, tuple[str, ...], Counter | None], ...] = (
    ("cli", "main", "cli", (), None),
    *(("analysis", fn, "analysis.pipeline", (), None)
      for fn in ("observed_outer_cone", "verify_line_tightness",
                 "full_marginal_outer_cone", "post_selected_marginal_cone")),
    ("analysis", "classify_shannon_facets", "analysis.classify_shannon_facets", (), None),
    ("analysis", "_nice_equalities", "analysis.nice_equalities", (), None),
    ("polyhedra", "enumerate_rays", "polyhedra.enumerate_rays", ("rows_in", "rays_out"),
     lambda args, out: {"rows_in": _rows(args[0]), "rays_out": len(out.rays)}),
    ("polyhedra", "fm_eliminate", "polyhedra.fm_eliminate", ("rows_in", "rows_out"),
     lambda args, out: {"rows_in": _rows(args[0]), "rows_out": _rows(out)}),
    *(("polyhedra", fn, f"polyhedra.{fn}", (), None)
      for fn in ("facets_from_rays", "dd_project", "remove_redundancies", "nullspace",
                 "membership", "rref", "reduce_mod_span", "primitive")),
    ("_simplex", "conic_combination", "simplex.conic_combination", ("feasible",),
     lambda args, out: {"feasible": int(out is not None)}),
    *(("distributions", fn, f"distributions.{fn}", (), None)
      for fn in ("line_witness_models", "compile_model", "entropy_vector")),
    *(("entropy_space", fn, "entropy_space", ("rows_out",), _system_rows)
      for fn in ("elemental_shannon_system", "classical_ci_system", "reduced_line_system")),
    ("entropy_space", "contiguous_decomposition_equalities", "entropy_space", ("rows_out",),
     lambda args, out: {"rows_out": len(out)}),
    *(("entropy_space", fn, "entropy_space", (), None)
      for fn in ("substitute_contiguous", "system_rows")),
    ("causal", "observed_independence_constraints", "causal", ("constraints_out",),
     lambda args, out: {"constraints_out": len(out)}),
    *(("causal", fn, "causal", (), None)
      for fn in ("ancestor_disjoint_pairs", "d_separated", "structure_from_name",
                 "build_line_structure", "reduced_line_structure", "bell_structure",
                 "build_post_selected_line")),
)


class Tracer:
    """Span recorder for the functions in LAYERS."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1, job, counts or None]
        self.spans: list[list] = []
        self.job: str | None = None
        self._open: list[int] = []

    def _wrap(self, name: str, fn: Callable, counter: Counter | None) -> Callable:
        spans, open_, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.job, None]
            spans.append(span)
            open_.append(index)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if counter is not None:
                span[5] = counter(args, out)
            return out
        return traced

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every listed function everywhere it is bound; undo on exit."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "entrocone" or key.startswith("entrocone."))]
        patched: list[tuple[object, str, Callable]] = []
        try:
            for module, fn_name, name, _, counter in LAYERS:
                original = getattr(sys.modules[f"entrocone.{module}"], fn_name)
                wrapper = self._wrap(name, original, counter)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)


def self_times(spans: list[list], lo: int, hi: int) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [span[2] - span[1] for span in spans[lo:hi]]
    for i in range(lo, hi):
        parent = spans[i][3]
        if parent >= lo:
            own[parent - lo] -= spans[i][2] - spans[i][1]
    return own


def layer_metrics(spans: list[list], lo: int = 0, hi: int | None = None) -> dict[str, float]:
    """Per-layer numbers over spans[lo:hi], a slice closed under parents.

    For every layer name: ``calls`` counts its spans and ``self_s`` sums
    their self times; ``busy_s`` sums the inclusive time, and each counter
    stat the counts, of the spans with no ancestor of the same name, so
    that a layer nested in itself is not counted twice.
    """
    hi = len(spans) if hi is None else hi
    own = self_times(spans, lo, hi)
    out: dict[str, float] = {}
    for _, _, name, stats, _ in LAYERS:
        out.setdefault(f"{name}.calls", 0)
        out.setdefault(f"{name}.busy_s", 0.0)
        out.setdefault(f"{name}.self_s", 0.0)
        for stat in stats:
            out.setdefault(f"{name}.{stat}", 0)
    for i in range(lo, hi):
        name, start, end, parent, _, counts = spans[i]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own[i - lo]
        while parent >= lo and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent >= lo:
            continue  # nested in a span of the same layer
        out[f"{name}.busy_s"] += end - start
        for stat, value in (counts or {}).items():
            out[f"{name}.{stat}"] += value
    return out
