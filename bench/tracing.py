"""Outside-in per-layer tracing of projbounds.

Nothing inside the package is changed.  Each traced function is replaced,
while tracing is installed, by a wrapper that records one span per call:

* package functions are rebound in every ``projbounds`` module that holds
  them, because ``from .numlin import spectral_norm`` copies the name into
  the importing module;
* methods (``Subspace.projector``, ``Subspace.contains``) and the
  ``Subspace`` constructor are rebound on the class;
* the LAPACK kernels are rebound on ``numpy.linalg`` only, since projbounds
  looks them up at call time as ``np.linalg.svd``.

Matrix products (``@``) are numpy operators and cannot be wrapped from
outside, so their time lands in the self time of the span that runs them.

A span is ``(span_id, parent_id, op_id, name, start, end, flops)``.  Spans
are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, owner, attribute).  The owner is a module, or "module:Class"
# for an attribute looked up on a class.  Several bindings may share one
# span name ("methods.operator" covers both operator builders).
TARGETS = (
    ("numlin.svd", "numpy.linalg", "svd"),
    ("numlin.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("numlin.lstsq", "numpy.linalg", "lstsq"),
    ("numlin.spectral_norm", "projbounds.numlin", "spectral_norm"),
    ("numlin.null_space", "projbounds.numlin", "null_space"),
    ("numlin.orthonormal_basis", "projbounds.numlin", "orthonormal_basis"),
    ("subspaces.intersection", "projbounds.subspaces", "intersection"),
    ("subspaces.reduced_component", "projbounds.subspaces", "reduced_component"),
    ("subspaces.contains", "projbounds.subspaces:Subspace", "contains"),
    ("subspaces.projector", "projbounds.subspaces:Subspace", "projector"),
    ("subspaces.Subspace", "projbounds.subspaces:Subspace", "__init__"),
    ("angles.cos_two", "projbounds.angles", "cos_two"),
    ("angles.friedrichs_gram", "projbounds.angles", "friedrichs_gram"),
    ("angles.friedrichs_from_norm", "projbounds.angles", "friedrichs_from_norm"),
    ("methods.operator", "projbounds.methods", "simultaneous_operator"),
    ("methods.operator", "projbounds.methods", "cyclic_operator"),
    ("methods.iterate", "projbounds.methods", "iterate"),
    ("methods.error_operator_norm", "projbounds.methods", "error_operator_norm"),
    ("methods.cyclic_bound", "projbounds.methods", "cyclic_bound"),
    ("methods.verify_error_identity", "projbounds.methods", "verify_error_identity"),
    ("methods.kw_bound", "projbounds.methods", "kw_bound"),
    ("methods.optimal_bound_simultaneous", "projbounds.methods", "optimal_bound_simultaneous"),
    ("productspace.build_product", "projbounds.productspace", "build_product"),
    ("productspace.chain_residual_profile", "projbounds.productspace", "chain_residual_profile"),
    ("productspace.pierra_lift_residual", "projbounds.productspace", "pierra_lift_residual"),
    ("productspace.cos_CD", "projbounds.productspace", "cos_CD"),
    ("affine.intersection_affine", "projbounds.affine", "intersection_affine"),
    ("affine.trace", "projbounds.affine", "simultaneous_affine"),
    ("affine.trace", "projbounds.affine", "cyclic_affine"),
    ("scenario.generate", "projbounds.scenario", "generate_random"),
    ("scenario.generate", "projbounds.scenario", "generate_two_subspace"),
    ("scenario.parse", "projbounds.scenario", "parse_scenario"),
    ("runner.run_scenario", "projbounds.runner", "run_scenario"),
    ("runner.render", "projbounds.runner", "render_report"),
    ("runner.render", "projbounds.runner", "render_battery"),
    ("cli.main", "projbounds.cli", "main"),
)


def svd_flops(shape, full_matrices: bool, compute_uv: bool) -> float:
    """Computed flop count of one LAPACK SVD, not a measured one.

    Golub & Van Loan, *Matrix Computations* (3rd ed., sec. 5.4.5), for an
    m x n matrix with m >= n (a wide matrix is counted as its transpose):
    4mn^2 - 4n^3/3 for singular values only, 14mn^2 + 8n^3 with the thin
    factors, 4m^2n + 8mn^2 + 9n^3 with the full factors.
    """
    *batch, m, n = shape
    m, n = max(m, n), min(m, n)
    if not compute_uv:
        flops = 4.0 * m * n * n - 4.0 * n**3 / 3.0
    elif full_matrices:
        flops = 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n**3
    else:
        flops = 14.0 * m * n * n + 8.0 * n**3
    return flops * math.prod(batch)


def _svd_call_flops(a, full_matrices=True, compute_uv=True, *_, **__) -> float:
    return svd_flops(np.shape(a), full_matrices, compute_uv)


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "projbounds" or name.startswith("projbounds."))
    ]


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    holder = sys.modules[module_name]
    return getattr(holder, class_name) if class_name else holder


class Tracer:
    """Span recorder plus the rebinding that routes calls through it.

    ``install()`` and ``uninstall()`` swap the wrappers in and out, so that
    untraced ops run the package exactly as shipped.  ``op_id`` names the
    op that spans recorded now belong to.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op_id = "setup"
        self.calls_by_target: dict[str, int] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._bindings: list[tuple] = []
        for span_name, owner, attr in TARGETS:
            target = f"{owner.replace(':', '.')}.{attr}"
            holder = _resolve_owner(owner)
            original = vars(holder)[attr]
            wrapper = self._wrap(span_name, target, original)
            holders = [holder]
            if owner.startswith("projbounds.") and ":" not in owner:
                holders = _package_modules()
            for each in holders:
                for name, value in list(vars(each).items()):
                    if value is original:
                        self._bindings.append((each, name, original, wrapper))
            self.calls_by_target[target] = 0
        self._original_ids = {id(original) for _, _, original, _ in self._bindings}
        self.span_names = {span_name for span_name, _, _ in TARGETS}

    def _wrap(self, span_name: str, target: str, fn):
        tracer = self
        count_flops = _svd_call_flops if span_name == "numlin.svd" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            flops = count_flops(*args, **kwargs) if count_flops else 0.0
            tracer.calls_by_target[target] += 1
            with tracer.span(span_name, flops):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, flops: float = 0.0):
        """Record one span around the enclosed block."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, self.op_id, name, start, end, flops))

    def install(self) -> None:
        for holder, name, _, wrapper in self._bindings:
            setattr(holder, name, wrapper)
        missed = [
            f"{mod.__name__}.{name}"
            for mod in _package_modules()
            for name, value in vars(mod).items()
            if id(value) in self._original_ids
        ]
        if missed:
            self.uninstall()
            raise RuntimeError(f"bindings left untraced: {sorted(missed)}")

    def uninstall(self) -> None:
        for holder, name, original, _ in self._bindings:
            setattr(holder, name, original)

    def aggregate(self, op_ids) -> dict:
        """Per-name totals over the spans of the given ops.

        ``calls`` counts spans, ``s`` sums the spans that have no enclosing
        span of the same name (so recursion is not counted twice),
        ``self_s`` sums each span minus its direct children, and ``flops``
        sums the computed operation counts.
        """
        wanted = set(op_ids)
        name_of = {span[0]: span[3] for span in self.spans}
        parent_of = {span[0]: span[1] for span in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, _, _, start, end, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "flops": 0.0}
        )
        for span_id, parent, op_id, name, start, end, flops in self.spans:
            if op_id not in wanted:
                continue
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[span_id]
            entry["flops"] += flops
            ancestor = parent
            while ancestor is not None and name_of[ancestor] != name:
                ancestor = parent_of[ancestor]
            if ancestor is None:
                entry["s"] += end - start
        return totals

    def write(self, path, origin: float) -> None:
        """Write every span as gzip CSV, times in seconds since ``origin``."""
        with gzip.open(path, "wt", newline="\n") as handle:
            handle.write("span_id,parent_id,op_id,name,start_s,end_s,flops\n")
            for span_id, parent, op_id, name, start, end, flops in self.spans:
                parent_text = "" if parent is None else str(parent)
                handle.write(
                    f"{span_id},{parent_text},{op_id},{name},"
                    f"{start - origin:.9f},{end - origin:.9f},{flops:.0f}\n"
                )
