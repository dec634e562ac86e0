"""Scenario files: a line-oriented experiment description format.

Grammar (version ``projscenario v1``)
-------------------------------------

A scenario file is plain text.  ``#`` starts a comment; blank lines are
ignored.  The first significant line must be the header ``projscenario v1``.
Everything else is either a ``key: value`` line or a bare numeric row
(whitespace-separated floats) attached to the most recent ``span:`` or
``starts:`` opener.

Top-level keys::

    name: <string>                      optional, default "unnamed"
    ambient_dim: <int >= 1>             required before any vector row
    mode: linear | affine               default linear
    method: simultaneous | cyclic | product_alternating
                                        default simultaneous
    k_max: <int >= 1>                   default 10
    seed: <int>                         default 0; drives random starts
    random_starts: <int >= 0>           default 0
    checks: <names>                     names from ``checks.CHECKS``; the
                                        pairs-only ones need exactly two
                                        subspaces, some need a start

Blocks::

    subspace:                           opens a subspace block
    span:                               inside a block; numeric rows follow,
                                        one spanning vector per line (each
                                        of length ambient_dim); zero rows
                                        give the trivial subspace
    anchor: <numbers>                   inside a block; affine mode only
    starts:                             numeric rows follow, one start
                                        vector per line

A subspace block ends at the next ``subspace:``, ``starts:``, or top-level
key.  Validation failures name the offending field and line.

Example::

    projscenario v1
    name: two-lines-60
    ambient_dim: 2
    method: simultaneous
    k_max: 8
    checks: norm_chain kw compare bounds
    subspace:
    span:
    1 0
    subspace:
    span:
    0.5 0.8660254037844386
    starts:
    1 1
    random_starts: 2
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checks import applicable_checks, validate_checks
from .errors import InputError

__all__ = [
    "HEADER",
    "MODES",
    "METHODS",
    "SubspaceSpec",
    "Scenario",
    "check_seed",
    "parse_scenario",
    "format_scenario",
    "generate_two_subspace",
    "generate_random",
]

HEADER = "projscenario v1"
MODES = ("linear", "affine")
METHODS = ("simultaneous", "cyclic", "product_alternating")

_KEY_RE = re.compile(r"^([A-Za-z_]+):(.*)$")


@dataclass
class SubspaceSpec:
    """Raw description of one subspace: spanning vectors as columns, plus
    an optional anchor point for affine mode."""

    spanning: np.ndarray
    anchor: np.ndarray | None = None
    line: int = 0


@dataclass(kw_only=True)
class Scenario:
    """An experiment description, the whole of one run: a run iterates from
    the starts, if there are any, and executes ``checks``.  Each field's
    default is the one a scenario file gets for a missing key."""

    ambient_dim: int
    subspaces: list[SubspaceSpec]
    name: str = "unnamed"
    mode: str = "linear"
    method: str = "simultaneous"
    k_max: int = 10
    seed: int = 0
    starts: list[np.ndarray] = field(default_factory=list)
    random_starts: int = 0
    checks: tuple[str, ...] = ()

    @property
    def r(self) -> int:
        return len(self.subspaces)

    @classmethod
    def generated(cls, name: str, n: int, spans, seed: int, **fields):
        """A generated scenario: the subspaces spanned by ``spans``, two
        random starts, and every check the table allows on them; ``fields``
        (``k_max``, ``method``) set the rest, else their defaults hold."""
        return cls(name=name, ambient_dim=n, subspaces=[SubspaceSpec(spanning=M) for M in spans],
                   seed=seed, random_starts=2, checks=applicable_checks(len(spans)), **fields)


def _fail(lineno: int | None, message: str):
    where = f"line {lineno}: " if lineno else ""
    raise InputError(f"{where}{message}")


def _parse_int(value: str, key: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        _fail(lineno, f"{key} expects an integer, got {value!r}")


def _parse_text(value: str, key: str, lineno: int) -> str:
    if not value:
        _fail(lineno, f"{key} expects a value")
    return value


# Every top-level key, with how its value is read; a missing key takes the
# Scenario field's default.
_SCALAR_KEYS = {
    "name": _parse_text,
    "ambient_dim": _parse_int,
    "mode": _parse_text,
    "method": _parse_text,
    "k_max": _parse_int,
    "seed": _parse_int,
    "random_starts": _parse_int,
    "checks": lambda value, key, lineno: tuple(value.split()),
}


def _parse_row(line: str, lineno: int) -> list[float]:
    try:
        row = [float(tok) for tok in line.split()]
    except ValueError:
        _fail(lineno, f"expected a numeric row, got {line!r}")
    if not all(np.isfinite(row)):
        _fail(lineno, "numeric rows must be finite")
    return row


def check_seed(seed: int) -> None:
    """InputError unless ``seed`` is nonnegative, as numpy's seeding requires."""
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed}")


def validate_scenario(s: Scenario) -> None:
    """Check every scenario invariant; InputError names the failing field."""
    check_seed(s.seed)
    if s.ambient_dim < 1:
        _fail(None, "ambient_dim must be at least 1")
    if s.mode not in MODES:
        _fail(None, f"mode must be one of {MODES}, got {s.mode!r}")
    if s.method not in METHODS:
        _fail(None, f"method must be one of {METHODS}, got {s.method!r}")
    if s.k_max < 1:
        _fail(None, "k_max must be at least 1")
    if s.random_starts < 0:
        _fail(None, "random_starts must be nonnegative")
    if len(s.subspaces) < 2:
        _fail(None, f"at least two subspaces are required, got {len(s.subspaces)}")
    for i, spec in enumerate(s.subspaces, 1):
        M = np.asarray(spec.spanning, dtype=float)
        if M.ndim != 2 or M.shape[0] != s.ambient_dim:
            _fail(spec.line or None, f"subspace {i} spanning rows must have length {s.ambient_dim}")
        if s.mode == "affine":
            if spec.anchor is None:
                _fail(spec.line or None, f"anchor required for affine mode (subspace {i})")
            if len(spec.anchor) != s.ambient_dim:
                _fail(spec.line or None, f"subspace {i} anchor must have length {s.ambient_dim}")
        elif spec.anchor is not None:
            _fail(spec.line or None, f"anchor only allowed in affine mode (subspace {i})")
    for j, x in enumerate(s.starts, 1):
        if len(x) != s.ambient_dim:
            _fail(None, f"start {j} must have length {s.ambient_dim}")
    validate_checks(s.checks, s.r, len(s.starts) + s.random_starts)
    if s.mode == "affine" and s.method == "product_alternating":
        _fail(None, "method product_alternating requires linear mode")


def parse_scenario(source) -> Scenario:
    """Parse a scenario from a path or from literal text.

    ``source`` may be a Path, a path string naming an existing file, or the
    document text itself.
    """
    if isinstance(source, Path):
        text = source.read_text()
    elif isinstance(source, str) and "\n" not in source and os.path.exists(source):
        text = Path(source).read_text()
    else:
        text = str(source)

    fields: dict = {}
    subspecs: list[dict] = []
    starts: list[tuple[int, list[float]]] = []
    collector: list | None = None
    collector_kind = ""
    current: dict | None = None
    header_seen = False

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != HEADER:
                _fail(lineno, f"expected header {HEADER!r}, got {line!r}")
            header_seen = True
            continue
        m = _KEY_RE.match(line)
        if m and (m.group(1) in _SCALAR_KEYS or m.group(1) in ("subspace", "span", "anchor", "starts")):
            key, value = m.group(1), m.group(2).strip()
            if key in _SCALAR_KEYS:
                current = None
                collector = None
                fields[key] = _SCALAR_KEYS[key](value, key, lineno)
            elif key == "subspace":
                if value:
                    _fail(lineno, "subspace takes no inline value")
                current = {"line": lineno, "span": None, "anchor": None}
                subspecs.append(current)
                collector = None
            elif key == "span":
                if current is None:
                    _fail(lineno, "span outside a subspace block")
                if value:
                    _fail(lineno, "span takes no inline value; rows follow on their own lines")
                current["span"] = []
                collector = current["span"]
                collector_kind = "span"
            elif key == "anchor":
                if current is None:
                    _fail(lineno, "anchor outside a subspace block")
                current["anchor"] = _parse_row(value, lineno)
            elif key == "starts":
                if value:
                    _fail(lineno, "starts takes no inline value; rows follow on their own lines")
                current = None
                collector = starts
                collector_kind = "starts"
        elif m:
            _fail(lineno, f"unknown key {m.group(1)!r}")
        else:
            row = _parse_row(line, lineno)
            if collector is None:
                _fail(lineno, "numeric row outside a span/starts block")
            if "ambient_dim" not in fields:
                _fail(lineno, "ambient_dim must be declared before vector rows")
            if len(row) != fields["ambient_dim"]:
                _fail(
                    lineno,
                    f"{collector_kind} row has length {len(row)}, "
                    f"expected ambient_dim {fields['ambient_dim']}",
                )
            collector.append((lineno, row))

    if not header_seen:
        _fail(None, f"empty document; expected header {HEADER!r}")
    if "ambient_dim" not in fields:
        _fail(None, "ambient_dim is required")

    n = fields["ambient_dim"]
    specs = []
    for i, sub in enumerate(subspecs, 1):
        if sub["span"] is None:
            _fail(sub["line"], f"subspace {i} has no span block")
        rows = [row for _, row in sub["span"]]
        spanning = np.array(rows, dtype=float).T if rows else np.zeros((n, 0))
        anchor = np.array(sub["anchor"], dtype=float) if sub["anchor"] is not None else None
        specs.append(SubspaceSpec(spanning=spanning, anchor=anchor, line=sub["line"]))

    scenario = Scenario(subspaces=specs, starts=[np.array(row, dtype=float) for _, row in starts],
                        **fields)
    validate_scenario(scenario)
    return scenario


def _fmt_row(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def format_scenario(s: Scenario) -> str:
    """Render a scenario back to document text (parse round-trips exactly)."""
    validate_scenario(s)
    lines = [
        HEADER,
        f"name: {s.name}",
        f"ambient_dim: {s.ambient_dim}",
        f"mode: {s.mode}",
        f"method: {s.method}",
        f"k_max: {s.k_max}",
        f"seed: {s.seed}",
    ]
    if s.random_starts:
        lines.append(f"random_starts: {s.random_starts}")
    if s.checks:
        lines.append("checks: " + " ".join(s.checks))
    for spec in s.subspaces:
        lines.append("subspace:")
        lines.append("span:")
        for col in np.asarray(spec.spanning, dtype=float).T:
            lines.append(_fmt_row(col))
        if spec.anchor is not None:
            lines.append("anchor: " + _fmt_row(spec.anchor))
    if s.starts:
        lines.append("starts:")
        for x in s.starts:
            lines.append(_fmt_row(x))
    return "\n".join(lines) + "\n"


def _rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    G = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    return Q * np.sign(np.diag(R))


def generate_two_subspace(theta_deg: float, ambient_dim: int, shared_dim: int, seed: int,
                          **fields) -> Scenario:
    """A pair of subspaces with a planted Friedrichs angle.

    Builds M_1 and M_2 of dimension shared_dim + 1 that share an exact
    shared_dim-dimensional intersection, with reduced parts meeting at the
    prescribed angle, then conjugates everything by a seeded random
    rotation.  The recovered cosine matches cos(theta) to 1e-10.
    ``fields`` (``k_max``, ``method``) go to :meth:`Scenario.generated`.
    """
    if not 0.0 < theta_deg <= 90.0:
        raise InputError(f"theta_deg must lie in (0, 90], got {theta_deg}")
    check_seed(seed)
    n, s = int(ambient_dim), int(shared_dim)
    if s < 0:
        raise InputError("shared_dim must be nonnegative")
    if n < s + 2:
        raise InputError(f"ambient_dim must be at least shared_dim + 2, got {n}")
    theta = np.deg2rad(theta_deg)
    shared = np.eye(n)[:, :s]
    u1 = np.eye(n)[:, s]
    u2 = np.cos(theta) * np.eye(n)[:, s] + np.sin(theta) * np.eye(n)[:, s + 1]
    rng = np.random.default_rng(seed)
    Q = _rotation(rng, n)
    spans = [Q @ np.column_stack([shared, u1]), Q @ np.column_stack([shared, u2])]
    return Scenario.generated(f"two-subspace-theta{theta_deg:g}-n{n}-s{s}-seed{seed}", n,
                              spans, seed, **fields)


def generate_random(r: int, ambient_dim: int, dims, seed: int, **fields) -> Scenario:
    """A family of r seeded random subspaces with the given dimensions.

    Deterministic for a fixed seed: running twice yields identical
    scenarios.  ``fields`` (``k_max``, ``method``) go to
    :meth:`Scenario.generated`.
    """
    if r < 2:
        raise InputError(f"r must be at least 2, got {r}")
    check_seed(seed)
    dims = [int(d) for d in dims]
    if len(dims) != r:
        raise InputError(f"expected {r} dimensions, got {len(dims)}")
    n = int(ambient_dim)
    for d in dims:
        if not 0 <= d <= n:
            raise InputError(f"each dimension must lie in [0, {n}], got {d}")
    rng = np.random.default_rng(seed)
    spans = [rng.standard_normal((n, d)) for d in dims]
    return Scenario.generated(f"random-r{r}-n{n}-seed{seed}", n, spans, seed, **fields)
