"""Scenario files: a line-oriented experiment description format.

Grammar (version ``projscenario v1``)
-------------------------------------

A scenario file is plain text.  ``#`` starts a comment; blank lines are
ignored.  The first significant line must be the header ``projscenario v1``.
Everything else is either a ``key: value`` line or a bare numeric row
(whitespace-separated floats) attached to the most recent ``span:`` or
``starts:`` opener.  Any line holding a colon is a key line, its key the
exact text before the first colon; a numeric row holds none.

Top-level keys (a repeated key keeps its last value)::

    name: <string>                      one line, no ``#``, no outer
                                        whitespace; default "unnamed"
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

A subspace block takes one ``span:`` and one ``anchor:``, in either order;
rows after ``anchor:`` still belong to its span.  The block ends at the
next ``subspace:``, ``starts:`` or top-level key; ``starts:`` blocks
accumulate.  Validation failures name the offending field and line.

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
    # The name must survive its name: line, which parsing cuts at '#', strips and splits.
    if [s.name] != s.name.split("#", 1)[0].strip().splitlines():
        _fail(None, f"name must be one nonempty line with no '#' and no outer whitespace, got {s.name!r}")
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
    """Parse a scenario from a file or from literal text.

    ``source`` is a Path, whose file is read, or the document text itself;
    a str is always text, never a path.
    """
    text = source.read_text() if isinstance(source, Path) else str(source)
    lines = ((lineno, raw.split("#", 1)[0].strip()) for lineno, raw in enumerate(text.splitlines(), 1))
    lines = ((lineno, line) for lineno, line in lines if line)
    lineno, line = next(lines, (None, None))
    if line is None:
        _fail(None, f"empty document; expected header {HEADER!r}")
    if line != HEADER:
        _fail(lineno, f"expected header {HEADER!r}, got {line!r}")

    fields: dict = {}
    blocks: list[dict] = []
    starts: list[list[float]] = []
    block: dict | None = None  # the open subspace block
    rows: list | None = None  # the open span or starts rows
    for lineno, line in lines:
        key, colon, value = line.partition(":")
        key, value = (key, value.strip()) if colon else (None, None)
        if key in _SCALAR_KEYS:
            fields[key] = _SCALAR_KEYS[key](value, key, lineno)
            block = rows = None
        elif key == "subspace":
            if value:
                _fail(lineno, "subspace takes no inline value")
            block = {"line": lineno, "span": None, "anchor": None}
            blocks.append(block)
            rows = None
        elif key in ("span", "anchor") and block is None:
            _fail(lineno, f"{key} outside a subspace block")
        elif key in ("span", "anchor") and block[key] is not None:
            _fail(lineno, f"second {key} in subspace {len(blocks)}")
        elif key == "anchor":
            block["anchor"] = np.array(_parse_row(value, lineno), dtype=float)
        elif key in ("span", "starts"):
            if value:
                _fail(lineno, f"{key} takes no inline value; rows follow on their own lines")
            if key == "span":
                rows = block["span"] = []
            else:
                block = None
                rows = starts
        elif colon:
            _fail(lineno, f"unknown key {key!r}")
        else:
            row = _parse_row(line, lineno)
            if rows is None:
                _fail(lineno, "numeric row outside a span/starts block")
            if "ambient_dim" not in fields:
                _fail(lineno, "ambient_dim must be declared before vector rows")
            if len(row) != fields["ambient_dim"]:
                _fail(lineno, f"{'starts' if rows is starts else 'span'} row has length {len(row)}, "
                              f"expected ambient_dim {fields['ambient_dim']}")
            rows.append(row)

    if "ambient_dim" not in fields:
        _fail(None, "ambient_dim is required")
    specs = []
    for i, sub in enumerate(blocks, 1):
        if sub["span"] is None:
            _fail(sub["line"], f"subspace {i} has no span block")
        spanning = np.array(sub["span"], dtype=float).T if sub["span"] else np.zeros((fields["ambient_dim"], 0))
        specs.append(SubspaceSpec(spanning=spanning, anchor=sub["anchor"], line=sub["line"]))
    scenario = Scenario(subspaces=specs, starts=[np.array(row, dtype=float) for row in starts], **fields)
    validate_scenario(scenario)
    return scenario


def _fmt_row(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def format_scenario(s: Scenario) -> str:
    """Render a scenario back to document text (parse round-trips exactly)."""
    validate_scenario(s)
    lines = [HEADER]
    for key in _SCALAR_KEYS:
        value = getattr(s, key)
        if isinstance(value, tuple):
            value = " ".join(value)
        # random_starts and checks are written only when set; unset, their defaults hold.
        if value or key not in ("random_starts", "checks"):
            lines.append(f"{key}: {value}")
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
