"""Causal-diamond configurations and code selection.

A replication task is described by a start event and a set of causal
diamonds (worldline segments, each from an entry point y to an exit point
z) in (1+d)-dimensional Minkowski space with c = 1.  The task is feasible
when the start can causally reach every diamond before it closes and every
pair of diamonds is causally related in at least one direction; those are
exactly the checks ``validate`` performs, and it names each failure.

Code selection: N mutually related diamonds are served by the general
N-region replication code.  The special case N = 4 admits the smaller
five-mode code whenever some diamond chain exists — a triple (i, j, k)
with y_i before z_j and z_j before z_k — which is what lets one region
relay through another.  ``find_chain`` returns the first such triple in
index order, and ``select_code`` applies the rule.

A configuration holds one table of causal relations (start to exit, entry
to exit, exit to exit), each evaluated once, when a decision first reads
it; ``validate``, ``causal_graph`` and ``find_chain`` only read it.

Comparisons use a small causal slack so that exactly lightlike pairs and
coordinates that went through a Lorentz boost (picking up rounding noise)
are not misclassified.
"""

from __future__ import annotations

import json
import math
from functools import cached_property
from itertools import combinations, permutations

from ._value import Value
from .codes import StabilizerCode, build_five_mode_code, build_general_code
from .tolerances import TOL

__all__ = [
    "SpacetimePoint",
    "CausalDiamond",
    "Configuration",
    "causal_leq",
    "Violation",
    "ValidationReport",
    "validate",
    "causal_graph",
    "find_chain",
    "select_code",
    "configuration_from_json",
    "load_configuration",
    "builtin_configuration",
    "BUILTIN_CONFIGURATIONS",
]


class SpacetimePoint(Value):
    __slots__ = ("t", "x")

    def __init__(self, t: float, x: tuple[float, ...]):
        # coordinate 0 is t; each is an int or a float (not a bool) that is finite as a float
        coords = []
        for i, v in enumerate((t, *x)):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"coordinate {i} must be a number, got {type(v).__name__}")
            try:
                coords.append(float(v))
            except OverflowError:
                raise ValueError(f"coordinate {i} is an integer too large for a float") from None
        if len(coords) < 2:
            raise ValueError("a point needs at least one spatial coordinate")
        if not all(map(math.isfinite, coords)):
            raise ValueError("coordinates must be finite")
        self._set(coords[0], tuple(coords[1:]))

    @property
    def dim(self) -> int:
        return len(self.x)


def causal_leq(a: SpacetimePoint, b: SpacetimePoint) -> bool:
    """True when a signal from ``a`` can reach ``b`` (a in b's past cone).

    Lightlike separations count as reachable; ``TOL.causal_slack`` absorbs
    rounding from boosted or otherwise computed coordinates.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    dt = b.t - a.t
    dx = math.dist(a.x, b.x)
    slack = TOL.causal_slack
    return dt >= -slack and dt >= dx - slack


class CausalDiamond(Value):
    __slots__ = ("y", "z")  # the entry (earliest point) and the exit (latest point)

    def __init__(self, y: SpacetimePoint, z: SpacetimePoint):
        if y.dim != z.dim:
            raise ValueError("diamond endpoints must share a dimension")
        if not causal_leq(y, z):
            raise ValueError("diamond entry must causally precede its exit")
        self._set(y, z)

    @property
    def dim(self) -> int:
        return self.y.dim


class Configuration(Value):
    # ``__dict__`` holds ``_causal``
    __slots__ = ("start", "diamonds", "__dict__")

    def __init__(self, start: SpacetimePoint, diamonds: tuple[CausalDiamond, ...]):
        diamonds = tuple(diamonds)
        if len(diamonds) < 2:
            raise ValueError("a configuration needs at least two diamonds")
        dims = {start.dim, *(d.dim for d in diamonds)}
        if len(dims) != 1:
            raise ValueError(f"mixed spatial dimensions in configuration: {sorted(dims)}")
        self._set(start, diamonds)

    @property
    def n_diamonds(self) -> int:
        return len(self.diamonds)

    @property
    def dim(self) -> int:
        return self.start.dim

    @cached_property
    def _causal(self) -> tuple[dict, dict, dict]:
        """The causal relations the decisions read, each evaluated once, over 1-based diamonds.

        ``reach[j]``: the start reaches exit j; ``signal[i, j]``: entry i
        reaches exit j; ``after[j, k]``: exit j reaches exit k (i != j != k).
        """
        d = dict(enumerate(self.diamonds, start=1))
        reach = {j: causal_leq(self.start, d[j].z) for j in d}
        signal = {(i, j): causal_leq(d[i].y, d[j].z) for i, j in permutations(d, 2)}
        after = {(j, k): causal_leq(d[j].z, d[k].z) for j, k in permutations(d, 2)}
        return reach, signal, after


class Violation(Value):
    """One named feasibility failure; diamond indices are 1-based."""

    __slots__ = ("kind", "diamonds")  # kind: "start-unreachable" | "unrelated-pair"

    def __init__(self, kind: str, diamonds: tuple[int, ...]):
        self._set(kind, diamonds)

    def __str__(self) -> str:
        if self.kind == "start-unreachable":
            return f"start cannot reach diamond {self.diamonds[0]} before it closes"
        j, k = self.diamonds
        return f"diamonds {j} and {k} are causally unrelated"

    def as_json(self) -> dict:
        return {"kind": self.kind, "diamonds": list(self.diamonds)}


class ValidationReport(Value):
    __slots__ = ("violations",)

    def __init__(self, violations: tuple[Violation, ...]):
        self._set(violations)

    @property
    def valid(self) -> bool:
        return not self.violations


def validate(config: Configuration) -> ValidationReport:
    """Check feasibility: start reaches every diamond, all pairs related."""
    reach, signal, _ = config._causal
    violations = [Violation("start-unreachable", (j,)) for j in reach if not reach[j]]
    for j, k in combinations(reach, 2):
        if not (signal[j, k] or signal[k, j]):
            violations.append(Violation("unrelated-pair", (j, k)))
    return ValidationReport(tuple(violations))


def causal_graph(config: Configuration) -> tuple[tuple[int, int], ...]:
    """Directed influence edges between diamonds, 1-based.

    Edge (i, j) means diamond i's entry can reach diamond j's exit.  When
    both directions hold the pair, only the lower-to-higher edge is kept, so
    each related pair contributes exactly one edge.
    """
    reach, signal, _ = config._causal
    related = [(i, j) for i, j in combinations(reach, 2) if signal[i, j] or signal[j, i]]
    return tuple((i, j) if signal[i, j] else (j, i) for i, j in related)


def find_chain(config: Configuration) -> tuple[int, int, int] | None:
    """First triple (i, j, k) of distinct diamonds with y_i <= z_j <= z_k.

    Such a triple lets region j relay data onward: it hears from i and still
    finishes before k does.  Scan order is lexicographic in (i, j, k), so
    the witness is deterministic.
    """
    reach, signal, after = config._causal
    return next(((i, j, k) for i, j, k in permutations(reach, 3) if signal[i, j] and after[j, k]), None)


def select_code(config: Configuration) -> StabilizerCode:
    """Pick the replication code a feasible configuration supports.

    Four diamonds with a relay chain get the five-mode code; otherwise the
    general N-region code.  Infeasible or too-small configurations are
    errors rather than silently getting a code that cannot serve them.
    """
    report = validate(config)
    if not report.valid:
        raise ValueError(
            "configuration is infeasible: " + "; ".join(str(v) for v in report.violations)
        )
    n = config.n_diamonds
    if n < 4:
        raise ValueError(f"code selection needs at least 4 diamonds, got {n}")
    if n == 4 and find_chain(config) is not None:
        return build_five_mode_code()
    return build_general_code(n)


# ---------------------------------------------------------------------------
# JSON I/O and built-in example configurations

def _point(values, dim: int, what: str) -> SpacetimePoint:
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{what} must be a list [t, x1..x{dim}], got {type(values).__name__}")
    if len(values) != dim + 1:
        raise ValueError(
            f"{what} must have {dim + 1} entries [t, x1..x{dim}], got {len(values)}"
        )
    try:
        return SpacetimePoint(values[0], tuple(values[1:]))
    except ValueError as exc:
        raise ValueError(f"{what} {exc}") from None


def configuration_from_json(data: dict) -> Configuration:
    """Build a configuration from the dict form.

    Schema: {"dim": d, "start": [t, x1..xd],
             "diamonds": [{"y": [t, x...], "z": [t, x...]}, ...]}
    Coordinates are JSON numbers (int or float, not bool); coordinate 0 is
    t.  Every malformed part raises a ValueError that names it.
    """
    _check_object(data, "the configuration")
    try:
        dim = data["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
        start = _point(data["start"], dim, "start")
        if not isinstance(data["diamonds"], (list, tuple)):
            raise ValueError(f"diamonds must be a list, got {type(data['diamonds']).__name__}")
        diamonds = []
        for i, d in enumerate(data["diamonds"], start=1):
            _check_object(d, f"diamond {i}")
            y, z = (_point(d[end], dim, f"diamond {i} {end}") for end in ("y", "z"))
            diamonds.append(CausalDiamond(y, z))
    except KeyError as exc:
        raise ValueError(f"configuration is missing key {exc.args[0]!r}") from exc
    return Configuration(start, diamonds)


def _check_object(value, what: str) -> None:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {type(value).__name__}")


def load_configuration(path) -> Configuration:
    with open(path, encoding="utf-8") as fh:
        return configuration_from_json(json.load(fh))


def _p(t, *x):
    return SpacetimePoint(t, tuple(x))


def fig2a_configuration() -> Configuration:
    """Two diamonds on one worldline, the second strictly after the first."""
    return Configuration(
        _p(-1.0, 0.0),
        (
            CausalDiamond(_p(0.0, 0.0), _p(1.0, 0.0)),
            CausalDiamond(_p(2.0, 0.0), _p(3.0, 0.0)),
        ),
    )


def fig2b_configuration() -> Configuration:
    """Two long simultaneous diamonds, spacelike at entry but related."""
    return Configuration(
        _p(-1.0, 0.0),
        (
            CausalDiamond(_p(0.0, -0.5), _p(3.0, -0.5)),
            CausalDiamond(_p(0.0, 0.5), _p(3.0, 0.5)),
        ),
    )


def fig2c_configuration() -> Configuration:
    """Three diamonds where the two late ones are too far apart: infeasible."""
    return Configuration(
        _p(0.0, 0.0),
        (
            CausalDiamond(_p(0.5, 0.0), _p(1.0, 0.0)),
            CausalDiamond(_p(4.0, -3.0), _p(4.5, -3.0)),
            CausalDiamond(_p(4.0, 3.0), _p(4.5, 3.0)),
        ),
    )


def fig4_configuration() -> Configuration:
    """Four planar diamonds with a relay chain: the five-mode code's habitat.

    Diamond 1 closes early enough that it can relay into the later ones;
    the first chain in scan order is (2, 1, 3).
    """
    return Configuration(
        _p(-1.0, 0.0, 0.0),
        (
            CausalDiamond(_p(0.0, 1.0, 0.0), _p(1.5, 0.5, 0.5)),
            CausalDiamond(_p(0.0, 0.0, 1.0), _p(3.0, 0.0, -0.5)),
            CausalDiamond(_p(0.0, -1.0, 0.0), _p(3.0, 0.5, 1.0)),
            CausalDiamond(_p(0.0, 0.0, -1.0), _p(3.0, -0.5, -0.5)),
        ),
    )


BUILTIN_CONFIGURATIONS = {
    "fig2a": fig2a_configuration,
    "fig2b": fig2b_configuration,
    "fig2c": fig2c_configuration,
    "fig4": fig4_configuration,
}


def builtin_configuration(name: str) -> Configuration:
    try:
        return BUILTIN_CONFIGURATIONS[name]()
    except KeyError:
        raise ValueError(
            f"unknown built-in configuration {name!r}; "
            f"valid: {', '.join(sorted(BUILTIN_CONFIGURATIONS))}"
        ) from None
