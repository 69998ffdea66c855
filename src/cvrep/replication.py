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

Comparisons use a small causal slack so that exactly lightlike pairs and
coordinates that went through a Lorentz boost (picking up rounding noise)
are not misclassified.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .codes import StabilizerCode, build_five_mode_code, build_general_code
from .tolerances import TOL

__all__ = [
    "SpacetimePoint",
    "CausalDiamond",
    "Configuration",
    "causal_leq",
    "diamonds_related",
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


@dataclass(frozen=True)
class SpacetimePoint:
    t: float
    x: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        if not self.x:
            raise ValueError("a point needs at least one spatial coordinate")
        if not (math.isfinite(self.t) and all(math.isfinite(v) for v in self.x)):
            raise ValueError("coordinates must be finite")

    @property
    def dim(self) -> int:
        return len(self.x)


def causal_leq(a: SpacetimePoint, b: SpacetimePoint, *, slack: float = TOL.causal_slack) -> bool:
    """True when a signal from ``a`` can reach ``b`` (a in b's past cone).

    Lightlike separations count as reachable; ``slack`` absorbs rounding from
    boosted or otherwise computed coordinates.
    """
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    dt = b.t - a.t
    dx = math.dist(a.x, b.x)
    return dt >= -slack and dt >= dx - slack


@dataclass(frozen=True)
class CausalDiamond:
    y: SpacetimePoint  # entry (earliest point)
    z: SpacetimePoint  # exit (latest point)

    def __post_init__(self):
        if self.y.dim != self.z.dim:
            raise ValueError("diamond endpoints must share a dimension")
        if not causal_leq(self.y, self.z):
            raise ValueError("diamond entry must causally precede its exit")

    @property
    def dim(self) -> int:
        return self.y.dim


def diamonds_related(d1: CausalDiamond, d2: CausalDiamond) -> bool:
    """True when one diamond can signal the other (either direction)."""
    return causal_leq(d1.y, d2.z) or causal_leq(d2.y, d1.z)


@dataclass(frozen=True)
class Configuration:
    start: SpacetimePoint
    diamonds: tuple[CausalDiamond, ...]

    def __post_init__(self):
        object.__setattr__(self, "diamonds", tuple(self.diamonds))
        if len(self.diamonds) < 2:
            raise ValueError("a configuration needs at least two diamonds")
        dims = {self.start.dim, *(d.dim for d in self.diamonds)}
        if len(dims) != 1:
            raise ValueError(f"mixed spatial dimensions in configuration: {sorted(dims)}")

    @property
    def n_diamonds(self) -> int:
        return len(self.diamonds)

    @property
    def dim(self) -> int:
        return self.start.dim


@dataclass(frozen=True)
class Violation:
    """One named feasibility failure; diamond indices are 1-based."""

    kind: str  # "start-unreachable" | "unrelated-pair"
    diamonds: tuple[int, ...]

    def __str__(self) -> str:
        if self.kind == "start-unreachable":
            return f"start cannot reach diamond {self.diamonds[0]} before it closes"
        j, k = self.diamonds
        return f"diamonds {j} and {k} are causally unrelated"

    def as_json(self) -> dict:
        return {"kind": self.kind, "diamonds": list(self.diamonds)}


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


def validate(config: Configuration) -> ValidationReport:
    """Check feasibility: start reaches every diamond, all pairs related."""
    violations = []
    for j, d in enumerate(config.diamonds, start=1):
        if not causal_leq(config.start, d.z):
            violations.append(Violation("start-unreachable", (j,)))
    for j in range(1, config.n_diamonds + 1):
        for k in range(j + 1, config.n_diamonds + 1):
            if not diamonds_related(config.diamonds[j - 1], config.diamonds[k - 1]):
                violations.append(Violation("unrelated-pair", (j, k)))
    return ValidationReport(tuple(violations))


def causal_graph(config: Configuration) -> tuple[tuple[int, int], ...]:
    """Directed influence edges between diamonds, 1-based.

    Edge (i, j) means diamond i's entry can reach diamond j's exit.  When
    both directions hold the pair, only the lower-to-higher edge is kept, so
    each related pair contributes exactly one edge.
    """
    edges = []
    n = config.n_diamonds
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            d_i, d_j = config.diamonds[i - 1], config.diamonds[j - 1]
            forward = causal_leq(d_i.y, d_j.z)
            backward = causal_leq(d_j.y, d_i.z)
            if forward:
                edges.append((i, j))
            elif backward:
                edges.append((j, i))
    return tuple(edges)


def find_chain(config: Configuration) -> tuple[int, int, int] | None:
    """First triple (i, j, k) of distinct diamonds with y_i <= z_j <= z_k.

    Such a triple lets region j relay data onward: it hears from i and still
    finishes before k does.  Scan order is lexicographic in (i, j, k), so
    the witness is deterministic.
    """
    n = config.n_diamonds
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if j == i:
                continue
            if not causal_leq(config.diamonds[i - 1].y, config.diamonds[j - 1].z):
                continue
            for k in range(1, n + 1):
                if k in (i, j):
                    continue
                if causal_leq(config.diamonds[j - 1].z, config.diamonds[k - 1].z):
                    return (i, j, k)
    return None


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
    values = list(values)
    if len(values) != dim + 1:
        raise ValueError(
            f"{what} must have {dim + 1} entries [t, x1..x{dim}], got {len(values)}"
        )
    return SpacetimePoint(values[0], tuple(values[1:]))


def configuration_from_json(data: dict) -> Configuration:
    """Build a configuration from the dict form.

    Schema: {"dim": d, "start": [t, x1..xd],
             "diamonds": [{"y": [t, x...], "z": [t, x...]}, ...]}
    """
    try:
        dim = data["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise ValueError(f"dim must be an integer >= 1, got {dim!r}")
        start = _point(data["start"], dim, "start")
        diamonds = tuple(
            CausalDiamond(_point(d["y"], dim, f"diamond {i} y"), _point(d["z"], dim, f"diamond {i} z"))
            for i, d in enumerate(data["diamonds"], start=1)
        )
    except KeyError as exc:
        raise ValueError(f"configuration is missing key {exc.args[0]!r}") from exc
    return Configuration(start, diamonds)


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
