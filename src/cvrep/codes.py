"""CV stabilizer codes on the complete graph of N regions.

Modes live on the edges of the complete graph K_N.  The pure-X generators
are directed triangles through a distinguished vertex (vertex 1), the pure-P
generators are sums of adjacent star vectors.  Erasure correctability is
decided by the restriction-rank identity (see ``check_correctable``), which
rests on the commuting, independent rows that StabilizerCode enforces; every
rank decision goes through ``_rank``, whose cutoff is relative to the scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from .tolerances import TOL

__all__ = [
    "EdgeBasis",
    "StabilizerCode",
    "ErasurePattern",
    "edge_basis",
    "triangle_vector",
    "directed_triangle",
    "star_vector",
    "build_general_code",
    "build_five_mode_code",
    "symplectic_product",
    "erasure_for_vertex",
    "check_correctable",
    "nullifier_variances",
    "format_generator_matrix",
    "FIVE_MODE_ERASURES",
]


@dataclass(frozen=True)
class EdgeBasis:
    """Ordered edge set of K_N: pairs (j, k), 1 <= j < k <= N, lexicographic."""

    N: int
    edges: tuple[tuple[int, int], ...]
    _index: dict = field(repr=False, hash=False, compare=False, default_factory=dict)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def index(self, j: int, k: int) -> int:
        return self._index[(j, k)]

    def signed_unit(self, j: int, k: int) -> tuple[int, int]:
        """Position and sign of e_{jk} under the convention e_{jk} = -e_{kj}."""
        if j == k:
            raise ValueError("edge endpoints must differ")
        if j < k:
            return self._index[(j, k)], +1
        return self._index[(k, j)], -1


def edge_basis(N: int) -> EdgeBasis:
    if N < 3:
        raise ValueError(f"need at least 3 vertices, got {N}")
    edges = tuple((j, k) for j, k in combinations(range(1, N + 1), 2))
    index = {e: i for i, e in enumerate(edges)}
    return EdgeBasis(N, edges, index)


def directed_triangle(basis: EdgeBasis, i: int, j: int, k: int) -> np.ndarray:
    """The closed directed triangle e_ij + e_jk + e_ki as an edge-space vector."""
    if len({i, j, k}) != 3 or not all(1 <= v <= basis.N for v in (i, j, k)):
        raise ValueError(f"triangle needs three distinct vertices in 1..{basis.N}")
    vec = np.zeros(basis.n_edges)
    for a, b in ((i, j), (j, k), (k, i)):
        pos, sign = basis.signed_unit(a, b)
        vec[pos] += sign
    return vec


def triangle_vector(basis: EdgeBasis, j: int, k: int) -> np.ndarray:
    """v_jk = e_1j + e_jk + e_k1: the directed triangle through vertex 1."""
    if not (2 <= j < k <= basis.N):
        raise ValueError(f"need 2 <= j < k <= {basis.N}, got ({j}, {k})")
    return directed_triangle(basis, 1, j, k)


def star_vector(basis: EdgeBasis, j: int) -> np.ndarray:
    """A_j = sum over k != j of e_jk (signed), the star of vertex j."""
    if not 1 <= j <= basis.N:
        raise ValueError(f"vertex {j} out of range 1..{basis.N}")
    vec = np.zeros(basis.n_edges)
    for k in range(1, basis.N + 1):
        if k == j:
            continue
        pos, sign = basis.signed_unit(j, k)
        vec[pos] += sign
    return vec


@dataclass(frozen=True)
class StabilizerCode:
    """CSS-form generator data: pure-X rows and pure-P rows over n modes."""

    n_modes: int
    x_rows: np.ndarray
    p_rows: np.ndarray
    name: str = ""

    def __post_init__(self):
        x = np.atleast_2d(np.asarray(self.x_rows, dtype=float))
        p = np.atleast_2d(np.asarray(self.p_rows, dtype=float))
        object.__setattr__(self, "x_rows", x)
        object.__setattr__(self, "p_rows", p)
        if x.shape[1] != self.n_modes or p.shape[1] != self.n_modes:
            raise ValueError(
                f"generator rows must have {self.n_modes} columns, "
                f"got {x.shape[1]} and {p.shape[1]}"
            )
        defect = self.orthogonality_defect()
        if defect > TOL.orthogonality * np.max(np.abs(x), initial=0) * np.max(np.abs(p), initial=0):
            raise ValueError(f"X and P generators do not commute: max |v.w| = {defect:.3e}")
        # generator_matrix is block-diagonal, so its rows are independent iff
        # each block's are
        if _rank(x) != x.shape[0] or _rank(p) != p.shape[0]:
            raise ValueError("generator rows are linearly dependent")

    @property
    def n_generators(self) -> int:
        return self.x_rows.shape[0] + self.p_rows.shape[0]

    @property
    def generator_matrix(self) -> np.ndarray:
        """Block matrix [x_rows | 0 ; 0 | p_rows] over 2n quadrature columns."""
        kx, kp = self.x_rows.shape[0], self.p_rows.shape[0]
        n = self.n_modes
        G = np.zeros((kx + kp, 2 * n))
        G[:kx, :n] = self.x_rows
        G[kx:, n:] = self.p_rows
        return G

    def orthogonality_defect(self) -> float:
        """max |v . w| over all X-row / P-row pairs (0 means CSS commutation holds)."""
        return float(np.max(np.abs(self.x_rows @ self.p_rows.T), initial=0.0))

    @cached_property
    def _scales(self) -> tuple[float, float]:
        """Largest singular values of the X and P blocks, the scale of their rank decisions."""
        return np.linalg.norm(self.x_rows, 2), np.linalg.norm(self.p_rows, 2)


@dataclass(frozen=True)
class ErasurePattern:
    """Set of erased mode indices (0-based) plus the intended recovery vertex."""

    erased: frozenset[int]
    recovery_vertex: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "erased", frozenset(int(m) for m in self.erased))


# Five-mode erasure patterns, keyed by recovery vertex; 0-based mode indices.
# circuits.recovery names pattern k "Ek" and derives its wire tables from here.
FIVE_MODE_ERASURES = {
    1: frozenset({2, 3, 4}),
    2: frozenset({1, 2}),
    3: frozenset({1, 3}),
    4: frozenset({0, 4}),
}


def build_general_code(N: int) -> StabilizerCode:
    """The C(N,2)-mode code: triangle X-generators and star-sum P-generators.

    x rows: v_jk for 2 <= j < k <= N (lexicographic); p rows: w_k = A_1 + A_k
    for 2 <= k <= N-1.  Total C(N-1,2) + N-2 = C(N,2) - 1 generators, leaving
    one encoded mode.
    """
    if N < 4:
        raise ValueError(f"general code needs N >= 4, got {N}")
    basis = edge_basis(N)
    x_rows = [triangle_vector(basis, j, k) for j, k in combinations(range(2, N + 1), 2)]
    p_rows = [star_vector(basis, 1) + star_vector(basis, k) for k in range(2, N)]
    return StabilizerCode(basis.n_edges, np.array(x_rows), np.array(p_rows), name=f"general-{N}")


def build_five_mode_code() -> StabilizerCode:
    """The optimized five-mode code for the chained four-region configuration."""
    x_rows = np.array(
        [
            [-1, -1, 1, 1, 0],
            [0, 0, -1, 1, -2],
        ],
        dtype=float,
    )
    p_rows = np.array(
        [
            [1, 1, 1, 1, 0],
            [0, 0, -1, 1, 1],
        ],
        dtype=float,
    )
    return StabilizerCode(5, x_rows, p_rows, name="five_mode")


def symplectic_product(u: np.ndarray, v: np.ndarray) -> float:
    """omega(u, v) = s1.t2 - t1.s2 for u = (s1, t1), v = (s2, t2)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1 or u.size % 2:
        raise ValueError("need two equal-length even-dimensional vectors")
    n = u.size // 2
    return float(u[:n] @ v[n:] - u[n:] @ v[:n])


def erasure_for_vertex(
    code: StabilizerCode, basis: EdgeBasis | None, vertex: int
) -> ErasurePattern:
    """Erasure pattern recoverable from the given vertex.

    For edge-mode codes: erase every edge not incident to the vertex.  For
    the five-mode code the four patterns are a fixed table.
    """
    if code.name == "five_mode":
        if vertex not in FIVE_MODE_ERASURES:
            raise ValueError(f"five-mode recovery vertex must be 1..4, got {vertex}")
        return ErasurePattern(FIVE_MODE_ERASURES[vertex], recovery_vertex=vertex)
    if basis is None:
        raise ValueError("edge-mode codes need the EdgeBasis to build patterns")
    if not 1 <= vertex <= basis.N:
        raise ValueError(f"vertex {vertex} out of range 1..{basis.N}")
    erased = frozenset(i for i, (j, k) in enumerate(basis.edges) if vertex not in (j, k))
    return ErasurePattern(erased, recovery_vertex=vertex)


def _rank(M: np.ndarray, scale: float | None = None) -> int:
    """Count of singular values above the rank tolerance times ``scale`` (default: M's largest)."""
    M = np.atleast_2d(M)
    if M.size == 0:
        return 0
    svals = np.linalg.svd(M, compute_uv=False)
    kept = svals[svals > TOL.rank * (svals[0] if scale is None else scale)]
    if kept.size and svals[0] / kept[-1] > TOL.condition_limit:
        warnings.warn(
            f"rank decision badly conditioned: singular values span "
            f"{svals[0]:.3e}..{kept[-1]:.3e}",
            stacklevel=2,
        )
    return int(kept.size)


def check_correctable(code: StabilizerCode, pattern: ErasurePattern) -> bool:
    """Decide erasure correctability by the restriction-rank identity.

    An error supported on the erased modes E is undetectable iff it commutes
    with every generator; E is correctable iff every such error is a
    stabilizer.  On the X side the undetectable errors form a space of
    dimension |E| - rank P[:,E], and the stabilizers supported on E one of
    dimension k_X - rank X[:,~E] (the X rows are independent); the second
    lies in the first (X rows commute with P rows), so E is correctable iff

      |E| - rank P[:,E] == k_X - rank X[:,~E]

    and the same holds with X and P swapped.  StabilizerCode checks both
    premises on construction.  Every rank is taken against the scale of
    the whole X or P block, not of the column slice.
    """
    erased = sorted(pattern.erased)
    for m in erased:
        if not 0 <= m < code.n_modes:
            raise ValueError(f"erased mode {m} out of range for {code.n_modes}-mode code")
    kept = [m for m in range(code.n_modes) if m not in pattern.erased]
    X, P = code.x_rows, code.p_rows
    sx, sp = code._scales
    return (
        len(erased) - _rank(P[:, erased], sp) == X.shape[0] - _rank(X[:, kept], sx)
        and len(erased) - _rank(X[:, erased], sx) == P.shape[0] - _rank(P[:, kept], sp)
    )


def nullifier_variances(code: StabilizerCode, state) -> np.ndarray:
    """Variance of each generator (X rows first, then P rows) on a Gaussian state."""
    if state.n_modes != code.n_modes:
        raise ValueError(
            f"state has {state.n_modes} modes but code has {code.n_modes}"
        )
    x_vars = [float(v @ state.cov_x @ v) for v in code.x_rows]
    p_vars = [float(w @ state.cov_p @ w) for w in code.p_rows]
    return np.array(x_vars + p_vars)


def format_generator_matrix(code: StabilizerCode) -> str:
    """Whitespace-separated text: one generator per row, X block then P block."""
    G = code.generator_matrix
    lines = []
    for row in G:
        cells = [
            str(int(v)) if float(v).is_integer() else repr(float(v))
            for v in row
        ]
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"
