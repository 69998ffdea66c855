"""CV stabilizer codes on the complete graph of N regions.

Modes live on the edges of the complete graph K_N.  The pure-X generators
are directed triangles through a distinguished vertex (vertex 1), the pure-P
generators are sums of adjacent star vectors.  Erasure correctability is
decided by the restriction-rank identity (see ``correctable``), which rests
on the commuting, independent rows that StabilizerCode enforces.

Every fact about a generator block is held once, by a ``_Block``, and
StabilizerCode keeps its X and P blocks as a pair: the block's rank, its
kernel (taken on first use), its restriction ranks and the comparison of its
row space with another's.

Which facts are exact: every generator matrix built here is an integer
matrix, and a block whose entries are all integral floats holds its exact
rows (``_introws``).  Its own rank, and so the construction's independence
check, and the comparison of its row space with another integer block's
are exact, at any entry size.  Everything else is float: the ranks of a
non-integer block, and the restriction ranks of every block.  A float rank
counts the singular values above a cutoff relative to a scale, the largest
singular value of the whole block; the block takes its singular values
only when a float decision first needs that scale.

Each restriction rank is taken on the cheaper of the column slice and its
kernel complement: for a block M (k x n) with independent rows and K the
orthonormal rows spanning ker M, rank M[:, S] = |S| - (n - k) + rank K[:, ~S],
and the side with the smaller SVD flop estimate, k |S| min(k, |S|) against
(n - k) |~S| min(n - k, |~S|), is taken.  A tie goes to the kernel side,
decided at scale 1, which needs no SVD of the block: the X slices of the
general code's vertex patterns always tie (n - k = |S| = N - 1 and
|~S| = k).  Patterns that erase the same number of modes give slices of one
shape, so each of their four restriction ranks is one SVD of a stack of
slices.

The kernel K of an integer block with unit pivots (``_introws``) is the Q
of a reduced QR of its integer kernel basis, n x (n - k), when that costs
fewer flops than a complete n x n QR of M^T; so it is for the general
code's X block, whose kernel has only N - 1 columns.  Every other block
takes the complete QR: a non-integer block, the five-mode code's X block
(a pivot is -2), and the general code's P block, whose kernel is nearly
all of R^n.  Either way K is orthonormal.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

import numpy as np

from ._introws import IntRows
from .tolerances import TOL

__all__ = [
    "EdgeBasis",
    "StabilizerCode",
    "ErasurePattern",
    "edge_basis",
    "build_general_code",
    "build_five_mode_code",
    "erasure_for_vertex",
    "correctable",
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


def _count_ranks(rows: Iterable[Sequence[float]], scale: float) -> list[int]:
    """Rank of each row of singular values (largest first): the count above TOL.rank * scale.

    Warns once per row whose kept values span more than TOL.condition_limit.
    """
    cut = TOL.rank * float(scale)
    ranks = []
    for svals in rows:
        rank = sum(v > cut for v in svals)
        if rank and svals[0] / svals[rank - 1] > TOL.condition_limit:
            warnings.warn(
                f"rank decision badly conditioned: singular values span "
                f"{svals[0]:.3e}..{svals[rank - 1]:.3e}",
                stacklevel=2,
            )
        ranks.append(rank)
    return ranks


def _slice_ranks(slices: np.ndarray, scale: float) -> list[int]:
    """Rank of each slice of a (k, G, w) stack, as ``M[:, S]`` takes it for G index rows S."""
    if not slices.size:
        return [0] * slices.shape[1]
    return _count_ranks(np.linalg.svd(slices.transpose(1, 0, 2), compute_uv=False).tolist(), scale)


class _Block:
    """One generator block: independent rows M (k x n) and every rank fact about them.

    When every entry is an integral float, the block holds its exact rows
    (``_introws.IntRows``): its own rank, and the comparison of its row
    space with another integer block's, are exact.  Its restriction ranks
    stay float.  The singular values, whose largest is the scale of every
    float rank decision on the block, are taken only when such a decision
    first needs them; the kernel when a restriction rank first needs it.
    """

    def __init__(self, rows: np.ndarray):
        self.rows = np.atleast_2d(np.asarray(rows, dtype=float))
        #: the exact rows, or None unless every entry is an integral float
        self.exact = IntRows.of(self.rows)

    @cached_property
    def svals(self) -> np.ndarray:
        """Singular values, largest first (none for an empty block)."""
        return np.linalg.svd(self.rows, compute_uv=False) if self.rows.size else np.zeros(0)

    @cached_property
    def scale(self) -> float:
        """The largest singular value (0 for an empty block)."""
        return self.svals[0] if self.svals.size else 0.0

    def rank(self, scale: float | None = None) -> int:
        """Rank of M: exact for an integer block when no ``scale`` is given.

        Otherwise the count of the singular values above the rank cutoff at
        ``scale`` (default: the block's).
        """
        if scale is None and self.exact is not None:
            return self.exact.rank
        return _count_ranks([self.svals.tolist()], self.scale if scale is None else scale)[0]

    @cached_property
    def kernel(self) -> np.ndarray:
        """(n - k) x n orthonormal rows spanning ker M.

        An integer block with unit pivots (``IntRows.unit_pivots``) has an
        integer kernel basis B (n x (n - k)): the identity in the free
        columns and, in row i's pivot column, -s_i M[i, free] (s_i its
        pivot).  The rows are then the Q of a reduced QR of B, about
        n (n - k)^2 flops, where the complete QR of M^T below costs about
        n^2 k; the cheaper is taken.  Any other block takes the trailing
        n - k columns of the complete QR of M^T.
        """
        k, n = self.rows.shape
        unit = None if self.exact is None else self.exact.unit_pivots
        if unit is not None and (n - k) ** 2 < n * k:
            pivot_rows, pivot_cols, signs = unit
            free = np.ones(n, dtype=bool)
            free[pivot_cols] = False
            basis = np.zeros((n, n - k))
            basis[free, np.arange(n - k)] = 1.0
            basis[pivot_cols] = -signs[:, None] * self.rows[np.ix_(pivot_rows, free)]
            return np.linalg.qr(basis)[0].T.copy()
        return np.linalg.qr(self.rows.T, mode="complete")[0][:, k:].T.copy()

    def ranks(self, S: np.ndarray, rest: np.ndarray) -> list[int]:
        """rank M[:, s] for each row s of S, in float.

        S is a G x |S| index array and rest the G x (n - |S|) array of the
        complements.  rank M[:, s] = |S| - (n - k) + rank K[:, rest], with K
        the kernel; whichever side has the smaller SVD flop estimate is
        taken, and a tie goes to the kernel side, which needs no scale of
        the block, so the choice depends only on shapes and is one for all
        G rows.  The K side is decided at scale 1, the scale of an
        orthonormal block.
        """
        if not len(S):  # no patterns left: take no factorization, not even the kernel
            return []
        k, c = self.rows.shape[0], self.rows.shape[1] - self.rows.shape[0]
        width, other = S.shape[1], rest.shape[1]
        if c * other * min(c, other) <= k * width * min(k, width):
            return [width - c + rank for rank in _slice_ranks(self.kernel[:, rest], 1.0)]
        return _slice_ranks(self.rows[:, S], self.scale)

    def same_span(self, other: _Block) -> bool:
        """Equal row spaces: rank A == rank B == rank [A; B].

        Exact when both blocks are integer blocks: equal ranks, and B in the
        row space of A.  Otherwise the three ranks are float, all at the
        scale of [A; B], from one SVD of [A; B]; A's and B's are counted from
        their own singular values at that scale.
        """
        if self.rows.shape[1] != other.rows.shape[1]:
            raise ValueError(f"blocks of {self.rows.shape[1]} and {other.rows.shape[1]} columns")
        if self.exact is not None and other.exact is not None:
            return self.exact.rank == other.exact.rank and self.exact.spans(other.exact)
        stacked = _Block(np.vstack([self.rows, other.rows]))
        return self.rank(stacked.scale) == other.rank(stacked.scale) == stacked.rank()


@dataclass(frozen=True)
class StabilizerCode:
    """CSS-form generator data: pure-X rows and pure-P rows over n modes."""

    n_modes: int
    x_rows: np.ndarray
    p_rows: np.ndarray
    name: str = ""
    #: the X block and the P block
    _blocks: tuple[_Block, _Block] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x, p = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (self.x_rows, self.p_rows))
        object.__setattr__(self, "x_rows", x)
        object.__setattr__(self, "p_rows", p)
        if x.shape[1] != self.n_modes or p.shape[1] != self.n_modes:
            raise ValueError(
                f"generator rows must have {self.n_modes} columns, "
                f"got {x.shape[1]} and {p.shape[1]}"
            )
        if not (np.isfinite(x).all() and np.isfinite(p).all()):
            raise ValueError("generator rows must be finite")
        defect = self.orthogonality_defect()
        # max |entry| of each block, without a block-sized |M| copy
        x_size, p_size = (max(M.max(initial=0.0), -M.min(initial=0.0)) for M in (x, p))
        if defect > TOL.orthogonality * x_size * p_size:
            raise ValueError(f"X and P generators do not commute: max |v.w| = {defect:.3e}")
        # generator_matrix is block-diagonal, so its rows are independent iff
        # each block's are
        blocks = (_Block(x), _Block(p))
        if any(block.rank() != len(block.rows) for block in blocks):
            raise ValueError("generator rows are linearly dependent")
        object.__setattr__(self, "_blocks", blocks)

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


@dataclass(frozen=True)
class ErasurePattern:
    """Set of erased mode indices (0-based) plus the intended recovery vertex."""

    erased: frozenset[int]
    recovery_vertex: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "erased", frozenset(map(int, self.erased)))


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
    n = basis.n_edges
    ends = np.array(basis.edges)
    # the edges jk with 2 <= j < k follow the N - 1 edges 1k, in the order of
    # the x rows; edge 1k sits at index k - 2
    rows = np.arange(n - (N - 1))
    j, k = ends[N - 1 :].T
    x_rows = np.zeros((rows.size, n))
    x_rows[rows, j - 2] = 1  # e_1j
    x_rows[rows, N - 1 + rows] = 1  # e_jk
    x_rows[rows, k - 2] = -1  # e_k1 = -e_1k
    # row v - 1 of the signed incidence matrix is the star A_v
    stars = np.zeros((N, n))
    stars[ends[:, 0] - 1, np.arange(n)] = 1
    stars[ends[:, 1] - 1, np.arange(n)] = -1
    return StabilizerCode(n, x_rows, stars[0] + stars[1 : N - 1], name=f"general-{N}")


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
    if basis.n_edges != code.n_modes:
        raise ValueError(
            f"basis of K_{basis.N} has {basis.n_edges} edges but the code has {code.n_modes} modes"
        )
    if not 1 <= vertex <= basis.N:
        raise ValueError(f"vertex {vertex} out of range 1..{basis.N}")
    incident = {basis.signed_unit(vertex, k)[0] for k in range(1, basis.N + 1) if k != vertex}
    return ErasurePattern(frozenset(range(basis.n_edges)) - incident, recovery_vertex=vertex)


def correctable(code: StabilizerCode, patterns: Sequence[ErasurePattern]) -> list[bool]:
    """Decide erasure correctability of each pattern by the restriction-rank identity.

    An error supported on the erased modes E is undetectable iff it commutes
    with every generator; E is correctable iff every such error is a
    stabilizer.  For blocks (a, b), the undetectable errors of b's type
    supported on E form a space of dimension |E| - rank a[:,E], and the
    stabilizers of b's type supported on E one of dimension k_b - rank b[:,~E]
    (the b rows are independent); the second lies in the first (the b rows
    commute with the a rows), so E is correctable iff

      |E| - rank a[:,E] == k_b - rank b[:,~E]

    for (a, b) = (P, X), the X side, and for (a, b) = (X, P), the P side.
    StabilizerCode checks both premises on construction, exactly for an
    integer block.  The restriction ranks are float, and every one is taken
    against the scale of the whole block, not of the column slice.

    Each rank M[:, S] is taken on the cheaper of the slice and its kernel
    complement: with K the (n - k) x n orthonormal rows spanning ker M,

      rank M[:, S] = |S| - (n - k) + rank K[:, ~S]

    and the side with the smaller flop estimate k |S| min(k, |S|) versus
    (n - k) |~S| min(n - k, |~S|) wins, the kernel side on a tie; K is
    orthonormal, so its side is decided at scale 1.  For a vertex pattern
    of the general code this turns rank X[:, E], a C(N-1,2)-square problem,
    into an (N-1)-square one.

    Patterns are grouped by |E|.  The slices of one group share their shape,
    so each of the four ranks is one SVD of the group's stack of slices; the
    P side is taken only for the patterns whose X side holds.
    Verdicts come back in the order of ``patterns``.
    """
    n = code.n_modes
    groups: dict[int, list] = {}
    for i, pattern in enumerate(patterns):
        erased = sorted(pattern.erased)
        if erased and (erased[0] < 0 or erased[-1] >= n):
            bad = next(m for m in erased if not 0 <= m < n)
            raise ValueError(f"erased mode {bad} out of range for {n}-mode code")
        kept = [m for m in range(n) if m not in pattern.erased]
        groups.setdefault(len(erased), []).append((i, erased + kept))

    verdicts = [False] * len(patterns)
    for size, members in groups.items():
        # row g: pattern g's erased modes, then its kept ones
        order = np.array([row for _, row in members], dtype=np.intp)
        live = np.arange(len(members))
        # (a, b) = (P, X), the X side, then (X, P) on the patterns it kept
        for a, b in (code._blocks[::-1], code._blocks):
            E, K = order[live, :size], order[live, size:]
            holds = [size - ra == len(b.rows) - rb for ra, rb in zip(a.ranks(E, K), b.ranks(K, E))]
            live = live[holds]
        for g in live.tolist():
            verdicts[members[g][0]] = True
    return verdicts


def check_correctable(code: StabilizerCode, pattern: ErasurePattern) -> bool:
    """Decide one erasure pattern: ``correctable(code, [pattern])`` (see there)."""
    return correctable(code, [pattern])[0]


def nullifier_variances(code: StabilizerCode, state) -> np.ndarray:
    """Variance of each generator (X rows first, then P rows): half its squared row of G F."""
    if state.n_modes != code.n_modes:
        raise ValueError(
            f"state has {state.n_modes} modes but code has {code.n_modes}"
        )
    rows = code.generator_matrix @ state.factor
    return (rows * rows).sum(-1) / 2


def format_generator_matrix(code: StabilizerCode) -> str:
    """Whitespace-separated text: one generator per row, X block then P block.

    Integral entries print as integers, any other entry as ``repr(float)``.
    """
    G = code.generator_matrix
    if np.isfinite(G).all() and (G == np.round(G)).all() and np.abs(G).max(initial=0) < 2.0**53:
        template = " ".join(["%d"] * G.shape[1])
        return "\n".join([template % tuple(row) for row in G.astype(np.int64).tolist()]) + "\n"
    rows = [[str(int(v)) if float(v).is_integer() else repr(float(v)) for v in row] for row in G]
    return "\n".join(" ".join(cells) for cells in rows) + "\n"
