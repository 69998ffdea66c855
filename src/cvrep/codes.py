"""CV stabilizer codes on the complete graph of N regions.

Modes live on the edges of the complete graph K_N.  The pure-X generators
are directed triangles through a distinguished vertex (vertex 1), the pure-P
generators are sums of adjacent star vectors.  Erasure correctability is
decided by the restriction-rank identity (see ``correctable``), which rests
on the commuting, independent rows that StabilizerCode enforces.

Every fact about a generator block is held once, by a ``_Block``, and
StabilizerCode keeps its X and P blocks as a pair: the block's rank, its
unit pivots (taken on first use), its restriction ranks and the
comparison of its row space with another's.

Which facts are exact: every generator matrix built here is an integer
matrix, and a block whose entries are all integral floats holds its exact
rows (``_introws``).  Its own rank, and so the construction's independence
check, the comparison of its row space with another integer block's, and
its restriction ranks are exact, at any entry size, but for the rank of a
unit-pivot block's residual that is not monomial (below).  Everything
else is float: that residual's rank, and every rank of a non-integer
block.  A float rank counts the singular values above a cutoff relative
to a scale, the largest singular value of the whole block.

Every block built here, but the five-mode code's X block (a pivot is -2),
peels on unit pivots (``_introws``): each row owns a column, on a pivot of
+-1, that no other row touches.  With P those pivot columns, F the free
ones and W = M[:, F],

  rank M[:, S] = |S & P| + rank W[R_S, S & F],

R_S the rows whose pivot is not in S.  The pivot count is exact, and so is
the rank of a residual with a zero dimension, with one row or one column,
or monomial (at most one nonzero per row and per column: its nonzero
count), all with no SVD; any other residual's rank is float, one stacked
SVD per shape.  M M^T = I + W W^T, so the scale is sqrt(1 + sigma_max(W)^2),
with no SVD of M.  On the general code's vertex patterns every residual is
at most (N - 2) x (N - 1), but one pattern per block: all of W for X's kept
modes at v = 1, and (N - 2) x C(N-1,2) for P's erased modes at v = N; X's
erased-side residuals are monomial and take no SVD.

A block without unit pivots takes rank M[:, S] on the column slice itself:
an integer block exactly, ``IntRows.of(M[:, S]).rank`` per pattern, and any
other block by one stacked SVD of the slices of each width |S|, at the
block's scale.  Nothing built here but the five-mode X block takes this
route.  A dense integer block that does not peel pays an exact elimination
per pattern, and a non-integer block an SVD of each k x |S| slice.

``correctable_mask`` decides a G x n boolean mask of erased modes, one row
per pattern; ``vertex_erasures`` writes the vertex patterns' mask from the
vertex rule (edge jk is erased for vertex v iff v is not in {j, k}), and
``correctable`` builds the mask from ``ErasurePattern``s.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Sequence
from functools import cached_property
from itertools import chain, combinations

import numpy as np

from ._introws import IntRows
from ._value import Value
from .tolerances import TOL

__all__ = [
    "EdgeBasis",
    "StabilizerCode",
    "ErasurePattern",
    "edge_basis",
    "build_general_code",
    "build_five_mode_code",
    "vertex_erasures",
    "erasure_for_vertex",
    "erasure_mask",
    "correctable",
    "correctable_mask",
    "check_correctable",
    "nullifier_variances",
    "format_generator_matrix",
    "FIVE_MODE_ERASURES",
]


class EdgeBasis(Value):
    """Ordered edge set of K_N: pairs (j, k), 1 <= j < k <= N, lexicographic."""

    #: ``_index``: each edge's position, derived from ``edges``
    __slots__ = ("N", "edges", "_index")

    def __init__(self, N: int, edges: tuple[tuple[int, int], ...]):
        self._set(N, edges)
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(edges)})

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
    return EdgeBasis(N, tuple(combinations(range(1, N + 1), 2)))


def _edge_ends(N: int) -> tuple[np.ndarray, np.ndarray]:
    """The ends j < k of each edge of K_N, 0-based, in ``edge_basis`` order: ``np.triu_indices(N, 1)``,
    at a third of its cost for small N."""
    return np.nonzero(~np.tri(N, dtype=bool))


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


def _stack_ranks(stack: np.ndarray, scale: float) -> list[int]:
    """Rank of each matrix of a (G, h, w) stack: one stacked SVD, counted at ``scale``."""
    if not stack.size:
        return [0] * len(stack)
    return _count_ranks(np.linalg.svd(stack, compute_uv=False).tolist(), scale)


def _groups(keys: Iterable) -> dict[object, list[int]]:
    """The positions of each key, keys in order of first appearance."""
    groups: dict[object, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


class _Block:
    """One generator block: independent rows M (k x n) and every rank fact about them.

    When every entry is an integral float, the block holds its exact rows
    (``_introws.IntRows``): its own rank, and the comparison of its row
    space with another integer block's, are exact.  A block whose rows
    peel on unit pivots takes its restriction ranks through its pivots
    (``ranks``), float only in a small residual that is not monomial; it
    reads its pivot map and W (the free columns) when a restriction rank
    first needs them, and its scale when a residual first needs an SVD.
    Any other integer block takes each restriction rank exactly, on its
    column slice.  A non-integer block takes its singular values, whose
    largest is the scale of every float rank decision on it, when such a
    decision first needs them.
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
    def pivots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """Each row's pivot column, the free columns and W = M[:, free]; None unless unit pivots.

        Unit pivots as ``IntRows.unit_pivots`` finds them: each row owns a
        column on a pivot of +-1, and no other row touches it.
        """
        unit = None if self.exact is None else self.exact.unit_pivots
        if unit is None:
            return None
        pivot_rows, pivot_cols, _ = unit
        pivot_of = np.empty(len(pivot_rows), dtype=np.intp)
        pivot_of[pivot_rows] = pivot_cols
        free = np.ones(self.rows.shape[1], dtype=bool)
        free[pivot_cols] = False
        return pivot_of, free, self.rows[:, free]

    @cached_property
    def scale(self) -> float:
        """The largest singular value (0 for an empty block).

        A unit-pivot block is a signed permutation in its pivot columns and
        W in the free ones, so M M^T = I + W W^T and the scale is
        sqrt(1 + sigma_max(W)^2), with no SVD of M.
        """
        if self.rows.size and self.pivots is not None:
            W = self.pivots[2]
            return math.hypot(1.0, np.linalg.svd(W, compute_uv=False)[0] if W.size else 0.0)
        return self.svals[0] if self.svals.size else 0.0

    def rank(self, scale: float | None = None) -> int:
        """Rank of M: exact for an integer block when no ``scale`` is given.

        Otherwise the count of the singular values above the rank cutoff at
        ``scale`` (default: the block's).
        """
        if scale is None and self.exact is not None:
            return self.exact.rank
        return _count_ranks([self.svals.tolist()], self.scale if scale is None else scale)[0]

    def ranks(self, inside: np.ndarray) -> np.ndarray:
        """rank M[:, S] for each row of ``inside``, a G x n mask of the columns in S.

        A unit-pivot block (``pivots``) takes, with P its pivot columns and F
        its free ones,

          rank M[:, S] = |S & P| + rank W[R_S, S & F]

        where R_S holds the rows whose pivot is not in S: a row whose pivot
        lies in S owns a column of the slice, and every other row is zero
        on S & P.  |S & P| is a count; the residuals W[R_S, S & F] are
        grouped by shape.  W is an integer matrix, and three kinds of
        residual are ranked exactly, with no SVD: one with a zero dimension
        has rank 0, one with one row or one column rank 1 if any entry is
        nonzero, and a monomial one (at most one nonzero per row and per
        column, as the X block's erased side on every vertex pattern of the
        general code) its nonzero count.  The other residuals of a group
        are ranked by one stacked SVD at the block's scale.

        Any other block takes rank M[:, S] on the column slice itself: an
        integer block exactly (``IntRows``), and a non-integer one by one
        stacked SVD of the slices of each width |S|, at the block's scale.
        """
        if self.pivots is None:
            ranks = np.zeros(len(inside), dtype=np.intp)
            for width, at in _groups(inside.sum(1).tolist()).items():
                slices = self.rows[:, inside[at].nonzero()[1].reshape(len(at), width)].transpose(1, 0, 2)
                if self.exact is None:
                    ranks[at] = _stack_ranks(slices, self.scale)
                else:
                    ranks[at] = [IntRows.of(M).rank for M in slices]
            return ranks
        pivot_of, free, W = self.pivots
        unowned, picked = ~inside[:, pivot_of], inside[:, free]  # R_S, and S & F
        height, width = unowned.sum(1), picked.sum(1)
        ranks = len(pivot_of) - height
        for (h, w), at in _groups(zip(height.tolist(), width.tolist())).items():
            if not (h and w):
                continue
            rows = unowned[at].nonzero()[1].reshape(-1, h, 1)
            cols = picked[at].nonzero()[1].reshape(-1, 1, w)
            residuals = W[rows, cols]
            if min(h, w) == 1:
                ranks[at] += residuals.any(axis=(1, 2))
                continue
            # a monomial residual has at most min(h, w) nonzero entries:
            # the count rules out most groups in one pass
            if np.count_nonzero(residuals) <= len(at) * min(h, w):
                nonzero = residuals != 0
                if nonzero.sum(2).max() <= 1 and nonzero.sum(1).max() <= 1:
                    ranks[at] += nonzero.sum((1, 2))
                    continue
            ranks[at] += _stack_ranks(residuals, self.scale)
        return ranks

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


class StabilizerCode(Value):
    """CSS-form generator data: pure-X rows and pure-P rows over n modes."""

    #: ``_blocks``: the X block and the P block
    __slots__ = ("n_modes", "x_rows", "p_rows", "name", "_blocks")

    def __init__(self, n_modes: int, x_rows: np.ndarray, p_rows: np.ndarray, name: str = ""):
        x, p = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (x_rows, p_rows))
        self._set(n_modes, x, p, name)
        if x.shape[1] != n_modes or p.shape[1] != n_modes:
            raise ValueError(
                f"generator rows must have {n_modes} columns, "
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


class ErasurePattern(Value):
    """Set of erased mode indices (0-based) plus the intended recovery vertex."""

    __slots__ = ("erased", "recovery_vertex")

    def __init__(self, erased: frozenset[int], recovery_vertex: int | None = None):
        self._set(frozenset(map(int, erased)), recovery_vertex)


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
    ends = _edge_ends(N)
    n = ends[0].size
    # the edges jk with 2 <= j < k follow the N - 1 edges 1k, in the order of
    # the x rows; edge 1k sits at index k - 2
    rows = np.arange(n - (N - 1))
    j, k = (end[N - 1 :] + 1 for end in ends)
    x_rows = np.zeros((rows.size, n))
    x_rows[rows, j - 2] = 1  # e_1j
    x_rows[rows, N - 1 + rows] = 1  # e_jk
    x_rows[rows, k - 2] = -1  # e_k1 = -e_1k
    # row v - 1 of the signed incidence matrix is the star A_v
    stars = np.zeros((N, n))
    stars[ends[0], np.arange(n)] = 1
    stars[ends[1], np.arange(n)] = -1
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


def vertex_erasures(
    code: StabilizerCode, basis: EdgeBasis | None, vertices: Sequence[int] | None = None
) -> np.ndarray:
    """The erased modes of the pattern recoverable from each of ``vertices``, one row of a mask each.

    ``vertices`` defaults to every vertex, in order.  For edge-mode codes,
    edge jk is erased for vertex v iff v is not in {j, k}: every edge not
    incident to the vertex.  For the five-mode code the rows come from the
    fixed table ``FIVE_MODE_ERASURES`` (vertices 1..4), for a code named
    ``five_mode`` only if it has 5 modes.
    """
    if vertices is not None:
        vertices = np.asarray(vertices)
        if vertices.size and vertices.dtype.kind not in "iu":
            raise ValueError(f"vertices must be integers, got {vertices.tolist()}")
    if code.name == "five_mode":
        if code.n_modes != 5:
            raise ValueError(f"the five-mode erasure table needs a 5-mode code, got {code.n_modes} modes")
        vertices = list(FIVE_MODE_ERASURES) if vertices is None else vertices.tolist()
        erased = np.zeros((len(vertices), code.n_modes), dtype=bool)
        for row, vertex in zip(erased, vertices):
            if vertex not in FIVE_MODE_ERASURES:
                raise ValueError(f"five-mode recovery vertex must be 1..4, got {vertex}")
            row[list(FIVE_MODE_ERASURES[vertex])] = True
        return erased
    if basis is None:
        raise ValueError("edge-mode codes need the EdgeBasis to build patterns")
    if basis.n_edges != code.n_modes:
        raise ValueError(
            f"basis of K_{basis.N} has {basis.n_edges} edges but the code has {code.n_modes} modes"
        )
    N = basis.N
    vertex = np.arange(1, N + 1) if vertices is None else vertices
    outside = vertex[(vertex < 1) | (vertex > N)]
    if outside.size:
        raise ValueError(f"vertex {outside[0]} out of range 1..{N}")
    j, k = _edge_ends(N)
    vertex = vertex[:, None] - 1
    return (vertex != j) & (vertex != k)


def erasure_for_vertex(
    code: StabilizerCode, basis: EdgeBasis | None, vertex: int
) -> ErasurePattern:
    """Erasure pattern recoverable from the given vertex: its row of ``vertex_erasures``."""
    erased = vertex_erasures(code, basis, [vertex])[0]
    return ErasurePattern(frozenset(np.flatnonzero(erased).tolist()), recovery_vertex=vertex)


def erasure_mask(code: StabilizerCode, patterns: Sequence[ErasurePattern]) -> np.ndarray:
    """The patterns' erased modes as one G x n mask, row i for ``patterns[i]``."""
    n = code.n_modes
    sizes = np.array([len(pattern.erased) for pattern in patterns], dtype=np.intp)
    modes = np.fromiter(chain.from_iterable(pattern.erased for pattern in patterns), np.intp, sizes.sum())
    if modes.size and (modes.min() < 0 or modes.max() >= n):
        bad = next(m for pattern in patterns for m in sorted(pattern.erased) if not 0 <= m < n)
        raise ValueError(f"erased mode {bad} out of range for {n}-mode code")
    erased = np.zeros((len(patterns), n), dtype=bool)
    erased[np.repeat(np.arange(len(patterns)), sizes), modes] = True
    return erased


def correctable(code: StabilizerCode, patterns: Sequence[ErasurePattern]) -> list[bool]:
    """Decide erasure correctability of each pattern: ``correctable_mask`` of its ``erasure_mask``."""
    return correctable_mask(code, erasure_mask(code, patterns)).tolist()


def correctable_mask(code: StabilizerCode, erased: np.ndarray) -> np.ndarray:
    """Decide erasure correctability of each row of ``erased``, a G x n boolean mask of erased modes.

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
    integer block.  The restriction ranks of an integer block are exact, but
    for the residuals below that are not monomial; those, and every rank of
    a non-integer block, are float, each taken against the scale of the
    whole block, not of the column slice.

    The mask and its complement serve all four ranks.  A unit-pivot block
    takes each rank as its exact pivot count plus the rank of a residual of
    its free columns,

      rank M[:, S] = |S & P| + rank W[R_S, S & F]

    (``_Block.ranks``), with no SVD for a monomial residual and one stacked
    SVD per shape of the others.  For a vertex pattern of the general code
    this turns rank X[:, E], a C(N-1,2) x C(N-1,2) slice, into an
    (N-2)-square monomial residual, and takes no SVD of either block.  Any
    other block takes each rank on the column slice: exactly for an integer
    block, and by one stacked SVD per |S| for a non-integer one.  The P
    side is taken only for the rows whose X side holds.  Verdicts come back
    as a boolean array, in the order of the rows.
    """
    if erased.dtype != bool or erased.ndim != 2 or erased.shape[1] != code.n_modes:
        raise ValueError(
            f"erased must be a boolean mask of {code.n_modes} columns, got {erased.dtype} {erased.shape}"
        )
    sizes, kept, live = erased.sum(1), ~erased, np.arange(len(erased))
    # (a, b) = (P, X), the X side, then (X, P) on the rows it kept
    for a, b in (code._blocks[::-1], code._blocks):
        live = live[sizes[live] - a.ranks(erased[live]) == len(b.rows) - b.ranks(kept[live])]
    verdicts = np.zeros(len(erased), dtype=bool)
    verdicts[live] = True
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
