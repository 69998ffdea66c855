"""Simplicial (co)homology of the (N-1)-simplex, specialized to k <= 2.

Chain bases are the sorted (k+1)-subsets of {1..N} in lexicographic order, so
the 1-chain basis lines up index-for-index with codes.EdgeBasis.  Each
boundary d_k is held as a face table: for each (k+1)-subset (one column),
the lexicographic ranks of its k + 1 faces with signs (-1)^m, so it takes
k + 1 entries per column where a dense d_2 would take C(N, 2).
``boundary_matrix`` is the same map as a dense exact integer array.
d_k d_{k+1} = 0 is checked exactly from the (k+2)(k+1) face-of-face entries
of each column: while the signs are small enough that every sum is an
integer below 2^53, by one float ``np.bincount`` over (column, row) keys,
and past that, column by column in Python ints.
Row spaces are compared by rank equality, as ``codes._Block.same_span``
decides it: exactly for integer rows, and otherwise in float, with all three
ranks at the scale of the stacked rows.

``build_homological_code`` reads a stabilizer code off the complex; its
erasures are decided by ``codes.correctable``, as for any other code.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import chain, combinations

import numpy as np

from ._introws import _EXACT
from ._value import Value
from .codes import StabilizerCode, _Block

__all__ = [
    "ChainComplex",
    "FaceTable",
    "boundary_matrix",
    "face_table",
    "chain_complex",
    "butterfly_matrix",
    "build_homological_code",
    "rowspaces_equal",
]


def boundary_matrix(N: int, k: int) -> np.ndarray:
    """d_k: C_k -> C_{k-1} of the simplex on {1..N}; C_{-1} is identified with R.

    d e_{i1..i(k+1)} = sum_m (-1)^m e_{omit i_m}: ``face_table(N, k)`` as a
    dense int array.
    """
    return face_table(N, k).dense()


class FaceTable(Value):
    """A boundary map held column by column: column j is sum_m signs[j, m] e_{faces[j, m]}.

    ``faces`` and ``signs`` are (columns x entries) integer arrays.  On the
    simplex, column j's entries are its k + 1 faces, by lexicographic rank,
    with signs (-1)^m, so the map has k + 1 nonzero entries per column
    however large ``shape`` grows.
    """

    __slots__ = ("shape", "faces", "signs")

    def __init__(self, shape: tuple[int, int], faces: np.ndarray, signs: np.ndarray):
        rows, cols = shape
        if faces.shape != signs.shape or len(faces) != cols:
            raise ValueError(
                f"faces {faces.shape} and signs {signs.shape} "
                f"need one equal row per column of a {rows} x {cols} map"
            )
        if faces.size and not (0 <= faces.min() and faces.max() < rows):
            raise ValueError(f"face ranks must lie in 0..{rows - 1}")
        self._set(shape, faces, signs)

    def dense(self) -> np.ndarray:
        D = np.zeros(self.shape, dtype=int)
        # a simplex's faces are distinct rows, so no entry is written twice
        D[self.faces, np.arange(self.shape[1])[:, None]] = self.signs
        return D


def face_table(N: int, k: int) -> FaceTable:
    """d_k of the simplex on {1..N} as a face table (see ``boundary_matrix``)."""
    if N < 3:
        raise ValueError(f"need N >= 3, got {N}")
    if k not in (0, 1, 2):
        raise ValueError(f"only k in {{0,1,2}} supported, got {k}")
    return _face_table(_subsets(N, k + 1), N)


def _face_table(simplices: np.ndarray, N: int) -> FaceTable:
    """The boundary columns of the given simplices, sorted rows of {0..N-1}."""
    n, k = simplices.shape[0], simplices.shape[1] - 1
    # face m omits vertex m
    omit = np.array([[i for i in range(k + 1) if i != m] for m in range(k + 1)], dtype=np.intp)
    faces = _lex_rank(simplices[:, omit].reshape(n * (k + 1), k), N).reshape(n, k + 1)
    signs = np.broadcast_to((-1) ** np.arange(k + 1), faces.shape)
    return FaceTable((math.comb(N, k), n), faces, signs)


def _subsets(N: int, size: int) -> np.ndarray:
    """The size-subsets of {0..N-1} as sorted rows, in lexicographic order."""
    flat = chain.from_iterable(combinations(range(N), size))
    return np.fromiter(flat, dtype=np.intp).reshape(-1, size)


def _lex_rank(subsets: np.ndarray, N: int) -> np.ndarray:
    """Position of each sorted row among the lexicographically ordered subsets of {0..N-1}.

    A row c_0 < .. < c_(k-1) sits at C(N, k) - 1 - sum_i C(N-1-c_i, k-i).
    """
    k = subsets.shape[1]
    binom = _binomials(N, k)
    ranks = np.full(len(subsets), math.comb(N, k) - 1)
    for i in range(k):
        ranks -= binom[N - 1 - subsets[:, i], k - i]
    return ranks


@cache
def _binomials(N: int, k: int) -> np.ndarray:
    return np.array([[math.comb(m, j) for j in range(k + 1)] for m in range(N + 1)])  # C(m, j), once per (N, k)


def _max_abs(a: np.ndarray) -> int:
    """max |entry| of an integer array, as a Python int (0 for an empty one)."""
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _composes_to_zero(low: FaceTable, high: FaceTable) -> bool:
    """low @ high == 0, exactly.

    Column j of the product gathers sign(j, f) sign(f, g) at row g for each
    face f of j and each face g of f; it vanishes when the entries at every
    row g sum to 0.  A column has T = (faces per column of high) x (faces
    per column of low) terms.  While max|sign of high| max|sign of low| T
    stays below 2^53, every term and every partial sum of a product entry
    is an integer below 2^53, so float arithmetic is exact: all entries are
    summed by one ``np.bincount`` over (column, row) keys, into an array the
    size of the dense product.  Past that bound, each column's terms are
    sorted by row and summed as Python ints.
    """
    shape = (high.faces.shape[0], high.faces.shape[1] * low.faces.shape[1])
    rows = low.faces[high.faces].reshape(shape)
    if not rows.size:
        return True
    if _max_abs(high.signs) * _max_abs(low.signs) * shape[1] < _EXACT:
        terms = high.signs[:, :, None] * low.signs[high.faces]
        keys = rows + low.shape[0] * np.arange(shape[0])[:, None]
        return not np.bincount(keys.ravel(), weights=terms.ravel().astype(float)).any()
    terms = (high.signs[:, :, None].astype(object) * low.signs[high.faces]).reshape(shape)
    order = np.argsort(rows, axis=1, kind="stable")
    rows, terms = np.take_along_axis(rows, order, axis=1), np.take_along_axis(terms, order, axis=1)
    # each column's run of equal rows is one entry of the product
    starts = np.ones(rows.shape, dtype=bool)
    starts[:, 1:] = rows[:, 1:] != rows[:, :-1]
    return not np.add.reduceat(terms.ravel(), np.flatnonzero(starts)).any()


class ChainComplex(Value):
    __slots__ = ("N", "boundary")

    def __init__(self, N: int, boundary: dict[int, FaceTable]):
        for k in (0, 1):
            low, high = boundary[k], boundary[k + 1]
            if low.shape[1] != high.shape[0]:
                rows, cols = low.shape
                raise ValueError(f"d_{k} is {rows} x {cols} but d_{k+1} has {high.shape[0]} rows")
            if not _composes_to_zero(low, high):
                raise ValueError(f"not a chain complex: d_{k} d_{k+1} != 0")
        self._set(N, boundary)


def chain_complex(N: int) -> ChainComplex:
    return ChainComplex(N, {k: face_table(N, k) for k in (0, 1, 2)})


def butterfly_matrix(N: int) -> np.ndarray:
    """(N-1) x N basis of the Q subspace: all-ones row, then e_1 + e_j rows.

    Chosen so that deleting any single column leaves an invertible minor.
    """
    if N < 4:
        raise ValueError(f"need N >= 4, got {N}")
    M = np.zeros((N - 1, N), dtype=int)
    M[0, :] = 1
    for i in range(1, N - 1):
        M[i, 0] = 1
        M[i, i] = 1
    return M


def build_homological_code(N: int) -> StabilizerCode:
    """Code from the chain complex: X rows from Im d_2, P rows from d_1^T Q.

    X rows are the boundaries of the triangles through vertex N -- a different
    spanning set of the loop space than the graph construction's vertex-1
    triangles, so span comparisons between the two are non-trivial.  P rows
    carry a global minus sign relative to d_1^T (with the omit-one-vertex sign
    convention, d_1^T e_j is the negated star of vertex j); the sign makes the
    rows equal the graph code's w vectors exactly.  Q is the butterfly
    matrix without its all-ones row, so P row i is -(q_i d_1).
    """
    if N < 4:
        raise ValueError(f"need N >= 4, got {N}")
    d1 = boundary_matrix(N, 1)
    triangles = _subsets(N, 3)
    d2 = _face_table(triangles[triangles[:, 2] == N - 1], N)
    x_rows = np.zeros(d2.shape[::-1])
    x_rows[np.arange(d2.shape[1])[:, None], d2.faces] = d2.signs
    q = butterfly_matrix(N)[1:]
    p_rows = -(d1.T @ q.T).T.astype(float)
    return StabilizerCode(d1.shape[1], x_rows, p_rows, name=f"homological-{N}")


def rowspaces_equal(A: np.ndarray, B: np.ndarray) -> bool:
    """Equal row spaces: rank A == rank B == rank [A; B].

    Exact when every entry of A and B is an integral float; otherwise the
    three ranks are float, all at the scale of [A; B] (``_Block.same_span``).
    """
    return _Block(A).same_span(_Block(B))
