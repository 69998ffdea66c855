"""Simplicial (co)homology of the (N-1)-simplex, specialized to k <= 2.

Chain bases are the sorted (k+1)-subsets of {1..N} in lexicographic order, so
the 1-chain basis lines up index-for-index with codes.EdgeBasis.  Boundary
matrices are exact integer matrices, built from the lexicographic rank of
each face; d_k d_{k+1} = 0 is checked exactly, not approximated.  The check
runs as a float64 product, which is exact here: every entry is 0 or +-1, so
every partial sum is an integer of magnitude at most the inner dimension
C(N, k+1), far below 2**53 (integer inputs beyond that bound fall back to
an integer product).  Row spaces are compared by rank equality, as
``codes._Block.same_span`` decides it.

``build_homological_code`` reads a stabilizer code off the complex; its
erasures are decided by ``codes.correctable``, as for any other code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .codes import StabilizerCode, _Block

__all__ = [
    "ChainComplex",
    "boundary_matrix",
    "chain_complex",
    "butterfly_matrix",
    "build_homological_code",
    "rowspaces_equal",
]


def boundary_matrix(N: int, k: int) -> np.ndarray:
    """d_k: C_k -> C_{k-1} of the simplex on {1..N}; C_{-1} is identified with R.

    d e_{i1..i(k+1)} = sum_m (-1)^m e_{omit i_m}.
    """
    if N < 3:
        raise ValueError(f"need N >= 3, got {N}")
    if k not in (0, 1, 2):
        raise ValueError(f"only k in {{0,1,2}} supported, got {k}")
    if k == 0:
        return np.ones((1, N), dtype=int)
    simplices = _subsets(N, k + 1)
    cols = np.arange(len(simplices))
    D = np.zeros((math.comb(N, k), len(simplices)), dtype=int)
    # a simplex's k + 1 faces are distinct rows, so no entry is written twice
    for m in range(k + 1):
        D[_lex_rank(np.delete(simplices, m, axis=1), N), cols] = (-1) ** m
    return D


def _subsets(N: int, size: int) -> np.ndarray:
    """The size-subsets of {0..N-1} as sorted rows, in lexicographic order."""
    flat = chain.from_iterable(combinations(range(N), size))
    return np.fromiter(flat, dtype=np.intp).reshape(-1, size)


def _lex_rank(subsets: np.ndarray, N: int) -> np.ndarray:
    """Position of each sorted row among the lexicographically ordered subsets of {0..N-1}.

    A row c_0 < .. < c_(k-1) sits at C(N, k) - 1 - sum_i C(N-1-c_i, k-i).
    """
    k = subsets.shape[1]
    binom = np.array([[math.comb(m, j) for j in range(k + 1)] for m in range(N + 1)])
    return math.comb(N, k) - 1 - sum(binom[N - 1 - subsets[:, i], k - i] for i in range(k))


def _product_vanishes(A: np.ndarray, B: np.ndarray) -> bool:
    """A @ B == 0, exactly.

    Integer matrices multiply in float64 when no partial sum can reach
    2**53, a block of B's columns at a time so that the float copy stays
    small; anything else multiplies as given.
    """
    if A.dtype.kind in "iu" and B.dtype.kind in "iu" and A.size and B.size:
        if A.shape[1] * _max_abs(A) * _max_abs(B) < 2**53:
            A, step = A.astype(float), 1024
            blocks = (B[:, j : j + step].astype(float) for j in range(0, B.shape[1], step))
            return not any((A @ block).any() for block in blocks)
    return not (A @ B).any()


def _max_abs(M: np.ndarray) -> int:
    return max(int(M.max()), -int(M.min()))


@dataclass(frozen=True)
class ChainComplex:
    N: int
    boundary: dict[int, np.ndarray]

    def __post_init__(self):
        for k in (0, 1):
            if not _product_vanishes(self.boundary[k], self.boundary[k + 1]):
                raise ValueError(f"not a chain complex: d_{k} d_{k+1} != 0")


def chain_complex(N: int) -> ChainComplex:
    return ChainComplex(N, {k: boundary_matrix(N, k) for k in (0, 1, 2)})


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
    d2 = boundary_matrix(N, 2)
    triangles = list(combinations(range(1, N + 1), 3))
    cols = [i for i, t in enumerate(triangles) if N in t]
    x_rows = d2[:, cols].T.astype(float)
    q = butterfly_matrix(N)[1:]
    p_rows = -(d1.T @ q.T).T.astype(float)
    return StabilizerCode(d1.shape[1], x_rows, p_rows, name=f"homological-{N}")


def rowspaces_equal(A: np.ndarray, B: np.ndarray) -> bool:
    """Equal row spaces: rank A == rank B == rank [A; B], all at the scale of [A; B]."""
    return _Block(A).same_span(_Block(B))
