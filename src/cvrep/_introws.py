"""Exact rank and row-space membership of integer matrices.

A matrix is held by its nonzero entries: the row and column index arrays of
``np.nonzero`` and the values there.  Its rank is found in two steps.

- Peel.  A row that owns a column no other remaining row touches is
  independent of every other remaining row: any vanishing combination has a
  zero coefficient on it, read off that column.  So it adds 1 to the rank
  with no arithmetic.  Each pass removes every such row at once, in NumPy
  over the index arrays (O(nnz), no block-sized temporaries), and passes
  repeat until no row owns a column.
- Eliminate.  The rows left after peeling are reduced by sparse
  fraction-free elimination in Python ints (Bareiss, Math. Comp. 22, 565
  (1968)): rows as ``{col: int}``, each divided by the gcd of its entries,
  the sparsest row pivoting first.  Each row that is not reduced to zero
  adds 1 to the rank.

Unit pivots.  When every row peels, each on a pivot of +-1 in a column no
other row of the whole matrix touches (``IntRows.unit_pivots``), A is a
signed permutation in its pivot columns, and two readers use that:

- Membership (every row of B lies in the row space of A) is rank [A; B] ==
  rank A, exactly.  With unit pivots a row b of A's row space is
  sum_i b[piv_i] / A[i, piv_i] A_i, so B lies in it iff B - C A == 0 with
  C = B[:, piv] / A[rows, piv].  C is then an integer matrix, and B - C A is
  summed in float from the nonzero entries alone: it is exact while every
  partial sum stays below 2^53, which the bound k max|C| max|A| + max|B| <
  2^53 (k rows of A) guarantees.  Past it, the exact rank of the stack
  decides.
- Restriction ranks.  With W = A[:, free], rank A[:, S] = |S & piv| +
  rank W[R_S, S & free], R_S the rows whose pivot is not in S: a row whose
  pivot lies in S owns a column of the slice, and every other row is zero
  on S & piv.  The count is exact; only the residual's rank is left, and
  it is small (``codes._Block.ranks``).
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

#: integers up to this magnitude are exact as floats, and so are their float sums
_EXACT = 2.0**53


class IntRows:
    """The nonzero entries of an integer matrix, peeled, and its exact rank."""

    def __init__(self, shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray, values: np.ndarray):
        """``rows`` (sorted), ``cols`` and ``values`` list the nonzero entries, integral floats."""
        self.shape, self.rows, self.cols, self.values = shape, rows, cols, values
        pivots, rest = _peel(rows, cols, shape)
        #: the entries at which the peeled rows own their columns, one per row
        self.pivots = pivots
        self.rank = len(pivots)
        if rest.size:
            self.rank += _eliminate(_dict_rows(rows[rest], cols[rest], values[rest]))

    @classmethod
    def of(cls, M: np.ndarray) -> IntRows | None:
        """M's exact rows, or None unless every entry of M is a finite integral float."""
        # np.nonzero(M), in row-major order: the flat scan of a boolean mask
        # is several times faster than np.nonzero's of a 2-D float array
        rows, cols = np.divmod((M != 0).ravel().nonzero()[0], M.shape[1])
        values = M[rows, cols]
        if not (np.isfinite(values).all() and (values == np.rint(values)).all()):
            return None
        return cls(M.shape, rows, cols, values)

    @cached_property
    def unit_pivots(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The pivot entries' rows, columns and values, or None unless they are unit pivots.

        Unit pivots: every row peels (a zero row never does), each pivot is
        +-1, and no other row touches a pivot's column.  A row peeled in a
        later pass may share its pivot column with a row peeled before it,
        so the last is tested on the whole matrix.
        """
        if len(self.pivots) < self.shape[0]:
            return None
        values, cols = self.values[self.pivots], self.cols[self.pivots]
        sole = np.bincount(self.cols, minlength=self.shape[1])[cols] == 1
        if not (sole.all() and (np.abs(values) == 1).all()):
            return None
        return self.rows[self.pivots], cols, values

    def spans(self, other: IntRows) -> bool:
        """Every row of ``other`` lies in the row space of these rows."""
        holds = self._peeled_spans(other)
        if holds is not None:
            return holds
        k = self.shape[0]
        stack = IntRows(
            (k + other.shape[0], self.shape[1]),
            np.concatenate([self.rows, other.rows + k]),
            np.concatenate([self.cols, other.cols]),
            np.concatenate([self.values, other.values]),
        )
        return stack.rank == self.rank

    def _peeled_spans(self, other: IntRows) -> bool | None:
        """B - C A == 0 in float (see the module docstring), or None where that is not exact."""
        if self.unit_pivots is None:
            return None
        k, n = self.shape
        pivot_rows, pivot_cols, pivot_values = self.unit_pivots
        owner = np.full(n, -1)
        owner[pivot_cols] = pivot_rows
        sign = np.zeros(k)
        sign[pivot_rows] = pivot_values
        # the entries of C: other's entries in the pivot columns, over the pivot (+-1)
        hit = owner[other.cols] >= 0
        c_rows, c_of = other.rows[hit], owner[other.cols[hit]]
        c_values = other.values[hit] * sign[c_of]
        c_max, a_max, b_max = (np.abs(v).max(initial=0.0) for v in (c_values, self.values, other.values))
        if k * c_max * a_max + b_max >= _EXACT:
            return None
        # row c_of of A, once for each entry of C: A's rows are runs of its sorted entries
        length = np.bincount(self.rows, minlength=k)
        start = np.cumsum(length) - length
        run = length[c_of]
        entry = np.arange(run.sum()) + np.repeat(start[c_of] - (np.cumsum(run) - run), run)
        keys = np.concatenate([np.repeat(c_rows, run) * n + self.cols[entry], other.rows * n + other.cols])
        terms = np.concatenate([np.repeat(c_values, run) * self.values[entry], -other.values])
        _, slot = np.unique(keys, return_inverse=True)
        return not np.bincount(slot, weights=terms).any()


def _peel(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The pivot entries of the rows that peel, and the entries of the rows left.

    Both are index arrays into the entry arrays.  A peeled row's pivot is its
    first entry in a column that no other row remaining in that pass touches.
    """
    gone = np.zeros(shape[0], dtype=bool)
    live = np.arange(rows.size)
    pivots = []
    while live.size:
        c = cols[live]
        alone = live[np.bincount(c, minlength=shape[1])[c] == 1]
        if not alone.size:
            break
        owners = rows[alone]  # sorted, as the entries are
        first = np.ones(alone.size, dtype=bool)
        first[1:] = owners[1:] != owners[:-1]
        pivots.append(alone[first])
        gone[owners] = True
        live = live[~gone[rows[live]]]
    return (np.concatenate(pivots) if pivots else live[:0]), live


def _dict_rows(rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> list[dict[int, int]]:
    """The entries grouped into one primitive ``{col: int}`` per row."""
    grouped: dict[int, dict[int, int]] = {}
    for r, c, v in zip(rows.tolist(), cols.tolist(), values.tolist()):
        grouped.setdefault(r, {})[c] = int(v)
    return [_primitive(row) for row in grouped.values()]


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """The row divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _eliminate(rows: list[dict[int, int]]) -> int:
    """Rank of the nonzero integer rows, by sparse fraction-free elimination.

    The sparsest row pivots on its entry of least magnitude; every other row
    holding that column becomes a * row - b * pivot (a and b the pivot entry
    and the row's entry over their gcd), which clears the column, and is
    made primitive.  The arithmetic is exact, in Python ints.
    """
    rank = 0
    while rows:
        pivot = rows.pop(min(range(len(rows)), key=lambda i: len(rows[i])))
        col = min(pivot, key=lambda c: abs(pivot[c]))
        p = pivot[col]
        rank += 1
        reduced = []
        for row in rows:
            r = row.get(col)
            if r is not None:
                g = math.gcd(p, r)
                a, b = p // g, r // g
                row = {c: a * v for c, v in row.items()}
                for c, v in pivot.items():
                    w = row.get(c, 0) - b * v
                    if w:
                        row[c] = w
                    else:
                        row.pop(c, None)
                if not row:
                    continue
                row = _primitive(row)
            reduced.append(row)
        rows = reduced
    return rank
