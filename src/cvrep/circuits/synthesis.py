"""Turn an invertible position-basis matrix into a gate sequence.

``synthesize(A)`` produces a circuit of QND couplings, single-wire squeezes
and swaps whose action on the position vector is exactly ``x -> A x`` (the
momenta then transform by A^-T, the unique symplectic completion).

The construction runs Gauss-Jordan elimination on A, reducing it to the
identity; each step appends the gate that undoes it to four columns (kind,
wire a, wire b, value: the IR's ``_Columns``), and the circuit is those
gates, last step first.  Each row operation maps to one gate:

    row_i += c * row_j   ->  Qnd(control=labels[j], target=labels[i], gain=-c)
    row_i *= c           ->  SqueezeFactor(labels[i], 1/c)
    swap rows i, j       ->  Swap(labels[i], labels[j])

No op object is built on the way.  The columns need none of an op's or a
``Circuit``'s checks: every value in them has passed ``isfinite`` (and a
squeeze factor, the inverse of a finite number, is not zero), and their
wires are distinct by construction (i != j in every QND, p != j in a
swap) among labels that are checked once.  ``cvrep synth`` writes its text
straight from them (``ir._serialize_columns``); ``synthesize`` builds its
``Circuit`` from them (``ir._circuit``), each op checked by its row as usual.

Pivot choice changes which circuit comes out, not what it computes.  The
default prefers pivots that keep gains integral (exact 1 first, then any
integer, then the largest entry for numerical safety), and ``pivot_rows``
overrides it per column for callers that want one specific layout.

The elimination holds A in one NumPy array and clears each column in one
step: the rows whose entry in the column is not zero all take
``M[rows] -= outer(m, M[j])``, with m their entries, at once.  The pivot
search, the zero tests and the gains read the column as Python floats.  The
update uses elementwise ufuncs only, never ``@``, ``dot`` or ``einsum``:
each entry rounds once for the product and once for the difference, as
``M[i] += -m * M[j]`` does row by row, where a fused multiply-add would
round once and change a gain's last bit.  So the circuit is the one a
row-by-row NumPy elimination gives, bit for bit, at every n.  A column
costs a few NumPy calls whatever its length: from n of about a dozen on
that is faster than updating row by row in Python, and below it slower.
When the rows it clears are a contiguous range, as in a dense column
(rows j+1..n-1, then j-1..0 in back-substitution), they are one basic
slice ``M[lo:hi+1]``, the gains in ascending row order, and no index
array is built, gathered from or scattered back to; scattered rows take
the index array.  The arithmetic of every entry is the same either way.

Every result is checked against its own target matrix before being
returned, so a successful call is self-certifying; its limit scales with
max|A|.  The check never replays the elimination: it folds the columns'
x rows from the op table's gate blocks (the interpreter's
``_fold_positions``: one block stack per kind, from one call of the
kind's table block on its ops' values, and one rank-1 update per run of
QNDs sharing a control, through one slice when its targets are a
contiguous range) and compares them with A, as ``deviation`` does for
any ``Circuit``.

An entry counts as zero at ``_ZERO`` times its row's size: the row's
largest entry in A, times every factor the row has since been scaled by.
A column left with no nonzero entry to pivot on is the one verdict that
A is singular, so the verdict does not depend on the scale of A's rows.
A pivot, gain or squeeze factor that leaves float range raises
SynthesisError as it is taken, as does a deviation that is not a number.
"""

from __future__ import annotations

from itertools import repeat
from math import isfinite

import numpy as np

from ..tolerances import TOL
from .interpreter import _fold_positions

# Not used here.  The benchmark's self-test (bench/selftest.py) checks that
# its tracer wraps this re-exported name.
from .interpreter import symplectic_of  # noqa: F401
from .ir import OPS, Circuit, Qnd, SqueezeFactor, Swap, _circuit, _columns, _Columns, _labels

__all__ = ["synthesize", "deviation", "SynthesisError"]

#: elimination cutoff, in units of the row size
_ZERO = 1e-12

# the kinds of gate the elimination emits
_QND, _SQUEEZE, _SWAP = OPS[Qnd], OPS[SqueezeFactor], OPS[Swap]


class SynthesisError(ValueError):
    pass


def _default_pivot(col: list[float], j: int, size: list[float]) -> int:
    """Pivot row for column j: an exact 1 first, then any integer, then the largest entry."""
    candidates = [i for i in range(j, len(col)) if abs(col[i]) > _ZERO * size[i]]
    if not candidates:
        raise SynthesisError(f"matrix is singular: no pivot available in column {j}")
    ones = [i for i in candidates if col[i] == 1.0]
    ints = [i for i in candidates if col[i].is_integer()]
    return (ones or ints or [max(candidates, key=lambda i: abs(col[i]))])[0]


def _out_of_range(j: int) -> SynthesisError:
    return SynthesisError(f"the elimination leaves float range in column {j}")


def _finite(value: float, j: int) -> float:
    """``value`` unchanged; SynthesisError if the elimination of column j has left float range."""
    if not isfinite(value):
        raise _out_of_range(j)
    return value


def _eliminate(A: np.ndarray, labels: tuple[int, ...], pivot_rows) -> _Columns:
    """Row-reduce A to the identity; the gates undoing each step, last step first, as columns."""
    n = A.shape[0]
    if pivot_rows is not None and len(pivot_rows) != n:
        raise SynthesisError(
            f"pivot_rows must supply one row per column: got {len(pivot_rows)} for n={n}"
        )
    M = np.array(A, dtype=float)
    size = np.abs(M).max(axis=1).tolist()
    columns = _Columns(labels, [], [], [], [])
    kinds, wire_a, wire_b, values = columns[1:]

    def append(kind, a, b, value):
        kinds.append(kind)
        wire_a.append(a)
        wire_b.append(b)
        values.append(value)

    def clear(j, col, rows):
        """From each of ``rows`` whose entry in column j (``col``) is not zero, subtract it times row j."""
        rows = [i for i in rows if abs(col[i]) > _ZERO * size[i]]
        if not rows:
            return
        gains = [col[i] for i in rows]
        if not all(map(isfinite, gains)):
            raise _out_of_range(j)
        # a - m*b is a + (-m)*b bit for bit: negation is exact, and separate
        # ufuncs round the product and the difference once each, never fused
        first, last = rows[0], rows[-1]
        if len(rows) == 1:  # basic indexing: a third of the cost of the fancy update
            M[first] -= gains[0] * M[j]
        elif abs(last - first) == len(rows) - 1:
            # rows run one way through a range, so a span this short is
            # contiguous: one basic slice, its gains in ascending row order
            if first < last:
                M[first : last + 1] -= np.multiply.outer(gains, M[j])
            else:
                M[last : first + 1] -= np.multiply.outer(gains[::-1], M[j])
        else:
            M[np.array(rows)] -= np.multiply.outer(gains, M[j])
        kinds.extend(repeat(_QND, len(rows)))
        wire_a.extend(repeat(labels[j], len(rows)))
        wire_b.extend([labels[i] for i in rows])
        values.extend(gains)

    # an overflow is caught by the finiteness tests, as the pivot or gain it makes is taken
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            col = M[:, j].tolist()
            if pivot_rows is not None:
                p = int(pivot_rows[j])
                if not (j <= p < n):
                    raise SynthesisError(
                        f"pivot_rows[{j}]={p} out of range: must be a row index in [{j}, {n})"
                    )
                if abs(col[p]) <= _ZERO * size[p]:
                    raise SynthesisError(
                        f"pivot_rows[{j}]={p} selects a zero entry in column {j}"
                    )
            else:
                p = _default_pivot(col, j, size)
            if p != j:
                M[j], M[p] = M[p].copy(), M[j].copy()
                col[j], col[p] = col[p], col[j]
                size[j], size[p] = size[p], size[j]
                append(_SWAP, labels[j], labels[p], None)
            if col[j] != 1.0:
                c = _finite(1.0 / _finite(col[j], j), j)
                M[j] *= c
                size[j] *= abs(c)
                append(_SQUEEZE, labels[j], None, _finite(1.0 / c, j))
            clear(j, col, range(j + 1, n))
        for j in range(n - 1, 0, -1):
            clear(j, M[:j, j].tolist(), range(j - 1, -1, -1))
    for column in columns[1:]:
        column.reverse()
    return columns


def deviation(circuit: Circuit, A) -> float:
    """max |achieved - A| between a circuit's action on the positions and A.

    The domain is unitary circuits that map positions to positions alone:
    every op's gate block is ``diag(M, M^-T)`` and none has a shift, as
    with the QNDs, squeezes and swaps that ``synthesize`` emits.  Raises
    TypeError on any other op and ValueError unless A is n x n for the
    circuit's n wires.
    """
    n = circuit.n_modes
    A = np.asarray(A, dtype=float)
    if A.shape != (n, n):
        raise ValueError(f"target must be {n}x{n} for a circuit on {n} wires, got shape {A.shape}")
    return _deviation(_columns(circuit), A)


def _deviation(columns: _Columns, A: np.ndarray) -> float:
    """``deviation`` of the circuit the columns hold from an n x n float A."""
    return float(np.max(np.abs(_fold_positions(columns) - A)))


def synthesize(
    A,
    labels: tuple[int, ...] | None = None,
    *,
    pivot_rows: tuple[int, ...] | None = None,
) -> Circuit:
    """Circuit computing the position-basis map x -> A x on the given wires.

    ``labels`` names the wires (defaults to 1..n); row/column i of A is
    wire labels[i].  ``pivot_rows[j]`` forces the elimination pivot for
    column j to the row currently at that index.
    """
    return _circuit(_synthesize(A, labels, pivot_rows=pivot_rows)[0])


def _synthesize(
    A,
    labels: tuple[int, ...] | None = None,
    *,
    pivot_rows: tuple[int, ...] | None = None,
) -> tuple[_Columns, float]:
    """``synthesize``'s circuit as columns, and its deviation from A (``deviation``)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise SynthesisError(f"expected a square matrix, got shape {A.shape}")
    if A.size == 0:
        raise SynthesisError("matrix is empty")
    if not np.all(np.isfinite(A)):
        raise SynthesisError("matrix entries must be finite")
    n = A.shape[0]
    labels = tuple(range(1, n + 1)) if labels is None else tuple(labels)
    if len(labels) != n:
        raise SynthesisError(f"{n}x{n} matrix needs {n} labels, got {len(labels)}")
    columns = _eliminate(A, _labels(labels), pivot_rows)
    err = _deviation(columns, A)
    limit = TOL.synthesis * max(1.0, float(np.max(np.abs(A))))
    if not err <= limit:
        raise SynthesisError(
            f"synthesized circuit deviates from its target by {err:.3e} "
            f"(limit {limit:.1e}); the matrix is too ill-conditioned "
            f"for this pivot choice"
        )
    return columns, err
