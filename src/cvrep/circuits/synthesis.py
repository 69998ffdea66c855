"""Turn an invertible position-basis matrix into a gate sequence.

``synthesize(A)`` produces a circuit of QND couplings, single-wire squeezes
and swaps whose action on the position vector is exactly ``x -> A x`` (the
momenta then transform by A^-T, the unique symplectic completion).

The construction runs Gauss-Jordan elimination on A, recording the row
operations that reduce it to the identity; the circuit is that script
reversed with every step inverted.  Each recorded row operation maps to one
gate:

    row_i += c * row_j   ->  Qnd(control=labels[j], target=labels[i], gain=-c)
    row_i *= c           ->  SqueezeFactor(labels[i], 1/c)
    swap rows i, j       ->  Swap(labels[i], labels[j])

Pivot choice changes which circuit comes out, not what it computes.  The
default prefers pivots that keep gains integral (exact 1 first, then any
integer, then the largest entry for numerical safety), and ``pivot_rows``
overrides it per column for callers that want one specific layout.

Every result is checked against its own target matrix before being
returned, so a successful call is self-certifying; its limit scales with
max|A|.  The check never replays the script: ``deviation`` folds the
circuit's x rows from the op table's gate blocks (the interpreter's
``_fold_positions``, one rank-1 update per run of QNDs sharing a control)
and compares them with A.

An entry counts as zero at ``_ZERO`` times its row's size: the row's
largest entry in A, times every factor the row has since been scaled by.
"""

from __future__ import annotations

import numpy as np

from ..tolerances import TOL
from .interpreter import _fold_positions

# Not used here.  The benchmark's self-test (bench/selftest.py) checks that
# its tracer wraps this re-exported name.
from .interpreter import symplectic_of  # noqa: F401
from .ir import Circuit, Qnd, SqueezeFactor, Swap

__all__ = ["synthesize", "deviation", "SynthesisError"]

#: elimination cutoff, in units of the row size
_ZERO = 1e-12


class SynthesisError(ValueError):
    pass


def _default_pivot(col: np.ndarray, j: int, n: int, size: np.ndarray) -> int:
    """Pivot row for column j: an exact 1 first, then any integer, then the largest entry."""
    candidates = [i for i in range(j, n) if abs(col[i]) > _ZERO * size[i]]
    if not candidates:
        raise SynthesisError(f"matrix is singular: no pivot available in column {j}")
    ones = [i for i in candidates if col[i] == 1.0]
    ints = [i for i in candidates if float(col[i]).is_integer()]
    return (ones or ints or [max(candidates, key=lambda i: abs(col[i]))])[0]


def _reduction_script(A: np.ndarray, pivot_rows) -> list[tuple]:
    """Row-reduce A to the identity, returning the op script in applied order."""
    n = A.shape[0]
    if pivot_rows is not None and len(pivot_rows) != n:
        raise SynthesisError(
            f"pivot_rows must supply one row per column: got {len(pivot_rows)} for n={n}"
        )
    M = A.astype(float).copy()
    size = np.max(np.abs(M), axis=1)
    script: list[tuple] = []

    def swap(i, j):
        M[[i, j]] = M[[j, i]]
        size[[i, j]] = size[[j, i]]
        script.append(("swap", i, j))

    def scale(i, c):
        M[i] *= c
        size[i] *= abs(c)
        script.append(("scale", i, c))

    def add(i, j, c):
        M[i] += c * M[j]
        script.append(("add", i, j, c))

    for j in range(n):
        if pivot_rows is not None:
            p = int(pivot_rows[j])
            if not (j <= p < n):
                raise SynthesisError(
                    f"pivot_rows[{j}]={p} out of range: must be a row index in [{j}, {n})"
                )
            if abs(M[p, j]) <= _ZERO * size[p]:
                raise SynthesisError(
                    f"pivot_rows[{j}]={p} selects a zero entry in column {j}"
                )
        else:
            p = _default_pivot(M[:, j], j, n, size)
        if p != j:
            swap(j, p)
        if M[j, j] != 1.0:
            scale(j, 1.0 / M[j, j])
        for i in range(j + 1, n):
            if abs(M[i, j]) > _ZERO * size[i]:
                add(i, j, -M[i, j])
    for j in range(n - 1, 0, -1):
        for i in range(j - 1, -1, -1):
            if abs(M[i, j]) > _ZERO * size[i]:
                add(i, j, -M[i, j])
    return script


def _script_to_ops(script: list[tuple], labels: tuple[int, ...]) -> list:
    ops = []
    for step in reversed(script):
        if step[0] == "add":
            _, i, j, c = step
            ops.append(Qnd(control=labels[j], target=labels[i], gain=float(-c)))
        elif step[0] == "scale":
            _, i, c = step
            ops.append(SqueezeFactor(labels[i], float(1.0 / c)))
        else:
            _, i, j = step
            ops.append(Swap(labels[i], labels[j]))
    return ops


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
    return float(np.max(np.abs(_fold_positions(circuit) - A)))


def _build(A: np.ndarray, labels: tuple[int, ...], script: list[tuple]) -> tuple[Circuit, float]:
    circuit = Circuit(labels, tuple(_script_to_ops(script, labels)))
    err = deviation(circuit, A)
    limit = TOL.synthesis * max(1.0, float(np.max(np.abs(A))))
    if err > limit:
        raise SynthesisError(
            f"synthesized circuit deviates from its target by {err:.3e} "
            f"(limit {limit:.1e}); the matrix is too ill-conditioned "
            f"for this pivot choice"
        )
    return circuit, err


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
    return _synthesize(A, labels, pivot_rows=pivot_rows)[0]


def _synthesize(
    A,
    labels: tuple[int, ...] | None = None,
    *,
    pivot_rows: tuple[int, ...] | None = None,
) -> tuple[Circuit, float]:
    """``synthesize``, also returning the circuit's deviation from A (``deviation``)."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise SynthesisError(f"expected a square matrix, got shape {A.shape}")
    if A.size == 0:
        raise SynthesisError("matrix is empty")
    if not np.all(np.isfinite(A)):
        raise SynthesisError("matrix entries must be finite")
    n = A.shape[0]
    if labels is None:
        labels = tuple(range(1, n + 1))
    labels = tuple(int(v) for v in labels)
    if len(labels) != n:
        raise SynthesisError(f"{n}x{n} matrix needs {n} labels, got {len(labels)}")
    if np.linalg.matrix_rank(A) < n:
        raise SynthesisError("matrix is singular")
    return _build(A, labels, _reduction_script(A, pivot_rows))
