"""Run circuits on Gaussian states by folding them into one affine map.

Every gate is read as ``(modes, block, shift)`` from the op table in
:mod:`.ir` and updates only those modes' rows.  ``_fold`` turns a whole
circuit into one ``[X | d]`` array: each live quadrature is a row, an
affine function of the input's quadratures.  A measured quadrature's row
becomes its register's functional, feedforward adds ``gain`` times that
functional to its target row, and measured or discarded modes drop their
rows.  On a unitary circuit the array is ``[S | d]``: ``symplectic_of``
builds one ``SymplecticMap`` from it, the ground truth that rewrite results
and the tests are checked against, and ``op_map`` is that fold over a
single op.

``_fold_positions`` is the one other walk over a circuit's ops, for
circuits that map positions to positions alone (every op's block is
``diag(M, M^-T)`` with no shift): it keeps only the n x rows over the n
input positions, reads every QND block from the op table in one call, and
applies a run of consecutive QNDs sharing a control as one rank-1 update.
Synthesis checks its circuits with it.

``run`` executes any circuit with that one fold.  Stacking the live rows
and each register's row gives a joint Gaussian over the outputs and the
outcomes (the deferred-measurement rule MC of :mod:`.rules`: a
measurement that feeds forward is a controlled displacement followed by a
partial trace).  Averaged over every outcome, the state is its live block.
A forced or sampled outcome conditions the joint Gaussian on that
register's row, in measurement order: the same state as conditioning on
each homodyne when it happens and then feeding its outcome forward.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from ..gaussian import GaussianState, MeasurementRecord, SymplecticMap, _condition
from .ir import OPS, Circuit, FeedforwardDisplace, Measure, Qnd, spec_of

__all__ = ["op_map", "symplectic_of", "run", "RunResult"]


def _gate(spec, op, live) -> tuple:
    """``(modes, block, shift)`` of a unitary op on wires named by ``live``."""
    params = spec.params(op)
    modes = [live.index(w) for w in spec.wires(op)]
    return modes, spec.block and spec.block(*params), spec.shift and spec.shift(*params)


def _fold(ops, labels, *, symplectic: bool = False) -> tuple:
    """Fold ``ops`` over wires ``labels`` into one affine map.

    Returns ``(live, total, registers)``: the surviving labels; the
    ``[X | d]`` array whose rows are x of each live wire, then p of each,
    as affine functions of the input's quadratures; and, per register,
    ``(position, basis, row)`` of the quadrature it measured.  With
    ``symplectic=True`` a non-unitary op raises TypeError.
    """
    live = list(labels)
    n = len(live)
    total = np.eye(2 * n, 2 * n + 1)  # [X | d], identity map
    registers = {}
    for op in ops:
        spec = spec_of(op)
        k = len(live)
        if spec.unitary:
            modes, block, shift = _gate(spec, op, live)
            idx = modes + [k + m for m in modes]
            if block is not None:
                total[idx] = block @ total[idx]
            if shift is not None:
                total[idx, -1] += shift
        elif symplectic:
            raise TypeError(f"{type(op).__name__} has no symplectic representation")
        elif isinstance(op, FeedforwardDisplace):
            t = live.index(op.target)
            total[t if op.quad == "x" else k + t] += op.gain * registers[op.register][2]
        else:  # Measure or Discard: the mode's rows leave
            pos = live.index(op.mode)
            if isinstance(op, Measure):
                row = total[pos if op.basis == "x" else k + pos].copy()
                registers[op.register] = (pos, op.basis, row)
            elif k == 1:
                raise ValueError("cannot discard every mode")
            total = np.delete(total, [pos, k + pos], axis=0)
            live.pop(pos)
    return tuple(live), total, registers


def _qnd_control(op):
    return op.control if type(op) is Qnd else None


def _not_positional(op) -> TypeError:
    return TypeError(f"{type(op).__name__} does not map positions to positions alone")


def _fold_positions(circuit: Circuit) -> np.ndarray:
    """The n x n matrix X of a position-only circuit, x -> X x.

    Each op's block comes from the op table, as in ``_fold``, and only its
    x part is applied.  The table's QND block is evaluated once for the
    whole circuit, on the vector of every QND's gain.  A run of
    consecutive QNDs with one control leaves that control's row alone, so
    the whole run is one rank-1 update of its targets' rows, each by the
    gain in its block's x part.  Every other op is applied on its own.
    Raises TypeError on an op with a shift, without a block (measurement,
    feedforward, discard) or whose block mixes x and p.  The QND blocks,
    and the other blocks of each size, are checked for mixing together,
    after the fold: a check per op costs more than the fold saves.
    """
    live = list(circuit.labels)
    index = {label: i for i, label in enumerate(live)}
    X = np.eye(len(live))
    qnds = [op for op in circuit.ops if type(op) is Qnd]
    qnd_blocks = OPS[Qnd].block(np.array([op.gain for op in qnds], dtype=float))
    gains = qnd_blocks[:, 1, 0]
    by_size = defaultdict(list)  # wire count -> [(op, block)]
    done = 0  # QNDs applied so far
    for control, ops in groupby(circuit.ops, key=_qnd_control):
        if control is None:
            for op in ops:
                modes, block, shift = _gate(spec_of(op), op, live)
                if shift is not None or block is None:
                    raise _not_positional(op)
                by_size[len(modes)].append((op, block))
                k = len(modes)
                X[modes] = block[:k, :k] @ X[modes]
            continue
        targets = [index[op.target] for op in ops]
        start, done = done, done + len(targets)
        row = X[index[control]]
        if len(targets) == 1:  # basic indexing: a fifth of the cost of the fancy update
            X[targets[0]] += gains[start] * row
        elif len(set(targets)) == len(targets):
            X[targets] += np.multiply.outer(gains[start:done], row)
        else:  # unbuffered, so a target repeated within the run gets every gain
            np.add.at(X, targets, np.multiply.outer(gains[start:done], row))
    stacks = [(qnds, qnd_blocks, 2)]
    for k, gates in by_size.items():
        ops, blocks = zip(*gates)
        stacks.append((ops, np.array(blocks), k))
    for ops, blocks, k in stacks:
        if blocks[:, :k, k:].any() or blocks[:, k:, :k].any():
            mixing = (b[:k, k:].any() or b[k:, :k].any() for b in blocks)
            raise _not_positional(next(op for op, mixes in zip(ops, mixing) if mixes))
    return X


def _symplectic(ops, labels) -> SymplecticMap:
    _, total, _ = _fold(ops, labels, symplectic=True)
    return SymplecticMap(total[:, :-1], total[:, -1])


def op_map(op, labels: tuple[int, ...]) -> SymplecticMap:
    """Symplectic map of one unitary op acting on wires named by ``labels``."""
    return _symplectic((op,), labels)


def symplectic_of(circuit: Circuit) -> SymplecticMap:
    """Fold a unitary circuit into one SymplecticMap over circuit.labels.

    Raises TypeError if the circuit contains measurements, feedforward or
    discards — those are not symplectic maps on phase space.
    """
    return _symplectic(circuit.ops, circuit.labels)


@dataclass(frozen=True)
class RunResult:
    state: GaussianState
    records: dict
    labels: tuple[int, ...]


def run(
    circuit: Circuit,
    state: GaussianState,
    *,
    forced: dict | None = None,
    rng: np.random.Generator | None = None,
    average: bool = False,
) -> RunResult:
    """Execute a circuit on ``state`` (mode i of the state is labels[i]).

    Measurement outcome policy, per register: a value in ``forced`` wins,
    otherwise an ``rng`` samples it from its distribution given the earlier
    outcomes; a measurement with no applicable policy is an error rather
    than a silent default.  ``average=True`` instead returns the state
    averaged over every outcome, exactly: the state of the circuit with
    each measurement deferred past its feedforwards (rule MC), with each
    record holding its outcome's mean.  It cannot be combined with
    ``forced`` or ``rng``.

    All three policies apply the folded circuit to ``state``, so they lose
    precision alike once the input holds entries of order e^{2r}: the E4
    optical decoder's fidelity drifts from its closed form by about 3e-7 at
    r = 12 and by about 0.86 at r = 20.  ``recovery``'s compiled rows are
    the exact path.
    """
    if state.n_modes != circuit.n_modes:
        raise ValueError(
            f"state has {state.n_modes} modes but circuit has {circuit.n_modes} wires"
        )
    forced = dict(forced or {})
    live, total, registers = _fold(circuit.ops, circuit.labels)
    unknown = set(forced) - set(registers)
    if unknown:
        raise ValueError(f"forced outcomes for unknown registers: {sorted(unknown)}")
    if average:
        if forced or rng is not None:
            raise ValueError("average=True averages every outcome; it cannot take forced outcomes or an rng")
    elif rng is None:
        missing = [register for register in registers if register not in forced]
        if missing:
            raise ValueError(
                f"no outcome policy for register {missing[0]!r}: "
                f"pass forced={{...}}, rng=..., or average=True"
            )

    # The joint Gaussian of the live quadratures, then of each outcome.
    Y = np.vstack([total, *(row for _, _, row in registers.values())])
    mean = Y[:, :-1] @ state.mean + Y[:, -1]
    cov = Y[:, :-1] @ state.cov @ Y[:, :-1].T
    k = len(total)
    records = {}
    for q, (register, (pos, basis, _)) in enumerate(registers.items(), start=k):
        if average:
            outcome = float(mean[q])
        else:
            outcome, mean, cov = _condition(mean, cov, q, f"{basis}[{pos}]", forced.get(register), rng)
        records[register] = MeasurementRecord(pos, basis, outcome)
    return RunResult(GaussianState(mean[:k], cov[:k, :k], _validate=False), records, live)
