"""Run circuits on Gaussian states by folding them into one affine map.

Every gate is read from the op table in :mod:`.ir` and updates only its
modes' rows.  ``_fold`` turns a whole circuit into one ``[X | d]`` array:
each live quadrature is a row, an affine function of the input's
quadratures, with a two-mode squeezer's e^{r} and e^{-r} parts kept apart
on a power axis.  A measured quadrature's row becomes its register's
functional, feedforward adds ``gain`` times that functional to its target
row, and measured or discarded modes drop their rows.  On a unitary
circuit the array summed over its powers is ``[S | d]``: ``symplectic_of``
builds one ``SymplecticMap`` from it, the ground truth that rewrite
results and the tests are checked against, and ``op_map`` is that fold
over a single op.  ``_fold_positions`` is the one other walk, for
circuits that map positions to positions alone: it reads a circuit's
columns (``ir._Columns``: each op's kind, wires and value), so synthesis
checks the elimination's columns with it before any op object exists.

``run`` executes any circuit with that one fold, summed over its powers.
Stacking the live rows and each register's row gives a joint Gaussian
over the outputs and the outcomes (the deferred-measurement rule MC of
:mod:`.rules`: a measurement that feeds forward is a controlled
displacement followed by a partial trace).  Averaged over every outcome,
the state is its live block.  A forced or sampled outcome conditions the
joint Gaussian on that register's row (``_condition``), in measurement
order: the same state as conditioning on each homodyne when it happens
and feeding it forward.
"""

from __future__ import annotations

from itertools import cycle

import numpy as np

from .._value import Value
from ..gaussian import GaussianState, MeasurementRecord, SymplecticMap, _condition
from .ir import OPS, Circuit, FeedforwardDisplace, Measure, Qnd, _Columns, spec_of

__all__ = ["op_map", "symplectic_of", "run", "RunResult"]


@np.errstate(over="ignore", invalid="ignore")  # a map past float range fails _summed instead
def _fold(ops, labels, *, symplectic: bool = False) -> tuple:
    """Fold ``ops`` over wires ``labels`` into one affine map.

    Returns ``(live, total, registers)``: the surviving labels; the
    ``[X | d]`` array whose rows are x of each live wire, then p of each,
    as affine functions of the input's quadratures; and, per register,
    ``(position, basis, row)`` of the quadrature it measured.  ``total``
    and the rows have a leading power axis, slices k = -K..K for the K ops
    with ``terms``, and the map is their sum.  Such an op moves its e^{r}
    term's part of its rows one power up and its e^{-r} term's one down;
    other ops act on every slice, and a shift on slice 0.  So, folded at
    r = 0, slice k is the map's e^{kr} part; with no such op it is the map.
    With ``symplectic=True`` a non-unitary op raises TypeError.
    """
    live = list(labels)
    n = len(live)
    specs = [spec_of(op) for op in ops]
    depth = sum(spec.terms is not None for spec in specs)
    total = np.zeros((2 * depth + 1, 2 * n, 2 * n + 1))
    total[depth] = np.eye(2 * n, 2 * n + 1)  # [X | d], identity map
    registers = {}
    for op, spec in zip(ops, specs):
        k = len(live)
        if spec.unitary:
            params = spec.params(op)
            modes = [live.index(w) for w in spec.wires(op)]
            idx = modes + [k + m for m in modes]
            if spec.terms is not None:
                # no power reaches an end of the axis, so nothing wraps round
                up, down = spec.terms(*params)
                rows = total[:, idx]
                total[:, idx] = np.roll(up @ rows, 1, axis=0) + np.roll(down @ rows, -1, axis=0)
            elif spec.block is not None:
                total[:, idx] = spec.block(*params) @ total[:, idx]
            if spec.shift is not None:
                total[depth, idx, -1] += spec.shift(*params)
        elif symplectic:
            raise TypeError(f"{type(op).__name__} has no symplectic representation")
        elif isinstance(op, FeedforwardDisplace):
            t = live.index(op.target)
            total[:, t if op.quad == "x" else k + t] += op.gain * registers[op.register][2]
        else:  # Measure or Discard: the mode's rows leave
            pos = live.index(op.mode)
            if isinstance(op, Measure):
                row = total[:, pos if op.basis == "x" else k + pos].copy()
                registers[op.register] = (pos, op.basis, row)
            elif k == 1:
                raise ValueError("cannot discard every mode")
            total = np.delete(total, [pos, k + pos], axis=1)
            live.pop(pos)
    return tuple(live), total, registers


def _not_positional(kind) -> TypeError:
    return TypeError(f"{kind.cls.__name__} does not map positions to positions alone")


def _first_mixing(blocks: np.ndarray, k: int) -> int | None:
    """The index of the first 2k x 2k block in a stack that maps x to p or p to x, or None."""
    xp, px = blocks[:, :k, k:], blocks[:, k:, :k]
    if not (np.count_nonzero(xp) or np.count_nonzero(px)):  # the usual case, tested whole
        return None
    return int(((xp != 0).any(axis=(1, 2)) | (px != 0).any(axis=(1, 2))).argmax())


def _fold_positions(columns: _Columns) -> np.ndarray:
    """The n x n matrix X of a position-only circuit, held as columns: x -> X x.

    It reads the four columns (``ir._columns`` gives a ``Circuit``'s):
    each op's block comes from its kind's row in the op table, as in
    ``_fold``, and only its x part is applied.  There is one block stack
    per kind: the kind's block is evaluated once per fold, on the array of
    its ops' values (a kind with no value has one block, which all its ops
    share), and the stack is tested for x/p mixing once.  A run of
    consecutive QNDs with one control leaves that control's row alone, so
    the whole run is one rank-1 update of its targets' rows, each by the
    gain in its block's x part.  Targets that are a contiguous range of
    rows, ascending or descending (as the elimination's dense columns
    give), are updated through one basic slice, its gains in ascending row
    order; other distinct targets through an index array, and a run that
    repeats a target through ``np.add.at``.  Every other op is applied on
    its own, through a slice of its row if it has one wire.  Raises
    TypeError, before the fold, naming the first op in circuit order that
    has a shift, has no block (measurement, feedforward, discard) or whose
    block mixes x and p.
    """
    labels, kinds, a, b, values = columns
    index = {label: i for i, label in enumerate(labels)}
    X = np.eye(len(index))
    qnd = OPS[Qnd]
    at = {kind: [] for kind in dict.fromkeys(kinds)}  # each kind's positions, kinds in first-appearance order
    for i, kind in enumerate(kinds):
        at[kind].append(i)
    gates = {}  # kind -> the x parts of its blocks, one per op
    culprits = {}  # kind -> its first op that does not map positions alone
    for kind, ops in at.items():
        if kind.shift is not None or kind.block is None:
            culprits[kind] = ops[0]
            continue
        if values[ops[0]] is None:  # no value: one block, which every op of the kind shares
            blocks = kind.block()[None]
        else:
            blocks = kind.block(np.array([values[i] for i in ops], dtype=float))
        k = blocks.shape[-1] // 2
        first = _first_mixing(blocks, k)
        if first is not None:
            culprits[kind] = ops[first]
        gates[kind] = blocks[:, :k, :k]
    if culprits:
        raise _not_positional(min(culprits, key=culprits.get))
    if qnd in gates:
        gains = gates.pop(qnd)[:, 1, 0]
        targets = [index[b[i]] for i in at[qnd]]
        target_rows = np.array(targets, dtype=np.intp)  # an index array: a list costs a conversion per use
    gates = {kind: cycle(x) for kind, x in gates.items()}  # in circuit order; a shared block repeats
    done = 0  # QNDs applied so far
    i = 0
    while i < len(kinds):
        kind = kinds[i]
        if kind is not qnd:
            gate = next(gates[kind])
            m = index[a[i]]
            if b[i] is None:  # basic indexing: the same matmul on a view of the row
                X[m : m + 1] = gate @ X[m : m + 1]
            else:
                modes = [m, index[b[i]]]
                X[modes] = gate @ X[modes]
            i += 1
            continue
        control = a[i]
        end = i + 1
        while end < len(kinds) and kinds[end] is qnd and a[end] == control:
            end += 1
        run = slice(done, done + end - i)
        done = run.stop
        row = X[index[control]]
        rows = targets[run]
        first, last = rows[0], rows[-1]
        if end - i == 1:  # basic indexing: a fifth of the cost of the fancy update
            X[first] += gains[run.start] * row
        elif rows == list(range(first, last + 1)):  # contiguous, ascending: one basic slice
            X[first : last + 1] += np.multiply.outer(gains[run], row)
        elif rows == list(range(first, last - 1, -1)):  # contiguous, descending
            X[last : first + 1] += np.multiply.outer(gains[run][::-1], row)
        elif len(set(rows)) == end - i:
            X[target_rows[run]] += np.multiply.outer(gains[run], row)
        else:  # unbuffered, so a target repeated within the run gets every gain
            np.add.at(X, target_rows[run], np.multiply.outer(gains[run], row))
        i = end
    return X


def _summed(total: np.ndarray) -> np.ndarray:
    """A fold's array summed over its powers; ValueError unless every entry is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = total.sum(axis=0)
    if not np.isfinite(total).all():
        raise ValueError("the circuit's map leaves float range")
    return total


def _symplectic(ops, labels) -> SymplecticMap:
    total = _summed(_fold(ops, labels, symplectic=True)[1])
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


class RunResult(Value):
    __slots__ = ("state", "records", "labels")

    def __init__(self, state: GaussianState, records: dict, labels: tuple[int, ...]):
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "labels", labels)


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

    All three policies apply the folded circuit to the state's factor, so a
    decoder that cancels an encoder's e^{r}-sized rows leaves only their
    rounding, about e^{r} eps, never the e^{2r} eps of a covariance.
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
    Y = _summed(np.concatenate([total, *(row[:, None] for _, _, row in registers.values())], axis=1))
    mean = Y[:, :-1] @ state.mean + Y[:, -1]
    factor = Y[:, :-1] @ state.factor
    k = total.shape[1]
    records = {}
    for q, (register, (pos, basis, _)) in enumerate(registers.items(), start=k):
        if average:
            outcome = float(mean[q])
        else:
            draw = float(forced[register]) if register in forced else rng.normal
            outcome, mean, factor = _condition(mean, factor, q, f"{basis}[{pos}]", draw)
        records[register] = MeasurementRecord(pos, basis, float(outcome))
    return RunResult(GaussianState._of(mean[:k], factor[:k]), records, live)
