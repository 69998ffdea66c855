"""Run circuits on Gaussian states, or extract their symplectic action.

Both take each op's ``(modes, block, shift)`` from the op table in
:mod:`.ir` and update only those modes' rows.  ``symplectic_of`` folds a
unitary circuit into one ``[S | d]`` array, then builds one
``SymplecticMap``: the ground truth that synthesis and rewrite results are
checked against.  ``op_map`` is that fold over a single op.

``run`` executes any circuit, passing each gate to ``gaussian.act`` and
tracking which wire labels are still live.  Measurement outcomes are
resolved by a per-register policy: a forced value, sampling from an
``rng``, or the analytic average (outcome pinned to the current mean,
which leaves the conditional state equal to the outcome-averaged one for
the feedforwards used here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gaussian import (
    GaussianState,
    MeasurementRecord,
    SymplecticMap,
    act,
    discard,
    feedforward_displace,
    homodyne,
)
from .ir import Circuit, Discard, FeedforwardDisplace, Measure, spec_of

__all__ = ["op_map", "symplectic_of", "run", "RunResult"]


def _gate(op, labels) -> tuple:
    """``(modes, block, shift)`` of a unitary op on wires named by ``labels``."""
    spec = spec_of(op)
    if not spec.unitary:
        raise TypeError(f"{type(op).__name__} has no symplectic representation")
    params = spec.params(op)
    modes = [labels.index(w) for w in spec.wires(op)]
    return modes, spec.block and spec.block(*params), spec.shift and spec.shift(*params)


def _fold(ops, labels: tuple[int, ...]) -> SymplecticMap:
    n = len(labels)
    total = np.eye(2 * n, 2 * n + 1)  # [S | d], identity map
    for op in ops:
        modes, block, shift = _gate(op, labels)
        idx = modes + [n + m for m in modes]
        if block is not None:
            total[idx] = block @ total[idx]
        if shift is not None:
            total[idx, -1] += shift
    return SymplecticMap(total[:, :-1], total[:, -1])


def op_map(op, labels: tuple[int, ...]) -> SymplecticMap:
    """Symplectic map of one unitary op acting on wires named by ``labels``."""
    return _fold((op,), labels)


def symplectic_of(circuit: Circuit) -> SymplecticMap:
    """Fold a unitary circuit into one SymplecticMap over circuit.labels.

    Raises TypeError if the circuit contains measurements, feedforward or
    discards — those are not linear maps on phase space.
    """
    return _fold(circuit.ops, circuit.labels)


@dataclass(frozen=True)
class RunResult:
    state: GaussianState
    records: dict
    labels: tuple[int, ...]

    def mode_position(self, label: int) -> int:
        """0-based index of a surviving wire label inside ``state``."""
        return self.labels.index(label)


def run(
    circuit: Circuit,
    state: GaussianState,
    *,
    forced: dict | None = None,
    rng: np.random.Generator | None = None,
    average: bool = False,
) -> RunResult:
    """Execute a circuit on ``state`` (mode i of the state is labels[i]).

    Measurement outcome policy, per register: a value in ``forced`` wins;
    otherwise ``average=True`` pins the outcome to the running mean;
    otherwise an ``rng`` samples it.  A measurement with no applicable
    policy is an error rather than a silent default.
    """
    if state.n_modes != circuit.n_modes:
        raise ValueError(
            f"state has {state.n_modes} modes but circuit has {circuit.n_modes} wires"
        )
    forced = dict(forced or {})
    unknown = set(forced) - {op.register for op in circuit.ops if isinstance(op, Measure)}
    if unknown:
        raise ValueError(f"forced outcomes for unknown registers: {sorted(unknown)}")

    live = list(circuit.labels)
    records: dict[str, MeasurementRecord] = {}
    for op in circuit.ops:
        if isinstance(op, Measure):
            pos = live.index(op.mode)
            if op.register in forced:
                record, state = homodyne(state, pos, op.basis, outcome=forced[op.register])
            elif average:
                record, state = homodyne(state, pos, op.basis, average=True)
            elif rng is not None:
                record, state = homodyne(state, pos, op.basis, rng=rng)
            else:
                raise ValueError(
                    f"no outcome policy for register {op.register!r}: "
                    f"pass forced={{...}}, rng=..., or average=True"
                )
            records[op.register] = record
            live.pop(pos)
        elif isinstance(op, FeedforwardDisplace):
            state = feedforward_displace(
                state, live.index(op.target), op.quad, op.gain, records[op.register]
            )
        elif isinstance(op, Discard):
            pos = live.index(op.mode)
            state = discard(state, [pos])
            live.pop(pos)
        else:
            state = act(state, *_gate(op, live))
    return RunResult(state, records, tuple(live))
