"""Run circuits on Gaussian states, or extract their symplectic action.

Two consumers share one op-to-matrix map (``op_map``), which reads each
op's gate block from the op table in :mod:`.ir` and places it with
``gaussian.embed``, the same path the gate functions in
:mod:`cvrep.gaussian` use:

* ``symplectic_of`` folds a purely unitary circuit into a single
  ``SymplecticMap`` — the ground truth that synthesis and rewrite results
  are checked against.

* ``run`` executes any circuit, including measurements, feedforward and
  discards, tracking which wire labels are still live as modes get
  consumed.  Measurement outcomes are resolved by a per-register policy:
  a forced value, sampling from an ``rng``, or the analytic average
  (outcome pinned to the current mean, which leaves the conditional state
  equal to the outcome-averaged one for the feedforwards used here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gaussian import (
    GaussianState,
    MeasurementRecord,
    SymplecticMap,
    discard,
    embed,
    feedforward_displace,
    homodyne,
)
from .ir import Circuit, Discard, FeedforwardDisplace, Measure, spec_of

__all__ = ["op_map", "symplectic_of", "run", "RunResult"]


def op_map(op, labels: tuple[int, ...]) -> SymplecticMap:
    """Symplectic map of one unitary op acting on wires named by ``labels``."""
    spec = spec_of(op)
    if not spec.unitary:
        raise TypeError(f"{type(op).__name__} has no symplectic representation")
    n = len(labels)
    modes = [labels.index(w) for w in spec.wires(op)]
    params = spec.params(op)
    S = embed(n, modes, spec.block(*params)) if spec.block else np.eye(2 * n)
    d = np.zeros(2 * n)
    if spec.shift:
        d[modes + [n + m for m in modes]] = spec.shift(*params)
    return SymplecticMap(S, d)


def symplectic_of(circuit: Circuit) -> SymplecticMap:
    """Fold a unitary circuit into one SymplecticMap over circuit.labels.

    Raises TypeError if the circuit contains measurements, feedforward or
    discards — those are not linear maps on phase space.
    """
    total = SymplecticMap.identity(circuit.n_modes)
    for op in circuit.ops:
        total = op_map(op, circuit.labels).after(total)
    return total


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
            state = op_map(op, tuple(live)).apply(state)
    return RunResult(state, records, tuple(live))
