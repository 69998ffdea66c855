"""Encoders, erasure-specific decoders, and recovery fidelities.

The five-mode code replicates one input mode across the register so that
losing any one of four specific mode subsets still leaves enough to rebuild
it.  This module carries both register preparations:

* the *ideal* encoder — QND couplings acting on four finitely x-squeezed
  ancillas, the textbook form of the code;

* the *optical* encoder — two two-mode squeezers and two balanced beam
  splitters (plus one fixed squeezer on mode 5), a beam-splitter-native
  preparation of the same code whose four nullifier variances are all
  exactly 2 e^{-2r}.

For each supported erasure (named E1..E4) there are two decoders:

* ``ideal_decoder`` — the unitary on the survivors whose position action is
  the classic recovery matrix for that erasure (``decoder_matrix``); these
  are the synthesis targets.

* ``optical_decoder`` — a calibrated recovery line for the *optical*
  encoding, whose output fidelity against the original coherent input
  matches the closed forms

      F1 = 1
      F2 = F3 = 1 / (1 + 2 e^{-2r})
      F4 = 1 / (1 + e^{-2r})

  at every squeezing r and input amplitude.

Every optical circuit here is one affine Gaussian map: the decoders, E4's
homodyne and feedforward included, once averaged over the outcome (see
``run(average=True)``).  So each decoder is folded once, at import, with
its erasure, into a 2 x 10 map from the five-mode register to the
recovered wire.  ``recovery_fidelities`` folds the optical encoder once at
a squeezing r and applies each decoder's map to that one register; the
sweep and the threshold search call it once per r.

Calibration notes.  The optical decoder gains are fixed by requiring the
output quadratures to equal the input's plus a noise term built only from
nullifiers, with minimal total noise given the gate layout; that forces the
sqrt-2 gains below.  E2 and E3 are measurement-free: every candidate
homodyne port on their survivor sets stays correlated with the output at
finite squeezing, so measuring one would make the result outcome-dependent.
E4 is the opposite case — after its couplings, the natural port carries
exactly the unsqueezed source quadrature, uncorrelated with the recovered
output — so it ends with a homodyne plus classical feedforward, and its
conditional output state is the same for every outcome.  A consequence
worth knowing when reading the numbers: the E4 measured variance is
cosh(2r)/2, so sampling that port is never degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, isfinite, nan

import numpy as np

from ..codes import FIVE_MODE_ERASURES
from ..gaussian import (
    GaussianState,
    coherent,
    discard,
    displacement,
    fidelity_with_coherent,
    squeeze,
    tensor,
    vacuum,
)
from .interpreter import _fold, run
from .ir import (
    BeamSplitterPM,
    Circuit,
    Discard,
    FeedforwardDisplace,
    Fourier,
    Measure,
    Pi,
    PointTransform,
    Qnd,
    SqueezeFactor,
    TwoModeSqueeze,
)

__all__ = [
    "ERASURE_TAGS",
    "ERASED_MODES",
    "SURVIVOR_MODES",
    "IDEAL_RECOVERY_WIRE",
    "OPTICAL_RECOVERY_WIRE",
    "ideal_encoder",
    "optical_encoder",
    "ideal_encoded_state",
    "optical_encoded_state",
    "erase",
    "ideal_decoder",
    "optical_decoder",
    "decoder_matrix",
    "closed_form_fidelity",
    "recovery_fidelity",
    "recovery_fidelities",
    "SweepSpec",
    "SweepRow",
    "SweepResult",
    "fidelity_sweep",
    "threshold_squeezing",
    "UnreachableTargetError",
]

# Erasure Ek is the five-mode code's erasure pattern for recovery vertex k,
# here as 1-based wire labels.
ERASED_MODES = {
    f"E{k}": tuple(sorted(m + 1 for m in erased)) for k, erased in FIVE_MODE_ERASURES.items()
}
ERASURE_TAGS = tuple(ERASED_MODES)
SURVIVOR_MODES = {
    tag: tuple(m for m in range(1, 6) if m not in erased) for tag, erased in ERASED_MODES.items()
}

# Which surviving wire holds the recovered input after each decoder.
IDEAL_RECOVERY_WIRE = {"E1": 2, "E2": 1, "E3": 1, "E4": 4}
OPTICAL_RECOVERY_WIRE = {"E1": 2, "E2": 5, "E3": 3, "E4": 4}

_SQRT2 = float(np.sqrt(2.0))


def _check_tag(tag: str) -> None:
    if tag not in ERASURE_TAGS:
        raise ValueError(f"unknown erasure tag {tag!r}; valid: {', '.join(ERASURE_TAGS)}")


def ideal_encoder() -> Circuit:
    """QND-coupling encoder: wire 1 is the input, wires 2-5 the ancillas.

    On position eigenstates it sends |x; y, y, z, z> (the ancilla pattern
    produced by the couplings from squeezed inputs) to the code pattern
    |x+y, y-x, y-z, z+y, z>.
    """
    return Circuit(
        (1, 2, 3, 4, 5),
        (
            Fourier(2),
            Fourier(5),
            Qnd(5, 4, 1.0),
            Qnd(2, 3, 1.0),
            Qnd(2, 4, 1.0),
            Qnd(1, 2, -1.0),
            Qnd(3, 1, 1.0),
            Qnd(5, 3, -1.0),
        ),
    )


def optical_encoder(r: float) -> Circuit:
    """Beam-splitter-native encoder: wire 1 the input, wires 2-5 vacuum.

    Two two-mode squeezers make the y and z resource pairs, the beam
    splitters fold them onto the input, and the final fixed squeezer puts
    mode 5 on the code's scale.  All four nullifier variances come out
    exactly 2 e^{-2r}.
    """
    if not isfinite(r):
        raise ValueError("squeezing parameter must be finite")
    return Circuit(
        (1, 2, 3, 4, 5),
        (
            TwoModeSqueeze(2, 4, r),
            TwoModeSqueeze(3, 5, r),
            BeamSplitterPM(1, 2),
            Pi(2),
            BeamSplitterPM(4, 3),
            SqueezeFactor(5, 1.0 / _SQRT2),
        ),
    )


def ideal_encoded_state(r: float, alpha: complex = 0j) -> GaussianState:
    """Run the ideal encoder on a coherent input and x-squeezed ancillas."""
    ancilla = squeeze(vacuum(1), 0, -r)
    register = tensor(coherent(alpha), ancilla, ancilla, ancilla, ancilla)
    return run(ideal_encoder(), register).state


def _encoder_fold(r: float, alpha: complex) -> tuple[np.ndarray, np.ndarray]:
    """Mean and linear part X of the optical encoder on coherent(alpha) and vacuum.

    The input covariance is I/2, so the encoded covariance is X X^T / 2.
    """
    circuit = optical_encoder(r)
    _, total, _ = _fold(circuit.ops, circuit.labels)
    X = total[:, :-1]
    return X[:, [0, 5]] @ displacement(alpha.real, alpha.imag) + total[:, -1], X


def _state(mean: np.ndarray, X: np.ndarray) -> GaussianState:
    """The state with this mean and covariance X X^T / 2: X applied to an I/2 input."""
    return GaussianState(mean, X @ X.T / 2, _validate=False)


def optical_encoded_state(r: float, alpha: complex = 0j) -> GaussianState:
    """The optical encoder's output on a coherent input and vacuum ancillas."""
    return _state(*_encoder_fold(r, complex(alpha)))


def erase(state: GaussianState, tag: str) -> GaussianState:
    """Trace out the erased modes, leaving the survivors in wire order."""
    _check_tag(tag)
    if state.n_modes != 5:
        raise ValueError(f"erasure acts on the 5-mode register, got {state.n_modes} modes")
    return discard(state, [m - 1 for m in ERASED_MODES[tag]])


def ideal_decoder(tag: str) -> Circuit:
    """Unitary recovery on the survivors of one erasure (no measurements).

    The recovered input sits on wire IDEAL_RECOVERY_WIRE[tag] afterwards.
    Position action of each circuit is exactly ``decoder_matrix(tag)``.
    """
    _check_tag(tag)
    if tag == "E1":
        return Circuit((1, 2), (BeamSplitterPM(1, 2),))
    if tag == "E2":
        return Circuit(
            (1, 4, 5),
            (Qnd(5, 4, -2.0), Qnd(4, 1, -1.0), Qnd(5, 1, -1.0), Qnd(1, 5, -1.0)),
        )
    if tag == "E3":
        return Circuit(
            (1, 3, 5),
            (Qnd(5, 3, 2.0), Qnd(3, 5, -1.0), Qnd(5, 1, 1.0), Qnd(1, 5, 1.0)),
        )
    return Circuit(
        (2, 3, 4),
        (Qnd(4, 3, -1.0), Qnd(2, 4, -1.0), Qnd(3, 4, 0.5), Qnd(4, 2, 2.0)),
    )


def decoder_matrix(tag: str) -> PointTransform:
    """Position-basis transform of the ideal decoder, rows/cols in survivor order."""
    _check_tag(tag)
    if tag == "E1":
        h = 1.0 / _SQRT2
        return PointTransform(np.array([[h, h], [h, -h]]))
    if tag == "E2":
        return PointTransform(np.array([[1.0, -1.0, 1.0], [0.0, 1.0, -2.0], [-1.0, 1.0, 0.0]]))
    if tag == "E3":
        return PointTransform(np.array([[1.0, -1.0, -1.0], [0.0, 1.0, 2.0], [1.0, -2.0, -2.0]]))
    return PointTransform(np.array([[-1.0, 1.0, 1.0], [0.0, 1.0, -1.0], [-1.0, 0.5, 0.5]]))


# Pivot orders under which resynthesizing a decoder matrix reproduces the
# reference gate sequence for that decoder (see synthesis.synthesize's
# pivot_rows).  Tags without an entry use the default pivot preference.
REFERENCE_PIVOT_ROWS: dict = {"E2": (2, 1, 2)}


# Built once: a Circuit is frozen and holds tuples, so every caller can
# share the same four decoders.
_OPTICAL_DECODERS = {
    "E1": Circuit((1, 2), (BeamSplitterPM(1, 2), Discard(1))),
    "E2": Circuit(
        (1, 4, 5),
        (
            BeamSplitterPM(1, 4),
            SqueezeFactor(5, _SQRT2),
            Qnd(4, 5, 2.0),
            Qnd(5, 1, -2.0),
            Discard(1),
            Discard(4),
        ),
    ),
    "E3": Circuit(
        (1, 3, 5),
        (
            SqueezeFactor(3, _SQRT2),
            Pi(3),
            Qnd(1, 3, _SQRT2),
            Qnd(5, 3, -_SQRT2),
            Qnd(3, 1, -_SQRT2),
            Qnd(3, 5, 1.0 / _SQRT2),
            Discard(1),
            Discard(5),
        ),
    ),
    "E4": Circuit(
        (2, 3, 4),
        (
            BeamSplitterPM(4, 3),
            Qnd(4, 2, -_SQRT2),
            Qnd(2, 4, _SQRT2),
            Qnd(3, 4, 1.0),
            Measure(3, "x", "m1"),
            Discard(2),
            Pi(4),
            FeedforwardDisplace("m1", 4, "x", 1.0),
        ),
    ),
}


def optical_decoder(tag: str) -> Circuit:
    """Calibrated recovery line for the optically encoded register.

    Consumes the survivors of the erasure down to the single recovered wire
    (OPTICAL_RECOVERY_WIRE[tag]); E4 is the one decoder that homodynes a
    port and feeds the outcome forward.
    """
    _check_tag(tag)
    return _OPTICAL_DECODERS[tag]


def _compile(tag: str) -> tuple[np.ndarray, np.ndarray]:
    """Erasure ``tag`` then its optical decoder, outcome-averaged, as ``(Z, d)``.

    The recovered wire's (x, p) is Z q + d, with q the five-mode register's
    quadratures and Z 2 x 10.
    """
    decoder = _OPTICAL_DECODERS[tag]
    live, total, _ = _fold(decoder.ops, decoder.labels)
    k, pos = len(live), live.index(OPTICAL_RECOVERY_WIRE[tag])
    survivors = [m - 1 for m in SURVIVOR_MODES[tag]]
    Z = np.zeros((2, 10))
    Z[:, survivors + [5 + m for m in survivors]] = total[[pos, k + pos], :-1]
    return Z, total[[pos, k + pos], -1]


_COMPILED_DECODERS = {tag: _compile(tag) for tag in ERASURE_TAGS}
# Decoders that homodyne a port: with an rng they still run their circuit.
_MEASURING = {
    tag
    for tag, decoder in _OPTICAL_DECODERS.items()
    if any(isinstance(op, Measure) for op in decoder.ops)
}


def closed_form_fidelity(tag: str, r: float) -> float:
    """Recovery fidelity formula for the optical pipeline at squeezing r."""
    _check_tag(tag)
    if tag == "E1":
        return 1.0
    if tag in ("E2", "E3"):
        return 1.0 / (1.0 + 2.0 * exp(-2.0 * r))
    return 1.0 / (1.0 + exp(-2.0 * r))


def recovery_fidelities(
    r: float,
    tags,
    alpha: complex = 0j,
    *,
    rng: np.random.Generator | None = None,
) -> dict:
    """Simulated fidelity of optical encode -> erase -> decode, per erasure tag.

    The encoder is folded once and every tag, in the order given, applies
    its compiled erasure and decoder to that one register.  Deterministic
    by default: the one decoder containing a measurement (E4) gives the
    state averaged over the homodyne outcome, exactly, which here equals
    every outcome's conditional state because the feedforward cancels the
    outcome.  Pass ``rng`` to sample the homodyne instead (same fidelity,
    by design): decoders that measure then run their circuit on the
    encoded register, drawing samples in tag order.
    """
    tags = tuple(tags)
    for tag in tags:
        _check_tag(tag)
    alpha = complex(alpha)
    mean, X = _encoder_fold(r, alpha)
    fidelities = {}
    for tag in tags:
        if rng is not None and tag in _MEASURING:
            result = run(optical_decoder(tag), erase(_state(mean, X), tag), rng=rng)
            out = result.state
            keep = result.labels.index(OPTICAL_RECOVERY_WIRE[tag])
            if out.n_modes > 1:
                out = discard(out, [i for i in range(out.n_modes) if i != keep])
        else:
            Z, d = _COMPILED_DECODERS[tag]
            out = _state(Z @ mean + d, Z @ X)
        fidelities[tag] = fidelity_with_coherent(out, alpha)
    return fidelities


def recovery_fidelity(
    tag: str,
    r: float,
    alpha: complex = 0j,
    *,
    rng: np.random.Generator | None = None,
) -> float:
    """Simulated fidelity of optical encode -> erase -> decode vs the input.

    One tag of ``recovery_fidelities``: deterministic by default, sampling
    the E4 homodyne when given an ``rng``.
    """
    return recovery_fidelities(r, (tag,), alpha, rng=rng)[tag]


# ---------------------------------------------------------------------------
# sweeps and thresholds

@dataclass(frozen=True)
class SweepSpec:
    r_min: float = 0.0
    r_max: float = 2.0
    steps: int = 9
    errors: tuple[str, ...] = ERASURE_TAGS
    alpha: complex = 0j

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (isfinite(self.r_min) and isfinite(self.r_max)):
            raise ValueError(f"r_min and r_max must be finite, got {self.r_min}, {self.r_max}")
        if self.r_max < self.r_min:
            raise ValueError("r_max must be >= r_min")
        errors = tuple(self.errors)
        for tag in errors:
            _check_tag(tag)
        if len(set(errors)) != len(errors):
            raise ValueError("duplicate erasure tags in sweep")
        if not errors:
            raise ValueError("sweep needs at least one erasure tag")
        object.__setattr__(self, "errors", errors)
        object.__setattr__(self, "alpha", complex(self.alpha))


@dataclass(frozen=True)
class SweepRow:
    r: float
    simulated: dict  # tag -> fidelity; nan for tags outside the sweep
    formula: dict  # tag -> closed form
    max_abs_dev: float  # over the swept tags only


@dataclass(frozen=True)
class SweepResult:
    spec: SweepSpec
    rows: tuple
    max_abs_dev: float


def fidelity_sweep(spec: SweepSpec, *, rng: np.random.Generator | None = None) -> SweepResult:
    """Simulate every requested erasure over a squeezing grid.

    Each row carries the simulated and closed-form fidelities for all four
    tags (simulated entries of unswept tags are nan) plus the row's largest
    simulation-vs-formula deviation, which is nan if a swept cell is.  With
    an ``rng``, decoders that contain a homodyne sample it instead of
    averaging — the deviations should not care, which is itself a property
    worth sweeping.
    """
    if spec.steps == 1:
        grid = [float(spec.r_min)]
    else:
        grid = list(np.linspace(spec.r_min, spec.r_max, spec.steps))
    # ERASURE_TAGS order, so a seeded rng is drawn the same way for any
    # order of spec.errors.
    swept = tuple(tag for tag in ERASURE_TAGS if tag in spec.errors)
    rows = []
    for r in grid:
        fidelities = recovery_fidelities(r, swept, spec.alpha, rng=rng)
        simulated = {tag: fidelities.get(tag, nan) for tag in ERASURE_TAGS}
        formula = {tag: closed_form_fidelity(tag, r) for tag in ERASURE_TAGS}
        # np.max, unlike max(), lets a nan cell through to the verdict
        row_dev = float(np.max([abs(simulated[tag] - formula[tag]) for tag in swept]))
        rows.append(SweepRow(float(r), simulated, formula, row_dev))
    return SweepResult(spec, tuple(rows), float(np.max([row.max_abs_dev for row in rows])))


class UnreachableTargetError(ValueError):
    pass


def _worst_case_fidelity(r: float) -> float:
    return min(recovery_fidelities(r, ERASURE_TAGS).values())


def threshold_squeezing(target: float, *, tol: float = 1e-6) -> float:
    """Least squeezing r at which every erasure's simulated fidelity >= target.

    Bisects the simulated worst case (not the formulas), so it stays honest
    if the simulation and the closed forms ever disagree.  Targets >= 1 are
    unreachable at finite squeezing; targets already met at r = 0 return 0.
    """
    if not isfinite(target):
        raise ValueError("target fidelity must be finite")
    if target >= 1.0:
        raise UnreachableTargetError(
            f"target fidelity {target} is unreachable: the worst-case recovery "
            f"fidelity approaches 1 only as squeezing grows without bound"
        )
    if not (isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if _worst_case_fidelity(0.0) >= target:
        return 0.0
    lo, hi = 0.0, 1.0
    while _worst_case_fidelity(hi) < target:
        lo, hi = hi, hi * 2.0
        if hi > 64.0:  # worst case is ~1 - 2e^{-2r}; this would be absurd
            raise UnreachableTargetError(
                f"no squeezing below r = 64 reaches target fidelity {target}"
            )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: tol is below their spacing
            break
        if _worst_case_fidelity(mid) >= target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
