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
  matches the closed form F = 1 / (1 + c e^{-2r}), with noise c = 0, 2, 2
  and 1 for E1..E4 (``_NOISE``), at every squeezing r and input amplitude.

Every optical circuit here is one affine Gaussian map: the decoders, E4's
homodyne and feedforward included, once averaged over the outcome (see
``run(average=True)``).  Per tag, the encoder at r = 0, a ``Discard`` per
erased mode and the decoder are one ``_fold``, done once, at import, whose
power axis gives each row as L0 + e^{r} L+ + e^{-r} L- over the encoder's
input.  ``_compile`` reads the tag's Gaussian channel off those rows: the
recovered wire is y = T x_in + noise, T the rows' gain on the input, and
the noise covariance N0 + e^{-r} N1 + e^{-2r} N2 comes from their ancilla
columns.  It checks that the recovered rows have no e^{r} part, and that
their mean is the input's, unit gain and zero offset, up to rounding; the
mean is then held to the input's exactly, so the fidelity does not depend
on the amplitude.  For E4 it also checks that the measured quadrature has
zero covariance with the recovered wire at every power of e^{r}, so
conditioning on any outcome moves neither the output's mean nor its
covariance: the averaged channel is every outcome's, and nothing on this
path is drawn.  ``run`` still samples E4's homodyne when asked to.
``OPTICAL_RECOVERY_WIRE`` and ``decoder_matrix`` are read off the decoder
circuits.  A sweep is one batched evaluation: ``_fidelities`` forms every
cell's output covariance, T T^T / 2 + N0 + e^{-r} N1 + e^{-2r} N2, for a
whole r-grid and all tags in one broadcast step, and then the closed-form
2 x 2 fidelity (``coherent_fidelity``), with no mean offset.  The sweep
makes one call for its grid and reads its closed forms off ``_NOISE`` for
the whole grid too, so its result is arrays, (steps, 4) per table;
``recovery_fidelities`` makes one call for a single r, and
``threshold_squeezing`` none: it inverts the channels in closed form.

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
cosh(2r)/2, so ``run`` sampling that port is never degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import exp, isfinite, log, nan, sqrt

import numpy as np

from ..codes import FIVE_MODE_ERASURES
from ..gaussian import (
    GaussianState,
    _amplitude,
    coherent,
    coherent_fidelity,
    discard,
    tensor,
    vacuum,
)
from .interpreter import _fold, _fold_positions, run
from .ir import (
    BeamSplitterPM,
    Circuit,
    Discard,
    FeedforwardDisplace,
    Fourier,
    Measure,
    Pi,
    Qnd,
    SqueezeFactor,
    TwoModeSqueeze,
    _columns,
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
    "REFERENCE_PIVOT_ROWS",
    "closed_form_fidelity",
    "recovery_fidelity",
    "recovery_fidelities",
    "SweepSpec",
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

# Which surviving wire holds the recovered input after each ideal decoder.
IDEAL_RECOVERY_WIRE = {"E1": 2, "E2": 1, "E3": 1, "E4": 4}

_SQRT2 = float(np.sqrt(2.0))

# Each tag's recovery noise c: at squeezing r its closed-form fidelity is
# F = 1 / (1 + c e^{-2r}).
_NOISE = dict(zip(ERASURE_TAGS, (0.0, 2.0, 2.0, 1.0)))


def _check_tags(*tags: str) -> None:
    for tag in tags:
        if tag not in ERASURE_TAGS:
            raise ValueError(f"unknown erasure tag {tag!r}; valid: {', '.join(ERASURE_TAGS)}")


def _check_squeezing(name: str, r: float) -> None:
    """r is the resource states' squeezing magnitude: finite, and not negative."""
    if not isfinite(r):
        raise ValueError(f"{name} must be finite, got {r}")
    if r < 0:
        raise ValueError(f"{name} must be >= 0, the squeezing magnitude; got {r}")


def _check_encoding(r: float) -> None:
    """r as ``_check_squeezing`` takes it, and e^{-r}, the ancillas' squeeze factor, is not 0."""
    _check_squeezing("r", r)
    if exp(-r) == 0.0:
        raise ValueError(
            f"r = {r} is too large: e^{{-r}} underflows to 0, so the encoder's map leaves float range"
        )


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
    return Circuit(
        (1, 2, 3, 4, 5),
        (
            TwoModeSqueeze(2, 4, r), TwoModeSqueeze(3, 5, r),
            BeamSplitterPM(1, 2), Pi(2), BeamSplitterPM(4, 3), SqueezeFactor(5, 1.0 / _SQRT2),
        ),
    )


def ideal_encoded_state(r: float, alpha: complex = 0j) -> GaussianState:
    """Run the ideal encoder on a coherent input and x-squeezed ancillas.

    The ancillas start as vacuum, squeezed in x by e^{-r} on wires 2-5 by
    four ops run ahead of the encoder, so the state is one circuit run.
    r must be finite and >= 0 (``_check_squeezing``), e^{-r} must not
    underflow to 0, and the encoder's map must stay within float range
    (``_encode``).
    """
    _check_encoding(r)
    encoder = ideal_encoder()
    squeezers = tuple(SqueezeFactor(m, float(np.exp(-r))) for m in range(2, 6))
    return _encode(r, encoder.with_ops(squeezers + encoder.ops), alpha)


def optical_encoded_state(r: float, alpha: complex = 0j) -> GaussianState:
    """The optical encoder's output on a coherent input and vacuum ancillas.

    r is checked as for ``ideal_encoded_state``.
    """
    _check_encoding(r)
    return _encode(r, optical_encoder(r), alpha, average=True)


def _encode(r: float, encoder: Circuit, alpha: complex, **policy) -> GaussianState:
    """The encoder's output on a coherent input and vacuum ancillas.

    The encoder's map grows as e^{r}, so past some r, which differs between
    the encoders, ``run`` finds it leaves float range; that error names r.
    """
    state = tensor(coherent(alpha), vacuum(4))
    try:
        return run(encoder, state, **policy).state
    except ValueError as exc:
        raise ValueError(f"r = {r} is too large: {exc}") from exc


def erase(state: GaussianState, tag: str) -> GaussianState:
    """Trace out the erased modes, leaving the survivors in wire order."""
    _check_tags(tag)
    if state.n_modes != 5:
        raise ValueError(f"erasure acts on the 5-mode register, got {state.n_modes} modes")
    return discard(state, [m - 1 for m in ERASED_MODES[tag]])


# The ideal decoders' ops, each on its erasure's survivors.
_IDEAL_DECODER_OPS = {
    "E1": (BeamSplitterPM(1, 2),),
    "E2": (Qnd(5, 4, -2.0), Qnd(4, 1, -1.0), Qnd(5, 1, -1.0), Qnd(1, 5, -1.0)),
    "E3": (Qnd(5, 3, 2.0), Qnd(3, 5, -1.0), Qnd(5, 1, 1.0), Qnd(1, 5, 1.0)),
    "E4": (Qnd(4, 3, -1.0), Qnd(2, 4, -1.0), Qnd(3, 4, 0.5), Qnd(4, 2, 2.0)),
}


def ideal_decoder(tag: str) -> Circuit:
    """Unitary recovery on the survivors of one erasure (no measurements).

    The recovered input sits on wire IDEAL_RECOVERY_WIRE[tag] afterwards.
    Its position action is ``decoder_matrix(tag)``.
    """
    _check_tags(tag)
    return Circuit(SURVIVOR_MODES[tag], _IDEAL_DECODER_OPS[tag])


def decoder_matrix(tag: str) -> np.ndarray:
    """Position-basis matrix A of the ideal decoder, rows/cols in survivor order.

    The decoder maps |x> to |A x>; its symplectic block is diag(A, A^-T).
    Each tag is folded once; every call returns its own copy.
    """
    _check_tags(tag)
    return _decoder_positions(tag).copy()


@cache
def _decoder_positions(tag: str) -> np.ndarray:
    return _fold_positions(_columns(ideal_decoder(tag)))


# Pivot orders for ``cvrep synth --error``: under (2, 1, 2) the E2 matrix
# resynthesizes to the reference sequence QND, QND, QND, SQ(-1), SWAP that
# the CLI prints, not to ideal_decoder("E2") (see synthesis.synthesize's
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
    _check_tags(tag)
    return _OPTICAL_DECODERS[tag]


def _covariances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The covariance of rows ``a`` with rows ``b`` over a vacuum input, by power of e^{r}.

    Both hold their rows' e^{-r}, constant and e^{r} parts, in that order;
    the result holds the e^{-2r} to e^{2r} parts of a b^T / 2.
    """
    out = np.zeros((5, a.shape[1], b.shape[1]))
    np.add.at(out, np.add.outer(range(3), range(3)), np.einsum("aik,bjk->abij", a, b) / 2)
    return out


def _compile(tag: str) -> tuple[int, np.ndarray, np.ndarray]:
    """Encoder, erasure ``tag`` and its decoder as the Gaussian channel ``(wire, T, N)``.

    One ``_fold`` of ``optical_encoder(0.0)``, the erasure and the decoder,
    whose one live wire is ``wire``.  Its rows are the wire's x and p,
    outcome-averaged, then the quadrature each homodyne measures, in
    measurement order: at squeezing r, e^{-r} L[0] + L[1] + e^{r} L[2], read
    off the power axis, applied to the input's quadratures; the ancillas
    are vacuum.  An e^{r} entry within the products' rounding of its row's
    scale is set to 0.  This raises ValueError if a row has a power of
    e^{r} beyond 1; if a measured quadrature's covariance with the wire's
    rows, at any power, exceeds the products' rounding of the two rows'
    scales; if the wire's rows still grow like e^{r}; or if their mean,
    M (a, 1) for a the input's (x, p), has an M other than (I | 0) at some
    power, beyond the rows' rounding.  So conditioning on an outcome moves
    neither the wire's mean nor its covariance, the recovered mean is taken
    to be the input's exactly, and no fidelity depends on the amplitude.

    The channel is y = T x_in + noise: T, the rows' constant gain on the
    input's (x, p), is I up to that rounding, and N[k], the noise
    covariance's e^{-kr} part, comes from their ancilla columns, so at
    squeezing r the wire's covariance is T T^T / 2 + N[0] + e^{-r} N[1] +
    e^{-2r} N[2].
    """
    ops = optical_encoder(0.0).ops + tuple(Discard(m) for m in ERASED_MODES[tag]) + _OPTICAL_DECODERS[tag].ops
    live, total, registers = _fold(ops, (1, 2, 3, 4, 5))
    if len(live) != 1:
        raise ValueError(f"optical decoder {tag} leaves wires {live}, not one recovered wire")
    rows = np.concatenate([total, *(row[:, None] for _, _, row in registers.values())], axis=1)
    zero = len(rows) // 2  # the power-0 slice
    if np.delete(rows, [zero - 1, zero, zero + 1], axis=0).any():
        raise ValueError(f"optical decoder {tag}: a row has a power of e^{{r}} beyond 1")
    A = rows.sum(axis=0)[:, :-1]  # the rows at r = 0
    scale = np.abs(A).max(axis=1, keepdims=True)
    rounding = A.shape[1] * np.finfo(float).eps * scale
    L = rows[zero - 1 : zero + 2, :, :-1]
    L[2][np.abs(L[2]) <= rounding] = 0.0
    if np.any(np.abs(_covariances(L[:, :2], L[:, 2:])) > rounding[:2] * scale[2:].T):
        raise ValueError(f"optical decoder {tag}: a measured quadrature is correlated with the recovered wire")
    if L[2, :2].any():
        raise ValueError(f"optical decoder {tag}: the recovered wire's rows grow like e^{{r}}")
    M = rows[:, :2][..., [0, 5, -1]]  # per power: the gain on the input's (x, p), and the offset
    M[zero] -= np.eye(2, 3)
    if np.any(np.abs(M) > rounding[:2]):
        raise ValueError(f"optical decoder {tag}: the recovered wire's mean is not the input's")
    ancillas = np.delete(L[:, :2], [0, 5], axis=-1)
    # the noise's e^{0}, e^{-r} and e^{-2r} parts: with no e^{r} rows it has no e^{r} part
    return live[0], L[1, :2][:, [0, 5]], _covariances(ancillas, ancillas)[2::-1]


_COMPILED = {tag: _compile(tag) for tag in ERASURE_TAGS}
# Which wire holds the recovered input after each optical decoder.
OPTICAL_RECOVERY_WIRE = {tag: _COMPILED[tag][0] for tag in ERASURE_TAGS}


def _covariance_parts(T: np.ndarray, N: np.ndarray) -> np.ndarray:
    """A channel's output covariance on a coherent input, as its e^{-kr} parts' (vxx, vxp, vpp)."""
    parts = N.copy()
    parts[0] += T @ T.T / 2
    return parts[:, [0, 0, 1], [0, 1, 1]]


# Every tag's output covariance, stacked (power, entry, 1, tag) in
# ERASURE_TAGS order: at squeezing r a cell's (vxx, vxp, vpp) is
# V0 + e^{-r} V1 + e^{-2r} V2; the unit axis takes the r-grid.
_COVARIANCE = np.stack([_covariance_parts(*_COMPILED[tag][1:]) for tag in ERASURE_TAGS], axis=-1)[:, :, None]


def _fidelities(rs, tags: tuple) -> np.ndarray:
    """Simulated fidelity at every squeezing in ``rs`` (rows) of every tag (columns).

    One batched evaluation of the compiled channels; each cell depends
    only on its own r and tag, not on the input amplitude, whose recovered
    mean ``_compile`` holds to the input's, nor on any homodyne outcome,
    which ``_compile`` shows moves nothing.  Every cell's vxx, vxp and vpp
    are V0 + e^{-r} (V1 + e^{-r} V2) in one broadcast step, and then
    ``coherent_fidelity`` takes them, with no mean offset.
    Each r must be finite and >= 0 (``_check_squeezing``).
    """
    decay = np.exp(-np.asarray(rs, dtype=float))[:, None]
    V0, V1, V2 = _COVARIANCE.take([ERASURE_TAGS.index(tag) for tag in tags], -1)
    return coherent_fidelity(*V0 + decay * (V1 + decay * V2))


def _closed_forms(rs, noise) -> np.ndarray:
    """F = 1 / (1 + c e^{-2r}) per squeezing r (rows) and noise c (columns).

    Each e^{-2r} is ``math.exp``'s, so no cell depends on the other r; E1,
    with c = 0, is exactly 1 at any valid r.  Each -2r is a Python float's,
    which overflows to -inf, and e^{-2r} to 0, without a NumPy warning.
    """
    decay = np.array([exp(-2.0 * r) for r in np.asarray(rs, dtype=float).tolist()])
    return 1.0 / (1.0 + np.multiply.outer(decay, noise))


def closed_form_fidelity(tag: str, r: float) -> float:
    """Recovery fidelity formula for the optical pipeline at squeezing r.

    ``_closed_forms`` at the tag's noise c from ``_NOISE``.  r must be finite
    and >= 0 (``_check_squeezing``), as for ``recovery_fidelities``.
    """
    _check_squeezing("r", r)
    _check_tags(tag)
    return float(_closed_forms([r], [_NOISE[tag]])[0, 0])


def recovery_fidelities(r: float, tags, alpha: complex = 0j) -> dict:
    """Simulated fidelity of optical encode -> erase -> decode, per erasure tag.

    One batched evaluation at the single squeezing r, the tags in the order
    given.  The one decoder containing a measurement (E4) gives the state
    averaged over the homodyne outcome, exactly, which ``_compile`` shows
    is every outcome's conditional state: the feedforward cancels the
    outcome.
    """
    _check_squeezing("r", r)
    tags = tuple(tags)
    _check_tags(*tags)
    _amplitude(alpha)  # checked, though no cell depends on it
    cells = _fidelities([r], tags)[0]
    return {tag: float(f) for tag, f in zip(tags, cells)}


def recovery_fidelity(tag: str, r: float, alpha: complex = 0j) -> float:
    """Simulated fidelity of optical encode -> erase -> decode vs the input.

    One tag of ``recovery_fidelities``.
    """
    return recovery_fidelities(r, (tag,), alpha)[tag]


# ---------------------------------------------------------------------------
# sweeps and thresholds

# The most steps a grid can have: NumPy holds an array's size in bytes as an
# intp, so it refuses a larger float array before allocating anything.
_MAX_STEPS = np.iinfo(np.intp).max // np.dtype(float).itemsize


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
        if self.steps > _MAX_STEPS:
            raise ValueError(
                f"steps must be at most {_MAX_STEPS}, the most floats one array holds; got {self.steps}"
            )
        _check_squeezing("r_min", self.r_min)
        _check_squeezing("r_max", self.r_max)
        if self.r_max < self.r_min:
            raise ValueError("r_max must be >= r_min")
        errors = tuple(self.errors)
        _check_tags(*errors)
        if len(set(errors)) != len(errors):
            raise ValueError("duplicate erasure tags in sweep")
        if not errors:
            raise ValueError("sweep needs at least one erasure tag")
        object.__setattr__(self, "errors", errors)
        object.__setattr__(self, "alpha", _amplitude(self.alpha))


@dataclass(frozen=True)
class SweepResult:
    """A sweep's grid and its tables, computed in one pass; columns in ERASURE_TAGS order."""

    r: np.ndarray  # the grid, (steps,)
    simulated: np.ndarray  # (steps, 4); nan for tags outside the sweep
    formula: np.ndarray  # (steps, 4) closed forms
    row_max_abs_dev: np.ndarray  # (steps,) over the swept tags only; nan if a swept cell is
    max_abs_dev: float  # over the grid


def fidelity_sweep(spec: SweepSpec) -> SweepResult:
    """Simulate every requested erasure over a squeezing grid (see ``SweepResult``).

    Every cell is its compiled channel's, averaged over E4's homodyne
    outcome, which moves nothing (``_compile``).  A grid too large to
    allocate raises ``MemoryError``.
    """
    try:
        grid = np.linspace(spec.r_min, spec.r_max, spec.steps)
    except ValueError as exc:
        # NumPy also refuses some sizes just below _MAX_STEPS, before
        # allocating them: a grid of that size does not fit either
        raise MemoryError(str(exc)) from exc
    swept = [i for i, tag in enumerate(ERASURE_TAGS) if tag in spec.errors]
    simulated = np.full((spec.steps, len(ERASURE_TAGS)), nan)
    simulated[:, swept] = _fidelities(grid, tuple(ERASURE_TAGS[i] for i in swept))
    formula = _closed_forms(grid, list(_NOISE.values()))
    # a nan cell makes its row's maximum nan, and so the verdict
    row_dev = np.abs(simulated[:, swept] - formula[:, swept]).max(axis=1)
    return SweepResult(grid, simulated, formula, row_dev, float(row_dev.max()))


class UnreachableTargetError(ValueError):
    pass


def _threshold_noise() -> tuple:
    """Each compiled channel's (tr N2, det N2), in ERASURE_TAGS order; ValueError if its N0 or
    N1 is not zero, as ``threshold_squeezing``'s closed form takes noise e^{-2r} N2 alone."""
    noise = [_COMPILED[tag][2] for tag in ERASURE_TAGS]
    for tag, N in zip(ERASURE_TAGS, noise):
        if N[:2].any():
            raise ValueError(f"optical decoder {tag}: the noise has a part slower than e^{{-2r}}")
    return tuple((a + d, a * d - b * c) for (a, b), (c, d) in (N[2].tolist() for N in noise))


_THRESHOLD_NOISE = _threshold_noise()


def threshold_squeezing(target: float, *, tol: float = 1e-6) -> float:
    """Least squeezing r at which every erasure's fidelity >= target.

    The compiled channels' inverse (``_threshold_noise``): with T = I and
    noise x N2, x = e^{-2r}, a tag's 1/F^2 - 1 is x tr N2 + x^2 det N2.  At
    y = 1/t^2 - 1, formed from 1 - t, the root 2y / (tr N2 + sqrt(tr N2^2 +
    4 det N2 y)) keeps its digits as t nears 1; r is -ln(x) / 2 at the least
    root.  Targets >= 1 are unreachable at finite squeezing; targets met at
    r = 0 return 0.  ``tol`` must be positive and finite; it moves no digit.
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
    if target <= min(1.0 / sqrt(1.0 + tr + det) for tr, det in _THRESHOLD_NOISE):
        return 0.0
    y = (1.0 - target) * (1.0 + target) / (target * target)
    # a noiseless channel never binds; E1's N2 is 0 up to rounding, and its root is huge
    roots = (2.0 * y / (tr + sqrt(tr * tr + 4.0 * det * y)) for tr, det in _THRESHOLD_NOISE if tr > 0.0)
    return max(0.0, -0.5 * log(min(roots)))
