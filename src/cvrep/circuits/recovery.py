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
``run(average=True)``).  The encoder's two squeezers are its only
r-dependent ops and act first, so everything after them (the encoder's
tail, a ``Discard`` per erased mode, the decoder) is one ``_fold`` per
tag, done once, at import, and compiled in the e^{+-r} basis: each row is
L0 + e^{r} L+ + e^{-r} L- over the encoder's input, and its mean does not
depend on r.  The recovered wire's x and p have no e^{r} part, or the
decoder would not recover the input; the compile checks that it is 0 up
to rounding, so those rows are L0 + e^{-r} L-, exact at any r.
``OPTICAL_RECOVERY_WIRE`` and ``decoder_matrix`` are read off the
decoder circuits.  A sweep is one batched evaluation:
``_fidelities`` takes every cell's covariance from its rows for a whole
r-grid and all tags at once and the closed-form 2 x 2 fidelity
(``coherent_fidelity``).  The sweep makes one call for its grid and reads
its closed forms off ``_NOISE`` for the whole grid too, so its result is
arrays, (steps, 4) per table; ``recovery_fidelities`` makes one call for
a single r, and ``threshold_squeezing`` one call for its bracket and one
per round of bisection levels.
With an ``rng``, E4's homodyne is sampled by conditioning those rows on
the drawn outcome.  Its measured row, the one row with an e^{r} part, is
scaled by e^{-r} first, so sampling is exact at any r too.

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
from functools import cache
from math import exp, isfinite, nan

import numpy as np

from ..codes import FIVE_MODE_ERASURES
from ..gaussian import (
    GaussianState,
    _amplitude,
    coherent,
    coherent_fidelity,
    discard,
    displacement,
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


def _squeezers(r: float) -> tuple:
    return (TwoModeSqueeze(2, 4, r), TwoModeSqueeze(3, 5, r))


# Everything the optical encoder does after its squeezers; it does not
# depend on r.
_ENCODER_TAIL = (
    BeamSplitterPM(1, 2),
    Pi(2),
    BeamSplitterPM(4, 3),
    SqueezeFactor(5, 1.0 / _SQRT2),
)


def optical_encoder(r: float) -> Circuit:
    """Beam-splitter-native encoder: wire 1 the input, wires 2-5 vacuum.

    Two two-mode squeezers make the y and z resource pairs, the beam
    splitters fold them onto the input, and the final fixed squeezer puts
    mode 5 on the code's scale.  All four nullifier variances come out
    exactly 2 e^{-2r}.
    """
    return Circuit((1, 2, 3, 4, 5), _squeezers(r) + _ENCODER_TAIL)


def ideal_encoded_state(r: float, alpha: complex = 0j) -> GaussianState:
    """Run the ideal encoder on a coherent input and x-squeezed ancillas.

    The ancillas start as vacuum, squeezed in x by e^{-r} on wires 2-5 by
    four ops run ahead of the encoder, so the state is one circuit run.
    """
    encoder = ideal_encoder()
    squeezers = tuple(SqueezeFactor(m, float(np.exp(-r))) for m in range(2, 6))
    return run(encoder.with_ops(squeezers + encoder.ops), tensor(coherent(alpha), vacuum(4))).state


def optical_encoded_state(r: float, alpha: complex = 0j) -> GaussianState:
    """The optical encoder's output on a coherent input and vacuum ancillas."""
    return run(optical_encoder(r), tensor(coherent(alpha), vacuum(4)), average=True).state


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
    return _fold_positions(ideal_decoder(tag))


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


# The encoder's squeezers act first, on disjoint modes, so their fold at r
# is I - Q + cosh r Q + sinh r K: Q keeps the squeezed quadratures and K
# pairs each with its partner's, signed.  Both are read off the fold at
# r = 1, whose diagonal holds cosh 1 or 1 and whose other entries are 0
# or +-sinh 1.  In the e^{+-r} basis the fold is I - Q + e^{r} P+ + e^{-r} P-
# with P+- = (Q +- K)/2, and _BASIS stacks I - Q, P+ and P-, all exact.
_LAYER = _fold(_squeezers(1.0), (1, 2, 3, 4, 5))[1][:, :-1]
_SQUEEZED = np.diag((np.diag(_LAYER) != 1.0).astype(float))
_PAIRING = np.sign(_LAYER) - np.eye(10)
_BASIS = np.stack([np.eye(10) - _SQUEEZED, (_SQUEEZED + _PAIRING) / 2, (_SQUEEZED - _PAIRING) / 2])


def _compile(tag: str) -> tuple[int, np.ndarray, np.ndarray]:
    """Encoder, erasure ``tag`` and its decoder as ``(wire, L, M)`` over the encoder's input.

    ``wire`` is the recovered wire, the fold's one live wire.  The rows are
    its x and p, outcome-averaged, then the quadrature each homodyne
    measures, in measurement order.  At squeezing r they are L[0] + e^{r}
    L[1] + e^{-r} L[2] applied to the input's quadratures, and their mean
    is M (a, 1) with a the input's (x, p): the squeezers do not touch mode
    1, and the ancillas' means are 0.  An e^{r} entry within the products'
    rounding of its row's scale is set to 0.  If the recovered wire's rows
    still grow like e^{r}, the decoder does not recover the input, and
    this raises ValueError.
    """
    erasure = tuple(Discard(m) for m in ERASED_MODES[tag])
    live, total, registers = _fold(_ENCODER_TAIL + erasure + _OPTICAL_DECODERS[tag].ops, (1, 2, 3, 4, 5))
    if len(live) != 1:
        raise ValueError(f"optical decoder {tag} leaves wires {live}, not one recovered wire")
    rows = np.vstack([total, *(row for _, _, row in registers.values())])
    A = rows[:, :-1]
    L = A @ _BASIS
    rounding = A.shape[1] * np.finfo(float).eps * np.abs(A).max(axis=1, keepdims=True)
    L[1][np.abs(L[1]) <= rounding] = 0.0
    if L[1, :2].any():
        raise ValueError(f"optical decoder {tag}: the recovered wire's rows grow like e^{{r}}")
    return live[0], L, np.column_stack([A[:, [0, 5]], rows[:, -1]])


_COMPILED = {tag: _compile(tag) for tag in ERASURE_TAGS}
# Which wire holds the recovered input after each optical decoder.
OPTICAL_RECOVERY_WIRE = {tag: _COMPILED[tag][0] for tag in ERASURE_TAGS}
# The recovered wire's rows and means of every tag, stacked in ERASURE_TAGS order.
_OUTPUT_L = np.stack([_COMPILED[tag][1][:, :2] for tag in ERASURE_TAGS])
_OUTPUT_M = np.stack([_COMPILED[tag][2][:2] for tag in ERASURE_TAGS])
# The rows a measuring decoder's homodynes read: with an rng they sample them.
_PORTS = {tag: _COMPILED[tag][1][:, 2:] for tag in ERASURE_TAGS if _COMPILED[tag][1].shape[1] > 2}


def _rows_at(L: np.ndarray, decay: np.ndarray) -> np.ndarray:
    """Rows ``L`` (..., 3, k, 10) at each e^{-r} in ``decay``, divided by e^{r} where they grow."""
    decay = decay.reshape(-1, *[1] * (L.ndim - 1))
    constant, growing, decaying = np.moveaxis(L, -3, 0)
    scale = np.where(growing.any(-1, keepdims=True), decay, 1.0)
    return scale * (constant + decay * decaying) + growing


def _fidelities(rs, tags: tuple, alpha: complex, rng=None) -> np.ndarray:
    """Simulated fidelity at every squeezing in ``rs`` (rows) of every tag (columns).

    One batched evaluation of the compiled pipelines; each cell depends
    only on its own r and tag.  With an ``rng``, measuring decoders sample
    their outcomes, cell by cell in row order.  Averaged over its outcome a
    measurement is deferred past its feedforward, so the sampled output is
    the averaged one conditioned on the measured quadrature drawn as
    ``run`` draws it, its mean plus its deviation times a standard normal.
    That conditions each tag's rows over the whole grid at once; the
    measured row's scale drops out, so no e^{r}-sized number is formed.
    Each r must be finite and >= 0 (``_check_squeezing``).
    """
    rs = np.asarray(rs, dtype=float)
    pick = [ERASURE_TAGS.index(tag) for tag in tags]
    a = displacement(alpha.real, alpha.imag)
    decay = np.exp(-rs)
    rows, M = _rows_at(_OUTPUT_L[pick], decay), _OUTPUT_M[pick]
    delta = np.broadcast_to(M[..., 0] * a[0] + M[..., 1] * a[1] + M[..., 2] - a, rows.shape[:-1]).copy()
    if rng is not None:
        measured = [(j, _rows_at(_PORTS[tag], decay)) for j, tag in enumerate(tags) if tag in _PORTS]
        draws = iter(rng.standard_normal((len(rs), sum(m.shape[1] for _, m in measured))).T)
        for j, ports in measured:
            joint = np.concatenate([rows[:, j], ports], axis=1)
            for q in range(2, joint.shape[1]):
                port = joint[:, q]
                norm = (port * port).sum(-1)
                gain = np.einsum("rkn,rn->rk", joint, port) / norm[:, None]
                delta[:, j] += gain[:, :2] * (np.sqrt(norm / 2) * next(draws))[:, None]
                joint = joint - gain[..., None] * port[:, None]
            rows[:, j] = joint[:, :2]
    x, p = rows[..., 0, :], rows[..., 1, :]
    return coherent_fidelity(
        (x * x).sum(-1) / 2, (x * p).sum(-1) / 2, (p * p).sum(-1) / 2, delta[..., 0], delta[..., 1]
    )


def closed_form_fidelity(tag: str, r: float) -> float:
    """Recovery fidelity formula for the optical pipeline at squeezing r.

    F = 1 / (1 + c e^{-2r}) with the tag's noise c from ``_NOISE``; E1,
    with c = 0, is exactly 1 at any valid r.  r must be finite and >= 0
    (``_check_squeezing``), as for ``recovery_fidelities``.
    """
    _check_squeezing("r", r)
    _check_tags(tag)
    noise = _NOISE[tag]
    return 1.0 / (1.0 + noise * exp(-2.0 * r)) if noise else 1.0


def recovery_fidelities(
    r: float,
    tags,
    alpha: complex = 0j,
    *,
    rng: np.random.Generator | None = None,
) -> dict:
    """Simulated fidelity of optical encode -> erase -> decode, per erasure tag.

    One batched evaluation at the single squeezing r, the tags in the order
    given.  Deterministic by default: the one decoder containing a
    measurement (E4) gives the state averaged over the homodyne outcome,
    exactly, which here equals every outcome's conditional state because
    the feedforward cancels the outcome.  Pass ``rng`` to sample the
    homodyne instead (same fidelity, by design), drawing in tag order.
    """
    _check_squeezing("r", r)
    tags = tuple(tags)
    _check_tags(*tags)
    cells = _fidelities([r], tags, _amplitude(alpha), rng)[0]
    return {tag: float(f) for tag, f in zip(tags, cells)}


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


def fidelity_sweep(spec: SweepSpec, *, rng: np.random.Generator | None = None) -> SweepResult:
    """Simulate every requested erasure over a squeezing grid (see ``SweepResult``).

    With an ``rng``, decoders that contain a homodyne sample it instead of
    averaging — the deviations should not care, which is itself a property
    worth sweeping.
    """
    grid = np.linspace(spec.r_min, spec.r_max, spec.steps)
    # ERASURE_TAGS order, so a seeded rng is drawn the same way for any
    # order of spec.errors.
    swept = [i for i, tag in enumerate(ERASURE_TAGS) if tag in spec.errors]
    simulated = np.full((spec.steps, len(ERASURE_TAGS)), nan)
    simulated[:, swept] = _fidelities(grid, tuple(ERASURE_TAGS[i] for i in swept), spec.alpha, rng)
    # math.exp, as closed_form_fidelity takes it, so each cell equals its value
    decay = np.array([exp(-2.0 * r) for r in grid])
    formula = 1.0 / (1.0 + np.multiply.outer(decay, list(_NOISE.values())))
    # a nan cell makes its row's maximum nan, and so the verdict
    row_dev = np.abs(simulated[:, swept] - formula[:, swept]).max(axis=1)
    return SweepResult(grid, simulated, formula, row_dev, float(row_dev.max()))


class UnreachableTargetError(ValueError):
    pass


# The doubling bracket's radii: r = 0, then each upper end it tries.
_BRACKET = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
# Bisection levels per evaluation round: a round evaluates the 2^k - 1
# midpoints of the next k levels in one call.
_LEVELS = 5


def _worst_cases(rs) -> np.ndarray:
    return _fidelities(rs, ERASURE_TAGS, 0j).min(axis=1)


def _midpoints(lo: float, hi: float) -> list:
    """Every midpoint of the next ``_LEVELS`` bisection levels of [lo, hi], in heap order.

    Node i's children are 2i + 1 (its lower half) and 2i + 2 (its upper
    half); each midpoint is ``0.5 * (lo + hi)`` of the interval on its
    own path, the float a step-by-step bisection forms.
    """
    mids, intervals = [], [(lo, hi)]
    for _ in range(_LEVELS):
        halves = []
        for a, b in intervals:
            mid = 0.5 * (a + b)
            mids.append(mid)
            halves += [(a, mid), (mid, b)]
        intervals = halves
    return mids


def threshold_squeezing(target: float, *, tol: float = 1e-6) -> float:
    """Least squeezing r at which every erasure's simulated fidelity >= target.

    Bisects the simulated worst case (not the formulas), so it stays honest
    if the simulation and the closed forms ever disagree.  Targets >= 1 are
    unreachable at finite squeezing; targets already met at r = 0 return 0.

    The search runs in batched evaluations.  One call evaluates r = 0 and
    the doubling bracket's ends 1, 2, 4, ..., 64; walking those verdicts in
    order gives the first end that meets the target, or
    ``UnreachableTargetError`` if 64 does not.  Then each round evaluates
    every midpoint of the next ``_LEVELS`` bisection levels in one call
    (``_midpoints``) and walks them one level at a time: a step halves
    [lo, hi] while ``hi - lo > tol``, stops early once lo and hi are
    adjacent floats, and keeps the half whose end meets the target.  Each
    ``_fidelities`` cell depends only on its own r and tag, and the walk
    visits exactly the midpoints that bisecting one r per call visits, so
    the answer is the same float that one-r-per-call search gives.
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
    worst = _worst_cases(_BRACKET)
    if worst[0] >= target:
        return 0.0
    for lo, hi, met in zip(_BRACKET, _BRACKET[1:], worst[1:] >= target):
        if met:
            break
    else:  # worst case is ~1 - 2e^{-2r}; more would be absurd
        raise UnreachableTargetError(f"no squeezing below r = 64 reaches target fidelity {target}")
    while hi - lo > tol:
        mids = _midpoints(lo, hi)
        met = _worst_cases(mids) >= target
        node = 0
        while node < len(mids) and hi - lo > tol:
            mid = mids[node]
            if not lo < mid < hi:  # adjacent floats: tol is below their spacing
                return 0.5 * (lo + hi)
            if met[node]:
                hi, node = mid, 2 * node + 1
            else:
                lo, node = mid, 2 * node + 2
    return 0.5 * (lo + hi)
