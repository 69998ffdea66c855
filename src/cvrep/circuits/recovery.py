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
``run(average=True)``).  The encoder's two squeezers are its only
r-dependent ops and act first, so the whole pipeline (encoder, erasure,
decoder) is compiled per tag once, at import: the recovered wire's x and p
are the rows L0 + cosh r Lc + sinh r Ls over the encoder's input, and
their mean does not depend on r.  A sweep is then one batched evaluation:
``_fidelities`` forms every cell's covariance from its rows for a whole
r-grid and all tags at once and takes the closed-form 2 x 2 fidelity
(``coherent_fidelity``).  The sweep makes one call for its grid;
``recovery_fidelities`` and each threshold step make one for a single r.
Forming the covariance from the rows cancels the e^{r}-sized terms before
it is squared, which keeps the fidelities exact to about 1e-14 up to
r = 20.  With an ``rng``, E4's homodyne is sampled by conditioning those
compiled rows on the drawn outcome, which is exact just as far.

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
    coherent_fidelity,
    discard,
    displacement,
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
    if not isfinite(r):
        raise ValueError("squeezing parameter must be finite")
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


def decoder_matrix(tag: str) -> np.ndarray:
    """Position-basis matrix A of the ideal decoder, rows/cols in survivor order.

    The decoder maps |x> to |A x>; its symplectic block is diag(A, A^-T).
    """
    _check_tag(tag)
    if tag == "E1":
        h = 1.0 / _SQRT2
        return np.array([[h, h], [h, -h]])
    if tag == "E2":
        return np.array([[1.0, -1.0, 1.0], [0.0, 1.0, -2.0], [-1.0, 1.0, 0.0]])
    if tag == "E3":
        return np.array([[1.0, -1.0, -1.0], [0.0, 1.0, 2.0], [1.0, -2.0, -2.0]])
    return np.array([[-1.0, 1.0, 1.0], [0.0, 1.0, -1.0], [-1.0, 0.5, 0.5]])


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


def _decoder_rows(tag: str) -> np.ndarray:
    """Erasure ``tag`` then its optical decoder, as rows ``[R | c]`` over the register.

    Each row is an affine function R q + c of the five-mode register's
    quadratures q: the recovered wire's x and p, outcome-averaged, then the
    quadrature each homodyne measures, in measurement order.
    """
    decoder = _OPTICAL_DECODERS[tag]
    live, total, registers = _fold(decoder.ops, decoder.labels)
    k, pos = len(live), live.index(OPTICAL_RECOVERY_WIRE[tag])
    rows = [total[pos], total[k + pos]] + [row for _, _, row in registers.values()]
    survivors = [m - 1 for m in SURVIVOR_MODES[tag]]
    R = np.zeros((len(rows), 11))
    R[:, survivors + [5 + m for m in survivors] + [10]] = rows
    return R


# The encoder's squeezers act first, on disjoint modes, so their fold at r
# is I - Q + cosh r Q + sinh r K: Q keeps the squeezed quadratures and K
# pairs each with its partner's, signed.  Both are read off the fold at
# r = 1, whose diagonal holds cosh 1 or 1 and whose other entries are 0
# or +-sinh 1.
_LAYER = _fold(_squeezers(1.0), (1, 2, 3, 4, 5))[1][:, :-1]
_SQUEEZED = np.diag((np.diag(_LAYER) != 1.0).astype(float))
_PAIRING = np.sign(_LAYER - np.diag(np.diag(_LAYER)))
_TAIL = _fold(_ENCODER_TAIL, (1, 2, 3, 4, 5))[1]


def _compile(tag: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encoder, erasure ``tag`` and its decoder as ``(L, B, c)`` over the encoder's input.

    At squeezing r the rows of ``_decoder_rows(tag)`` are the linear map
    L[0] + cosh r L[1] + sinh r L[2] of the input's quadratures, and their
    mean is B a + c with a the input's (x, p) on mode 1: the squeezers do
    not touch mode 1, and the ancillas' means are 0.
    """
    R = _decoder_rows(tag)
    A = R[:, :-1] @ _TAIL[:, :-1]
    L = np.stack([A - A @ _SQUEEZED, A @ _SQUEEZED, A @ _PAIRING])
    return L, A[:, [0, 5]], R[:, :-1] @ _TAIL[:, -1] + R[:, -1]


_COMPILED = {tag: _compile(tag) for tag in ERASURE_TAGS}
# The recovered wire's rows of every tag, stacked in ERASURE_TAGS order.
_OUTPUT_L = np.stack([_COMPILED[tag][0][:, :2] for tag in ERASURE_TAGS])
_OUTPUT_B = np.stack([_COMPILED[tag][1][:2] for tag in ERASURE_TAGS])
_OUTPUT_C = np.stack([_COMPILED[tag][2][:2] for tag in ERASURE_TAGS])
# Decoders that homodyne a port (rows beyond x and p): with an rng they
# sample its outcome.
_MEASURING = {tag for tag in ERASURE_TAGS if len(_COMPILED[tag][1]) > 2}


def _affine(B: np.ndarray, c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """B a + c over the last two axes, entry by entry."""
    return B[..., 0] * a[0] + B[..., 1] * a[1] + c


def _wire_fidelity(rows: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Fidelity with the input of a wire whose x, p rows (..., 2, 10) act on an
    I/2 input and whose mean is off by ``delta`` (..., 2)."""
    x, p = rows[..., 0, :], rows[..., 1, :]
    return coherent_fidelity(
        (x * x).sum(-1) / 2, (x * p).sum(-1) / 2, (p * p).sum(-1) / 2, delta[..., 0], delta[..., 1]
    )


def _sampled_fidelity(tag: str, ch: float, sh: float, a: np.ndarray, rng) -> float:
    """One fidelity of ``tag`` with every homodyne outcome drawn from ``rng``.

    Averaged over its outcome a measurement is deferred past its
    feedforward, so the sampled output is the averaged one conditioned on
    the measured quadrature taking the drawn value.  Each draw is
    ``rng.normal`` on the quadrature's conditional mean and deviation, as
    ``run`` draws it.  The conditioning acts on the rows, not on a
    covariance, so no e^{2r}-sized entry is formed.
    """
    L, B, c = _COMPILED[tag]
    rows, mean = L[0] + ch * L[1] + sh * L[2], _affine(B, c, a)
    for j in range(2, len(rows)):
        measured = rows[j]
        norm = (measured * measured).sum()
        outcome = rng.normal(mean[j], np.sqrt(norm / 2))
        gain = (rows * measured).sum(-1) / norm
        mean = mean + gain * (outcome - mean[j])
        rows = rows - gain[:, None] * measured
    return _wire_fidelity(rows[:2], mean[:2] - a)


def _fidelities(rs, tags: tuple, alpha: complex, rng=None) -> np.ndarray:
    """Simulated fidelity at every squeezing in ``rs`` (rows) of every tag (columns).

    One batched evaluation of the compiled pipelines.  Each cell depends
    only on its own r and tag, so it does not change with the grid or the
    tags around it.  With an ``rng``, measuring decoders sample their
    outcomes, cell by cell in row order.
    """
    rs = np.asarray(rs, dtype=float)
    if not np.all(np.isfinite(rs)):
        raise ValueError("squeezing parameter must be finite")
    pick = [ERASURE_TAGS.index(tag) for tag in tags]
    a = displacement(alpha.real, alpha.imag)
    ch, sh = np.cosh(rs), np.sinh(rs)
    L = _OUTPUT_L[pick]
    rows = L[:, 0] + ch[:, None, None, None] * L[:, 1] + sh[:, None, None, None] * L[:, 2]
    cells = _wire_fidelity(rows, _affine(_OUTPUT_B[pick], _OUTPUT_C[pick], a) - a)
    if rng is not None:
        for i in range(len(rs)):
            for j, tag in enumerate(tags):
                if tag in _MEASURING:
                    cells[i, j] = _sampled_fidelity(tag, ch[i], sh[i], a, rng)
    return cells


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

    One batched evaluation at the single squeezing r, the tags in the order
    given.  Deterministic by default: the one decoder containing a
    measurement (E4) gives the state averaged over the homodyne outcome,
    exactly, which here equals every outcome's conditional state because
    the feedforward cancels the outcome.  Pass ``rng`` to sample the
    homodyne instead (same fidelity, by design), drawing in tag order.
    """
    tags = tuple(tags)
    for tag in tags:
        _check_tag(tag)
    cells = _fidelities([r], tags, complex(alpha), rng)[0]
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
    grid = np.linspace(spec.r_min, spec.r_max, spec.steps)
    # ERASURE_TAGS order, so a seeded rng is drawn the same way for any
    # order of spec.errors.
    swept = tuple(tag for tag in ERASURE_TAGS if tag in spec.errors)
    rows = []
    for r, cells in zip(grid, _fidelities(grid, swept, spec.alpha, rng)):
        simulated = dict.fromkeys(ERASURE_TAGS, nan)
        simulated.update(zip(swept, map(float, cells)))
        formula = {tag: closed_form_fidelity(tag, r) for tag in ERASURE_TAGS}
        # np.max, unlike max(), lets a nan cell through to the verdict
        row_dev = float(np.max([abs(simulated[tag] - formula[tag]) for tag in swept]))
        rows.append(SweepRow(float(r), simulated, formula, row_dev))
    return SweepResult(spec, tuple(rows), float(np.max([row.max_abs_dev for row in rows])))


class UnreachableTargetError(ValueError):
    pass


def _worst_case_fidelity(r: float) -> float:
    return float(np.min(_fidelities([r], ERASURE_TAGS, 0j)))


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
