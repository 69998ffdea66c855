"""Gaussian-state simulator.

A state is a mean vector and a factor F over quadrature coordinates ordered
``[x_1 .. x_n, p_1 .. p_n]``, with covariance V = F F^T / 2.  Conventions:
hbar = 1, x = (a + a†)/sqrt(2), so the vacuum variance of every quadrature
is 1/2 and [x, p] = i.

All operations are value-style: they validate their inputs, never mutate the
given state, and return a fresh :class:`GaussianState`.  They act on F alone,
so a map that cancels e^{r}-sized rows of F keeps only their rounding.  Each
symplectic gate is written down once, as a block function (``qnd_block``,
``squeeze_block``, ...) giving its 2k x 2k matrix over its k modes, or, for
the two-mode squeezer, as its e^{r} and e^{-r} terms, which the circuit op
table ``circuits.ir.OPS`` names; the one engine that applies gates is the
circuit interpreter (``_fold``), so there are no gate functions here.
Every block function that takes a parameter broadcasts: an array of
parameters gives one block per entry, shape ``param.shape + (2k, 2k)``,
each byte for byte the block of that entry alone, so the position check
builds each kind's blocks in one call.
One rule conditions a state on a measured quadrature, ``_condition``, which
``homodyne`` and the interpreter's ``run`` share.
"""

from __future__ import annotations

from copy import deepcopy
from functools import cached_property

import numpy as np

from ._value import Value
from .tolerances import TOL

__all__ = [
    "GaussianState",
    "SymplecticMap",
    "MeasurementRecord",
    "DegenerateMeasurementError",
    "omega",
    "tensor",
    "vacuum",
    "coherent",
    "homodyne",
    "discard",
    "coherent_fidelity",
    "fidelity_with_coherent",
]


class DegenerateMeasurementError(ValueError):
    """Raised when a homodyne measures a quadrature whose factor row is exactly 0."""


def omega(n_modes: int) -> np.ndarray:
    r"""Canonical symplectic form on ``n_modes`` modes in xxpp ordering.

    With :math:`u = (\vec s_1, \vec t_1)`, :math:`v = (\vec s_2, \vec t_2)`,
    the form is :math:`u^T \Omega v = \vec s_1 \cdot \vec t_2 - \vec t_1 \cdot \vec s_2`.
    """
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


class GaussianState:
    """Mean vector + factor F over n modes, xxpp ordering: covariance V = F F^T / 2.

    ``GaussianState(mean, cov)`` validates V and keeps it; F comes from
    ``eigh(V)`` on first use, rounding below 0 clamped.  The package's own
    results hold a factor (``_of``) and form V on first read.  Two states
    are equal when their means and V are, entry by entry; F is not compared.
    """

    def __init__(self, mean: np.ndarray, cov: np.ndarray):
        mean, cov = np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0:
            raise ValueError(f"mean must be a vector of even length, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"cov shape {cov.shape} inconsistent with mean of length {mean.size}")
        self.n_modes, self.mean, self.cov = mean.size // 2, mean, cov
        self.validate()

    @classmethod
    def _of(cls, mean: np.ndarray, factor: np.ndarray) -> "GaussianState":
        state = cls.__new__(cls)  # unvalidated
        state.n_modes, state.mean, state.factor = mean.size // 2, mean, factor
        return state

    @cached_property
    def cov(self) -> np.ndarray:
        return self.factor @ self.factor.T / 2

    @cached_property
    def factor(self) -> np.ndarray:
        w, U = np.linalg.eigh(self.cov)
        return U * np.sqrt(2 * np.maximum(w, 0.0))

    def validate(self) -> None:
        if not np.all(np.isfinite(self.mean)) or not np.all(np.isfinite(self.cov)):
            raise ValueError("state contains non-finite entries")
        asym = np.max(np.abs(self.cov - self.cov.T), initial=0.0)
        if asym > TOL.cov_symmetry:
            raise ValueError(f"covariance not symmetric: max asymmetry {asym:.3e}")
        if self.n_modes:
            # The uncertainty bound V + i Omega/2 >= 0 as a Hermitian test: unlike
            # the symplectic spectrum it needs no V > 0, and its rounding scales
            # with V's entries, so the slack does too.
            low = np.linalg.eigvalsh(self.cov + 0.5j * omega(self.n_modes)).min()
            if low < -TOL.symplectic_eig_slack * max(1.0, np.abs(self.cov).max()):
                raise ValueError(
                    f"covariance violates the uncertainty bound: "
                    f"V + i Omega/2 has eigenvalue {low!r} < 0"
                )

    def copy(self) -> "GaussianState":
        return deepcopy(self)  # whatever it holds: V, F or both

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.mean, other.mean) and np.array_equal(self.cov, other.cov)

    def __repr__(self) -> str:
        return f"GaussianState(n_modes={self.n_modes})"


class SymplecticMap(Value):
    """Affine Gaussian map: state -> (matrix @ mean + displacement, matrix @ factor)."""

    __slots__ = ("matrix", "displacement")

    def __init__(self, matrix: np.ndarray, displacement: np.ndarray):
        S, d = (np.asarray(M, dtype=float) for M in (matrix, displacement))
        self._set(S, d)
        n2 = S.shape[0]
        if S.shape != (n2, n2) or n2 % 2 or d.shape != (n2,):
            raise ValueError(f"bad shapes: matrix {S.shape}, displacement {d.shape}")
        if not (np.isfinite(S).all() and np.isfinite(d).all()):
            raise ValueError("matrix and displacement must be finite")
        form = omega(n2 // 2)
        defect = np.max(np.abs(S @ form @ S.T - form))
        if not defect <= TOL.symplectic_check:
            # Rounding in S @ form @ S.T grows with the square of S's
            # entries, so the allowed defect does too.
            limit = TOL.symplectic_check * max(1.0, np.abs(S).max()) ** 2
            if not defect <= limit:
                raise ValueError(f"matrix is not symplectic: defect {defect:.3e} > {limit:.1e}")

    def after(self, first: "SymplecticMap") -> "SymplecticMap":
        """The composite map 'first, then self'."""
        return SymplecticMap(
            self.matrix @ first.matrix,
            self.matrix @ first.displacement + self.displacement,
        )

    def apply(self, state: GaussianState) -> GaussianState:
        if self.matrix.shape[0] != 2 * state.n_modes:
            raise ValueError(
                f"map on {self.matrix.shape[0] // 2} modes applied to "
                f"{state.n_modes}-mode state"
            )
        return GaussianState._of(self.matrix @ state.mean + self.displacement, self.matrix @ state.factor)


class MeasurementRecord(Value):
    """Outcome of one homodyne: which mode index was measured, in which basis."""

    __slots__ = ("mode", "basis", "outcome")

    def __init__(self, mode: int, basis: str, outcome: float):
        if basis not in ("x", "p"):
            raise ValueError(f"basis must be 'x' or 'p', got {basis!r}")
        if not np.isfinite(outcome):
            raise ValueError("measurement outcome must be finite")
        self._set(mode, basis, outcome)


# ---------------------------------------------------------------------------
# state constructors

def vacuum(n_modes: int) -> GaussianState:
    """n-mode vacuum: zero mean, factor I (covariance I/2)."""
    if n_modes < 1:
        raise ValueError("vacuum needs at least one mode")
    return GaussianState._of(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def _amplitude(alpha) -> complex:
    """``alpha`` as a complex displacement amplitude.

    ValueError unless it is finite and so is its mean photon number |alpha|^2,
    which also keeps the quadrature mean sqrt(2) alpha far inside float range.
    """
    alpha = complex(alpha)
    if not np.isfinite(alpha.real) or not np.isfinite(alpha.imag):
        raise ValueError("displacement amplitude must be finite")
    if not np.isfinite(alpha.real * alpha.real + alpha.imag * alpha.imag):
        raise ValueError(f"displacement amplitude {alpha} is too large: |alpha|^2 overflows")
    return alpha


def coherent(alpha: complex) -> GaussianState:
    """Single-mode coherent state: displaced vacuum, mean (sqrt2 Re a, sqrt2 Im a)."""
    alpha = _amplitude(alpha)
    return GaussianState._of(displacement(alpha.real, alpha.imag), np.eye(2))


def tensor(*states: GaussianState) -> GaussianState:
    """Product state, later states' modes and factor columns after earlier ones'."""
    if not states:
        raise ValueError("tensor of zero states")
    n = sum(s.n_modes for s in states)
    mean = np.zeros(2 * n)
    factor = np.zeros((2 * n, sum(s.factor.shape[1] for s in states)))
    offset = column = 0
    for s in states:
        idx = _rows(range(offset, offset + s.n_modes), n)
        mean[idx] = s.mean
        factor[idx, column : column + s.factor.shape[1]] = s.factor
        offset, column = offset + s.n_modes, column + s.factor.shape[1]
    return GaussianState._of(mean, factor)


# ---------------------------------------------------------------------------
# index helpers and gate blocks

def _rows(modes, n_modes: int) -> np.ndarray:
    """Indices of the x rows, then the p rows, of ``modes`` in an n-mode state."""
    return np.array([*modes, *(n_modes + m for m in modes)], dtype=np.intp)


def _check_mode(state: GaussianState, mode: int) -> None:
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode {mode} out of range for {state.n_modes}-mode state")


def _quad_index(state: GaussianState, mode: int, quad: str) -> int:
    _check_mode(state, mode)
    if quad not in ("x", "p"):
        raise ValueError(f"quadrature must be 'x' or 'p', got {quad!r}")
    return mode if quad == "x" else state.n_modes + mode


def displacement(re: float, im: float) -> np.ndarray:
    """(x, p) mean shift of a displacement by the amplitude re + i im."""
    return np.sqrt(2.0) * np.array([re, im])


def squeeze_block(factor) -> np.ndarray:
    """x *= factor and p /= factor."""
    factor = np.asarray(factor, dtype=float)
    block = np.zeros(factor.shape + (2, 2))
    block[..., 0, 0] = factor
    with np.errstate(over="ignore"):  # 1/factor of a subnormal factor is inf, as in float division
        block[..., 1, 1] = 1.0 / factor
    return block


def phase_block(phi) -> np.ndarray:
    """A rotation of (x, p) by phi."""
    phi = np.asarray(phi, dtype=float)
    c, s = np.cos(phi), np.sin(phi)
    block = np.empty(phi.shape + (2, 2))
    block[..., 0, 0] = c
    block[..., 0, 1] = -s
    block[..., 1, 0] = s
    block[..., 1, 1] = c
    return block


# Exact quarter/half-turn blocks: these appear inside algebraic rewrite
# identities that are checked to tight tolerances, so they must not pick
# up cos(pi/2) != 0 rounding noise.
def fourier_block() -> np.ndarray:
    return np.array([[0.0, -1.0], [1.0, 0.0]])


def inverse_fourier_block() -> np.ndarray:
    return np.array([[0.0, 1.0], [-1.0, 0.0]])


def pi_block() -> np.ndarray:
    return -np.eye(2)


_EYE4 = np.eye(4)


def qnd_block(gain) -> np.ndarray:
    """x_t += gain x_c and p_c -= gain p_t, over (x_c, x_t, p_c, p_t)."""
    gain = np.asarray(gain, dtype=float)
    block = np.empty(gain.shape + (4, 4))
    block[...] = _EYE4
    block[..., 1, 0] = gain
    block[..., 2, 3] = -gain
    return block


def beam_splitter_pm_block() -> np.ndarray:
    h = 1.0 / np.sqrt(2.0)
    return np.array([[h, h, 0.0, 0.0], [h, -h, 0.0, 0.0], [0.0, 0.0, h, h], [0.0, 0.0, h, -h]])


_SWAP = np.eye(4)[[1, 0, 3, 2]]


def swap_block() -> np.ndarray:
    return _SWAP.copy()


# Over (x_a, x_b, p_a, p_b): the projector onto x_a + x_b and p_a - p_b, and its complement.
_PAIRED = np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0], [0.0, 0.0, -1.0, 1.0]]) / 2
_UNPAIRED = _EYE4 - _PAIRED


def two_mode_squeeze_terms(r) -> tuple:
    """e^{r} times ``_PAIRED`` and e^{-r} times its complement: the two-mode squeezer's block is their sum."""
    r = np.asarray(r, dtype=float)[..., None, None]
    return np.exp(r) * _PAIRED, np.exp(-r) * _UNPAIRED


# ---------------------------------------------------------------------------
# measurement / discard

def _condition(mean, factor, q: int, name: str, outcome) -> tuple:
    """Condition the Gaussian ``(mean, factor)`` on its coordinate ``q``.

    Each row g of F becomes g - (g.f / f.f) f, f the measured row, and the
    mean moves by that gain times the outcome's offset.  ``outcome`` is the
    value, or draws it from the marginal's (mean, sd), as ``rng.normal``.
    Broadcasts over leading axes of ``mean`` (..., k) and ``factor`` (..., k,
    m).  f is scaled exactly by a power of two near its largest entry, so only
    an f of exactly 0 is degenerate, at any scale (``name`` labels the error).
    """
    row = factor[..., q, :]
    size = np.abs(row).max(-1)
    if not (size > 0).all():
        raise DegenerateMeasurementError(f"quadrature {name} has a zero factor row; conditioning is singular")
    e = np.frexp(size)[1][..., None]
    unit = np.ldexp(row, -e)
    norm = (unit * unit).sum(-1)
    value = outcome(mean[..., q], np.ldexp(np.sqrt(norm / 2), e[..., 0])) if callable(outcome) else outcome
    if not np.isfinite(value).all():
        raise ValueError("homodyne outcome must be finite")
    gain = np.ldexp(np.einsum("...kn,...n->...k", factor, unit) / norm[..., None], -e)
    offset = (value - mean[..., q])[..., None]
    return value, mean + gain * offset, factor - gain[..., None] * row[..., None, :]


def homodyne(
    state: GaussianState,
    mode: int,
    basis: str,
    *,
    outcome: float | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[MeasurementRecord, GaussianState]:
    """Measure one quadrature; condition and drop the measured mode.

    Exactly one of ``outcome=value`` (force the result) or ``rng=generator``
    (sample it from the Gaussian marginal) must be given.

    The conditional covariance never depends on the outcome; the state is
    conditioned by ``_condition``.  The measured mode is removed entirely
    -- its conjugate quadrature is junk after the measurement and is not
    tracked.
    """
    q = _quad_index(state, mode, basis)
    if (outcome is None) == (rng is None):
        raise ValueError("choose exactly one of outcome= or rng=")
    draw = rng.normal if outcome is None else float(outcome)
    m, mean, factor = _condition(state.mean, state.factor, q, f"{basis}[{mode}]", draw)
    keep = _rows([i for i in range(state.n_modes) if i != mode], state.n_modes)
    return MeasurementRecord(mode, basis, float(m)), GaussianState._of(mean[keep], factor[keep])


def discard(state: GaussianState, modes) -> GaussianState:
    """Partial trace: delete the given modes' mean entries and factor rows.

    Only the factor columns that are not exactly zero in the kept rows are
    kept: they alone make up V, so a round of ``tensor`` and ``discard``
    does not widen the factor by the discarded modes' columns.
    """
    drop = set(int(m) for m in modes)
    for m in drop:
        _check_mode(state, m)
    if len(drop) >= state.n_modes:
        raise ValueError("cannot discard every mode")
    if not drop:
        return state.copy()
    n = state.n_modes
    idx = _rows([i for i in range(n) if i not in drop], n)
    factor = state.factor[idx]
    return GaussianState._of(state.mean[idx], factor[:, factor.any(axis=0)])


# ---------------------------------------------------------------------------
# fidelity

def coherent_fidelity(vxx, vxp, vpp, dx=None, dp=None):
    """Overlap <alpha| rho |alpha> from rho's covariance and mean, entry by entry.

    ``vxx, vxp, vpp`` are the covariance entries of the single-mode rho and
    ``dx, dp`` its mean minus the coherent state's; without them the means
    are equal.  The closed form F = exp(-1/2 d^T M^-1 d) / sqrt(det M),
    M = V + I/2, is written out for 2 x 2, so the arguments may be arrays
    of any one broadcast shape.  Raises ValueError where det M <= 0.

    M is divided by a power of two t near its largest diagonal entry, so
    that its determinant cannot overflow: where M is positive definite,
    |vxp| is below that entry too, det(M/t) = det M / t^2, and
    sqrt(det M) = t sqrt(det(M/t)).  The offsets are divided by a power of
    two s near their size, so that their squares cannot overflow, and s^2
    multiplies the exponent last.  Scaling by a power of two is exact, so
    the result is the unscaled form's to the bit wherever that form does
    not overflow; where the exponent itself overflows, -inf is its limit
    and F is 0.  Without offsets the exponential is not formed: zero
    offsets give exp(-0.0) = 1, so the result is theirs to the bit.  An
    infinite variance makes the root infinite and F its limit, 0, with or
    without offsets.  Where a diagonal entry is infinite, M is positive
    definite where the other one is positive, and det M is then infinite.
    """
    mxx, mpp = vxx + 0.5, vpp + 0.5
    top = np.maximum(mxx, mpp)
    t = np.ldexp(0.5, np.frexp(top)[1])
    # an M that is not positive definite may overflow here, to a det of
    # -inf, which is rejected; an infinite top entry leaves t = 1/2, so its
    # det may be inf - inf or inf * 0, and is set apart
    with np.errstate(over="ignore", invalid="ignore"):
        axx, app, axp = mxx / t, mpp / t, vxp / t
        det = axx * app - axp * axp
    infinite = np.isinf(top)
    if infinite.any():
        det = np.where(infinite, np.where(np.minimum(mxx, mpp) > 0, np.inf, -np.inf), det)
    with np.errstate(over="ignore"):
        if (det <= 0).any():
            raise ValueError(f"V + I/2 is not positive definite: det = {np.min(det * t * t):.3e}")
        root = t * np.sqrt(det)
        if dx is None and dp is None:
            return 1.0 / root
        # where the root is infinite the quadratic form would take inf * 0:
        # it is 0 there instead, so exp(-0.0) / root gives the limit 0
        axx, app, axp = (np.where(np.isinf(root), 0.0, a) for a in (axx, app, axp))
        s = np.ldexp(0.5, np.frexp(np.maximum(np.abs(dx), np.abs(dp)))[1])
        u, w = dx / s, dp / s
        exponent = -0.5 * ((app * u * u - 2.0 * axp * u * w + axx * w * w) / det / t)
        return np.exp(exponent * s * s) / root


def fidelity_with_coherent(state: GaussianState, alpha: complex) -> float:
    """Overlap <alpha| rho |alpha> for a single-mode Gaussian rho (``coherent_fidelity``)."""
    if state.n_modes != 1:
        raise ValueError(f"fidelity_with_coherent needs a single-mode state, got {state.n_modes}")
    alpha = _amplitude(alpha)
    (vxx, vxp), (_, vpp) = state.cov
    dx, dp = state.mean - displacement(alpha.real, alpha.imag)
    return float(coherent_fidelity(vxx, vxp, vpp, dx, dp))
