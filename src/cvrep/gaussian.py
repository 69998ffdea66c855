"""Gaussian-state simulator.

States are Gaussian, represented by a mean vector and covariance matrix over
quadrature coordinates ordered ``[x_1 .. x_n, p_1 .. p_n]``.  Conventions:
hbar = 1, x = (a + a†)/sqrt(2), so the vacuum variance of every quadrature
is 1/2 and [x, p] = i.

All operations are value-style: they validate their inputs, never mutate the
given state, and return a fresh :class:`GaussianState`.  Each symplectic gate
is written down once, as a block function (``qnd_block``, ``squeeze_block``,
...) giving its 2k x 2k matrix over its k modes, which the circuit op table
``circuits.ir.OPS`` names; the one engine that applies gates is the circuit
interpreter (``_fold``, and ``_fold_positions`` for position-only circuits),
so there are no gate functions here.  Measurements condition the state with
the standard Gaussian (Schur complement) update, ``_condition``, which the
interpreter's ``run`` shares, and ``homodyne`` then drops the measured mode
entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """Raised when a homodyne hits a quadrature with (numerically) zero variance."""


def omega(n_modes: int) -> np.ndarray:
    r"""Canonical symplectic form on ``n_modes`` modes in xxpp ordering.

    With :math:`u = (\vec s_1, \vec t_1)`, :math:`v = (\vec s_2, \vec t_2)`,
    the form is :math:`u^T \Omega v = \vec s_1 \cdot \vec t_2 - \vec t_1 \cdot \vec s_2`.
    """
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


class GaussianState:
    """Mean vector + covariance matrix over n modes, xxpp ordering."""

    def __init__(self, mean: np.ndarray, cov: np.ndarray, *, _validate: bool = True):
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        if mean.ndim != 1 or mean.size % 2 != 0:
            raise ValueError(f"mean must be a vector of even length, got shape {mean.shape}")
        n = mean.size // 2
        if cov.shape != (2 * n, 2 * n):
            raise ValueError(
                f"cov shape {cov.shape} inconsistent with mean of length {mean.size}"
            )
        self.n_modes = n
        self.mean = mean
        self.cov = cov
        if _validate:
            self.validate()

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
        return GaussianState(self.mean.copy(), self.cov.copy(), _validate=False)

    # Convenience views used by code/nullifier analysis.
    @property
    def cov_x(self) -> np.ndarray:
        n = self.n_modes
        return self.cov[:n, :n]

    @property
    def cov_p(self) -> np.ndarray:
        n = self.n_modes
        return self.cov[n:, n:]

    def __repr__(self) -> str:
        return f"GaussianState(n_modes={self.n_modes})"


@dataclass(frozen=True)
class SymplecticMap:
    """Affine Gaussian map: state -> (matrix @ mean + displacement, matrix @ cov @ matrix.T)."""

    matrix: np.ndarray
    displacement: np.ndarray

    def __post_init__(self):
        S = np.asarray(self.matrix, dtype=float)
        d = np.asarray(self.displacement, dtype=float)
        object.__setattr__(self, "matrix", S)
        object.__setattr__(self, "displacement", d)
        n2 = S.shape[0]
        if S.shape != (n2, n2) or n2 % 2 or d.shape != (n2,):
            raise ValueError(f"bad shapes: matrix {S.shape}, displacement {d.shape}")
        form = omega(n2 // 2)
        defect = np.max(np.abs(S @ form @ S.T - form))
        if defect > TOL.symplectic_check:
            # Rounding in S @ form @ S.T grows with the square of S's
            # entries, so the allowed defect does too.
            limit = TOL.symplectic_check * max(1.0, np.abs(S).max()) ** 2
            if defect > limit:
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
        return GaussianState(
            self.matrix @ state.mean + self.displacement,
            self.matrix @ state.cov @ self.matrix.T,
            _validate=False,
        )


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome of one homodyne: which mode index was measured, in which basis."""

    mode: int
    basis: str
    outcome: float

    def __post_init__(self):
        if self.basis not in ("x", "p"):
            raise ValueError(f"basis must be 'x' or 'p', got {self.basis!r}")
        if not np.isfinite(self.outcome):
            raise ValueError("measurement outcome must be finite")


# ---------------------------------------------------------------------------
# state constructors

def vacuum(n_modes: int) -> GaussianState:
    """n-mode vacuum: zero mean, covariance I/2."""
    if n_modes < 1:
        raise ValueError("vacuum needs at least one mode")
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes) / 2, _validate=False)


def _amplitude(alpha) -> complex:
    """``alpha`` as a complex displacement amplitude; ValueError unless it is finite."""
    alpha = complex(alpha)
    if not np.isfinite(alpha.real) or not np.isfinite(alpha.imag):
        raise ValueError("displacement amplitude must be finite")
    return alpha


def coherent(alpha: complex) -> GaussianState:
    """Single-mode coherent state: displaced vacuum, mean (sqrt2 Re a, sqrt2 Im a)."""
    alpha = _amplitude(alpha)
    return GaussianState(displacement(alpha.real, alpha.imag), np.eye(2) / 2, _validate=False)


def tensor(*states: GaussianState) -> GaussianState:
    """Product state; modes of later factors are appended after earlier ones."""
    if not states:
        raise ValueError("tensor of zero states")
    n = sum(s.n_modes for s in states)
    mean = np.zeros(2 * n)
    cov = np.zeros((2 * n, 2 * n))
    offset = 0
    for s in states:
        m = s.n_modes
        idx = _rows(range(offset, offset + m), n)
        mean[idx] = s.mean
        cov[idx[:, None], idx] = s.cov
        offset += m
    return GaussianState(mean, cov, _validate=False)


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


def squeeze_block(factor: float) -> np.ndarray:
    if factor == 0 or not np.isfinite(factor):
        raise ValueError(f"squeeze factor must be finite and nonzero, got {factor!r}")
    return np.array([[factor, 0.0], [0.0, 1.0 / factor]])


def phase_block(phi: float) -> np.ndarray:
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, -s], [s, c]])


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
    """x_t += gain x_c and p_c -= gain p_t, over (x_c, x_t, p_c, p_t).

    Broadcasts: an array of gains gives one block per gain, shape
    ``gain.shape + (4, 4)``, as the position check reads every QND of a
    circuit in one call.
    """
    gain = np.asarray(gain, dtype=float)
    block = np.empty(gain.shape + (4, 4))
    block[...] = _EYE4
    block[..., 1, 0] = gain
    block[..., 2, 3] = -gain
    return block


def beam_splitter_pm_block() -> np.ndarray:
    h = 1.0 / np.sqrt(2.0)
    return np.array([[h, h, 0.0, 0.0], [h, -h, 0.0, 0.0], [0.0, 0.0, h, h], [0.0, 0.0, h, -h]])


def swap_block() -> np.ndarray:
    return np.eye(4)[[1, 0, 3, 2]]


def two_mode_squeeze_block(r: float) -> np.ndarray:
    ch, sh = np.cosh(r), np.sinh(r)
    return np.array(
        [
            [ch, sh, 0.0, 0.0],
            [sh, ch, 0.0, 0.0],
            [0.0, 0.0, ch, -sh],
            [0.0, 0.0, -sh, ch],
        ]
    )


# ---------------------------------------------------------------------------
# measurement / discard

def _condition(mean, cov, q: int, name: str, outcome, rng) -> tuple:
    """Condition the Gaussian ``(mean, cov)`` on its coordinate ``q``.

    The value is ``outcome`` if given, else one draw from the marginal
    N(mean[q], cov[q, q]) by ``rng``.  Returns ``(value, mean, cov)``; the
    conditioned coordinate keeps its row (with zero variance), and ``name``
    labels it in the degenerate-variance error.
    """
    var_q = cov[q, q]
    if var_q < TOL.degenerate_variance:
        raise DegenerateMeasurementError(
            f"quadrature {name} has variance {var_q:.3e}; conditioning is singular"
        )
    m = float(outcome) if outcome is not None else float(rng.normal(mean[q], np.sqrt(var_q)))
    if not np.isfinite(m):
        raise ValueError("homodyne outcome must be finite")
    col = cov[:, q]
    return m, mean + col * ((m - mean[q]) / var_q), cov - np.outer(col, col) / var_q


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

    The conditional covariance never depends on the outcome; the conditional
    mean follows the standard Gaussian conditioning (Schur complement) rule.
    The measured mode is removed entirely -- its conjugate quadrature is
    junk after the measurement and is not tracked.
    """
    q = _quad_index(state, mode, basis)
    if (outcome is None) == (rng is None):
        raise ValueError("choose exactly one of outcome= or rng=")
    m, mean, cov = _condition(state.mean, state.cov, q, f"{basis}[{mode}]", outcome, rng)
    keep = _rows([i for i in range(state.n_modes) if i != mode], state.n_modes)
    reduced = GaussianState(mean[keep], cov[keep[:, None], keep], _validate=False)
    return MeasurementRecord(mode, basis, m), reduced


def discard(state: GaussianState, modes) -> GaussianState:
    """Partial trace: delete the given modes' mean entries and cov rows/columns."""
    drop = set(int(m) for m in modes)
    for m in drop:
        _check_mode(state, m)
    if len(drop) >= state.n_modes:
        raise ValueError("cannot discard every mode")
    if not drop:
        return state.copy()
    n = state.n_modes
    idx = _rows([i for i in range(n) if i not in drop], n)
    return GaussianState(state.mean[idx], state.cov[idx[:, None], idx], _validate=False)


# ---------------------------------------------------------------------------
# fidelity

def coherent_fidelity(vxx, vxp, vpp, dx, dp):
    """Overlap <alpha| rho |alpha> from rho's covariance and mean, entry by entry.

    ``vxx, vxp, vpp`` are the covariance entries of the single-mode rho and
    ``dx, dp`` its mean minus the coherent state's.  The closed form
    F = exp(-1/2 d^T M^-1 d) / sqrt(det M), M = V + I/2, is written out for
    2 x 2, so the arguments may be arrays of any one broadcast shape.
    Raises ValueError where det M <= 0.
    """
    mxx, mpp = vxx + 0.5, vpp + 0.5
    det = mxx * mpp - vxp * vxp
    if np.any(det <= 0):
        raise ValueError(f"V + I/2 is not positive definite: det = {np.min(det):.3e}")
    return np.exp(-0.5 * (mpp * dx * dx - 2.0 * vxp * dx * dp + mxx * dp * dp) / det) / np.sqrt(det)


def fidelity_with_coherent(state: GaussianState, alpha: complex) -> float:
    """Overlap <alpha| rho |alpha> for a single-mode Gaussian rho (``coherent_fidelity``)."""
    if state.n_modes != 1:
        raise ValueError(f"fidelity_with_coherent needs a single-mode state, got {state.n_modes}")
    alpha = _amplitude(alpha)
    (vxx, vxp), (_, vpp) = state.cov
    dx, dp = state.mean - displacement(alpha.real, alpha.imag)
    return float(coherent_fidelity(vxx, vxp, vpp, dx, dp))
