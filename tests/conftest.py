import numpy as np
import pytest
from hypothesis import strategies as st

from cvrep.gaussian import GaussianState, omega


# Hypothesis building blocks shared across test modules.

finite_floats = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
small_gains = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
squeeze_params = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)
nonzero_factors = st.floats(min_value=0.2, max_value=4.0).flatmap(
    lambda m: st.sampled_from([m, -m])
)

# Finite matrices whose elimination leaves float range, each with the column
# where it does: an infinite pivot (whose reciprocal is 0), a subnormal one
# (whose reciprocal is infinite) and an infinite QND gain.
OVERFLOWING_MATRICES = {
    "pivot": ([[1e308, 1e308], [1e308, -1e308]], 1),
    "factor": ([[1e-308, 0.0, 0.0], [1.0, 1e308, 1e308], [3.0, 0.0, 1.0]], 2),
    "gain": ([[-1e307, 1e-308, 1e308], [3.0, 3.0, 1e307], [1e308, 1e307, -1e307]], 2),
}


def apply_op(state: GaussianState, op) -> GaussianState:
    """``state`` after the one-op circuit ``op``; wire label i + 1 is mode i."""
    from cvrep.circuits import Circuit, run

    return run(Circuit(tuple(range(1, state.n_modes + 1)), (op,)), state).state


def random_gaussian_state(rng: np.random.Generator, n_modes: int) -> GaussianState:
    """A generic valid Gaussian state: random symplectic-ish squeeze/rotate mix."""
    from cvrep import gaussian as g
    from cvrep.circuits import Displace, PhaseShift, Qnd, SqueezeFactor

    state = g.vacuum(n_modes)
    for mode in range(n_modes):
        state = apply_op(state, SqueezeFactor(mode + 1, float(np.exp(rng.uniform(-0.8, 0.8)))))
        state = apply_op(state, PhaseShift(mode + 1, float(rng.uniform(0, 2 * np.pi))))
        state = apply_op(state, Displace(mode + 1, complex(rng.normal(), rng.normal())))
    for _ in range(n_modes):
        a, b = rng.choice(n_modes, size=2, replace=False)
        state = apply_op(state, Qnd(int(a) + 1, int(b) + 1, float(rng.uniform(-1, 1))))
    return state


def assert_valid_state(state: GaussianState):
    n = state.n_modes
    np.testing.assert_allclose(state.cov, state.cov.T, atol=1e-12)
    # the uncertainty bound V + i Omega/2 >= 0, a Hermitian eigenvalue test
    assert np.linalg.eigvalsh(state.cov + 0.5j * omega(n)).min() >= -1e-9


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
