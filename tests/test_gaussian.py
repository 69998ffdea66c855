"""State constructors, Gaussian gates, homodyne conditioning, and fidelity.

Gates and feedforward run as one-op circuits through ``run``: ``gaussian``
holds the gate blocks, not gate functions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import apply_op, assert_valid_state, finite_floats, random_gaussian_state, squeeze_params
from oracles import schur_condition, wigner_overlap_fidelity

from cvrep import gaussian as g
from cvrep.circuits import (
    BeamSplitterPM,
    Circuit,
    Displace,
    FeedforwardDisplace,
    Fourier,
    InverseFourier,
    Measure,
    PhaseShift,
    Qnd,
    SqueezeFactor,
    TwoModeSqueeze,
    ideal_encoded_state,
    optical_encoded_state,
    run,
)
from cvrep.gaussian import DegenerateMeasurementError

SQRT2 = math.sqrt(2.0)


def squeezed(state, mode, r):
    """``state`` with x of ``mode`` scaled by e^r and p by e^-r (one-op circuit)."""
    return apply_op(state, SqueezeFactor(mode + 1, math.exp(r)))


def displaced(state, mode, alpha):
    return apply_op(state, Displace(mode + 1, alpha))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def test_vacuum_is_centered_with_half_variance():
    state = g.vacuum(3)
    assert state.n_modes == 3
    np.testing.assert_array_equal(state.mean, np.zeros(6))
    np.testing.assert_allclose(state.cov, 0.5 * np.eye(6), atol=0)


def test_coherent_mean_scaling():
    state = g.coherent(1 + 0j)
    np.testing.assert_allclose(state.mean, [SQRT2, 0.0], atol=1e-15)
    np.testing.assert_allclose(state.cov, 0.5 * np.eye(2), atol=0)

    state = g.coherent(2j)
    np.testing.assert_allclose(state.mean, [0.0, 2 * SQRT2], atol=1e-15)


@pytest.mark.parametrize("alpha", [complex(math.inf, 0), complex(0, math.nan)])
def test_coherent_rejects_a_non_finite_amplitude(alpha):
    with pytest.raises(ValueError, match="finite"):
        g.coherent(alpha)


@pytest.mark.parametrize("alpha", [1e308, -1e200j, complex(1e154, 1e154)])
def test_coherent_rejects_an_amplitude_whose_photon_number_overflows(alpha):
    # sqrt(2) alpha would be finite for the first, but |alpha|^2 is not
    with pytest.raises(ValueError, match=r"too large: \|alpha\|\^2 overflows$"):
        g.coherent(alpha)
    state = g.coherent(1e150 + 1e150j)
    assert np.all(np.isfinite(state.mean))


def test_tensor_concatenates_blocks():
    a = g.coherent(1 + 1j)
    b = squeezed(g.vacuum(1), 0, 0.3)
    joint = g.tensor(a, b)
    assert joint.n_modes == 2
    # xxpp ordering: means interleave as (x_a, x_b, p_a, p_b)
    np.testing.assert_allclose(joint.mean, [SQRT2, 0.0, SQRT2, 0.0], atol=1e-15)
    assert joint.cov[1, 1] == pytest.approx(0.5 * math.exp(0.6))
    assert joint.cov[0, 1] == 0.0


def test_state_validation_rejects_asymmetric_cov():
    bad = 0.5 * np.eye(2)
    bad[0, 1] = 0.3
    with pytest.raises(ValueError):
        g.GaussianState(np.zeros(2), bad)


def test_state_validation_rejects_unphysical_cov():
    with pytest.raises(ValueError):
        g.GaussianState(np.zeros(2), 0.1 * np.eye(2))


@pytest.mark.parametrize("diagonal", [[-0.5, -0.5], [2.0, -2.0], [0.5, -0.5], [1e4, 1e-6]])
def test_state_validation_rejects_a_covariance_below_the_uncertainty_bound(diagonal):
    # The first three are not positive definite, yet |eig(i Omega V)| of each
    # is at least 1/2; the last has Var(x) Var(p) = 1e-2 < 1/4 at entries of 1e4.
    with pytest.raises(ValueError, match="uncertainty bound"):
        g.GaussianState(np.zeros(2), np.diag(diagonal))


@pytest.mark.parametrize("r", [1.0, 5.0, 8.0, 12.0, 20.0])
def test_state_validation_accepts_the_encoded_states_at_any_squeezing(r):
    # pure five-mode states whose covariance entries reach e^{2r}
    for state in (optical_encoded_state(r), ideal_encoded_state(r)):
        again = g.GaussianState(state.mean, state.cov)
        assert np.array_equal(again.cov, state.cov)


# ---------------------------------------------------------------------------
# single- and two-mode gates, each run as a one-op circuit
# ---------------------------------------------------------------------------


def test_displace_shifts_mean_only():
    state = displaced(g.vacuum(2), 1, 0.5 - 2j)
    np.testing.assert_allclose(state.mean, [0, 0.5 * SQRT2, 0, -2 * SQRT2], atol=1e-15)
    np.testing.assert_array_equal(state.cov, g.vacuum(2).cov)


def test_squeeze_variances():
    r = 0.4
    state = squeezed(g.vacuum(1), 0, r)
    assert state.cov[0, 0] == pytest.approx(0.5 * math.exp(2 * r), rel=1e-12)
    assert state.cov[1, 1] == pytest.approx(0.5 * math.exp(-2 * r), rel=1e-12)


def test_squeeze_by_factor_matches_exponential_form():
    state = apply_op(g.coherent(1 + 1j), SqueezeFactor(1, math.exp(0.7)))
    np.testing.assert_allclose(state.mean, [SQRT2 * math.exp(0.7), SQRT2 * math.exp(-0.7)], atol=1e-12)
    np.testing.assert_allclose(state.cov, np.diag([math.exp(1.4), math.exp(-1.4)]) / 2, atol=1e-12)


def test_squeeze_by_negative_factor_flips_sign():
    state = apply_op(g.coherent(1 + 0j), SqueezeFactor(1, -2.0))
    assert state.mean[0] == pytest.approx(-2 * SQRT2)
    assert state.mean[1] == pytest.approx(0.0)
    assert state.cov[0, 0] == pytest.approx(2.0)
    assert state.cov[1, 1] == pytest.approx(0.125)


def test_squeeze_by_zero_factor_rejected():
    with pytest.raises(ValueError):
        SqueezeFactor(1, 0.0)


def test_two_mode_squeeze_correlates_x_and_anticorrelates_p():
    r = 0.6
    state = apply_op(g.vacuum(2), TwoModeSqueeze(1, 2, r))
    ch, sh = 0.5 * math.cosh(2 * r), 0.5 * math.sinh(2 * r)
    np.testing.assert_allclose(state.cov[:2, :2], [[ch, sh], [sh, ch]], atol=1e-12)
    np.testing.assert_allclose(state.cov[2:, 2:], [[ch, -sh], [-sh, ch]], atol=1e-12)
    # the paired quadrature x_a - x_b is squeezed below vacuum
    diff_var = state.cov[0, 0] + state.cov[1, 1] - 2 * state.cov[0, 1]
    assert 0.5 * diff_var == pytest.approx(0.5 * math.exp(-2 * r), rel=1e-12)


@given(re=finite_floats, im=finite_floats)
def test_balanced_splitter_merges_identical_coherent_beams(re, im):
    alpha = complex(re, im)
    state = g.tensor(g.coherent(alpha), g.coherent(alpha))
    out = apply_op(state, BeamSplitterPM(1, 2))
    expect = g.tensor(g.coherent(SQRT2 * alpha), g.vacuum(1))
    np.testing.assert_allclose(out.mean, expect.mean, atol=1e-12)
    np.testing.assert_allclose(out.cov, expect.cov, atol=1e-12)


def test_balanced_splitter_is_an_involution(rng):
    state = random_gaussian_state(rng, 3)
    twice = apply_op(apply_op(state, BeamSplitterPM(1, 3)), BeamSplitterPM(1, 3))
    np.testing.assert_allclose(twice.mean, state.mean, atol=1e-12)
    np.testing.assert_allclose(twice.cov, state.cov, atol=1e-12)


def test_beam_splitter_splits_tmsv_into_two_squeezers():
    # a two-mode squeezed pair is two single-mode squeezed states on the
    # +/- ports of a balanced splitter
    r = 0.5
    state = apply_op(apply_op(g.vacuum(2), TwoModeSqueeze(1, 2, r)), BeamSplitterPM(1, 2))
    squeezed_plus = squeezed(g.vacuum(1), 0, r)
    squeezed_minus = squeezed(g.vacuum(1), 0, -r)
    np.testing.assert_allclose(state.cov, g.tensor(squeezed_plus, squeezed_minus).cov, atol=1e-12)


def test_quarter_phase_turns_coherent_one_into_coherent_i():
    state = apply_op(g.coherent(1 + 0j), PhaseShift(1, math.pi / 2))
    assert g.fidelity_with_coherent(state, 1j) == pytest.approx(1.0, abs=1e-12)


def test_fourier_is_exactly_the_quarter_turn_matrix():
    state = apply_op(g.coherent(2 - 1j), Fourier(1))
    # x -> -p, p -> x on the mean
    np.testing.assert_array_equal(state.mean, [SQRT2 * 1, SQRT2 * 2])
    undone = apply_op(state, InverseFourier(1))
    np.testing.assert_array_equal(undone.mean, g.coherent(2 - 1j).mean)


def test_qnd_mean_map():
    state = g.tensor(g.coherent(1 + 2j), g.coherent(3 - 1j))
    out = apply_op(state, Qnd(1, 2, 1.5))
    assert out.mean[1] == pytest.approx((3 + 1.5 * 1) * SQRT2)
    assert out.mean[0] == pytest.approx(1 * SQRT2)
    assert out.mean[2] == pytest.approx((2 - 1.5 * (-1)) * SQRT2)
    assert out.mean[3] == pytest.approx(-1 * SQRT2)


def test_qnd_inverse_gain_undoes(rng):
    state = random_gaussian_state(rng, 2)
    back = apply_op(apply_op(state, Qnd(1, 2, 0.8)), Qnd(1, 2, -0.8))
    np.testing.assert_allclose(back.mean, state.mean, atol=1e-12)
    np.testing.assert_allclose(back.cov, state.cov, atol=1e-12)


def test_qnd_block_is_a_fresh_array_each_call():
    block = g.qnd_block(1.5)
    block[0, 0] = 7.0
    np.testing.assert_array_equal(g.qnd_block(1.5), [[1, 0, 0, 0], [1.5, 1, 0, 0], [0, 0, 1, -1.5], [0, 0, 0, 1]])


@pytest.mark.parametrize(
    "block",
    [g.qnd_block, g.squeeze_block, g.phase_block, lambda r: np.stack(g.two_mode_squeeze_terms(r), -3)],
    ids=["qnd", "squeeze", "phase", "two-mode squeeze terms"],
)
def test_each_block_stack_is_its_per_value_blocks_byte_for_byte(block):
    values = np.array([[1.5, -0.25, 0.0], [-0.0, 3.0, 1e-300], [-2.0, 0.7, 41.0], [np.pi, -np.pi / 2, 1e-8]])
    if block is g.squeeze_block:
        values[values == 0.0] = 0.5  # a squeeze factor is not zero
    stack = block(values)
    one = block(0.3)
    assert stack.shape == values.shape + one.shape and stack.dtype == one.dtype == float
    for index in np.ndindex(values.shape):
        assert stack[index].tobytes() == block(float(values[index])).tobytes()
    assert block(np.array([])).shape == (0, *one.shape)
    assert block(np.float64(2.0)).tobytes() == block(2).tobytes() == block(2.0).tobytes()


def test_qnd_block_is_symplectic():
    from cvrep.circuits import Qnd, op_map

    S = op_map(Qnd(1, 2, 1.5), (1, 2)).matrix
    J = g.omega(2)
    np.testing.assert_allclose(S @ J @ S.T, J, atol=1e-12)


@given(r=squeeze_params, phi=st.floats(min_value=0, max_value=2 * math.pi))
@settings(max_examples=60)
def test_gates_preserve_the_uncertainty_bound(r, phi):
    # assert_valid_state checks the Hermitian bound V + i Omega/2 >= 0
    state = squeezed(g.vacuum(2), 0, r)
    for op in (PhaseShift(1, phi), Qnd(1, 2, r), BeamSplitterPM(1, 2)):
        state = apply_op(state, op)
    assert_valid_state(state)


def test_symplectic_map_rejects_an_order_one_non_symplectic_matrix():
    with pytest.raises(ValueError, match="not symplectic"):
        g.SymplecticMap(np.diag([1.0, 1.0, 1.0, 1.0 + 1e-9]), np.zeros(4))


@pytest.mark.parametrize(
    "matrix, displacement",
    [
        (np.full((2, 2), np.nan), np.zeros(2)),
        (np.diag([np.inf, 1.0]), np.zeros(2)),
        (np.eye(2), [0.0, np.nan]),
        (np.eye(2), [np.inf, 0.0]),
    ],
    ids=["nan-matrix", "inf-matrix", "nan-shift", "inf-shift"],
)
def test_symplectic_map_rejects_entries_that_are_not_finite(matrix, displacement):
    # a NaN defect is not > the tolerance, so the check must not read it that way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            g.SymplecticMap(matrix, displacement)


def test_gate_composition_matches_single_symplectic_map(rng):
    from cvrep.circuits import BeamSplitterPM, PhaseShift, Qnd, SqueezeFactor, op_map

    ops = [
        lambda: Qnd(1, 2, float(rng.uniform(-2, 2))),
        lambda: BeamSplitterPM(1, 2),
        lambda: SqueezeFactor(1, float(rng.uniform(0.3, 2.5))),
        lambda: PhaseShift(2, float(rng.uniform(0, 2 * math.pi))),
    ]
    for _ in range(100):
        first = op_map(ops[rng.integers(len(ops))](), (1, 2))
        second = op_map(ops[rng.integers(len(ops))](), (1, 2))
        state = random_gaussian_state(rng, 2)
        stepped = second.apply(first.apply(state))
        fused = second.after(first).apply(state)
        np.testing.assert_allclose(stepped.mean, fused.mean, atol=1e-10)
        np.testing.assert_allclose(stepped.cov, fused.cov, atol=1e-10)


# ---------------------------------------------------------------------------
# homodyne measurement
# ---------------------------------------------------------------------------


def test_homodyne_requires_exactly_one_outcome_policy(rng):
    state = g.vacuum(2)
    with pytest.raises(ValueError):
        g.homodyne(state, 0, "x")
    with pytest.raises(ValueError):
        g.homodyne(state, 0, "x", outcome=1.0, rng=rng)


def test_homodyne_on_product_state_leaves_partner_untouched():
    state = g.tensor(g.coherent(1 + 1j), squeezed(g.vacuum(1), 0, 0.5))
    record, rest = g.homodyne(state, 1, "p", outcome=4.2)
    assert record.mode == 1 and record.basis == "p" and record.outcome == 4.2
    np.testing.assert_allclose(rest.mean, g.coherent(1 + 1j).mean, atol=1e-14)
    np.testing.assert_allclose(rest.cov, g.coherent(1 + 1j).cov, atol=1e-14)


def test_homodyne_tmsv_conditional_mean_is_tanh_weighted():
    r = 0.8
    state = apply_op(g.vacuum(2), TwoModeSqueeze(1, 2, r))
    for m in (0.0, 1.3, -2.2):
        _, rest = g.homodyne(state, 1, "x", outcome=m)
        assert rest.mean[0] == pytest.approx(math.tanh(2 * r) * m, abs=1e-12)
        assert rest.mean[1] == 0.0
        # conditional variance drops below vacuum: 1/(2 cosh 2r)
        assert rest.cov[0, 0] == pytest.approx(0.5 / math.cosh(2 * r), rel=1e-12)


def test_homodyne_agrees_with_direct_schur_conditioning(rng):
    for _ in range(20):
        state = random_gaussian_state(rng, 3)
        mode = int(rng.integers(3))
        basis = "x" if rng.integers(2) else "p"
        m = float(rng.normal(scale=2))
        want_mean, want_cov = schur_condition(state.mean, state.cov, mode, basis, m)
        _, rest = g.homodyne(state, mode, basis, outcome=m)
        np.testing.assert_allclose(rest.mean, want_mean, atol=1e-10)
        np.testing.assert_allclose(rest.cov, want_cov, atol=1e-10)


def test_homodyne_covariance_ignores_the_outcome(rng):
    state = random_gaussian_state(rng, 3)
    _, rest0 = g.homodyne(state, 1, "x", outcome=0.0)
    _, rest7 = g.homodyne(state, 1, "x", outcome=7.3)
    assert np.max(np.abs(rest0.cov - rest7.cov)) <= 1e-12


def test_homodyne_sampling_is_seeded_and_follows_the_marginal():
    state = squeezed(g.vacuum(1), 0, 0.5)
    rng_a = np.random.default_rng(11)
    rng_b = np.random.default_rng(11)
    rec_a, _ = g.homodyne(state, 0, "x", rng=rng_a)
    rec_b, _ = g.homodyne(state, 0, "x", rng=rng_b)
    assert rec_a.outcome == rec_b.outcome

    rng = np.random.default_rng(0)
    samples = [g.homodyne(state, 0, "x", rng=rng)[0].outcome for _ in range(4000)]
    assert np.var(samples) == pytest.approx(state.cov[0, 0], rel=0.1)
    assert np.mean(samples) == pytest.approx(0.0, abs=0.1)


def test_homodyne_average_uses_the_current_mean():
    state = displaced(g.vacuum(2), 0, 1.5 + 0j)
    result = run(Circuit((1, 2), (Measure(1, "x", "m"),)), state, average=True)
    assert result.records["m"].outcome == pytest.approx(1.5 * SQRT2)


def zero_x_row_state():
    """Two modes whose factor row for x of mode 0 is exactly 0 (Var(x_0) = 0)."""
    return g.GaussianState._of(np.zeros(4), np.diag([0.0, 1.0, 1.0, 1.0]))


def test_homodyne_degenerate_quadrature_is_reported():
    with pytest.raises(DegenerateMeasurementError, match=r"x\[0\]"):
        g.homodyne(zero_x_row_state(), 0, "x", outcome=0.0)
    with pytest.raises(DegenerateMeasurementError):
        g.homodyne(zero_x_row_state(), 0, "x", rng=np.random.default_rng(0))


@pytest.mark.parametrize("r", [17.0, 30.0, 400.0])
def test_homodyne_of_a_strongly_squeezed_quadrature_conditions_to_the_closed_form(r):
    # x_0 squeezed by e^{-r} (variance e^{-2r}/2, far below any absolute
    # cutoff), then x_1 += 2 x_0: measuring x_0 = m leaves mode 1 a coherent
    # state shifted by 2 m in x, at any r.
    alpha, m = 0.3 - 0.4j, 0.7
    state = apply_op(squeezed(g.tensor(g.vacuum(1), g.coherent(alpha)), 0, -r), Qnd(1, 2, 2.0))
    circuit = Circuit((1, 2), (Measure(1, "x", "m"),))
    want = g.coherent(alpha).mean + [2 * m, 0.0]
    for rest in (g.homodyne(state, 0, "x", outcome=m)[1], run(circuit, state, forced={"m": m}).state):
        np.testing.assert_allclose(rest.mean, want, rtol=1e-15, atol=0)
        np.testing.assert_allclose(rest.cov, np.eye(2) / 2, rtol=0, atol=1e-15)


def test_homodyne_last_mode_leaves_empty_state():
    record, rest = g.homodyne(g.coherent(1 + 0j), 0, "x", outcome=0.3)
    assert rest.n_modes == 0
    assert record.outcome == 0.3


# ---------------------------------------------------------------------------
# feedforward and discard
# ---------------------------------------------------------------------------


def fed_forward(state, target, quad, gain, outcome):
    """Measure x of a vacuum mode appended after ``state``, forced to ``outcome``,
    and feed it forward with ``gain`` to ``quad`` of mode ``target``."""
    n = state.n_modes
    circuit = Circuit(
        tuple(range(1, n + 2)),
        (Measure(n + 1, "x", "m"), FeedforwardDisplace("m", target + 1, quad, gain)),
    )
    return run(circuit, g.tensor(state, g.vacuum(1)), forced={"m": outcome}).state


def test_feedforward_zero_gain_is_identity():
    state = g.vacuum(1)
    out = fed_forward(state, 0, "x", 0.0, 2.5)
    np.testing.assert_array_equal(out.mean, state.mean)
    np.testing.assert_array_equal(out.cov, state.cov)


def test_feedforward_unit_gain_adds_the_outcome():
    out = fed_forward(g.vacuum(2), 1, "x", 1.0, -1.25)
    assert out.mean[1] == pytest.approx(-1.25)
    assert out.mean[3] == 0.0


def test_feedforward_accepts_irrational_gains():
    gain = -5 * SQRT2 / 2
    out = fed_forward(g.vacuum(1), 0, "p", gain, 2.0)
    assert out.mean[1] == pytest.approx(2.0 * gain)
    np.testing.assert_array_equal(out.cov, g.vacuum(1).cov)


def test_discard_nothing_is_identity(rng):
    state = random_gaussian_state(rng, 2)
    out = g.discard(state, [])
    np.testing.assert_array_equal(out.mean, state.mean)
    np.testing.assert_array_equal(out.cov, state.cov)


def test_discard_product_factor_is_exact():
    keep = g.coherent(0.5 - 0.5j)
    state = g.tensor(squeezed(g.vacuum(1), 0, 1.0), keep)
    out = g.discard(state, [0])
    np.testing.assert_array_equal(out.mean, keep.mean)
    np.testing.assert_array_equal(out.cov, keep.cov)


def test_discard_drops_the_factor_columns_the_kept_modes_do_not_touch():
    # each round appends a vacuum mode's two columns and discards the old
    # mode; without pruning the factor would be 2 x 22 after ten rounds
    pruned = unpruned = g.vacuum(1)
    for _ in range(10):
        pruned = g.discard(g.tensor(pruned, g.vacuum(1)), [0])
        joint = g.tensor(unpruned, g.vacuum(1))
        unpruned = g.GaussianState._of(joint.mean[[1, 3]], joint.factor[[1, 3]])
    assert pruned.factor.shape == (2, 2)
    assert unpruned.factor.shape == (2, 22)
    np.testing.assert_allclose(pruned.cov, unpruned.cov, rtol=1e-15, atol=1e-15)
    np.testing.assert_array_equal(pruned.mean, unpruned.mean)


def test_discard_tmsv_arm_leaves_thermal_state():
    r = 0.9
    state = apply_op(g.vacuum(2), TwoModeSqueeze(1, 2, r))
    out = g.discard(state, [1])
    want = 0.5 * math.cosh(2 * r)
    assert out.cov[0, 0] == pytest.approx(want, rel=1e-12)
    assert out.cov[1, 1] == pytest.approx(want, rel=1e-12)
    assert out.cov[0, 1] == pytest.approx(0.0, abs=1e-14)


def test_discard_all_modes_rejected():
    with pytest.raises(ValueError):
        g.discard(g.vacuum(2), [0, 1])


def test_discard_of_scattered_modes_matches_hand_built_indices(rng):
    state = random_gaussian_state(rng, 12)
    out = g.discard(state, {0, 5, 11})
    rows = [1, 2, 3, 4, 6, 7, 8, 9, 10, 13, 14, 15, 16, 18, 19, 20, 21, 22]
    # the kept rows' factor columns that are not all zero: four of the 24 are
    columns = [j for j in range(24) if any(state.factor[i][j] != 0 for i in rows)]
    assert len(columns) == 20
    assert np.array_equal(out.mean, [state.mean[i] for i in rows])
    assert np.array_equal(out.factor, [[state.factor[i][j] for j in columns] for i in rows])
    np.testing.assert_allclose(out.cov, state.cov[np.ix_(rows, rows)], rtol=1e-15, atol=1e-15)


def test_tensor_of_wide_factors_matches_hand_built_indices(rng):
    one_mode = apply_op(squeezed(g.coherent(0.3 - 1.1j), 0, 0.4), PhaseShift(1, 0.7))
    factors = [one_mode, random_gaussian_state(rng, 3), random_gaussian_state(rng, 2)]
    joint = g.tensor(*factors)
    # rows of each factor inside the 6-mode product, x block then p block,
    # each over its own columns of the joint factor
    placement = [[0, 6], [1, 2, 3, 7, 8, 9], [4, 5, 10, 11]]
    columns = [range(0, 2), range(2, 8), range(8, 12)]
    mean = np.zeros(12)
    factor = np.zeros((12, 12))
    cov = np.zeros((12, 12))
    for state, rows, cols in zip(factors, placement, columns):
        for i, ri in enumerate(rows):
            mean[ri] = state.mean[i]
            for j, cj in enumerate(cols):
                factor[ri, cj] = state.factor[i, j]
            for j, rj in enumerate(rows):
                cov[ri, rj] = state.cov[i, j]
    assert np.array_equal(joint.mean, mean)
    assert np.array_equal(joint.factor, factor)
    np.testing.assert_allclose(joint.cov, cov, rtol=1e-15, atol=1e-15)


# ---------------------------------------------------------------------------
# fidelity against a coherent target
# ---------------------------------------------------------------------------


def test_fidelity_of_coherent_with_itself_is_one():
    assert g.fidelity_with_coherent(g.coherent(1.2 - 0.3j), 1.2 - 0.3j) == pytest.approx(1.0)
    assert g.fidelity_with_coherent(g.vacuum(1), 0j) == pytest.approx(1.0)


@given(re=finite_floats, im=finite_floats)
@settings(max_examples=40)
def test_fidelity_between_coherent_states_is_the_overlap(re, im):
    alpha = complex(re, im)
    got = g.fidelity_with_coherent(g.coherent(alpha), 0j)
    assert got == pytest.approx(math.exp(-abs(alpha) ** 2), rel=1e-10, abs=1e-300)


def test_fidelity_squeezed_vacuum_against_vacuum():
    r = 0.5
    state = squeezed(g.vacuum(1), 0, r)
    assert g.fidelity_with_coherent(state, 0j) == pytest.approx(1 / math.cosh(r), rel=1e-12)


def test_fidelity_thermal_state_matches_wigner_integration():
    # frozen from the grid-integration oracle (diff < 1e-13 at 1201 points)
    r = 0.7
    cov = 0.5 * math.cosh(2 * r) * np.eye(2)
    state = g.GaussianState(np.zeros(2), cov)
    closed = g.fidelity_with_coherent(state, 0j)
    assert closed == pytest.approx(1 / math.cosh(r) ** 2, rel=1e-12)
    assert closed == pytest.approx(0.6347395899824586, rel=1e-12)
    grid = wigner_overlap_fidelity(state.mean, state.cov, 0j)
    assert abs(grid - closed) < 1e-9


def test_fidelity_of_displaced_thermal_matches_wigner_integration(rng):
    state = g.discard(apply_op(g.vacuum(2), TwoModeSqueeze(1, 2, 0.6)), [1])
    state = displaced(state, 0, 0.4 + 0.9j)
    for alpha in (0j, 1 + 0j, 0.4 + 0.9j, -1j):
        closed = g.fidelity_with_coherent(state, alpha)
        grid = wigner_overlap_fidelity(state.mean, state.cov, alpha)
        assert abs(grid - closed) < 1e-9


@given(re=finite_floats, im=finite_floats)
@settings(max_examples=30)
def test_fidelity_is_displacement_covariant(re, im):
    shift = complex(re, im)
    state = squeezed(g.vacuum(1), 0, 0.4)
    base = g.fidelity_with_coherent(state, 0.2 + 0.1j)
    moved = g.fidelity_with_coherent(displaced(state, 0, shift), 0.2 + 0.1j + shift)
    assert moved == pytest.approx(base, rel=1e-9)


def test_fidelity_requires_single_mode():
    with pytest.raises(ValueError):
        g.fidelity_with_coherent(g.vacuum(2), 0j)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, complex(1, math.inf)])
def test_fidelity_rejects_a_non_finite_amplitude(alpha):
    # the amplitude rule of coherent(): a NaN or infinite alpha raises
    # instead of returning nan
    with pytest.raises(ValueError, match="displacement amplitude must be finite"):
        g.fidelity_with_coherent(g.coherent(0), alpha)


NOT_POSITIVE_DEFINITE = [
    [[0.0, 1.0], [1.0, 0.0]],  # det(V + I/2) = -3/4
    [[-0.5, 0.0], [0.0, 1.0]],  # det(V + I/2) = 0
    [[0.0, 1e300], [1e300, 0.0]],  # det(V + I/2) = 1/4 - 1e600, past the float range
    [[np.inf, 0.0], [0.0, -1.0]],  # an infinite entry and a negative one
    [[np.inf, 0.0], [0.0, -0.5]],  # an infinite entry and a zero one: inf * 0 once gave nan
]


@pytest.mark.parametrize("cov", NOT_POSITIVE_DEFINITE)
def test_fidelity_rejects_a_covariance_with_det_v_plus_half_not_positive(cov):
    # no state holds such a V (GaussianState rejects it), so the closed form
    # is called on its entries
    (vxx, vxp), (_, vpp) = cov
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not positive definite"):
            g.coherent_fidelity(vxx, vxp, vpp, 0.0, 0.0)


@pytest.mark.parametrize("cov", NOT_POSITIVE_DEFINITE)
def test_fidelity_without_offsets_rejects_a_covariance_with_det_v_plus_half_not_positive(cov):
    (vxx, vxp), (_, vpp) = cov
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not positive definite"):
            g.coherent_fidelity(vxx, vxp, vpp)


def test_coherent_fidelity_without_offsets_is_zero_offsets_to_the_bit(rng):
    # zero offsets give exp(-0.0) = 1, so leaving them out moves no bit:
    # scalars, arrays broadcast against each other, and variances whose
    # det(V + I/2) is past the float range
    moments = [
        (0.5, 0.0, 0.5),
        (0.7, -0.1, 1.3),
        (np.float64(2.5), np.float64(0.3), np.float64(0.25)),
        (rng.uniform(0.0, 3.0, (4, 1)), rng.uniform(-0.1, 0.1, 5), rng.uniform(0.0, 3.0, (4, 5))),
        (1e160, 0.0, 1e160),
        (np.array([0.5, 1e160]), 0.0, np.array([0.5, 1e300])),
        (np.inf, 0.0, 0.5),
        (np.array([0.5, np.inf]), 0.1, np.array([np.inf, 0.5])),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for vxx, vxp, vpp in moments:
            without = g.coherent_fidelity(vxx, vxp, vpp)
            for zero in (0.0, np.zeros(np.broadcast(vxx, vxp, vpp).shape)):
                offset = g.coherent_fidelity(vxx, vxp, vpp, zero, zero)
                assert type(without) is type(offset) and np.shape(without) == np.shape(offset)
                assert np.asarray(without).tobytes() == np.asarray(offset).tobytes()


@pytest.mark.parametrize("offsets", [(0.0, 0.0), (1.0, 0.0), (0.0, -3.0), (1e200, 2.0)])
@pytest.mark.parametrize(
    "moments",
    [
        (np.inf, 0.0, 0.5),
        (0.5, -0.2, np.inf),
        (np.inf, 0.0, np.inf),
        (np.inf, 1e300, np.inf),
        (np.inf, 1e300, 1e301),
        (1e301, -1e300, np.inf),
    ],
)
def test_coherent_fidelity_of_an_infinite_variance_is_zero_with_any_offsets(moments, offsets):
    # the limit F = 1 / sqrt(det M) -> 0, which the form without offsets
    # gives; the exponent once took inf * 0 and returned nan with a warning,
    # and an infinite diagonal entry next to a huge off-diagonal one once
    # scaled M by 1/2 (frexp(inf) has exponent 0) and took inf - inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert g.coherent_fidelity(*moments) == 0.0
        assert g.coherent_fidelity(*moments, *offsets) == 0.0
        batched = g.coherent_fidelity(*(np.array([0.5, m]) for m in moments), *offsets)
    assert batched[1] == 0.0 and batched[0] == g.coherent_fidelity(0.5, 0.5, 0.5, *offsets)


def test_coherent_fidelity_broadcasts_entry_by_entry(rng):
    states = [
        displaced(apply_op(squeezed(g.vacuum(1), 0, r), PhaseShift(1, phi)), 0, complex(x, y))
        for r, phi, x, y in rng.uniform(-1.0, 1.0, size=(5, 4))
    ]
    alpha = 0.3 - 0.8j
    delta = np.array([s.mean for s in states]) - g.displacement(alpha.real, alpha.imag)
    covs = np.array([s.cov for s in states])
    batched = g.coherent_fidelity(covs[:, 0, 0], covs[:, 0, 1], covs[:, 1, 1], delta[:, 0], delta[:, 1])
    assert batched.tolist() == [g.fidelity_with_coherent(s, alpha) for s in states]


def test_fidelity_with_a_far_coherent_state_is_zero_without_overflow():
    # the offset is 2 sqrt(2) 1e154: its square overflows, the fidelity does not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert g.fidelity_with_coherent(g.coherent(1e154), -1e154) == 0.0
        assert g.fidelity_with_coherent(g.coherent(1e154j), -1e154j) == 0.0
        assert g.fidelity_with_coherent(g.coherent(1e154), 1e154) == 1.0


def test_fidelity_with_a_huge_covariance_is_finite_without_overflow():
    # det(V + I/2) is about 1e320, past the float range; F = 1 / sqrt(det) is not
    state = g.GaussianState(np.zeros(2), np.diag([1e160, 1e160]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert g.fidelity_with_coherent(state, 0) == 1 / 1e160
        assert g.fidelity_with_coherent(state, 1e3) == 1 / 1e160
        got = g.coherent_fidelity(np.array([0.5, 1e160]), 0.0, np.array([0.5, 1e300]), 0.0, 0.0)
    assert got[0] == 1.0
    assert got[1] == pytest.approx(1e-230, rel=1e-15)


def test_coherent_fidelity_of_an_array_with_a_huge_offset_is_entrywise():
    vxx, vxp, vpp = np.array([0.5, 0.7, 0.9]), np.array([0.0, 0.1, -0.2]), np.array([0.5, 0.6, 1.3])
    dx, dp = np.array([0.3, 3e154, -1e300]), np.array([-0.2, 1e154, 0.4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = g.coherent_fidelity(vxx, vxp, vpp, dx, dp)
    # the normal entry is bit-identical to its scalar closed form
    assert got[0] == np.exp(-0.5 * (0.3**2 + 0.2**2))
    assert got[1:].tolist() == [0.0, 0.0]
