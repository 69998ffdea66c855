"""Gaussian-elimination synthesis of QND/squeeze circuits from point matrices."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import nonzero_factors, small_gains

from cvrep.circuits import (
    BeamSplitterPM,
    Circuit,
    Discard,
    Displace,
    FeedforwardDisplace,
    Fourier,
    InverseFourier,
    Measure,
    PhaseShift,
    Pi,
    Qnd,
    SqueezeFactor,
    Swap,
    SynthesisError,
    TwoModeSqueeze,
    decoder_matrix,
    symplectic_of,
    synthesize,
)
from cvrep.circuits.synthesis import deviation


def x_block(circuit):
    n = len(circuit.labels)
    return symplectic_of(circuit).matrix[:n, :n]


def test_identity_synthesizes_to_an_empty_circuit():
    circuit = synthesize(np.eye(3))
    assert circuit.ops == ()
    assert circuit.labels == (1, 2, 3)


def test_reference_pivot_order_reproduces_the_classic_sequence():
    A2 = decoder_matrix("E2")
    circuit = synthesize(A2, (1, 4, 5), pivot_rows=(2, 1, 2))
    assert circuit.ops == (
        Qnd(4, 1, -1.0),
        Qnd(5, 4, -2.0),
        Qnd(1, 5, 1.0),
        SqueezeFactor(1, -1.0),
        Swap(1, 5),
    )
    np.testing.assert_array_equal(x_block(circuit), A2)


def test_dropping_the_trailing_swap_recovers_on_the_other_wire():
    # the same sequence without its final swap leaves the decoded
    # combination on wire 5 instead of wire 1
    A2 = decoder_matrix("E2")
    circuit = synthesize(A2, (1, 4, 5), pivot_rows=(2, 1, 2))
    prefix = circuit.with_ops(circuit.ops[:-1])
    swapped = A2.copy()
    swapped[[0, 2]] = swapped[[2, 0]]
    np.testing.assert_array_equal(x_block(prefix), swapped)


def test_default_pivots_also_hit_the_target_exactly():
    for tag in ("E2", "E3", "E4"):
        A = decoder_matrix(tag)
        circuit = synthesize(A)
        assert np.max(np.abs(x_block(circuit) - A)) <= 1e-12


def test_random_square_matrices_round_trip(rng):
    for trial in range(50):
        n = 4
        A = rng.integers(-3, 4, size=(n, n)).astype(float)
        while abs(np.linalg.det(A)) < 0.5:
            A = rng.integers(-3, 4, size=(n, n)).astype(float)
        circuit = synthesize(A)
        assert np.max(np.abs(x_block(circuit) - A)) <= 1e-9


def test_various_sizes_round_trip(rng):
    for n in (1, 2, 3, 5):
        A = rng.uniform(-2, 2, size=(n, n))
        while abs(np.linalg.det(A)) < 0.3:
            A = rng.uniform(-2, 2, size=(n, n))
        circuit = synthesize(A)
        assert np.max(np.abs(x_block(circuit) - A)) <= 1e-9


def test_custom_labels_appear_in_the_ops():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    circuit = synthesize(A, (7, 9))
    assert circuit.labels == (7, 9)
    assert all(
        wire in (7, 9)
        for op in circuit.ops
        for wire in (op.control, op.target)
        if isinstance(op, Qnd)
    )


def test_singular_matrix_is_rejected():
    with pytest.raises(SynthesisError):
        synthesize(np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_singularity_does_not_depend_on_scale():
    A = 0.01 * np.eye(10)  # rank 10, condition number 1, determinant 1e-20
    np.testing.assert_allclose(x_block(synthesize(A)), A, atol=1e-12)
    A = 1e-13 * np.eye(3)  # every entry below an absolute pivot cutoff of 1e-12
    np.testing.assert_allclose(x_block(synthesize(A)), A, rtol=1e-12, atol=0)
    # rows of different scales: once row 0 is divided by its pivot, its
    # 2**-20 is a ratio to that row, not small next to max|A| = 2**20
    A = np.array([[2.0**20, 1.0], [0.0, 1.0]])
    np.testing.assert_array_equal(x_block(synthesize(A)), A)
    with pytest.raises(SynthesisError):
        synthesize(1e3 * np.array([[1.0, 2.0], [2.0, 4.0]]))


def test_self_check_limit_is_relative_to_the_matrix_scale():
    # the rounding of a correct circuit grows with the entries: 6e-8 here
    A = 1e8 * np.array([[1.0, 2.0], [3.0, 1.0]])
    np.testing.assert_allclose(x_block(synthesize(A)), A, rtol=1e-12, atol=0)


def _unimodular(rng, n):
    """Integer matrix with determinant +-1: a product of unit triangles, rows permuted and signed."""

    def unit_triangle(lower):
        E = rng.choice([-1, 0, 1], size=(n, n), p=[0.15, 0.7, 0.15])
        return (np.tril(E, -1) if lower else np.triu(E, 1)) + np.eye(n, dtype=int)

    A = unit_triangle(True) @ unit_triangle(False)
    return (A[rng.permutation(n)] * rng.choice([-1, 1], size=n)[:, None]).astype(float)


def test_large_unimodular_matrix_passes_the_symplecticity_check():
    # The fold's partial products reach entries of several thousand, so
    # their S Omega S^T carries rounding well above an absolute 1e-10.
    A = _unimodular(np.random.default_rng(0), 40)
    assert np.abs(np.linalg.inv(A)).max() > 1e3
    np.testing.assert_allclose(x_block(synthesize(A)), A, atol=1e-10)


def test_malformed_inputs_are_rejected():
    with pytest.raises(ValueError):
        synthesize(np.ones((2, 3)))
    with pytest.raises(ValueError):
        synthesize(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        synthesize(np.eye(2), (1, 2, 3))


def test_empty_matrix_is_a_synthesis_error():
    # not NumPy's bare ValueError from a reduction over a zero-size array
    with pytest.raises(SynthesisError, match="empty"):
        synthesize(np.zeros((0, 0)))


def test_pivot_rows_are_validated():
    A = decoder_matrix("E2")
    with pytest.raises(SynthesisError):
        synthesize(A, pivot_rows=(0, 1))  # wrong length
    with pytest.raises(SynthesisError):
        synthesize(A, pivot_rows=(0, 0, 2))  # row above the diagonal step
    # a pivot position whose entry is zero cannot be used
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SynthesisError):
        synthesize(B, pivot_rows=(0, 1))


def test_rows_and_columns_of_different_scales_synthesize(rng):
    for _ in range(40):
        n = int(rng.integers(2, 6))
        while True:
            A = rng.integers(-3, 4, size=(n, n)).astype(float)
            if abs(np.linalg.det(A)) > 0.5:
                break
        A *= 2.0 ** rng.integers(-20, 21, size=(n, 1))
        A *= 2.0 ** rng.integers(-4, 5, size=(1, n))
        circuit = synthesize(A)
        np.testing.assert_allclose(x_block(circuit), A, rtol=0, atol=1e-10 * np.abs(A).max())


def test_triangular_matrices_need_no_swaps_or_squeezes(rng):
    A = np.eye(4)
    A[np.triu_indices(4, 1)] = rng.uniform(-2, 2, size=6)
    circuit = synthesize(A)
    assert all(isinstance(op, Qnd) for op in circuit.ops)
    np.testing.assert_allclose(x_block(circuit), A, atol=1e-12)


# ---------------------------------------------------------------------------
# deviation: the self-check folds only the x rows


def fold_deviation(circuit, A):
    return float(np.max(np.abs(x_block(circuit) - A)))


@st.composite
def position_circuits(draw):
    """QNDs, squeezes and swaps on 2-6 wires; QNDs come in runs sharing a control."""
    n = draw(st.integers(2, 6))
    wires = st.integers(1, n)
    ops = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["qnd run", "squeeze", "swap"]))
        if kind == "qnd run":
            control = draw(wires)
            others = st.integers(1, n - 1).map(lambda t: t + (t >= control))
            for target, gain in draw(st.lists(st.tuples(others, small_gains), min_size=1, max_size=5)):
                ops.append(Qnd(control, target, gain))
        elif kind == "squeeze":
            ops.append(SqueezeFactor(draw(wires), draw(nonzero_factors)))
        else:
            a, b = draw(st.lists(wires, min_size=2, max_size=2, unique=True))
            ops.append(Swap(a, b))
    return Circuit(tuple(range(1, n + 1)), tuple(ops))


@given(circuit=position_circuits(), seed=st.integers(0, 2**32 - 1))
@example(  # a run sharing a control, with a repeated target, then a run with another control
    circuit=Circuit((1, 2, 3), (Qnd(1, 2, 1.0), Qnd(1, 3, -0.5), Qnd(1, 2, 2.0), Qnd(2, 3, 0.25), Qnd(3, 1, 1.5))),
    seed=0,
)
@example(  # back-to-back runs, split by a squeeze and a swap
    circuit=Circuit(
        (1, 2, 3, 4),
        (Qnd(4, 1, 0.3), Qnd(4, 2, -1.7), SqueezeFactor(4, -2.5), Qnd(4, 3, 0.9), Swap(1, 4), Qnd(1, 2, 2.0), Qnd(1, 2, -0.1)),
    ),
    seed=1,
)
@settings(max_examples=120, deadline=None)
def test_deviation_equals_the_full_symplectic_fold_exactly(circuit, seed):
    n = circuit.n_modes
    A = np.random.default_rng(seed).normal(size=(n, n))
    assert deviation(circuit, A) == fold_deviation(circuit, A)
    assert deviation(circuit, x_block(circuit)) == 0.0


def test_deviation_applies_every_gain_of_a_repeated_target():
    circuit = Circuit((1, 2), (Qnd(1, 2, 1.0), Qnd(1, 2, 2.0)))
    assert deviation(circuit, [[1.0, 0.0], [3.0, 1.0]]) == 0.0


def test_deviation_matches_synthesized_circuits_exactly(rng):
    for n in (3, 8, 20):
        for A in (rng.normal(size=(n, n)), np.triu(rng.integers(-3, 4, size=(n, n)), 1) + np.eye(n)):
            circuit = synthesize(A)
            assert deviation(circuit, A) == fold_deviation(circuit, A)


def test_deviation_accepts_every_point_transform_op():
    # blocks of the form diag(M, M^-T): x -> M x with no momentum mixed in
    circuit = Circuit(
        (1, 2, 3),
        (BeamSplitterPM(1, 2), TwoModeSqueeze(2, 3, 0.4), Pi(3), PhaseShift(1, 0.0), Qnd(2, 1, 0.5)),
    )
    A = np.arange(9.0).reshape(3, 3)
    assert deviation(circuit, A) == fold_deviation(circuit, A)


@pytest.mark.parametrize(
    "ops, culprit",
    [
        ((PhaseShift(1, 0.3),), "PhaseShift"),
        ((Fourier(1),), "Fourier"),
        ((InverseFourier(2),), "InverseFourier"),
        ((Displace(1, 0.5 + 0.2j),), "Displace"),
        ((Measure(2, "x", "m"),), "Measure"),
        ((Discard(2),), "Discard"),
        # feedforward can only follow the measurement that writes its register
        ((Measure(2, "p", "m"), FeedforwardDisplace("m", 1, "x", 1.0)), "Measure"),
        # a mixing block between two QND runs is found after the fold
        ((Qnd(1, 2, 1.0), Fourier(2), Qnd(2, 1, 1.0)), "Fourier"),
    ],
)
def test_deviation_rejects_ops_that_do_not_map_positions_alone(ops, culprit):
    with pytest.raises(TypeError, match=f"^{culprit} does not map positions"):
        deviation(Circuit((1, 2), ops), np.eye(2))


@pytest.mark.parametrize("target", [[2.0, 0.0, 0.0], np.eye(2), np.eye(4), np.ones((3, 4)), 2.0])
def test_deviation_rejects_a_target_of_the_wrong_shape(target):
    with pytest.raises(ValueError, match="target must be 3x3"):
        deviation(synthesize(2 * np.eye(3)), target)
