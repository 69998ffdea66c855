"""Gaussian-elimination synthesis of QND/squeeze circuits from point matrices."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import OVERFLOWING_MATRICES, nonzero_factors, small_gains
from oracles import numpy_reduction_script, script_circuit

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
    serialize,
    symplectic_of,
    synthesize,
)
from cvrep.circuits.ir import OPS, _circuit, _columns, _serialize_columns
from cvrep.circuits import interpreter, synthesis
from cvrep.circuits.synthesis import _synthesize, deviation
from cvrep.tolerances import TOL


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
    # the pivot search finds column 1 empty once row 0 is eliminated
    with pytest.raises(SynthesisError, match="^matrix is singular: no pivot available in column 1$"):
        synthesize(np.array([[1.0, 2.0], [2.0, 4.0]]))


# Exactly invertible, with one row 2**-55 or 2**-60 the size of the other:
# a rank cutoff relative to the largest singular value calls them singular.
ROW_SCALED_INVERTIBLE = {
    "diag": np.diag([1.0, 2.0**-60]),
    "dense": np.array([[1.0, 2.0], [3.0, 4.0]]) * np.array([[1.0], [2.0**-55]]),
}


@pytest.mark.parametrize("name", ROW_SCALED_INVERTIBLE)
def test_invertibility_does_not_depend_on_row_scale(name):
    A = ROW_SCALED_INVERTIBLE[name]
    columns, err = _synthesize(A)
    assert err == 0.0
    np.testing.assert_array_equal(x_block(_circuit(columns)), A)


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


@pytest.mark.parametrize("A, column", OVERFLOWING_MATRICES.values(), ids=OVERFLOWING_MATRICES)
def test_an_elimination_that_leaves_float_range_is_a_synthesis_error(A, column):
    # these once raised a ZeroDivisionError, and the op constructors' ValueErrors
    # "squeeze factor must be finite and nonzero" and "qnd gain must be finite"
    message = f"^the elimination leaves float range in column {column}$"
    # an overflow inside a column update must not surface as a NumPy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SynthesisError, match=message):
            synthesize(np.array(A))


def test_a_deviation_that_is_not_a_number_fails_the_self_check(monkeypatch):
    # the self-check folds the elimination's columns; a fold that comes out
    # NaN must fail it, though NaN > limit is False
    monkeypatch.setattr(synthesis, "_fold_positions", lambda columns: np.full((len(columns.labels),) * 2, np.nan))
    with pytest.raises(SynthesisError, match="deviates from its target by nan"):
        synthesize(decoder_matrix("E2"))


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
# the elimination on float rows gives the NumPy elimination's script exactly

ORACLE_INPUTS = ("dense", "unimodular", "row-scaled", "banded, permuted", "pivot rows")


def oracle_input(kind, n, seed, octaves=20):
    """A nonsingular n x n matrix of one kind, and pivot rows (None: the default pivots).

    Row-scaled matrices scale each row by up to 2**octaves either way.  A
    banded matrix (two entries either side of the diagonal) with its rows
    permuted clears a contiguous range of rows in some columns and
    scattered rows in others, so both column updates meet in one circuit.
    """
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return rng.normal(size=(n, n)), None
    if kind == "banded, permuted":
        band = np.abs(np.subtract.outer(range(n), range(n))) <= 2
        return (rng.normal(size=(n, n)) * band)[rng.permutation(n)], None
    if kind == "unimodular":
        return _unimodular(rng, n), None
    if kind == "row-scaled":
        while True:
            A = rng.integers(-3, 4, size=(n, n)).astype(float)
            if abs(np.linalg.det(A)) > 0.5:
                break
        A *= 2.0 ** rng.integers(-octaves, octaves + 1, size=(n, 1))
        return A * 2.0 ** rng.integers(-4, 5, size=(1, n)), None
    # any row at or below the diagonal step: on a sparse unimodular matrix
    # some of them select a zero entry, on a dense one some are ill-conditioned
    A = _unimodular(rng, n) if seed % 2 else rng.normal(size=(n, n))
    return A, tuple(int(rng.integers(j, n)) for j in range(n))


def check_against_the_numpy_elimination(A, pivot_rows):
    """synthesize prints, and deviates by, exactly what the NumPy elimination's script gives."""
    try:
        script = numpy_reduction_script(A, pivot_rows)
    except ValueError as exc:
        with pytest.raises(SynthesisError, match=f"^{re.escape(str(exc))}$"):
            _synthesize(A, pivot_rows=pivot_rows)
        return
    expected = script_circuit(script, tuple(range(1, len(A) + 1)))
    err = deviation(expected, A)
    if err > TOL.synthesis * max(1.0, float(np.abs(A).max())):
        with pytest.raises(SynthesisError, match="deviates from its target"):
            _synthesize(A, pivot_rows=pivot_rows)
        return
    columns, got = _synthesize(A, pivot_rows=pivot_rows)
    circuit = _circuit(columns)
    assert _serialize_columns(columns) == serialize(circuit) == serialize(expected)
    assert circuit.ops == expected.ops
    assert got == err


@given(kind=st.sampled_from(ORACLE_INPUTS), n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_synthesis_reproduces_the_numpy_elimination_exactly(kind, n, seed):
    check_against_the_numpy_elimination(*oracle_input(kind, n, seed))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "kind, octaves, n",
    # at n = 40, rows up to 2**20 apart synthesize: their singular values
    # span about 1e15, which a rank test relative to the largest calls singular
    [
        pytest.param(kind, octaves, 40, id=f"{kind}-{octaves}")
        for kind, octaves in [
            ("dense", 0), ("unimodular", 0), ("row-scaled", 8), ("row-scaled", 20), ("banded, permuted", 0), ("pivot rows", 0)
        ]
    ]
    # past the benchmark's largest n, where each column clears up to 79 rows at once
    + [
        pytest.param(kind, octaves, 80, id=f"{kind}-{octaves}-n80")
        for kind, octaves in [("dense", 0), ("row-scaled", 8), ("banded, permuted", 0)]
    ],
)
def test_synthesis_reproduces_the_numpy_elimination_exactly_at_n40(kind, octaves, n, seed):
    check_against_the_numpy_elimination(*oracle_input(kind, n, seed, octaves))


def test_the_check_reads_qnd_blocks_from_the_op_table(monkeypatch):
    # The ops keep their gains; only the table's QND block flips the sign.
    # A check that read op.gain, or replayed the script, would still pass.
    spec = OPS[Qnd]
    honest = spec.block
    monkeypatch.setattr(spec, "block", lambda gain: honest(-np.asarray(gain, dtype=float)))
    for A in (decoder_matrix("E2"), np.random.default_rng(3).normal(size=(8, 8))):
        with pytest.raises(SynthesisError, match="deviates from its target"):
            synthesize(A)
    monkeypatch.undo()
    synthesize(decoder_matrix("E2"))


def test_every_fold_reads_the_other_gate_blocks_from_the_op_table(monkeypatch):
    # a dense matrix needs swaps and squeezes; with the table's swap block
    # made the identity, the circuit misses its target in every later fold
    A = np.random.default_rng(5).normal(size=(6, 6))
    circuit = synthesize(A)
    assert {type(op) for op in circuit.ops} == {Qnd, SqueezeFactor, Swap}
    monkeypatch.setattr(OPS[Swap], "block", lambda: np.eye(4))
    for _ in range(2):
        assert deviation(circuit, A) > 0.1
    monkeypatch.undo()
    assert deviation(circuit, A) <= TOL.synthesis


def test_a_fold_builds_one_block_stack_per_kind(monkeypatch):
    # each kind's block is called once per fold, on its ops' values in
    # circuit order, and the kinds come in order of first appearance
    built = []
    for cls in (Qnd, Swap, SqueezeFactor, PhaseShift):
        spec = OPS[cls]

        def block(*params, honest=spec.block, cls=cls):
            blocks = honest(*params)
            built.append((cls, tuple(map(repr, np.atleast_1d(*params).tolist())) if params else (), blocks))
            return blocks

        monkeypatch.setattr(spec, "block", block)
    ops = (
        Swap(1, 2), SqueezeFactor(1, 2.0), Swap(2, 3), SqueezeFactor(3, 2.0), Qnd(1, 3, 0.5),
        Swap(1, 3), SqueezeFactor(2, -0.5), PhaseShift(1, 0.0), PhaseShift(2, -0.0), Qnd(2, 1, -1.5),
    )
    circuit = Circuit((1, 2, 3), ops)
    target = x_block(circuit)
    for _ in range(2):  # the stacks last one fold
        built.clear()
        assert deviation(circuit, target) == 0.0
        assert [(cls, params) for cls, params, _ in built] == [
            (Swap, ()),
            (SqueezeFactor, ("2.0", "2.0", "-0.5")),
            (Qnd, ("0.5", "-1.5")),
            (PhaseShift, ("0.0", "-0.0")),
        ]
        # -0.0 and 0.0 are equal, but their blocks differ in the sign of a zero
        phases = built[-1][2]
        assert phases.shape == (2, 2, 2) and phases[0].tobytes() != phases[1].tobytes()


def test_a_mixing_qnd_is_named_in_circuit_order_too(monkeypatch):
    honest = OPS[Qnd].block

    def mixing(gain):
        blocks = honest(gain)
        blocks[..., 0, 2] = 1.0  # x_c picks up p_c
        return blocks

    monkeypatch.setattr(OPS[Qnd], "block", mixing)
    for ops, culprit in [((Fourier(1), Qnd(1, 2, 1.0)), "Fourier"), ((Qnd(1, 2, 1.0), Fourier(1)), "Qnd")]:
        with pytest.raises(TypeError, match=f"^{culprit} does not map positions"):
            deviation(Circuit((1, 2), ops), np.eye(2))


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
@example(  # runs whose targets are contiguous rows, ascending then descending, then scattered
    circuit=Circuit(
        (1, 2, 3, 4, 5),
        (Qnd(1, 2, 0.7), Qnd(1, 3, -1.3), Qnd(1, 4, 2.1), Qnd(5, 4, 0.4), Qnd(5, 3, -2.2), Qnd(5, 2, 1.1),
         Qnd(3, 5, 0.9), Qnd(3, 1, -0.6), Qnd(3, 4, 1.7)),
    ),
    seed=2,
)
@example(  # contiguous runs of one control, split by a squeeze and a swap
    circuit=Circuit(
        (1, 2, 3, 4),
        (Qnd(4, 3, 1.9), Qnd(4, 2, -0.8), Qnd(4, 1, 0.35), SqueezeFactor(2, 1.5), Qnd(4, 1, -1.2), Qnd(4, 2, 2.6),
         Swap(2, 4), Qnd(2, 3, 0.45), Qnd(2, 4, -2.9)),
    ),
    seed=3,
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


def per_op_fold(circuit):
    """x -> X x of a position-only circuit, one op at a time from its table block."""
    index = {label: i for i, label in enumerate(circuit.labels)}
    X = np.eye(circuit.n_modes)
    for op in circuit.ops:
        spec = OPS[type(op)]
        modes = [index[w] for w in spec.wires(op)]
        x = spec.block(*spec.params(op))[: len(modes), : len(modes)]
        if type(op) is Qnd:  # x_t += gain * x_c: a product and a sum, each rounded once
            X[modes[1]] = X[modes[1]] + x[1, 0] * X[modes[0]]
        else:
            X[modes] = x @ X[modes]
    return X


def _mixing_prefix(labels, rng):
    """QNDs from each wire to every other in a shuffled order, so every row is dense."""
    return [Qnd(c, t, rng.normal()) for c in labels for t in rng.permutation(labels) if t != c]


# each run of QNDs on six wires; the runs' target rows are positions in labels
RUN_SHAPES = {
    "ascending": lambda g: [Qnd(1, 2, g()), Qnd(1, 3, g()), Qnd(1, 4, g()), Qnd(1, 5, g())],
    "descending": lambda g: [Qnd(6, 5, g()), Qnd(6, 4, g()), Qnd(6, 3, g())],
    "scattered": lambda g: [Qnd(2, 5, g()), Qnd(2, 1, g()), Qnd(2, 6, g())],
    "a range out of order": lambda g: [Qnd(1, 2, g()), Qnd(1, 4, g()), Qnd(1, 3, g()), Qnd(1, 5, g())],
    "one gap": lambda g: [Qnd(3, 1, g()), Qnd(3, 2, g()), Qnd(3, 4, g())],
    "repeated target": lambda g: [Qnd(3, 1, g()), Qnd(3, 2, g()), Qnd(3, 1, g())],
    "single": lambda g: [Qnd(4, 6, g())],
    "squeeze and swap between runs": lambda g: [
        Qnd(1, 2, g()), Qnd(1, 3, g()), SqueezeFactor(1, -2.5), Qnd(1, 4, g()), Qnd(1, 5, g()),
        Swap(1, 6), Qnd(1, 5, g()), Qnd(1, 4, g()), SqueezeFactor(3, 0.3), Qnd(1, 2, g()),
    ],
}


@pytest.mark.parametrize("labels", [(1, 2, 3, 4, 5, 6), (6, 1, 5, 2, 4, 3)], ids=["in order", "shuffled labels"])
@pytest.mark.parametrize("shape", RUN_SHAPES)
def test_the_position_fold_is_the_per_op_fold_bit_for_bit(shape, labels):
    rng = np.random.default_rng(len(shape))
    ops = RUN_SHAPES[shape](rng.normal)
    for circuit in (Circuit(labels, ops), Circuit(labels, _mixing_prefix(labels, rng) + ops)):
        folded = interpreter._fold_positions(_columns(circuit))
        assert np.array_equal(folded, per_op_fold(circuit))


def test_deviation_takes_a_squeeze_whose_inverse_leaves_float_range():
    # only the x part is applied; the p part's 1/factor overflows to inf, with no warning
    circuit = Circuit((1, 2), (SqueezeFactor(1, 1e-310), Qnd(1, 2, 2.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert deviation(circuit, [[1e-310, 0.0], [2e-310, 1.0]]) == 0.0


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
        # a mixing block between two QND runs
        ((Qnd(1, 2, 1.0), Fourier(2), Qnd(2, 1, 1.0)), "Fourier"),
        # the first op that does not map positions alone, in circuit order,
        # whether it mixes x and p or has a shift or no block
        ((Qnd(1, 2, 1.0), PhaseShift(2, 0.3), Fourier(1), Displace(1, 0.5)), "PhaseShift"),
        ((Swap(1, 2), Fourier(1), Discard(2)), "Fourier"),
        ((SqueezeFactor(1, 2.0), Displace(2, 0.5), InverseFourier(1)), "Displace"),
        # a kind whose first op maps positions alone and a later one mixes
        ((PhaseShift(1, 0.0), Fourier(2), PhaseShift(1, 0.3)), "Fourier"),
        ((PhaseShift(1, 0.0), PhaseShift(2, 0.3), Fourier(1)), "PhaseShift"),
        ((PhaseShift(1, -0.0), Qnd(1, 2, 1.0), Measure(2, "x", "m"), PhaseShift(1, 0.3)), "Measure"),
    ],
)
def test_deviation_rejects_ops_that_do_not_map_positions_alone(ops, culprit):
    with pytest.raises(TypeError, match=f"^{culprit} does not map positions"):
        deviation(Circuit((1, 2), ops), np.eye(2))


@pytest.mark.parametrize("target", [[2.0, 0.0, 0.0], np.eye(2), np.eye(4), np.ones((3, 4)), 2.0])
def test_deviation_rejects_a_target_of_the_wrong_shape(target):
    with pytest.raises(ValueError, match="target must be 3x3"):
        deviation(synthesize(2 * np.eye(3)), target)
